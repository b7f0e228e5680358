"""Construction and inversion of the symmetries."""

import random
from fractions import Fraction

import pytest

import field_reference as fref
from hecke3.errors import (
    DimensionMismatch,
    InputError,
    InvalidConstraint,
    NoHeckeParameter,
    NotHeckeSym0,
    SingularDeformation,
    SingularMatrix,
    ZeroQ,
)
from hecke3.fields import GF, QQ
from hecke3.linalg import Matrix
from hecke3.multilinear import (
    alt2_basis,
    change_of_basis,
    idx2,
    is_alt2,
    pair_vt,
    random_invertible,
    std_basis,
    tensor2,
    vol,
    wedge2,
)
from hecke3.heckecore import (
    FOperator,
    HeckeData,
    HeckeSymmetry,
    build_R,
    build_Y_from_F,
    conjugate,
    conjugate_data,
    deform,
    discriminant,
    extract_F,
    extract_q,
    flip_matrix,
    skewsymmetrizer_matrix,
    solve_q,
    symmetric_form,
    t_operator_of_F,
)
from hecke3.classify import TYPE_LABELS, canonical
from hecke3.verifier import run_suite, sample_strategy_a, sample_strategy_b

E1, E2, E3 = std_basis(QQ)
Fr = Fraction


def family_gram(q, corner=1):
    s = (QQ.of(q) - 1) / 2
    return symmetric_form(QQ, [[0, s, 0], [s, 0, 0], [0, 0, corner]])


def pairing_coeffs(Y, x, y):
    """The linear form z |-> trivector_coeff(x ^ Y(y z)), as a coefficient triple."""
    return [pair_vt(x, Y.apply(tensor2(y, z))) for z in std_basis(QQ)]


def plane_form(x, y):
    """The linear form z |-> vol(x, y, z), as a coefficient triple."""
    return [vol(x, y, z) for z in std_basis(QQ)]


def t_of(a, b, g):
    """T of the invariant operator F = g (x) a^b."""
    return t_operator_of_F(FOperator(g, wedge2(a, b)))


class TestTOperator:
    def test_eigenvectors_of_q_family(self):
        q = Fr(3)
        T = t_of(E1, E2, family_gram(q))
        s = (q - 1) / 2
        assert T.apply(E1) == [s * c for c in E1]
        assert T.apply(E2) == [-s * c for c in E2]
        assert T.apply(E3) == [Fr(0)] * 3

    def test_equal_vectors_give_zero(self):
        g = symmetric_form(QQ, [[1, 2, 0], [2, 0, 1], [0, 1, 5]])
        assert t_of(E1, E1, g).is_zero()

    def test_zero_form_gives_zero(self):
        assert t_of(E1, E2, Matrix.zeros(QQ, 3)).is_zero()

    def test_trace_and_antisymmetry(self):
        rng = random.Random(11)
        for _ in range(25):
            a = [Fr(rng.randint(-3, 3)) for _ in range(3)]
            b = [Fr(rng.randint(-3, 3)) for _ in range(3)]
            entries = [[Fr(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            for i in range(3):
                for j in range(i):
                    entries[i][j] = entries[j][i]
            g = symmetric_form(QQ, entries)
            T = t_of(a, b, g)
            assert fref.trace(T) == 0
            e = std_basis(QQ)
            for i in range(3):
                for j in range(3):
                    assert fref.g_value(g, e[i], T.apply(e[j])) == -fref.g_value(
                        g, T.apply(e[i]), e[j]
                    )

    def test_second_characteristic_coefficient_is_discriminant(self):
        # sum of principal 2x2 minors of T equals the Gram determinant on (a, b)
        rng = random.Random(13)
        for _ in range(25):
            a = [Fr(rng.randint(-3, 3)) for _ in range(3)]
            b = [Fr(rng.randint(-3, 3)) for _ in range(3)]
            entries = [[Fr(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            for i in range(3):
                for j in range(i):
                    entries[i][j] = entries[j][i]
            g = symmetric_form(QQ, entries)
            m = t_of(a, b, g).rows
            c2 = sum(
                m[i][i] * m[j][j] - m[i][j] * m[j][i]
                for i in range(3)
                for j in range(i + 1, 3)
            )
            assert c2 == discriminant(a, b, g)


def reference_skewsymmetrizer(q, a, b, g):
    """Y(x y) = g(x,y) a^b + x ^ Ty + y ^ Tx + (q+1)/2 x^y with T v = g(b,v) a - g(a,v) b.

    The loop over basis pairs that assembled Y before the pairing-coordinate
    formula, kept as the reference.
    """
    fld = g.field
    e = std_basis(fld)

    def T(v):
        return [fref.g_value(g, b, v) * x - fref.g_value(g, a, v) * y for x, y in zip(a, b)]

    ab = wedge2(a, b)
    half = (q + 1) / 2
    cols = []
    for i in range(3):
        for j in range(3):
            col = [g.rows[i][j] * c for c in ab]
            for pos, val in enumerate(wedge2(e[i], T(e[j]))):
                col[pos] = col[pos] + val
            for pos, val in enumerate(wedge2(e[j], T(e[i]))):
                col[pos] = col[pos] + val
            for pos, val in enumerate(wedge2(e[i], e[j])):
                col[pos] = col[pos] + half * val
            cols.append(col)
    return Matrix.from_columns(fld, cols)


def random_quadruples(field, rng, n=200):
    """n arbitrary (q, a, b, g), g symmetric; q ignores the constraint.

    Every fifth pair has a^b = 0 and every seventh form is zero.
    """
    def scalar():
        if field.characteristic == 0:
            return field.of(Fr(rng.randint(-5, 5), rng.randint(1, 3)))
        return field.of(rng.randrange(field.characteristic))

    for trial in range(n):
        q = scalar()
        a = [scalar() for _ in range(3)]
        b = [scalar() * x for x in a] if trial % 5 == 0 else [scalar() for _ in range(3)]
        entries = [[scalar() for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i):
                entries[i][j] = entries[j][i]
        g = Matrix.zeros(field, 3) if trial % 7 == 0 else Matrix(field, entries)
        yield q, a, b, g


@pytest.mark.parametrize("field", [QQ, GF(7), GF(1_000_003)], ids=["Q", "Fp7", "Fp1000003"])
class TestPairingCoordinateFormulas:
    def test_skewsymmetrizer_equals_the_T_loop(self, field):
        for q, a, b, g in random_quadruples(field, random.Random(31)):
            assert skewsymmetrizer_matrix(q, g, wedge2(a, b)) == \
                reference_skewsymmetrizer(q, a, b, g), (q, a, b, g.rows)

    def test_discriminant_equals_the_gram_determinant(self, field):
        for _, a, b, g in random_quadruples(field, random.Random(37)):
            gram = fref.g_value(g, a, a) * fref.g_value(g, b, b) - fref.g_value(g, a, b) ** 2
            assert discriminant(a, b, g) == gram
            assert FOperator(g, wedge2(a, b)).delta() == gram


def moved_samples(field, rng):
    """Strategy-A and -B quadruples, then the eight canonical types moved by random bases."""
    for _ in range(12):
        yield sample_strategy_a(field, rng)
        yield sample_strategy_b(field, rng)
    for label in TYPE_LABELS:
        q = 2 if label in ("Type1", "Type2") else None
        yield conjugate_data(canonical(label, q, field), random_invertible(field, rng))


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7)], ids=["Q", "Fp3", "Fp7"])
def test_delta_matches_the_bordered_determinant(field):
    """-tr(T^2)/2 against the bordered determinant, on the quadruple and on the extracted F."""
    for data in moved_samples(field, random.Random(41)):
        t = wedge2(data.a, data.b)
        assert discriminant(data.a, data.b, data.g) == fref.gram_determinant(data.g, t)
        f_op = extract_F(build_R(data))
        assert f_op.delta() == fref.gram_determinant(f_op.g, f_op.t), data


class TestDiscriminantAndSolveQ:
    def test_isotropic_pair(self):
        q = Fr(5)
        assert discriminant(E1, E2, family_gram(q)) == -((q - 1) ** 2) / 4

    def test_zero_form(self):
        assert discriminant(E1, E2, Matrix.zeros(QQ, 3)) == 0

    def test_identity_form(self):
        g = symmetric_form(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert discriminant(E1, E2, g) == 1

    def test_two_roots(self):
        g = symmetric_form(QQ, [[1, 0, 0], [0, -1, 0], [0, 0, 0]])
        assert discriminant(E1, E2, g) == -1
        assert solve_q(E1, E2, g) == [QQ.of(-1), QQ.of(3)]

    def test_double_root(self):
        assert solve_q(E1, E2, Matrix.zeros(QQ, 3)) == [QQ.one()]

    def test_zero_root_excluded(self):
        g = symmetric_form(QQ, [[0, "1/2", 0], ["1/2", 0, 0], [0, 0, 0]])
        assert discriminant(E1, E2, g) == Fr(-1, 4)
        assert solve_q(E1, E2, g) == [QQ.of(2)]

    def test_no_root(self):
        g = symmetric_form(QQ, [[0, 0, 0], [0, 0, 0], [0, 0, 2]])
        gg = symmetric_form(QQ, [[2, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert solve_q(E1, E2, gg) == []
        assert solve_q(E1, E2, g) == [QQ.one()]


class TestHeckeDataValidation:
    def test_zero_q(self):
        with pytest.raises(ZeroQ):
            HeckeData(QQ.zero(), E1, E2, family_gram(Fr(0), corner=0))

    def test_constraint_violation(self):
        with pytest.raises(InvalidConstraint):
            HeckeData(QQ.of(2), E1, E2, Matrix.zeros(QQ, 3))

    def test_asymmetric_form(self):
        g = Matrix.from_rows(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(InputError):
            HeckeData(QQ.one(), E1, E2, g)

    @pytest.mark.parametrize("rows", [[[0, 0], [0, 0]], [[0, 1, 0], [1, 0, 0]]],
                             ids=["2x2", "2x3"])
    def test_form_of_the_wrong_shape(self, rows):
        """The degree-1 shape rule; it used to be InputError("bilinear form must be 3x3")."""
        want = f"^a degree-1 operator must be 3x3, got {len(rows)}x{len(rows[0])}$"
        with pytest.raises(DimensionMismatch, match=want):
            HeckeData(QQ.one(), E1, E2, Matrix.from_rows(QQ, rows))

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    def test_int_q_is_a_field_scalar(self, field):
        """An int q is read in g's field, so R has only field entries."""
        g = Matrix.from_rows(field, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        e1, e2, _ = std_basis(field)
        data = HeckeData(3, e1, e2, g)
        assert data.q == field.of(3) and type(data.q) is type(field.one())
        R = build_R(data).R
        assert {type(x) for row in R.rows for x in row} == {type(field.one())}
        assert R == build_R(HeckeData(field.of(3), e1, e2, g)).R


class TestBuildY:
    def test_zero_form_gives_classical_skewsymmetrizer(self):
        d = HeckeData(QQ.one(), E1, E2, Matrix.zeros(QQ, 3))
        Y = build_R(d).Y
        for i in range(3):
            for j in range(3):
                assert Y.col(idx2(i, j)) == wedge2(std_basis(QQ)[i], std_basis(QQ)[j])

    def test_first_family_value(self):
        q = Fr(2)
        sym = build_R(HeckeData(q, E1, E2, family_gram(q)))
        col = sym.R.col(idx2(1, 0))
        expected = [QQ.zero()] * 9
        expected[idx2(0, 1)] = q
        assert col == expected

    def test_frozen_third_type_skewsymmetrizer(self):
        """Y = Id - R with R taken from the published value table."""
        d = canonical("Type3")
        Y = build_R(d).Y
        e = std_basis(QQ)
        w12 = wedge2(e[0], e[1])
        w13 = wedge2(e[0], e[2])
        w23 = wedge2(e[1], e[2])
        expected_cols = {
            (0, 0): [-c for c in w12],
            (0, 1): w12,
            (0, 2): [a + b for a, b in zip(w13, w23)],
            (1, 0): [-c for c in w12],
            (1, 1): [QQ.zero()] * 9,
            (1, 2): w23,
            (2, 0): [b - a for a, b in zip(w13, w23)],
            (2, 1): [-c for c in w23],
            (2, 2): [-2 * c for c in w13],
        }
        for (i, j), col in expected_cols.items():
            assert Y.col(idx2(i, j)) == col, (i, j)

    def test_image_and_eigenvalue(self):
        q = Fr(3)
        Y = build_R(HeckeData(q, E1, E2, family_gram(q))).Y
        for j in range(9):
            assert is_alt2(Y.col(j))
        assert Y.rank() == 3
        for w in alt2_basis():
            assert Y.apply(w) == [(q + 1) * c for c in w]


class TestBuildR:
    def test_zero_form_gives_flip(self):
        d = HeckeData(QQ.one(), E1, E2, Matrix.zeros(QQ, 3))
        assert build_R(d).R == flip_matrix(QQ)

    def test_collinear_pair_gives_flip(self):
        g = symmetric_form(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        d = HeckeData(QQ.one(), E1, E1, g)  # bivector vanishes
        assert build_R(d).R == flip_matrix(QQ)

    def test_third_type_square_value(self):
        sym = build_R(canonical("Type3"))
        col = sym.R.col(idx2(2, 2))
        expected = [QQ.zero()] * 9
        expected[idx2(2, 2)] = Fr(1)
        expected[idx2(0, 2)] = Fr(2)
        expected[idx2(2, 0)] = Fr(-2)
        assert col == expected

    def test_rank_of_skewsymmetrizer(self):
        rng = random.Random(17)

        for _ in range(5):
            sym = build_R(sample_strategy_a(QQ, rng))
            assert sym.Y.rank() == 3


class TestPairingForm:
    def test_quadratic_diagonal_factors_through_plane_form(self):
        q = Fr(3)
        g = family_gram(q)
        sym = build_R(HeckeData(q, E1, E2, g))
        ab_form = plane_form(E1, E2)
        rng = random.Random(23)
        for _ in range(20):
            x = [Fr(rng.randint(-4, 4)) for _ in range(3)]
            got = pairing_coeffs(sym.Y, x, x)
            want = [fref.g_value(g, x, x) * c for c in ab_form]
            assert got == want

    def test_zero_vector(self):
        sym = build_R(canonical("Type4"))
        assert pairing_coeffs(sym.Y, [QQ.zero()] * 3, E2) == [QQ.zero()] * 3

    def test_first_family_diagonal_value(self):
        q = Fr(2)
        sym = build_R(HeckeData(q, E1, E2, family_gram(q)))
        assert pairing_coeffs(sym.Y, E3, E3) == plane_form(E1, E2)


class TestExtractQ:
    def test_flip(self):
        assert extract_q(flip_matrix(QQ)) == 1

    def test_roundtrip(self):
        q = Fr(3)
        sym = build_R(HeckeData(q, E1, E2, family_gram(q)))
        assert extract_q(sym.R) == q

    def test_scaled_flip_has_no_parameter(self):
        with pytest.raises(NoHeckeParameter):
            extract_q(flip_matrix(QQ).scale(QQ.of(2)))

    def test_minus_identity_ambiguous(self):
        with pytest.raises(NoHeckeParameter):
            extract_q(Matrix.identity(QQ, 9).scale(QQ.of(-1)))


class TestExtractF:
    def test_flip_gives_zero(self):
        f_op = extract_F(build_R(canonical("Type8")))
        assert f_op.is_zero()

    def test_first_family_roundtrip(self):
        q = Fr(2)
        g = family_gram(q)
        sym = build_R(HeckeData(q, E1, E2, g))
        f_op = extract_F(sym)
        assert f_op.g == g
        assert f_op.t == wedge2(E1, E2)
        assert f_op.delta() == discriminant(E1, E2, g)

    def test_normalization_of_scaled_data(self):
        # the quadruple (q, 2a, b, g/2) builds the same symmetry; the
        # extracted pair is pinned by the leading-1 bivector convention
        q = Fr(2)
        g = family_gram(q)
        a2 = [2 * c for c in E1]
        g2 = g.scale(Fr(1, 2))
        sym = build_R(HeckeData(q, a2, E2, g2))
        f_op = extract_F(sym)
        assert f_op.t == wedge2(E1, E2)
        assert f_op.g == g

    def test_equivariance(self):
        rng = random.Random(31)
        sym = build_R(canonical("Type1", Fr(3)))
        fmat = extract_F(sym).matrix()
        for _ in range(50):
            P = random_invertible(QQ, rng)
            moved = conjugate(sym, P)
            k = P.kron(P)
            expected = k * fmat * P.inverse().kron(P.inverse())
            assert extract_F(moved).matrix() == expected

    def test_symmetry_of_f_columns(self):
        sym = build_R(canonical("Type6"))
        f_op = extract_F(sym)
        for i in range(3):
            for j in range(3):
                assert f_op.matrix().col(idx2(i, j)) == f_op.matrix().col(idx2(j, i))


class TestBuildYFromF:
    def test_zero_operator_at_q_one(self):
        Y = build_Y_from_F(QQ.one(), FOperator(Matrix.zeros(QQ, 3), [QQ.zero()] * 9))
        assert Y == build_R(HeckeData(QQ.one(), E1, E2, Matrix.zeros(QQ, 3))).Y

    def test_roundtrip_second_type(self):
        q = Fr(3)
        d = canonical("Type2", q)
        sym = build_R(d)
        assert build_Y_from_F(q, extract_F(sym)) == sym.Y

    def test_roundtrip_fifth_type(self):
        d = canonical("Type5")
        sym = build_R(d)
        assert build_Y_from_F(QQ.one(), extract_F(sym)) == sym.Y

    def test_constraint_checked(self):
        sym = build_R(canonical("Type1", Fr(3)))
        f_op = extract_F(sym)
        with pytest.raises(InvalidConstraint):
            build_Y_from_F(QQ.of(2), f_op)

    def test_roundtrip_random(self):

        rng = random.Random(41)
        for sampler in (sample_strategy_a, sample_strategy_b):
            for _ in range(25):
                d = sampler(QQ, rng)
                sym = build_R(d)
                assert build_Y_from_F(sym.q, extract_F(sym)) == sym.Y
                assert extract_q(sym.R) == sym.q


class TestFromMatrix:
    def test_accepts_flip(self):
        sym = HeckeSymmetry.from_matrix(flip_matrix(QQ))
        assert sym.q == 1

    def test_rejects_scaled_flip(self):
        with pytest.raises(NotHeckeSym0):
            HeckeSymmetry.from_matrix(flip_matrix(QQ).scale(QQ.of(2)))

    def test_rejects_identity(self):
        # quadratic relation holds with q = 1 but the image collapses
        with pytest.raises(NotHeckeSym0):
            HeckeSymmetry.from_matrix(Matrix.identity(QQ, 9))

    def test_wrong_claimed_q(self):
        with pytest.raises(NotHeckeSym0):
            HeckeSymmetry.from_matrix(flip_matrix(QQ), q=QQ.of(2))

    def test_rejects_non_alternating_image(self):
        # R = Id - 2E, E the projection onto e1 e1: quadratic relation at q = 1
        rows = Matrix.identity(QQ, 9).rows
        rows[0][0] = QQ.of(-1)
        R = Matrix(QQ, rows)
        with pytest.raises(NotHeckeSym0, match="not alternating"):
            HeckeSymmetry.from_matrix(R)
        with pytest.raises(NotHeckeSym0, match="not alternating"):
            HeckeSymmetry(R, QQ.one())


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
class TestTheGateForQ:
    """HeckeSymmetry coerces q into R's field and rejects q = 0 before the alternation gate."""

    def test_every_form_of_q_gives_one_symmetry(self, field):
        built = build_R(canonical("Type1", 2, field))
        syms = [HeckeSymmetry(built.R, q) for q in (2, Fr(2), "2", " 4/2", field.of(2))]
        assert len(set(syms) | {built}) == 1
        for sym in syms:
            assert sym == built and hash(sym) == hash(built)
            assert sym.q == 2 and type(sym.q) is type(field.one())
            assert [r.name for r in run_suite(sym) if not r.passed] == []
            assert deform(sym, 2) == deform(built, 2) and deform(sym, 2).q == 3

    def test_zero_q_is_rejected_first(self, field):
        zeros = [0, Fr(0), "0", field.zero()] + (["7", Fr(7, 3)] if field.characteristic else [])
        for q in zeros:  # q Id - Id = -Id would also fail the alternation gate
            with pytest.raises(NotHeckeSym0, match="^the Hecke parameter is zero$"):
                HeckeSymmetry(Matrix.identity(field, 9), q)

    def test_bad_q_text_is_an_input_error(self, field):
        with pytest.raises(InputError):
            HeckeSymmetry(flip_matrix(field), "two")

    def test_from_matrix_errors_in_order(self, field):
        zero = Matrix.zeros(field, 9)  # (R - 0)(R + Id) = 0: only q = 0 satisfies the relation
        with pytest.raises(NotHeckeSym0, match="relation fails"):
            HeckeSymmetry.from_matrix(flip_matrix(field), 0)  # relation before zero
        for q in (None, 0, "0"):
            with pytest.raises(NotHeckeSym0, match="^the Hecke parameter is zero$"):
                HeckeSymmetry.from_matrix(zero, q)
        assert HeckeSymmetry.from_matrix(flip_matrix(field), "1").q == 1


def rule_corpus(field):
    """(q, a, b, g) over the edge cases of the rule for q, then perturbed sampled quadruples.

    The forms give delta = 0, -1 and -1/4 on (e1, e2), and g = 0; the pairs include t = 0;
    q includes 0, -1 and, over F_p, multiples of p as text.  One pair, one form and one q
    carry the pairwise coprime denominators 11, 5 and 13, units in every field used here.
    """
    e1, e2, _ = std_basis(field)
    forms = [Matrix.zeros(field, 3), symmetric_form(field, [[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
             symmetric_form(field, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
             symmetric_form(field, [[0, "-1/2", 0], ["-1/2", 0, 0], [0, 0, 1]]),
             symmetric_form(field, [["1/5", "2/5", 0], ["2/5", "-3/5", "1/5"], [0, "1/5", 2]])]
    pairs = [(e1, e2), (e1, e1), (e1, [field.zero()] * 3),
             ([field.of(x) for x in ("1/11", 2, 0)], [field.of(x) for x in (0, "3/11", 1)])]
    p = field.characteristic
    qs = [0, "0", -1, 1, 2, 3, "1/2", "-1/13", "27/13"] + ([str(p), f"{3 * p}/13"] if p else [])
    for q in qs:
        for a, b in pairs:
            for g in forms:
                yield q, a, b, g
    rng = random.Random(47)
    for _ in range(8):
        for sampler in (sample_strategy_a, sample_strategy_b):
            data = sampler(field, rng)
            yield data.q, data.a, data.b, data.g
            yield data.q + 1, data.a, data.b, data.g


def rule_outcome(call):
    """The class of the rule's error that call raises, or None when it returns."""
    try:
        call()
    except (ZeroQ, InvalidConstraint) as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7), GF(1_000_003), GF(2**61 - 1)],
                         ids=["Q", "Fp3", "Fp7", "Fp1000003", "Fp2^61-1"])
def test_one_rule_one_answer(field):
    """HeckeData, build_Y_from_F and extract_F answer a pair (q, F) alike, ZeroQ first.

    The expected answer is formed from the bordered Gram determinant on field scalars.
    """
    seen = set()
    for q, a, b, g in rule_corpus(field):
        f_op = FOperator(g, wedge2(a, b))
        assert f_op.delta() == fref.delta(f_op) == fref.gram_determinant(g, f_op.t)
        qq = field.of(q)
        want = ZeroQ if qq == 0 else (
            InvalidConstraint if (qq - 1) ** 2 != -4 * fref.gram_determinant(g, f_op.t) else None)
        seen.add(want)
        assert rule_outcome(lambda: HeckeData(q, a, b, g)) is want, (q, a, b, g.rows)
        assert rule_outcome(lambda: build_Y_from_F(q, f_op)) is want, (q, a, b, g.rows)
        if want is ZeroQ:
            continue
        Y = skewsymmetrizer_matrix(qq, g, f_op.t)
        sym = HeckeSymmetry(Matrix.identity(field, 9).scale(qq) - Y, q)
        if want is None:
            assert build_R(HeckeData(q, a, b, g)) == sym and build_Y_from_F(q, f_op) == Y
            assert extract_F(sym).matrix() == f_op.matrix()
        else:
            with pytest.raises(NotHeckeSym0, match="^the parameter-discriminant constraint "
                                                   "fails for the extracted operator$"):
                extract_F(sym)
    assert seen == {None, ZeroQ, InvalidConstraint}


@pytest.mark.parametrize("field", [QQ, GF(7), GF(1_000_003)], ids=["Q", "Fp7", "Fp1000003"])
def test_extract_q_reads_the_parameter_of_every_sampled_symmetry(field):
    """fuzz reads q with extract_q only where check_hecke failed; on valid samples it is q."""
    rng = random.Random(19)
    for _ in range(12):
        for sampler in (sample_strategy_a, sample_strategy_b):
            sym = build_R(sampler(field, rng))
            assert extract_q(sym.R) == sym.q
            assert HeckeSymmetry.from_matrix(sym.R) == sym


class TestDeform:
    def test_lambda_zero_is_flip(self):
        sym = build_R(canonical("Type1", Fr(3)))
        moved = deform(sym, QQ.zero())
        assert moved.R == flip_matrix(QQ) and moved.q == 1

    def test_lambda_one_is_identity_map(self):
        sym = build_R(canonical("Type1", Fr(3)))
        moved = deform(sym, QQ.one())
        assert moved.R == sym.R and moved.q == sym.q

    def test_parameter_moves_affinely(self):
        sym = build_R(canonical("Type1", Fr(3)))
        moved = deform(sym, Fr(1, 2))
        assert moved.q == 2
        assert extract_q(moved.R) == 2

    def test_deformed_data_remains_valid(self):
        # the deformed symmetry is built by the quadruple (q_lam, a, b, lam g)
        lam = Fr(2)
        data = canonical("Type1", Fr(3))
        moved = deform(build_R(data), lam)
        q_lam = 1 + lam * (data.q - 1)
        assert build_R(HeckeData(q_lam, data.a, data.b, data.g.scale(lam))).R == moved.R

    def test_scales_invariant_operator(self):
        lam = Fr(1, 2)
        sym = build_R(canonical("Type1", Fr(3)))
        f0 = extract_F(sym)
        f1 = extract_F(deform(sym, lam))
        assert f1.matrix() == f0.matrix().scale(lam)

    def test_singular_parameter_rejected(self):
        sym = build_R(canonical("Type1", Fr(3)))
        with pytest.raises(SingularDeformation):
            deform(sym, Fr(-1, 2))

    def test_random_data_and_parameters(self):

        rng = random.Random(77)
        done = 0
        while done < 15:
            sym = build_R(sample_strategy_a(QQ, rng))
            lam = Fr(rng.randint(-3, 3), rng.randint(1, 3))
            if lam * (sym.q - 1) == -1:
                continue
            moved = deform(sym, lam)
            assert extract_q(moved.R) == 1 + lam * (sym.q - 1)
            assert extract_F(moved).matrix() == extract_F(sym).matrix().scale(lam)
            done += 1


class TestConjugate:
    def test_identity(self):
        sym = build_R(canonical("Type4"))
        assert conjugate(sym, Matrix.identity(QQ, 3)).R == sym.R

    def test_flip_is_invariant(self):
        P = Matrix.from_rows(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert conjugate(build_R(canonical("Type8")), P).R == flip_matrix(QQ)

    def test_singular_rejected(self):
        sym = build_R(canonical("Type4"))
        with pytest.raises(SingularMatrix):
            conjugate(sym, Matrix.zeros(QQ, 3))

    def test_transported_data_is_valid_and_consistent(self):
        rng = random.Random(53)
        data = canonical("Type2", Fr(-1))
        sym = build_R(data)
        for _ in range(10):
            P = random_invertible(QQ, rng)
            moved = conjugate(sym, P)
            assert moved.q == sym.q
            assert build_R(conjugate_data(data, P)).R == moved.R

    def test_skewsymmetrizer_is_transported_like_R(self):
        """Y = q Id - R after transport equals Y transported by P (x) P."""
        rng = random.Random(54)
        for field in (QQ, GF(7)):
            sym = build_R(canonical("Type1", 3, field))
            for _ in range(5):
                P = random_invertible(field, rng)
                assert conjugate(sym, P).Y == change_of_basis(sym.Y, P)

    def test_one_inverse_per_transport(self, monkeypatch):
        """conjugate inverts P once and agrees with transporting the quadruple."""
        rng = random.Random(55)
        inverse, calls = Matrix.inverse, []
        monkeypatch.setattr(Matrix, "inverse", lambda m: calls.append(m) or inverse(m))
        for field in (QQ, GF(7)):
            for data in (canonical("Type1", 3, field), canonical("Type2", -1, field),
                         canonical("Type5", field=field)):
                P = random_invertible(field, rng)
                sym = build_R(data)
                calls.clear()
                moved = conjugate(sym, P)
                assert calls == [P]
                assert moved == build_R(conjugate_data(data, P))


class TestPrimeFieldConstruction:
    def test_full_roundtrip_over_f7(self):
        f7 = GF(7)
        e = std_basis(f7)
        g = symmetric_form(f7, [[0, "1/2", 0], ["1/2", 0, 0], [0, 0, 1]])
        sym = build_R(HeckeData(f7.of(2), e[0], e[1], g))
        assert extract_q(sym.R) == f7.of(2)
        assert build_Y_from_F(sym.q, extract_F(sym)) == sym.Y

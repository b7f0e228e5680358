"""Classical r-matrices, carriers, Frobenius functionals, fingerprints."""

import random
from fractions import Fraction
from itertools import product

import pytest

import field_reference as fref
from paper_reference import matrix_unit, reference_carriers
import hecke3.cybe as cybe
from hecke3.errors import DimensionMismatch, FieldMismatch, Hecke3Error
from hecke3.fields import GF, QQ
from hecke3.linalg import Matrix
from hecke3.heckecore import build_R, conjugate, conjugate_data, deform, flip_matrix
from hecke3.multilinear import lift_left, lift_right, random_invertible, slot_action, unit_tensors
from hecke3.verifier import braid_table, check_braid, column_witness, sample_strategy_a
from hecke3.classify import TYPE_LABELS, canonical
from hecke3.cybe import (
    GlTensor,
    LieSubalgebra,
    _center_dim,
    _functionals,
    carrier,
    check_cybe,
    check_symmetrized,
    classical_r,
    FrobeniusResult,
    fingerprint,
    gl_tensor,
    is_frobenius,
    lie_subalgebra,
    r21,
)

Fr = Fraction


def E(i, j):
    return matrix_unit(QQ, i, j)


def simple_tensor_matrix(a, b):
    """The operator a (x) b on the tensor square."""
    ar, br, rows = a.rows, b.rows, Matrix.zeros(QQ, 9).rows
    for i in range(3):
        for j in range(3):
            if ar[i][j] == 0:
                continue
            for k in range(3):
                for l in range(3):
                    if br[k][l] != 0:
                        rows[3 * i + k][3 * j + l] = ar[i][j] * br[k][l]
    return Matrix(QQ, rows)


def sum_tensors(*pairs):
    m = Matrix.zeros(QQ, 9)
    for c, a, b in pairs:
        m = m + simple_tensor_matrix(a, b).scale(QQ.of(c))
    return m


def type1_reference_r(q):
    qm = q - 1
    return sum_tensors(
        (qm, E(1, 1), E(1, 1)), (qm, E(2, 2), E(2, 2)), (qm, E(3, 3), E(3, 3)),
        (qm, E(2, 2), E(1, 1)), (qm, E(2, 2), E(3, 3)), (qm, E(3, 3), E(1, 1)),
        (qm, E(2, 1), E(1, 2)), (qm, E(2, 3), E(3, 2)), (qm, E(3, 1), E(1, 3)),
        (1, E(1, 3), E(2, 3)), (-1, E(2, 3), E(1, 3)),
    )


class TestClassicalR:
    def test_flip_gives_zero(self):
        assert classical_r(build_R(canonical("Type8"))).matrix.is_zero()

    def test_first_family_formula(self):
        q = Fr(3)
        r = classical_r(build_R(canonical("Type1", q)))
        assert r.matrix == type1_reference_r(q)

    def test_second_family_drops_last_two_summands(self):
        q = Fr(3)
        r = classical_r(build_R(canonical("Type2", q)))
        expected = type1_reference_r(q) - sum_tensors(
            (1, E(1, 3), E(2, 3)), (-1, E(2, 3), E(1, 3))
        )
        assert r.matrix == expected

    def test_third_type_formula(self):
        h = E(1, 1) + E(3, 3)
        expected = sum_tensors(
            (1, E(2, 1), h), (-1, h, E(2, 1)),
            (1, E(2, 3), E(3, 1)), (-1, E(3, 1), E(2, 3)),
            (2, E(3, 3), E(1, 3)), (-2, E(1, 3), E(3, 3)),
        )
        assert classical_r(build_R(canonical("Type3"))).matrix == expected

    def test_decomposition_reassembles(self):
        rng = random.Random(37)
        m = Matrix.from_rows(QQ, [[rng.randint(-3, 3) for _ in range(9)] for _ in range(9)])
        assert reassembled(gl_tensor(m)) == m


def reassembled(t):
    """sum a_i (x) b_i over the factors of a decomposition."""
    return sum((a.kron(b) for a, b in zip(t.left, t.right)), Matrix.zeros(t.field, 9))


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7), GF(1_000_003)],
                         ids=["Q", "Fp3", "Fp7", "Fp1000003"])
def test_classical_r_decomposition_reassembles(field):
    """sum a_i (x) b_i = r for the eight types moved by random bases and strategy-A samples."""
    rng = random.Random(43)
    syms = [build_R(conjugate_data(canonical(label, 2 if label in ("Type1", "Type2") else None,
                                             field), random_invertible(field, rng)))
            for label in TYPE_LABELS]
    syms += [build_R(sample_strategy_a(field, rng)) for _ in range(4)]
    for sym in syms:
        r = classical_r(sym)
        assert len(r.left) == len(r.right)
        assert reassembled(r) == r.matrix


class TestR21:
    def test_zero(self):
        assert r21(gl_tensor(Matrix.zeros(QQ, 9))).is_zero()

    def test_simple_tensor_swap(self):
        t = gl_tensor(simple_tensor_matrix(E(1, 2), E(2, 1)))
        assert r21(t) == simple_tensor_matrix(E(2, 1), E(1, 2))

    def test_flip_conjugation_formula(self):
        from hecke3.heckecore import flip_matrix

        q = Fr(2)
        sym = build_R(canonical("Type1", q))
        r = classical_r(sym)
        r0 = flip_matrix(QQ)
        assert r21(r) == r0 * r.matrix * r0
        assert r21(r) == sym.R * r0 - Matrix.identity(QQ, 9)


def factorwise_embeddings(t):
    """r12, r13 and r23 summed over the factors a (x) b of t, one kron chain each."""
    ident = Matrix.identity(t.field, 3)
    r12 = r13 = r23 = Matrix.zeros(t.field, 27)
    for a, b in zip(t.left, t.right):
        r12 = r12 + a.kron(b).kron(ident)
        r13 = r13 + a.kron(ident).kron(b)
        r23 = r23 + ident.kron(a).kron(b)
    return r12, r13, r23


class TestCheckCybe:
    def test_lifts_equal_factorwise_embeddings(self):
        """The three slot actions and check_cybe's verdict match the factor-wise sums."""
        rng = random.Random(31)
        for field in (QQ, GF(7)):
            zero = Matrix.zeros(field, 27)
            for _ in range(2):
                t = gl_tensor(Matrix.from_rows(
                    field, [[rng.randint(-3, 3) for _ in range(9)] for _ in range(9)]))
                r12, r13, r23 = factorwise_embeddings(t)
                assert lift_left(t.matrix) == r12
                assert lift_right(t.matrix) == r23
                act, d = fref.slot_action(t.matrix, 0, 2)
                columns = [act(e) for e in unit_tensors(3)]
                assert Matrix.from_columns(field, columns).scale(field.one() / d) == r13
                total = zero
                for x, y in ((r12, r13), (r12, r23), (r13, r23)):
                    total = total + (x * y - y * x)
                witness = check_cybe(t).witness
                assert witness is not None and witness == column_witness(total, zero)

    def test_zero_solution(self):
        assert check_cybe(gl_tensor(Matrix.zeros(QQ, 9))).passed

    def test_all_canonical_types(self):
        for label in TYPE_LABELS:
            q = Fr(2) if label in ("Type1", "Type2") else None
            r = classical_r(build_R(canonical(label, q)))
            assert check_cybe(r).passed, label

    def test_non_solution_fails(self):
        t = gl_tensor(simple_tensor_matrix(E(1, 2), E(2, 1)))
        rep = check_cybe(t)
        assert not rep.passed and rep.witness is not None


class TestSymmetrized:
    def test_skewsymmetric_at_q_one(self):
        for label in ("Type3", "Type7", "Type8"):
            r = classical_r(build_R(canonical(label)))
            assert check_symmetrized(r, QQ.one()).passed
            assert (r.matrix + r21(r)).is_zero()

    def test_first_family(self):
        q = Fr(2)
        r = classical_r(build_R(canonical("Type1", q)))
        assert check_symmetrized(r, q).passed

    def test_wrong_q_fails(self):
        r = classical_r(build_R(canonical("Type1", Fr(2))))
        assert not check_symmetrized(r, Fr(3)).passed


class TestCarrier:
    def test_zero_carrier(self):
        sub = carrier(classical_r(build_R(canonical("Type8"))))
        assert sub.dim == 0

    def test_seventh_type_abelian_pair(self):
        sub = carrier(classical_r(build_R(canonical("Type7"))))
        ref = lie_subalgebra(QQ, [E(1, 3), E(2, 3)])
        assert sub.basis == ref.basis
        assert all(
            (x * y - y * x).is_zero() for x in sub.basis for y in sub.basis
        )

    def test_third_type_six_dimensional(self):
        sub = carrier(classical_r(build_R(canonical("Type3"))))
        ref = lie_subalgebra(
            QQ, [E(1, 1), E(1, 3), E(2, 1), E(2, 3), E(3, 1), E(3, 3)]
        )
        assert sub.dim == 6 and sub.basis == ref.basis

    def test_listed_carriers_match(self):
        refs = reference_carriers(QQ)
        for label in ("Type3", "Type4", "Type5", "Type6", "Type7", "Type8"):
            sub = carrier(classical_r(build_R(canonical(label))))
            ref = lie_subalgebra(QQ, refs[label])
            assert sub.basis == ref.basis, label

    def test_closure_flag_not_raised_on_these(self):
        for label in ("Type3", "Type6", "Type8"):
            sub = carrier(classical_r(build_R(canonical(label))))
            assert not sub.closure_grew

    def test_bracket_closed(self):
        sub = carrier(classical_r(build_R(canonical("Type5"))))
        assert lie_subalgebra(QQ, sub.basis).basis == sub.basis

    def test_closure_grows_when_needed(self):
        sub = lie_subalgebra(QQ, [E(1, 2), E(2, 1)])
        assert sub.closure_grew and sub.dim == 3  # picks up the commutator

    def test_closure_that_stops_growing_raises(self, monkeypatch):
        """A membership test that calls every bracket new raises once the span stops growing."""
        rref, passes = Matrix.rref, []

        def counted(m):
            passes.append(m)
            assert len(passes) <= 20, "the closure loop does not end"
            return rref(m)

        monkeypatch.setattr(cybe, "reduce_mod", lambda ns, p: [1])
        monkeypatch.setattr(Matrix, "rref", counted)
        for gens in ([E(1, 2), E(2, 1)], [E(1, 3), E(2, 3)]):
            with pytest.raises(Hecke3Error, match="internal inconsistency"):
                lie_subalgebra(QQ, gens)


    def test_generators_over_another_field_are_rejected(self):
        """Generators over F_5 or Q, with or without denominators, do not close over F_7."""
        f7, f5 = GF(7), GF(5)
        halves = Matrix.from_rows(QQ, [["1/2", 0, 0], [0, 0, "3/5"], [0, 0, 0]])
        for gens in ([matrix_unit(f5, 1, 2), matrix_unit(f5, 2, 1)], [E(1, 2), E(2, 1)],
                     [matrix_unit(f7, 1, 3), halves], [matrix_unit(f7, 1, 2), E(2, 1)]):
            with pytest.raises(FieldMismatch):
                lie_subalgebra(f7, gens)
        assert lie_subalgebra(f7, [matrix_unit(f7, 1, 2), matrix_unit(f7, 2, 1)]).dim == 3

    @pytest.mark.parametrize("n", [2, 4])
    def test_generators_of_the_wrong_shape_are_rejected(self, n):
        """A 2x2 generator used to raise IndexError, a 4x4 one to be read off its first 9 entries."""
        for gens in ([Matrix.identity(QQ, n)], [E(1, 2), Matrix.identity(QQ, n)]):
            with pytest.raises(DimensionMismatch, match="must be 3x3"):
                lie_subalgebra(QQ, gens)


WRONG_SHAPES = [Matrix.identity(QQ, 3), Matrix.identity(QQ, 27),
                Matrix.of_integers(QQ, 9, 3, [1] * 27), Matrix.of_integers(QQ, 3, 9, [1] * 27)]


@pytest.mark.parametrize("op", WRONG_SHAPES, ids=["3x3", "27x27", "9x3", "3x9"])
def test_degree3_actions_reject_operators_that_are_not_9x9(op):
    """multilinear._checked_operator is the one shape check of braid, braid table (through
    non_alternating_columns before its closed form) and CYBE (through slot_action); gl_tensor has
    its own."""
    for act in (lambda: slot_action(op, 0, 1), lambda: check_braid(op), lambda: braid_table(op, 0),
                lambda: check_cybe(GlTensor(op, (), ()))):
        with pytest.raises(DimensionMismatch, match="degree-2 operator must be 9x9"):
            act()
    with pytest.raises(DimensionMismatch, match="must be 9x9"):
        gl_tensor(op)


def constants_of(L):
    """The structure constants as nested lists: c[i][j] = coordinates of [x_i, x_j]."""
    rows, d = L.constants.rows, L.dim
    assert (L.constants.nrows, L.constants.ncols) == (d * d, d)
    return [[rows[d * i + j] for j in range(d)] for i in range(d)]


def reference_structure_constants(L):
    """c[i][j] = coordinates of [x_i, x_j]: the brackets formed again, then located in the span."""
    vec = lambda m: [m.rows[i][j] for i in range(3) for j in range(3)]
    rows = [vec(m) for m in L.basis]
    return [[fref.span_coords(rows, vec(x * y - y * x)) for y in L.basis] for x in L.basis]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_closure_constants_match_the_brackets(field):
    """L.constants equals the recomputed structure constants, also in a random basis."""
    algebras = [lie_subalgebra(field, gens)
                for gens in reference_carriers(field).values() if gens is not None]
    rng = random.Random(5)
    for label in TYPE_LABELS:
        q = field.of(3) if label in ("Type1", "Type2") else None
        sym = conjugate(build_R(canonical(label, q, field)), random_invertible(field, rng))
        algebras.append(carrier(classical_r(sym)))
    assert {L.dim for L in algebras} >= {0, 2, 4, 6, 9}
    for L in algebras:
        ref = reference_structure_constants(L)
        assert constants_of(L) == ref


def reference_echelon(field, vectors):
    """Nonzero rows of the field-object reduced echelon form."""
    vecs = [v for v in vectors if any(x != 0 for x in v)]
    if not vecs:
        return []
    red, pivots = fref.rref(Matrix.from_rows(field, vecs))
    return red.rows[:len(pivots)]


def reference_closure(field, generators):
    """(basis, constants, grew) of the field-object closure loop, brackets located by span_coords."""
    vec = lambda m: [m.rows[i][j] for i in range(3) for j in range(3)]
    rows, grew = reference_echelon(field, [vec(m) for m in generators]), False
    while True:
        mats = [Matrix(field, [r[3 * i:3 * i + 3] for i in range(3)]) for r in rows]
        brackets = [[vec(fref.mul(x, y) - fref.mul(y, x)) for y in mats] for x in mats]
        consts = [[fref.span_coords(rows, b) for b in bx] for bx in brackets]
        new = [b for bx, cx in zip(brackets, consts) for b, c in zip(bx, cx) if c is None]
        if not new:
            return tuple(mats), consts, grew
        grew, rows = True, reference_echelon(field, rows + new)


def reference_fingerprint(L):
    """The fingerprint with the Killing form as traces of d^2 products of ad matrices."""
    fld, d, c = L.field, L.dim, constants_of(L)
    if d == 0:
        return (0, 0, 0, 0)
    rank = lambda rows: len(fref.rref(Matrix(fld, rows))[1])
    derived = rank([list(c[i][j]) for i in range(d) for j in range(d)])
    center = d - rank([[c[i][j][k] for i in range(d)] for j in range(d) for k in range(d)])
    ad = [Matrix(fld, [[c[i][j][k] for j in range(d)] for k in range(d)]) for i in range(d)]
    killing = [[fref.trace(fref.mul(ad[i], ad[j])) for j in range(d)] for i in range(d)]
    return (d, derived, center, rank(killing))


def reference_frobenius_witness(L):
    """The first functional of _functionals whose form has a nonzero field-object determinant."""
    return next((tuple(L.field.of(x) for x in f) for f in _functionals(L.field, L.dim)
                 if fref.det(form_of(L, f)) != 0), None)


def differential_generators(field):
    """Reference carrier generators, the factors of r for moved types and strategy-A samples,
    and 30 sparse random sets of 1-4 generators with entries in {-1, 0, 1}."""
    rng = random.Random(29)
    gens = [g for g in reference_carriers(field).values() if g is not None]
    gens.append([matrix_unit(field, 1, 2), matrix_unit(field, 2, 1)])  # the closure grows
    for label in TYPE_LABELS:
        q = field.of(2) if label in ("Type1", "Type2") else None
        for _ in range(2):
            sym = conjugate(build_R(canonical(label, q, field)), random_invertible(field, rng))
            r = classical_r(sym)
            gens.append(list(r.left) + list(r.right))
    for _ in range(4):
        r = classical_r(build_R(sample_strategy_a(field, rng)))
        gens.append(list(r.left) + list(r.right))
    sparse = random.Random(29)
    for _ in range(30):
        gens.append([Matrix.from_rows(field, [[sparse.choice((-1, 1)) if sparse.random() < 0.3 else 0
                                              for _ in range(3)] for _ in range(3)])
                     for _ in range(sparse.randint(1, 4))])
    return gens


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7), GF(1_000_003)],
                         ids=["Q", "Fp3", "Fp7", "Fp1000003"])
def test_integer_closure_matches_the_field_reference(field):
    """Basis, constants, closure flag, fingerprint and Frobenius witness equal the references."""
    dims, grew = set(), set()
    for gens in differential_generators(field):
        L = lie_subalgebra(field, gens)
        basis, consts, closure_grew = reference_closure(field, gens)
        assert L.basis == basis and L.closure_grew == closure_grew
        assert isinstance(L.constants, Matrix) and L.constants.field == field
        assert constants_of(L) == consts
        assert all(type(x) is type(field.zero()) for row in consts for c in row for x in c)
        assert fingerprint(L) == reference_fingerprint(L)
        res = is_frobenius(L)
        if L.dim % 2 == 0 and not L.center_dim:
            want = reference_frobenius_witness(L) if L.dim else ()
            assert (res.status, res.witness) == ("yes" if want is not None else "no", want)
        dims.add(L.dim)
        grew.add(L.closure_grew)
    assert dims >= {0, 2, 4, 6, 9} and grew == {False, True}


def transported_carrier_generators(field, rng):
    """The listed carrier generators moved by a random P, x -> P x P^-1."""
    gens = []
    for listed in reference_carriers(field).values():
        if listed is not None:
            P = random_invertible(field, rng)
            gens.append([P * x * P.inverse() for x in listed])
    return gens


def growing_generators(field, rng, count):
    """``count`` sets of 2-3 sparse generators, entries in {-2, ..., 2}, whose closure grows."""
    found = []
    while len(found) < count:
        gens = [Matrix.from_rows(field, [[rng.randint(-2, 2) if rng.random() < 0.3 else 0
                                          for _ in range(3)] for _ in range(3)])
                for _ in range(rng.randint(2, 3))]
        if fref.lie_subalgebra(field, gens).closure_grew:
            found.append(gens)
    return found


def gl3_boundary_generators(field, rng):
    """Generators on both sides of dimension 9: the unit basis and sets that grow to gl(3), each
    also moved by a random P, and E12, E23, E31, whose closure stops at sl(3), dimension 8."""
    grow = [units(field, (1, 1), (1, 2), (2, 3), (3, 1)),
            units(field, (1, 2), (2, 3), (3, 1), (2, 2))]
    gens = [units(field, *product((1, 2, 3), repeat=2)), units(field, (1, 2), (2, 3), (3, 1))]
    for listed in gens[:1] + grow:
        P = random_invertible(field, rng)
        gens += [listed, [P * x * P.inverse() for x in listed]]
    return gens


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5), GF(7), GF(1_000_003)],
                         ids=["Q", "Fp3", "Fp5", "Fp7", "Fp1000003"])
def test_half_bracket_closure_matches_the_full_closure(field):
    """Brackets for i < j only, mirrored by sign, and gl(3) read off the lemma at dimension 9,
    give the LieSubalgebra (constants included), centre dimension, fingerprint and Frobenius
    document of the former closure, which formed all dim^2 brackets and eliminated for the
    centre and the ranks at every dimension, bit for bit: on gl(3) spanned at once or reached by
    growth, on the listed carriers moved by P, on growing closures, and on the differential sets
    (the eight types moved by P among them)."""
    rng = random.Random(26)
    sets = (gl3_boundary_generators(field, rng) + transported_carrier_generators(field, rng)
            + growing_generators(field, rng, 12) + differential_generators(field))
    seen = set()
    for gens in sets:
        L, ref = lie_subalgebra(field, gens), fref.lie_subalgebra(field, gens)
        assert L == ref
        assert isinstance(L.constants, Matrix)
        assert L.constants.integers() == ref.constants.integers()
        assert L.center_dim == _center_dim(L) == ref.center_dim == fref._center_dim(ref)
        assert fingerprint(L) == fref.fingerprint(ref)
        assert is_frobenius(L).to_json(field) == is_frobenius(ref).to_json(field)
        seen.add((L.dim, L.closure_grew))
    assert {d for d, _ in seen} >= {0, 1, 2, 3, 4, 6, 8, 9}
    assert {(9, False), (9, True), (8, True)} <= seen


def test_the_gl3_constants_are_the_brackets_of_the_unit_basis():
    """Row 9a + b of the module constant is [E_a, E_b] in the unit basis, formed by _bracket."""
    e = unit_tensors(2)
    assert cybe._GL3_CONSTANTS == [x for a in e for b in e for x in cybe._bracket(a, b)]


def recorded_passes(monkeypatch):
    """Record the _bracket calls and the dimension of each closure pass (one rref per pass)."""
    brackets, dims = [], []
    bracket, rref = cybe._bracket, Matrix.rref

    def counted_bracket(x, y):
        brackets.append(1)
        return bracket(x, y)

    def counted_rref(m):
        red, leads = rref(m)
        dims.append(len(leads))
        return red, leads

    monkeypatch.setattr(cybe, "_bracket", counted_bracket)
    monkeypatch.setattr(Matrix, "rref", counted_rref)
    return brackets, dims


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7), GF(1_000_003)],
                         ids=["Q", "Fp3", "Fp7", "Fp1000003"])
def test_each_closure_pass_forms_the_brackets_i_lt_j_once(field, monkeypatch):
    """A pass at dimension k < 9 calls _bracket k(k - 1)/2 times and a pass at dimension 9
    none (gl(3), by the lemma of lie_subalgebra; the former closure formed 36 there): 0 on the
    gl(3) carrier of Type 1, 1 + 3 on E12, E21 (which grows to sl(2)), and the sum over the
    passes below 9 of a growth, to gl(3) among them."""
    gl3 = classical_r(build_R(canonical("Type1", field.of(2), field)))
    growing = growing_generators(field, random.Random(9), 4)
    growing.append(units(field, (1, 1), (1, 2), (2, 3), (3, 1)))
    brackets, dims = recorded_passes(monkeypatch)
    L = carrier(gl3)
    assert (L.dim, L.closure_grew, dims, len(brackets)) == (9, False, [9], 0)
    brackets.clear()
    dims.clear()
    assert lie_subalgebra(field, units(field, (1, 2), (2, 1))).dim == 3
    assert (dims, len(brackets)) == ([2, 3], 4)
    for gens in growing:
        brackets.clear()
        dims.clear()
        assert lie_subalgebra(field, gens).closure_grew and len(dims) >= 2
        assert len(brackets) == sum(k * (k - 1) // 2 for k in dims if k < 9)
    assert dims[-1] == 9


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7)], ids=["Q", "Fp3", "Fp7"])
def test_fingerprint_at_dimensions_one_and_three(field):
    """E13 alone has no row i < j; E12 with E21 grows to sl(2), whose Killing form is
    nondegenerate over these fields."""
    for gens, want in (([(1, 3)], (1, 0, 1, 0)), ([(1, 2), (2, 1)], (3, 3, 0, 3))):
        L = lie_subalgebra(field, units(field, *gens))
        assert fingerprint(L) == reference_fingerprint(L) == fref.fingerprint(L) == want


class TestFrobenius:
    def test_two_dimensional_witness(self):
        sub = lie_subalgebra(QQ, [E(1, 3), E(3, 3)])
        res = is_frobenius(sub)
        assert res.status == "yes"
        # the dual functional of E13 already works
        assert res.witness is not None

    def test_abelian_exact_negative(self):
        sub = lie_subalgebra(QQ, [E(1, 3), E(2, 3)])
        assert is_frobenius(sub).status == "no"

    def test_odd_dimension_not_applicable(self):
        sub = lie_subalgebra(QQ, [E(1, 3)])
        assert is_frobenius(sub).status == "not_applicable"

    def test_four_listed_carriers_are_frobenius(self):
        refs = reference_carriers(QQ)
        for label in ("Type3", "Type4", "Type5", "Type6"):
            sub = lie_subalgebra(QQ, refs[label])
            res = is_frobenius(sub)
            assert res.status == "yes", label
            # recompute the certificate: the witness form is nondegenerate
            c = reference_structure_constants(sub)
            form = Matrix(
                QQ,
                [
                    [
                        sum(
                            (fk * ck for fk, ck in zip(res.witness, c[i][j])),
                            QQ.zero(),
                        )
                        for j in range(sub.dim)
                    ]
                    for i in range(sub.dim)
                ],
            )
            assert form.det() != 0, label


def units(field, *pairs):
    return [matrix_unit(field, i, j) for i, j in pairs]


def sl3(field):
    e = lambda i, j: matrix_unit(field, i, j)
    off_diagonal = [e(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    return lie_subalgebra(field, off_diagonal + [e(1, 1) - e(2, 2), e(2, 2) - e(3, 3)])


def form_of(L, f):
    """B_f[i][j] = f([x_i, x_j]) from the structure constants."""
    d, fld, c = L.dim, L.field, constants_of(L)
    return Matrix(fld, [[sum((fk * ck for fk, ck in zip(f, c[i][j])), fld.zero())
                         for j in range(d)] for i in range(d)])


def block_algebra(field, A):
    """A structure-constant tensor on six symbols whose forms are B_f = [[0, A_f], [-A_f^T, 0]].

    ``A(k)`` is the 3x3 integer matrix A_f at the k-th unit functional.  Only
    the constants are read by the Frobenius decision; the basis is a placeholder
    of the right length.
    """
    c = [[[field.zero()] * 6 for _ in range(6)] for _ in range(6)]
    for k in range(6):
        for i, row in enumerate(A(k)):
            for j, x in enumerate(row):
                c[i][3 + j][k] = field.of(x)
                c[3 + j][i][k] = -field.of(x)
    constants = Matrix(field, [c[i][j] for i in range(6) for j in range(6)])
    return LieSubalgebra(field, tuple(units(field, *product((1, 2), (1, 2, 3)))), constants)


def skew_family(k):
    """The generic 3x3 skew matrix [[0, f1, f2], [-f1, 0, f3], [-f2, -f3, 0]] at f = e_k."""
    a = [[0] * 3 for _ in range(3)]
    if k < 3:
        i, j = ((0, 1), (0, 2), (1, 2))[k]
        a[i][j], a[j][i] = 1, -1
    return a


def diagonal_family(k):
    """diag(f1, f2, f3) at f = e_k."""
    return [[int(i == j == k) for j in range(3)] for i in range(3)]


def difference_family(k):
    """diag(f1, f2, f1 - f2) at f = e_k: its determinant vanishes at every 0/1 vector."""
    diagonal = [(1, 0, 1), (0, 1, -1)][k] if k < 2 else (0, 0, 0)
    return [[diagonal[i] if i == j else 0 for j in range(3)] for i in range(3)]


def exhaustive_status(L):
    """"yes" iff some functional over the prime field gives a nonzero determinant."""
    fld = L.field
    for f in product(range(fld.characteristic), repeat=L.dim):
        if form_of(L, [fld.of(x) for x in f]).det() != 0:
            return "yes"
    return "no"


class TestFrobeniusDecision:
    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "Fp3"])
    def test_gl2_is_not_frobenius(self, field):
        """The identity of gl2 is central, so every form is degenerate."""
        L = lie_subalgebra(field, units(field, (1, 1), (1, 2), (2, 1), (2, 2)))
        assert L.dim == 4 and _center_dim(L) == 1
        assert is_frobenius(L) == FrobeniusResult("no", None)

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    def test_sl3_is_not_frobenius_through_the_lattice(self, field):
        """sl3 has no centre here, so the negative comes from every lattice point."""
        L = sl3(field)
        assert L.dim == 8 and _center_dim(L) == 0
        assert is_frobenius(L) == FrobeniusResult("no", None)

    def test_sl3_over_f3_is_not_frobenius_through_the_centre(self):
        """Over F3 the identity has trace 0, so it lies in sl3 and is central."""
        L = sl3(GF(3))
        assert L.dim == 8 and _center_dim(L) == 1
        assert is_frobenius(L) == FrobeniusResult("no", None)

    @pytest.mark.parametrize("field", [QQ, GF(7), GF(3)], ids=["Q", "Fp7", "Fp3"])
    def test_vanishing_pfaffian_without_centre(self, field):
        """det of a 3x3 skew A_f is 0, so Pf(B_f) = 0 identically; over F3 every point is tried."""
        L = block_algebra(field, skew_family)
        assert _center_dim(L) == 0
        assert is_frobenius(L) == FrobeniusResult("no", None)

    @pytest.mark.parametrize("field", [QQ, GF(7), GF(3)], ids=["Q", "Fp7", "Fp3"])
    def test_diagonal_block_has_a_witness(self, field):
        """Pf(B_f) = +-f1 f2 f3 is nonzero at the 0/1 sum e1 + e2 + e3."""
        L = block_algebra(field, diagonal_family)
        res = is_frobenius(L)
        assert res.status == "yes" and form_of(L, res.witness).det() != 0

    @pytest.mark.parametrize("field", [QQ, GF(7), GF(3)], ids=["Q", "Fp7", "Fp3"])
    def test_witness_beyond_the_zero_one_vectors(self, field):
        """Pf = +-f1 f2 (f1 - f2) needs an entry 2: the lattice (or F3^6) supplies it."""
        L = block_algebra(field, difference_family)
        res = is_frobenius(L)
        assert res.status == "yes" and form_of(L, res.witness).det() != 0
        assert any(x not in (0, 1) for x in res.witness)

    @pytest.mark.parametrize("p, max_dim", [(3, 6), (5, 4)])
    def test_agrees_with_exhaustive_search(self, p, max_dim):
        """Bracket closures of sparse random generators: the decision equals a search of F_p^d."""
        field, rng = GF(p), random.Random(p)
        seen = set()
        tried = 0
        while tried < 12:
            gens = [Matrix(field, [[field.of(rng.randrange(p)) if rng.random() < 0.35
                                    else field.zero() for _ in range(3)] for _ in range(3)])
                    for _ in range(rng.randint(1, 3))]
            L = lie_subalgebra(field, gens)
            if L.dim == 0 or L.dim % 2 or L.dim > max_dim:
                continue
            tried += 1
            res = is_frobenius(L)
            assert res.status == exhaustive_status(L)
            if res.status == "yes":
                assert form_of(L, res.witness).det() != 0
            seen.add(res.status)
        assert seen == {"yes", "no"}

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(5), GF(7)], ids=["Q", "Fp3", "Fp5", "Fp7"])
    def test_moved_carriers_keep_their_status(self, field):
        """Types 3-6 and 8 are Frobenius, Type 7 is not, Types 1-2 have odd dimension."""
        expected = {"Type1": "not_applicable", "Type2": "not_applicable", "Type7": "no"}
        rng = random.Random(8)
        for label in TYPE_LABELS:
            q = field.of(2) if label in ("Type1", "Type2") else None
            for _ in range(2):
                sym = conjugate(build_R(canonical(label, q, field)), random_invertible(field, rng))
                L = carrier(classical_r(sym))
                res = is_frobenius(L)
                assert res.status == expected.get(label, "yes"), label
                if res.status == "yes" and L.dim:
                    assert form_of(L, res.witness).det() != 0, label


class TestFingerprint:
    def test_zero_algebra(self):
        assert fingerprint(lie_subalgebra(QQ, [])) == (0, 0, 0, 0)

    def test_abelian_pair(self):
        assert fingerprint(lie_subalgebra(QQ, [E(1, 3), E(2, 3)])) == (2, 0, 2, 0)

    def test_solvable_pair(self):
        assert fingerprint(lie_subalgebra(QQ, [E(1, 3), E(3, 3)])) == (2, 1, 0, 1)

    def test_six_carriers_pairwise_distinct(self):
        prints = []
        for label in ("Type3", "Type4", "Type5", "Type6", "Type7", "Type8"):
            sub = carrier(classical_r(build_R(canonical(label))))
            prints.append(fingerprint(sub))
        assert len(set(prints)) == 6


class TestDeformationScaling:
    def test_r_scales_linearly(self):
        sym = build_R(canonical("Type1", Fr(3)))
        r = classical_r(sym)
        for lam in (Fr(1, 2), Fr(2), Fr(-1), Fr(1, 3)):
            r_lam = classical_r(deform(sym, lam))
            assert r_lam.matrix == r.matrix.scale(lam)
            assert check_cybe(r_lam).passed


class TestOverPrimeField:
    def test_cybe_and_symmetrization_f7(self):
        f7 = GF(7)
        for label in TYPE_LABELS:
            q = f7.of(3) if label in ("Type1", "Type2") else None
            sym = build_R(canonical(label, q, f7))
            r = classical_r(sym)
            assert check_cybe(r).passed, label
            assert check_symmetrized(r, sym.q).passed, label

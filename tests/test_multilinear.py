"""Wedge products, the volume form, the tensor layout, subspace tests, lifts and the shift.

``wedge3`` and ``wedge_vt`` are the list references in ``field_reference``; the layout tests
pin e1^e2^e3, the Alt2 pair order and the pairing rows, each defined once in ``multilinear``.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from field_reference import vol as determinant, wedge3, wedge_vt
from hecke3.errors import DimensionMismatch
from hecke3.fields import GF, QQ
from hecke3.linalg import Matrix, field_scalars
from hecke3.multilinear import (
    _ALT2_PAIRS,
    _ALT3_UNIT,
    alt2_basis,
    bivector,
    cyclic_shift,
    idx2,
    idx3,
    is_alt2,
    is_alt3,
    lift_left,
    lift_right,
    pair_vt,
    pairing_coordinates,
    std_basis,
    tensor2,
    unit_tensors,
    vol,
    wedge2,
)

E1, E2, E3 = std_basis(QQ)

small = st.integers(min_value=-4, max_value=4)
vec3 = st.tuples(small, small, small).map(lambda t: [Fraction(x) for x in t])


def front_slices_alternating(w):
    """Membership of a degree-3 tensor in V (x) Alt2."""
    return all(is_alt2(w[9 * i : 9 * i + 9]) for i in range(3))


def back_slices_alternating(w):
    """Membership of a degree-3 tensor in Alt2 (x) V."""
    return all(
        is_alt2([w[idx3(i, j, k)] for i in range(3) for j in range(3)])
        for k in range(3)
    )


def test_wedge2_basis():
    t = wedge2(E1, E2)
    assert t[idx2(0, 1)] == 1 and t[idx2(1, 0)] == -1
    assert sum(1 for x in t if x != 0) == 2


def test_wedge2_alternation():
    assert all(x == 0 for x in wedge2(E2, E2))
    assert wedge2([a + b for a, b in zip(E1, E2)], E2) == wedge2(E1, E2)


@given(vec3, vec3)
def test_wedge2_antisymmetry_and_membership(x, y):
    assert wedge2(x, y) == [-c for c in wedge2(y, x)]
    assert is_alt2(wedge2(x, y))


@pytest.mark.parametrize("x, y", [([1, 2, 3], [1, 2]), ([1, 2], [1, 2, 3]),
                                  ([1, 2, 3, 4], [1, 2, 3, 4]), ([], [])])
def test_wedge2_rejects_vectors_that_are_not_3_dimensional(x, y):
    with pytest.raises(DimensionMismatch):
        wedge2(x, y)


def test_wedge3_six_terms():
    w = wedge3(E1, E2, E3)
    signs = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
             (2, 1, 0): -1, (0, 2, 1): -1, (1, 0, 2): -1}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert w[idx3(i, j, k)] == signs.get((i, j, k), 0)


def test_wedge3_repeated_argument():
    x = [Fraction(1), Fraction(2), Fraction(-1)]
    z = [Fraction(0), Fraction(1), Fraction(5)]
    assert all(c == 0 for c in wedge3(x, x, z))


@given(vec3, vec3, vec3)
def test_wedge3_antisymmetry(x, y, z):
    assert wedge3(y, x, z) == [-c for c in wedge3(x, y, z)]


def test_wedge_vt_defining_case():
    assert wedge_vt(E1, wedge2(E2, E3)) == wedge3(E1, E2, E3)


def test_wedge_vt_repeated_vector():
    assert all(c == 0 for c in wedge_vt(E2, wedge2(E2, E3)))


def test_wedge_vt_cyclic_evenness():
    assert wedge_vt(E3, wedge2(E1, E2)) == wedge3(E1, E2, E3)


def test_vol_normalization_and_antisymmetry():
    assert vol(E1, E2, E3) == 1
    assert vol(E2, E1, E3) == -1
    assert vol(E1, [a + b for a, b in zip(E1, E2)], E3) == 1


@pytest.mark.parametrize("args", [([1, 0, 0, 5], E2, E3), ([1, 0], E2, E3), (E1, [0, 1], E3),
                                  (E1, E2, [0, 0, 1, 0]), ([], [], [])])
def test_vol_rejects_vectors_that_are_not_3_dimensional(args):
    with pytest.raises(DimensionMismatch, match="vector must have 3 coordinates"):
        vol(*args)


@given(vec3, vec3, vec3)
def test_pair_vt_matches_vol(u, x, y):
    """pair_vt(u, x ^ y), which vol reads, is the 3x3 determinant written out."""
    assert pair_vt(u, wedge2(x, y)) == vol(u, x, y) == determinant(u, x, y)


@given(vec3, vec3, vec3)
def test_pair_vt_is_the_wedge_coefficient(u, x, y):
    """u ^ t is alternating and its e1^e2^e3 coefficient is pair_vt(u, t)."""
    w = wedge_vt(u, wedge2(x, y))
    assert is_alt3(w)
    assert w[idx3(0, 1, 2)] == pair_vt(u, wedge2(x, y))


def test_four_argument_alternation():
    """Any contraction of a 4-argument alternating expression vanishes."""
    rng = random.Random(5)
    for _ in range(50):
        xi = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        vs = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(4)]
        f = lambda v: sum(a * b for a, b in zip(xi, v))
        acc = (
            f(vs[0]) * vol(vs[1], vs[2], vs[3])
            - f(vs[1]) * vol(vs[0], vs[2], vs[3])
            + f(vs[2]) * vol(vs[0], vs[1], vs[3])
            - f(vs[3]) * vol(vs[0], vs[1], vs[2])
        )
        assert acc == 0


def test_the_alternating_cube_unit_is_the_wedge_and_the_volume():
    """e1^e2^e3 equals the list wedge and vol(e_i, e_j, e_k) at each of the 27 unit triples."""
    e = unit_tensors(1)
    assert _ALT3_UNIT == wedge3(*e)
    assert [_ALT3_UNIT[idx3(i, j, k)] for i, j, k in product(range(3), repeat=3)] == [
        vol(e[i], e[j], e[k]) for i, j, k in product(range(3), repeat=3)]
    assert sorted(_ALT3_UNIT) == [-1] * 3 + [0] * 21 + [1] * 3


def test_alt2_basis_follows_the_pair_order():
    """The pairs are j < k in product order, and alt2_basis() is e_j^e_k in that order."""
    e = unit_tensors(1)
    pairs = [(j, k) for j, k in product(range(3), repeat=2) if j < k]
    assert list(_ALT2_PAIRS) == pairs
    assert alt2_basis() == [wedge2(e[j], e[k]) for j, k in pairs]


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2 ** 61 - 1)], ids=["Q", "Fp7", "Fp2^61-1"])
def test_pairing_coordinates_agree_with_pair_vt(field):
    """On Y with random bivector columns, l[i][j][k] = pair_vt(e_i, Y(e_j e_k)) for every
    column, read off the field scalars and off the integer coordinates of Y."""
    rng = random.Random(11)
    e = std_basis(field)
    for _ in range(20):
        s = [[field.of(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(3)]
             for _ in range(9)]
        Y = Matrix.from_columns(field, [[field.of(x) for x in bivector(c)] for c in s])
        (n, d), ys = Y.integers(), [x for row in Y.rows for x in row]
        ell, ell_n = pairing_coordinates(ys), pairing_coordinates(n)
        for i, j, k in product(range(3), repeat=3):
            assert ell[i][j][k] == pair_vt(e[i], Y.col(idx2(j, k))) == s[idx2(j, k)][i]
            assert ell_n[i][j][k] == pair_vt(e[i], n[idx2(j, k)::9])


def test_pairing_nondegeneracy():
    """Vectors pair nondegenerately against a basis of the bivectors."""
    m = Matrix(
        QQ,
        [[pair_vt(e, t) for t in alt2_basis()]
         for e in std_basis(QQ)],
    )
    assert m.det() != 0


class TestSubspaceQueries:
    def test_alt2(self):
        assert is_alt2(wedge2(E1, E2))
        assert not is_alt2(tensor2(E1, E2))

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    def test_alt2_is_minus_the_transpose(self, field):
        """is_alt2 reads six comparisons; it agrees with t = -t^T, as a list and as a tuple, on
        bivectors and on each of them with any one coordinate moved."""
        seen = set()
        for s in ([1, 2, 3], [0, 0, 1], [-4, 0, 5]):
            base = field_scalars(field, bivector(s))
            for k, x in product(range(9), (0, 1, -1, 3)):
                t = base[:k] + [base[k] + x] + base[k + 1:]
                want = t == [-t[idx2(j, i)] for i in range(3) for j in range(3)]
                assert is_alt2(t) == is_alt2(tuple(t)) == want
                seen.add(want)
        assert seen == {True, False}

    def test_v_alt2(self):
        w = [a * b for a in E1 for b in wedge2(E2, E3)]
        assert front_slices_alternating(w)
        assert not back_slices_alternating(w)

    def test_alt3(self):
        assert is_alt3(wedge3(E1, E2, E3))
        w = [a * b * c for a in E1 for b in E2 for c in E3]
        assert not is_alt3(w)

    def test_alt3_is_intersection(self):
        w = wedge3(E1, E2, E3)
        assert front_slices_alternating(w) and back_slices_alternating(w)


_PERM_SIGNS = {(0, 1, 2): 1, (0, 2, 1): -1, (1, 0, 2): -1,
               (1, 2, 0): 1, (2, 0, 1): 1, (2, 1, 0): -1}


def reference_is_alt3(w):
    """The sign-table membership test that ``is_alt3`` replaced."""
    c = w[idx3(0, 1, 2)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expected = 0
                if i != j and j != k and i != k:
                    expected = _PERM_SIGNS[(i, j, k)] * c
                if w[idx3(i, j, k)] != expected:
                    return False
    return True


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_is_alt3_agrees_with_the_sign_table(field):
    """Multiples of e1^e2^e3, random wedges, their one-coordinate bumps, random tensors."""
    rng = random.Random(3)
    e = std_basis(field)
    rand = lambda n: [field.of(rng.randint(-3, 3)) for _ in range(n)]
    alternating = [[field.of(c) * x for x in wedge3(*e)] for c in (0, 1, -2, 5)]
    alternating += [wedge3(rand(3), rand(3), rand(3)) for _ in range(20)]
    samples = list(alternating)
    for w in alternating:
        for p in range(27):
            samples.append(w[:p] + [w[p] + 1] + w[p + 1:])
    samples += [rand(27) for _ in range(50)]
    assert any(is_alt3(w) for w in samples) and not all(is_alt3(w) for w in samples)
    for w in samples:
        assert is_alt3(w) == reference_is_alt3(w)


class TestLifts:
    def test_identity_lifts_to_identity(self):
        assert lift_left(Matrix.identity(QQ, 9)) == Matrix.identity(QQ, 27)
        assert lift_right(Matrix.identity(QQ, 9)) == Matrix.identity(QQ, 27)

    def test_flip_right_action(self):
        from hecke3.heckecore import flip_matrix

        w = [QQ.zero()] * 27
        w[idx3(0, 1, 2)] = Fraction(1)  # e1 e2 e3
        out = lift_right(flip_matrix(QQ)).apply(w)
        expected = [QQ.zero()] * 27
        expected[idx3(0, 2, 1)] = Fraction(1)  # e1 e3 e2
        assert out == expected

    def test_left_lift_block_structure(self):
        rng = random.Random(1)
        m = Matrix.from_rows(QQ, [[rng.randint(-2, 2) for _ in range(9)] for _ in range(9)])
        lifted = lift_left(m)
        # acting on u (x) e_k only mixes the first two slots
        u = [Fraction(rng.randint(-2, 2)) for _ in range(9)]
        w = [ui * ek for ui in u for ek in E2]
        expected = [mi * ek for mi in m.apply(u) for ek in E2]
        assert lifted.apply(w) == expected


class TestCyclicShift:
    def test_basis_action(self):
        w = [QQ.zero()] * 27
        w[idx3(0, 1, 2)] = Fraction(1)
        out = cyclic_shift(w)
        assert out[idx3(1, 2, 0)] == 1 and sum(1 for c in out if c != 0) == 1

    def test_order_three(self):
        rng = random.Random(3)
        w = [Fraction(rng.randint(-5, 5)) for _ in range(27)]
        assert cyclic_shift(cyclic_shift(cyclic_shift(w))) == w

    def test_fixes_alternating(self):
        w = wedge3(E1, E2, E3)
        assert cyclic_shift(w) == w

    def test_maps_v_alt2_onto_alt2_v(self):
        for i in range(3):
            for t in alt2_basis():
                w = [ei * tc for ei in std_basis(QQ)[i] for tc in t]
                assert front_slices_alternating(w)
                assert back_slices_alternating(cyclic_shift(w))

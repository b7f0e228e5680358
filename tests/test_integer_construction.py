"""The skewsymmetrizer and q Id - M, built on integer coordinates, against the field references.

``heckecore.skewsymmetrizer_matrix`` assembles Y's 81 entries as integers over
one scale, and ``Matrix.identity(...).scale(q) - M`` forms q Id - M on the
integer coordinates of ``Matrix``; the references in ``field_reference``
compute both on field scalars.  The two must give equal matrices with equal
hashes, entries of the field's own scalar type, and equal ``HeckeSymmetry``
values.  ``heckecore.extract_F`` reads Y's integer coordinates and must give
the invariant operator, or the error, of the field-scalar extraction.
"""

import random
from fractions import Fraction

import pytest

import field_reference as fref
from hecke3.errors import NotHeckeSym0
from hecke3.fields import GF, QQ
from hecke3.heckecore import HeckeSymmetry, extract_F, skewsymmetrizer_matrix
from hecke3.linalg import Matrix
from hecke3.multilinear import wedge2
from hecke3.verifier import sample_adversarial, sample_strategy_a, sample_strategy_b
from test_verifier import _reference_samples

FIELDS = [QQ, GF(3), GF(7), GF(2**61 - 1)]
FIELD_IDS = ["Q", "Fp3", "Fp7", "Fp2^61-1"]


def _coprime_denominators(field):
    """(q, g, t) whose entries have pairwise coprime denominators, none divisible by p."""
    dens = iter(d for d in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
                if field.characteristic == 0 or d % field.characteristic)

    def x(n):
        return field.of(Fraction(n, next(dens)))

    g01, g02, g12 = x(1), x(-2), x(3)
    g = Matrix(field, [[x(5), g01, g02], [g01, x(-1), g12], [g02, g12, x(2)]])
    t = wedge2([x(1), field.one(), field.zero()], [field.zero(), x(-3), field.one()])
    return x(7), g, t


def _samples(field):
    """(q, g, t): strategy A and B data, broken-constraint quadruples and edge cases."""
    rng = random.Random(21)
    out = []
    for _ in range(3):
        for data in (sample_strategy_a(field, rng), sample_strategy_b(field, rng)):
            out.append((data.q, data.g, wedge2(data.a, data.b)))
        q, a, b, g = sample_adversarial(field, rng)
        out.append((q, g, wedge2(a, b)))
    q, g, t = out[0]
    zero = field.zero()
    out += [(field.of(-1), g, t), (q, g, [zero] * 9), (q, Matrix.zeros(field, 3), t),
            _coprime_denominators(field)]
    return out


def _assert_same(got, want):
    assert got == want
    assert hash(got) == hash(want)
    assert {type(x) for row in got.rows for x in row} == {type(got.field.zero())}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_integer_construction_matches_the_field_reference(field):
    samples = _samples(field)
    assert sum(q == 0 for q, _, _ in samples) == (field == GF(7))
    for q, g, t in samples:
        Y = skewsymmetrizer_matrix(q, g, t)
        _assert_same(Y, fref.skewsymmetrizer_matrix(q, g, t))
        R = Matrix.identity(field, 9).scale(q) - Y
        _assert_same(R, fref.q_id_minus(q, Y))
        if q == 0:  # the coprime sample over F_7, q = 7/d: the constructor's gate rejects it
            for op in (R, fref.q_id_minus(q, Y)):
                with pytest.raises(NotHeckeSym0, match="^the Hecke parameter is zero$"):
                    HeckeSymmetry(op, q)
            continue
        sym = HeckeSymmetry(R, q)
        ref = HeckeSymmetry(fref.q_id_minus(q, Y), q)
        assert sym == ref
        assert hash(sym) == hash(ref)
        _assert_same(sym.Y, Y)  # q Id - (q Id - Y) is Y again
        _assert_same(sym.Y, ref.Y)


def test_coprime_denominators_reach_the_common_scale():
    q, g, t = _coprime_denominators(QQ)
    Y = skewsymmetrizer_matrix(q, g, t)
    assert Y.integers()[1] > 1
    _assert_same(Y, fref.skewsymmetrizer_matrix(q, g, t))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_extract_F_on_integers_matches_the_field_reference(field):
    """Same (g, t), or the same error, on valid, adversarial, bumped and non-member operators."""
    outcomes = set()
    for q, Y in _reference_samples(field):
        try:
            sym = HeckeSymmetry(fref.q_id_minus(q, Y), q)
        except NotHeckeSym0:
            continue  # Y leaves the alternating square: no symmetry to extract from
        try:
            want = fref.extract_F(sym)
        except NotHeckeSym0 as exc:
            with pytest.raises(NotHeckeSym0, match=f"^{exc}$"):
                extract_F(sym)
            outcomes.add(str(exc))
            continue
        got = extract_F(sym)
        assert got.g == want.g and hash(got.g) == hash(want.g)
        assert got.t == want.t
        assert {type(x) for x in got.t} == {type(field.zero())}
        outcomes.add("zero" if got.is_zero() else "rank 1")
    assert outcomes == {"zero", "rank 1", "the invariant operator does not have rank 1",
                        "the parameter-discriminant constraint fails for the extracted operator"}

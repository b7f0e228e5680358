"""The skewsymmetrizer and q Id - M, built on integer coordinates, against the field references.

``heckecore.skewsymmetrizer_matrix`` assembles Y's 81 entries as integers over
one scale and ``heckecore.q_id_minus`` forms (a d Id - b N) / (b d); the
references in ``field_reference`` compute both on field scalars.  The two must
give equal matrices with equal hashes, entries of the field's own scalar type,
and equal ``HeckeSymmetry`` values.
"""

import random
from fractions import Fraction

import pytest

import field_reference as fref
from hecke3.fields import GF, QQ
from hecke3.heckecore import HeckeSymmetry, q_id_minus, skewsymmetrizer_matrix
from hecke3.linalg import Matrix
from hecke3.multilinear import wedge2
from hecke3.verifier import sample_adversarial, sample_strategy_a, sample_strategy_b

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
    for q, g, t in _samples(field):
        Y = skewsymmetrizer_matrix(q, g, t)
        _assert_same(Y, fref.skewsymmetrizer_matrix(q, g, t))
        R = q_id_minus(q, Y)
        _assert_same(R, fref.q_id_minus(q, Y))
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

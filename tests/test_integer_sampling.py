"""Sampling and validation on integer coordinates, against the former field-scalar bodies.

``heckecore._admissible_q`` decides (q - 1)^2 = -4 delta as (a - b)^2 d^2 = 2 S b^2 (mod p) for
q = a / b and T = t g = N / d, S = sum N_ij N_ji; ``skewsymmetrizer_matrix`` forms (q + 1) / 2 as
(a + b) / (2 b); ``verifier.sample_strategy_a`` completes a to a basis B by the unit vectors
e_i, i != L, and forms g = adj(B)^T G adj(B) / det(B)^2 on integers; ``random_invertible`` tests
the integer determinant mod p.  Each is compared, by its document or by the type and text of
what it raises, with ``field_reference.admissible_q``, ``skewsymmetrizer_matrix``,
``sample_strategy_a`` and ``random_invertible`` over Q, F_3, F_7, F_1000003 and F_(2^61 - 1).
"""

import random
from fractions import Fraction

import pytest

import field_reference as fref
from test_eigen_sides import FIELDS, FIELD_IDS
from test_scalar_door import _doc
from hecke3 import verifier
from hecke3.fields import QQ
from hecke3.heckecore import FOperator, _admissible_q, skewsymmetrizer_matrix
from hecke3.linalg import Matrix
from hecke3.multilinear import random_invertible, wedge2
from hecke3.verifier import sample_adversarial, sample_strategy_a, sample_strategy_b


def _outcome(field, call):
    """The document of what the call returns, or the type and text of what it raises."""
    try:
        return _doc(field, call())
    except Exception as exc:  # compared, not swallowed: the reference must raise the same
        return type(exc), str(exc)


def _pairs(field):
    """(q, F) and the name of its source: quadruples from the three samplers at q and q + 1,
    every single-entry bump of g that sample_adversarial tries, adversarial quadruples, q = 0 on
    a valid and on a broken F, q given as int, text and Fraction, -2/3 (not in F_3) and F = 0
    at q = 1, 3 and 5."""
    rng, out = random.Random(211), []
    for n in range(12):
        data = (sample_strategy_a if n % 2 else sample_strategy_b)(field, rng)
        f_op = FOperator(data.g, data.t)
        out += [("sample", data.q, f_op), ("q + 1", data.q + 1, f_op)]
        for i in range(3):
            for j in range(i, 3):
                bump = Matrix.of_integers(field, 3, 3, [int(c in (3 * i + j, 3 * j + i))
                                                        for c in range(9)])
                out.append(("bump", data.q, FOperator(data.g + bump, data.t)))
    for _ in range(4):
        q, a, b, g = sample_adversarial(field, rng)
        out.append(("adversarial", q, FOperator(g, wedge2(a, b))))
    zero = FOperator(Matrix.zeros(field, 3), [field.zero()] * 9)
    f_op = out[0][2]
    out += [("q = 0", 0, f_op), ("q = 0", "0", out[-1][2]), ("F = 0", 1, zero),
            ("F = 0", 3, zero), ("F = 0", 5, zero), ("F = 0", "1", zero),
            ("F = 0", Fraction(1), zero),
            ("not in F_3", "-2/3", f_op), ("not in F_3", Fraction(-2, 3), f_op),
            ("text", "1/2", f_op), ("text", "x", f_op), ("int", -1, f_op)]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_rule_for_q_matches_the_field_reference(field):
    """Same q, or the same error: passing samples and failing q + 1, bumps and adversarial
    quadruples, ZeroQ before the constraint, InputError for -2/3 over F_3, F = 0 passing at
    q = 1 and failing at q = 3 (0 over F_3, so ZeroQ there) and q = 5."""
    seen = set()
    for name, q, f_op in _pairs(field):
        got = _outcome(field, lambda: _admissible_q(q, f_op))
        assert got == _outcome(field, lambda: fref.admissible_q(q, f_op)), (name, q)
        seen.add((name, got[0].__name__ if isinstance(got, tuple) else "ok"))
        if name == "sample":
            assert got == _doc(field, field.of(q))
    assert {("sample", "ok"), ("q + 1", "InvalidConstraint"), ("bump", "InvalidConstraint"),
            ("adversarial", "InvalidConstraint"), ("q = 0", "ZeroQ"), ("F = 0", "ok"),
            ("F = 0", "InvalidConstraint")} <= seen
    assert (("not in F_3", "InputError") in seen) == (field.characteristic == 3)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_skewsymmetrizer_halves_q_plus_1_like_the_field_reference(field):
    """Same Y for sampled and adversarial quadruples at q, q + 1, -1 and q given as text."""
    rng = random.Random(223)
    for n in range(9):
        if n % 3 == 2:
            q, a, b, g = sample_adversarial(field, rng)
            t = wedge2(a, b)
        else:
            data = (sample_strategy_a if n % 3 else sample_strategy_b)(field, rng)
            q, g, t = data.q, data.g, data.t
        for x in (q, q + 1, field.of(-1), field.fmt(q)):
            assert skewsymmetrizer_matrix(x, g, t) == fref.skewsymmetrizer_matrix(
                field.of(x), g, t), (n, x)


def _chosen_pairs(field):
    """(a, b) with L = 0, 1 and 2 in the field; over F_p also a whose last coordinate is p or
    2p, 0 there but not over Z, so that L in the field is not L over Z."""
    p = field.characteristic
    out = [([2, 0, 0], [0, 1, 1]), ([-1, 0, 0], [1, 1, 1]), ([1, -1, 0], [0, 0, 1]),
           ([0, 3, 0], [1, 0, 2]), ([1, 2, 3], [0, 1, 0]), ([0, 0, 1], [1, 1, 0]),
           ([4, -4, 2], [1, 0, 0])]
    if p:
        out += [([1, 2, p], [0, 0, 1]), ([0, 1, 2 * p], [1, 0, 0]), ([3, p, p], [0, 1, 0])]
    return [(a, b) for a, b in out if any(x % p if p else x for x in wedge2(a, b))]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_strategy_a_completes_its_basis_like_the_field_reference(field, monkeypatch):
    """Chosen pairs (a, b), each with every one of 20 draws of the form, then random seeds:
    the same quadruple and the same random state afterwards."""
    p, Ls = field.characteristic, set()
    for a, b in _chosen_pairs(field):
        monkeypatch.setattr(verifier, "_random_independent_pair", lambda f, r, _ab=(a, b): _ab)
        Ls.add(max(i for i, x in enumerate(a) if (x % p if p else x)))
        for seed in range(20):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert _outcome(field, lambda: sample_strategy_a(field, rng)) == _outcome(
                field, lambda: fref.sample_strategy_a(field, ref_rng)), (a, b, seed)
            assert rng.getstate() == ref_rng.getstate()
    assert Ls == {0, 1, 2}
    monkeypatch.undo()
    for seed in range(60):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert _outcome(field, lambda: sample_strategy_a(field, rng)) == _outcome(
            field, lambda: fref.sample_strategy_a(field, ref_rng)), seed
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_random_invertible_draws_like_the_field_reference(field):
    """Same matrix and random state on 200 seeds; over F_3 and F_7 the seeds reach draws whose
    determinant is not 0 over Z but 0 in the field, which both reject."""
    p, skipped = field.characteristic, 0
    for seed in range(200):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = random_invertible(field, rng)
        assert got == fref.random_invertible(field, ref_rng), seed
        assert rng.getstate() == ref_rng.getstate(), seed
        replay = random.Random(seed)
        while True:  # the draws the reference made, with their determinants over Z
            n = [replay.randint(-3, 3) for _ in range(9)]
            det = int(fref.det(Matrix.of_integers(QQ, 3, 3, n)))
            if det % p if p else det:
                break
            skipped += det != 0
        assert Matrix.of_integers(field, 3, 3, n) == got
    assert (skipped > 0) == (p in (3, 7))


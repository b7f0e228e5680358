"""The three degree-3 checks decided on the packed braid table.

``verifier.braid_table`` packs the 18 differences D_c = b col_c - a d^2 w_c of the containments
(Y = N / d, q = a / b, w_c a spanning tensor) and decides each, with its Alt3 coefficient k_c
read off lane e1 (x) e2 (x) e3, in one ``vanishes_mod`` call.  The containments read those
verdicts and unpack only their witness column; the component identity passes by lemma where the
9 V (x) Alt2 verdicts hold, and the cyclic-shift identity compares nine scalars in k where all
18 hold; elsewhere each unpacks its columns and runs its former body.  These tests compare the
three checks with their former bodies in ``field_reference`` over Q, F_3, F_7, F_1000003 and
F_(2^61 - 1), on cases that take each lemma and each fallback, count what a suite unpacks, and
check the width lemma of ``braid_table`` on operators at the edge of its lane bound.
"""

import random
from fractions import Fraction

import pytest

import field_reference as fref
from test_braid_closed_form import projection_failing
from test_braid_table import braid_corpus
from test_eigen_sides import FIELDS, FIELD_IDS, _bumped, _outcome
from test_one_pass_checks import _doctored
from test_packed_kernel import NUMERATOR_30, exact_product, extreme_operators, largest
from hecke3 import multilinear, verifier
from hecke3.classify import canonical
from hecke3.errors import Hecke3Error
from hecke3.heckecore import HeckeSymmetry, build_R, conjugate_data, extract_F, t_operator_of_F
from hecke3.linalg import Matrix, integer_coordinates, reduce_mod
from hecke3.multilinear import (
    _ALT3_UNIT,
    _ANTISYM,
    bivector,
    idx2,
    idx3,
    is_alt3,
    random_invertible,
    slot_action,
    unit_tensors,
)
from hecke3.verifier import (
    braid_table,
    check_component_identity,
    check_containments,
    check_cyclic_shift_identity,
    run_suite,
    sample_strategy_a,
    sample_strategy_b,
)


def _operators(field, q, Y, fallback):
    """T, 2 T and T + Id for the T of the symmetry (q, Y), or ``fallback`` where (q, Y) has none."""
    try:
        T = t_operator_of_F(extract_F(HeckeSymmetry(fref.q_id_minus(q, Y), q)))
    except Hecke3Error:
        return [fallback]
    return [T, T.scale(field.of(2)), T + Matrix.identity(field, 3)]


def cases(field):
    """(q, Y, table, former table, Ts): the braid corpus (strategy A and B at q, q + 1 and 3 Y,
    adversarial, Id - flip), Types 1 and 2 moved at q = -1 and sampled Y at -1, braid-failing
    projections (q + 1) P, symmetries with a column pair jk, kj bumped by -+ a unit bivector
    (still inside Alt2), and a valid symmetry's tables doctored at each of the 18 columns, where
    exactly one verdict fails.  Ts holds T, 2 T and T + Id where (q, Y) has a T, else a sampled
    symmetry's T; the tables are None where the checks form their own."""
    rng = random.Random(67)
    syms = [build_R(sampler(field, rng)) for sampler in (sample_strategy_a, sample_strategy_b)]
    pairs = braid_corpus(field) + [(field.of(-1), sym.Y) for sym in syms]
    for label in ("Type1", "Type2"):
        sym = build_R(conjugate_data(canonical(label, -1, field), random_invertible(field, rng)))
        pairs.append((sym.q, sym.Y))
    pairs += [projection_failing(field, rng) for _ in range(3)]
    one = field.one()
    for n, sym in enumerate(syms * 3):
        (j, k), t = ((0, 1), (1, 2), (2, 0))[n % 3], bivector(unit_tensors(1)[n % 3])
        pairs.append((sym.q, _bumped(sym.Y, [(r, c, x * sign * one) for r, x in enumerate(t) if x
                                             for c, sign in ((idx2(j, k), 1), (idx2(k, j), -1))])))
    fallback = t_operator_of_F(extract_F(syms[0]))
    out = [(q, Y, None, None, _operators(field, q, Y, fallback)) for q, Y in pairs]
    q, Y = syms[0].q, syms[0].Y
    table, ref, Ts = braid_table(Y, q), fref.braid_table(Y, q), _operators(field, q, Y, fallback)
    return out + [(q, Y, *_doctored(field, q, table, ref, c), Ts) for c in range(18)]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_three_checks_equal_their_former_bodies(field):
    """Same documents, witnesses included, as the former bodies on every case and T; both sides
    of each lemma's hypothesis are reached, with passing and failing reports on each side the
    check can fail on, and each doctored table has exactly one false verdict."""
    seen = {"containments": set(), "component": set(), "cyclic": set()}
    for q, Y, table, ref, Ts in cases(field):
        alt3 = (table or braid_table(Y, q))[1]
        if table is not None:
            assert [ok for _, ok in alt3].count(False) == 1
        checks = [("containments", True, check_containments(Y, q, table),
                   lambda: fref.containments(Y, q, ref)),
                  ("component", all(ok for _, ok in alt3[:9]),
                   check_component_identity(Y, q, table),
                   lambda: fref.component_identity(Y, q, ref))]
        checks += [("cyclic", all(ok for _, ok in alt3),
                    check_cyclic_shift_identity(Y, T, q, table),
                    lambda T=T: fref.cyclic_shift_identity(Y, T, q, ref)) for T in Ts]
        for name, lemma, got, want in checks:
            assert got.to_json() == _outcome(want), (name, q)
            seen[name].add((lemma, got.passed))
    assert seen["containments"] == {(True, True), (True, False)}
    assert {(True, True), (False, False)} <= seen["component"]
    assert {(True, True), (True, False), (False, False)} <= seen["cyclic"]


def _unpack_counts(monkeypatch):
    """The batch size of every unpack call, through verifier and multilinear, in a filling list."""
    calls, kernel = [], multilinear.unpack

    def counted(cols, w, p):
        calls.append(len(cols))
        return kernel(cols, w, p)

    monkeypatch.setattr(verifier, "unpack", counted)
    monkeypatch.setattr(multilinear, "unpack", counted)
    return calls


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_passing_suite_unpacks_nothing_and_a_failing_containment_one_column(field, monkeypatch):
    """run_suite of sampled symmetries passes with no unpack; on the bumped symmetries the
    containments fail and unpack one column, the fallbacks 9 (component) and 18 (cyclic)."""
    calls, rng = _unpack_counts(monkeypatch), random.Random(71)
    for sampler in (sample_strategy_a, sample_strategy_b) * 2:
        sym = build_R(sampler(field, rng))
        assert all(rep.passed for rep in run_suite(sym))
        assert calls == []
    failed = 0
    for q, Y, table, _, Ts in cases(field):
        if table is None and not check_containments(Y, q).passed:
            calls.clear()
            assert not check_containments(Y, q, table := braid_table(Y, q)).passed
            assert calls == [1]
            calls.clear()
            check_component_identity(Y, q, table)
            check_cyclic_shift_identity(Y, Ts[0], q, table)
            assert calls == ([18] if all(ok for _, ok in table[1][:9]) else [9, 18])
            failed += 1
    assert failed


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_adversarial_fuzz_decides_no_containment(field, monkeypatch):
    """fuzz --adversarial reads only the braid: no vanishes_mod call on 18 containment columns."""
    sizes, kernel = [], verifier.vanishes_mod
    monkeypatch.setattr(verifier, "vanishes_mod",
                        lambda cols, w, p: sizes.append(len(cols)) or kernel(cols, w, p))
    assert verifier.fuzz(field, 3, 1, adversarial=True).passed
    assert sizes == [27] * 3


def _alternating_extremes(field, rng):
    """Operators whose 9 columns are bivectors with entries +-m, m the largest residue nearest
    zero over F_p, and a 30-digit numerator over 13 (d > 1) over Q, random signs."""
    p = field.characteristic
    m, d = ((p - 1) // 2, 1) if p else (NUMERATOR_30, 13)
    out = []
    for _ in range(3):
        cols = [bivector([rng.choice((-1, 1)) * m for _ in range(3)]) for _ in range(9)]
        out.append(Matrix.of_integers(field, 9, 9, [cols[c][r] for r in range(9)
                                                    for c in range(9)], d))
    return out


@pytest.mark.parametrize("field", [FIELDS[0], FIELDS[-1]], ids=[FIELD_IDS[0], FIELD_IDS[-1]])
def test_the_width_lemma_holds_at_the_edge_of_its_bound(field):
    """At w = 3 bitlen(s) + 2, s = |a| d + 3 b m: every lane of D_c is at most 6 b m^2 + |a| d^2,
    a bound the extreme operators reach, and every lane of D_c - k_c e1^e2^e3 at most
    2 s^2 < 2^(w-1); the packed D_c, k_c and verdicts equal those of the exact products.  The
    operators: alternating and general ones with entries +-m, at q with |a| as large (p - 2 and
    (p - 1) / 2 over F_(2^61 - 1), +-10^30 / 7 over Q) and as small (1) as the field allows, and
    sampled symmetries at their q (over Q their Y has d > 1)."""
    rng, p = random.Random(73), field.characteristic
    ys = _alternating_extremes(field, rng) + extreme_operators(field)
    qs = [p - 2, (p - 1) // 2, 1] if p else [Fraction(10 ** 30, 7), Fraction(-10 ** 30, 7), 1]
    pairs = [(field.of(q), Y) for Y in ys for q in qs]
    syms = [build_R(sampler(field, rng)) for sampler in (sample_strategy_a, sample_strategy_b)]
    pairs += [(sym.q, sym.Y) for sym in syms]
    assert any(sym.Y.integers()[1] > 1 for sym in syms) or p
    e3, reached, verdicts = unit_tensors(3), False, set()
    for q, Y in pairs:
        (y1, d, m), (y2, _, _) = slot_action(Y, 0, 1), slot_action(Y, 1, 2)
        (a,), b = integer_coordinates(field, [q])
        s = abs(a) * d + 3 * b * m
        diffs, alt3, _, braid = braid_table(Y, q)
        w = braid[2]
        assert w == 3 * s.bit_length() + 2
        exact = [[b * (x - y) - a * d * d * (e3[u][o] - e3[v][o])
                  for o, (x, y) in enumerate(zip(cols[u], cols[v]))]
                 for cols, half in ((exact_product((y2, y1)), _ANTISYM[0]),
                                    (exact_product((y1, y2)), _ANTISYM[1])) for u, v in half]
        lane = 6 * b * m * m + abs(a) * d * d
        rest = [[x - col[idx3(0, 1, 2)] * t for x, t in zip(col, _ALT3_UNIT)] for col in exact]
        assert largest(exact) <= lane and largest(rest) <= 2 * s * s < 2 ** (w - 1)
        reached |= largest(exact) == lane
        assert multilinear.unpack(diffs, w, 0) == exact
        want = [(col[idx3(0, 1, 2)], is_alt3(reduce_mod(col, p))) for col in exact]
        assert alt3 == want
        verdicts |= {ok for _, ok in alt3}
    assert reached and verdicts == {True, False}

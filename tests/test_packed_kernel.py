"""The packed-column kernel of the degree-3 checks against two references.

``check_braid``, ``braid_table`` and ``check_cybe`` form every product of slot
actions as packed integer columns (``multilinear.slot_product``).  Each is
compared here with the list action that formed one coordinate at a time
(``field_reference.slot_action``) and with dense Kronecker products of 27x27
matrices, over Q, F_3, F_7, F_1000003 and F_(2^61 - 1).  The samples are
strategy A and B symmetries (their R, Y and classical r), adversarial
operators, the zero operator, and extreme operators whose entries are all
+-m; on the extreme operators the exact coordinates of every product and
difference are checked against the packing bound 2^(w - 1).  The checks
unpack a column only where the packed ints cannot decide it.
"""

import random
from functools import lru_cache

import pytest

import field_reference as fref
import hecke3.cybe as cybe
from hecke3 import verifier
from hecke3.cybe import GlTensor, check_cybe, classical_r
from hecke3.fields import GF, QQ
from hecke3.heckecore import build_R, skewsymmetrizer_matrix
from hecke3.linalg import Matrix, field_scalars, reduce_mod
from hecke3.multilinear import (
    alt2_basis,
    idx3,
    lift_left,
    lift_right,
    slot_action,
    slot_product,
    tensor2,
    unit_tensors,
    unpack,
    wedge2,
)
from hecke3.verifier import (
    braid_table,
    check_braid,
    column_witness,
    columns_witness,
    sample_adversarial,
    sample_strategy_a,
    sample_strategy_b,
)

FIELDS = [QQ, GF(3), GF(7), GF(1000003), GF(2**61 - 1)]
FIELD_IDS = ["Q", "Fp3", "Fp7", "Fp1000003", "Fp2^61-1"]
PAIRS = ((0, 1), (0, 2), (1, 2))  # e_j ^ e_k = alt2_basis()[s] for (j, k) = PAIRS[s]
NUMERATOR_30 = 123456789012345678901234567891  # 30 digits


def extreme_operators(field):
    """9x9 operators whose entries are all +-m: m = p - 1 and (p - 1) / 2 over F_p (the
    largest residue nearest zero), a 30-digit numerator over Q; all plus, and random signs."""
    rng = random.Random(41)
    p = field.characteristic
    scales = [(m, 1) for m in (p - 1, (p - 1) // 2)] if p else [(NUMERATOR_30, 1),
                                                                 (NUMERATOR_30, 13)]
    ops = []
    for m, d in scales:
        ops.append(Matrix.of_integers(field, 9, 9, [m] * 81, d))
        for _ in range(3):
            signs = [rng.choice((-1, 1)) for _ in range(81)]
            ops.append(Matrix.of_integers(field, 9, 9, [s * m for s in signs], d))
    return ops


@lru_cache(maxsize=None)
def samples(field):
    """(name, 9x9 operator) pairs: R, Y and the classical r-matrix of strategy A and B
    symmetries, adversarial operators, the zero operator and the extreme operators."""
    rng = random.Random(37)
    ops = []
    for n in range(2):
        for strategy, sampler in (("A", sample_strategy_a), ("B", sample_strategy_b)):
            sym = build_R(sampler(field, rng))
            ops += [(f"{strategy}{n}-R", sym.R), (f"{strategy}{n}-Y", sym.Y),
                    (f"{strategy}{n}-r", classical_r(sym).matrix)]
        q, a, b, g = sample_adversarial(field, rng)
        Y = skewsymmetrizer_matrix(q, g, wedge2(a, b))
        ops.append((f"adversarial{n}", Matrix.identity(field, 9).scale(q) - Y))
    ops.append(("zero", Matrix.zeros(field, 9)))
    ops += [(f"extreme{n}", op) for n, op in enumerate(extreme_operators(field))]
    return tuple(ops)


def swap23(field):
    """The permutation e_i (x) e_j (x) e_k -> e_i (x) e_k (x) e_j on the third tensor power."""
    cols = [unit_tensors(3)[idx3(i, k, j)] for i in range(3) for j in range(3) for k in range(3)]
    return Matrix.from_columns(field, cols)


def dense_slots(op):
    """op acting on slots (1,2), (1,3) and (2,3) of the third tensor power, as 27x27 matrices."""
    r12, s = lift_left(op), swap23(op.field)
    return r12, s * r12 * s, lift_right(op)


def integer_action(moves, col):
    """A move table applied to an integer column, with no reduction."""
    out = [0] * 27
    for b, c in enumerate(col):
        for o, x in moves[b]:
            out[o] += x * c
    return out


def exact_product(factors):
    """The integer columns of a product of move tables, leftmost factor first."""
    cols = []
    for e in unit_tensors(3):
        for moves in reversed(factors):
            e = integer_action(moves, e)
        cols.append(e)
    return cols


def largest(cols):
    return max(abs(c) for col in cols for c in col)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_braid_witness_matches_the_list_action_and_the_dense_products(field):
    verdicts = set()
    for name, R in samples(field):
        report = check_braid(R)
        (r1, d), (r2, _) = fref.slot_action(R, 0, 1), fref.slot_action(R, 1, 2)
        columns = ((r1(r2(r1(w))), r2(r1(r2(w)))) for w in unit_tensors(3))
        assert report.witness == columns_witness(field, columns, d ** 3), name
        L, _, Rr = dense_slots(R)
        assert report.witness == column_witness(L * Rr * L, Rr * L * Rr), name
        verdicts.add(report.passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_braid_table_matches_the_list_action_and_the_dense_products(field):
    e = unit_tensors(1)
    for name, Y in samples(field):
        vxa, axv, d = braid_table(Y)
        assert d == Y.integers()[1], name
        (y1, _), (y2, _) = fref.slot_action(Y, 0, 1), fref.slot_action(Y, 1, 2)
        assert vxa == [[y2(y1(tensor2(e[i], t))) for t in alt2_basis()] for i in range(3)], name
        assert axv == [[y1(y2(tensor2(t, e[i]))) for t in alt2_basis()] for i in range(3)], name
        L, _, Rr = dense_slots(Y)
        for table, product, slots in ((vxa, Rr * L, lambda i, j, k: (i, j, k)),
                                      (axv, L * Rr, lambda i, j, k: (j, k, i))):
            n, m = product.integers()
            for i in range(3):
                for s, (j, k) in enumerate(PAIRS):
                    c, c2 = idx3(*slots(i, j, k)), idx3(*slots(i, k, j))
                    want = field_scalars(field, [x - y for x, y in zip(n[c::27], n[c2::27])], m)
                    assert field_scalars(field, table[i][s], d * d) == want, name


def reference_cybe_witness(op):
    """The former check_cybe body: the three commutators one basis tensor at a time."""
    field = op.field
    (r12, d), (r13, _), (r23, _) = (fref.slot_action(op, *s) for s in PAIRS)

    def commutators(w):
        out = [0] * 27
        for x, y in ((r12, r13), (r12, r23), (r13, r23)):
            out = [a + b - c for a, b, c in zip(out, x(y(w)), y(x(w)))]
        return reduce_mod(out, field.characteristic)

    columns = ((commutators(w), [0] * 27) for w in unit_tensors(3))
    return columns_witness(field, columns, d * d)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_cybe_witness_matches_the_list_action_and_the_dense_products(field):
    verdicts = set()
    for name, op in samples(field):
        report = check_cybe(GlTensor(op, (), ()))
        assert report.witness == reference_cybe_witness(op), name
        r12, r13, r23 = dense_slots(op)
        zero = Matrix.zeros(field, 27)
        total = zero
        for x, y in ((r12, r13), (r12, r23), (r13, r23)):
            total = total + (x * y - y * x)
        assert report.witness == column_witness(total, zero), name
        verdicts.add(report.passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_extreme_operators_stay_inside_the_packing_bound(field):
    """Every product and difference the three checks unpack stays below 2^(w - 1), and a
    width from bitlen(m) in place of bitlen(9m) would not hold it."""
    for op in extreme_operators(field):
        a01, a02, a12 = (slot_action(op, *s) for s in PAIRS)
        m = a01[2]
        assert m == max(abs(x) for x in reduce_mod(op.integers()[0], field.characteristic)) > 0
        bits, tight = (9 * m).bit_length(), m.bit_length()
        r1, r2, r13 = a01[0], a12[0], a02[0]

        lhs, rhs = exact_product((r1, r2, r1)), exact_product((r2, r1, r2))
        diff = [[x - y for x, y in zip(a, b)] for a, b in zip(lhs, rhs)]
        assert largest(lhs + rhs + diff) < 2 ** (3 * bits + 1)
        if op.integers()[0] == [op.integers()[0][0]] * 81:  # all plus: 27 m^3 in every entry
            assert largest(lhs) >= 2 ** (3 * tight + 1)

        y21, y12 = exact_product((r2, r1)), exact_product((r1, r2))
        table = [[x - y for x, y in zip(p[idx3(*a)], p[idx3(*b)])]
                 for p, a, b in [(y21, (i, j, k), (i, k, j)) for i in range(3) for j, k in PAIRS]
                 + [(y12, (j, k, i), (k, j, i)) for i in range(3) for j, k in PAIRS]]
        assert largest(y21 + y12 + table) < 2 ** (2 * bits + 1)

        products = [exact_product(f) for x, y in ((r1, r13), (r1, r2), (r13, r2))
                    for f in ((x, y), (y, x))]
        total = [[sum(p[c][o] * (-1) ** n for n, p in enumerate(products)) for o in range(27)]
                 for c in range(27)]
        assert largest(sum(products, []) + total) < 2 ** (2 * bits + 3)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_packed_columns_unpack_to_the_exact_product(field):
    """slot_product and unpack at the checks' widths give the exact integer product, reduced."""
    p = field.characteristic
    for name, op in samples(field):
        (r1, _, m), (r2, _, _) = slot_action(op, 0, 1), slot_action(op, 1, 2)
        w = 3 * (9 * m).bit_length() + 2
        got = [unpack(v, w, p) for v in slot_product((r1, r2, r2), w)]
        assert got == [reduce_mod(col, p) for col in exact_product((r1, r2, r2))], name


def recorded_unpacks(monkeypatch, module):
    """The (width, modulus) of every unpack the module calls, in a list that fills as it runs."""
    calls = []

    def recording(v, w, p):
        calls.append((w, p))
        return unpack(v, w, p)

    monkeypatch.setattr(module, "unpack", recording)
    return calls


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_braid_unpacks_differences_mod_p_and_both_sides_only_at_the_witness(field, monkeypatch):
    """Over Q unequal packed ints are a mismatch and only the witness column is unpacked; over
    F_p each unequal pair up to the first mismatch unpacks its difference, mod p."""
    calls, p = recorded_unpacks(monkeypatch, verifier), field.characteristic
    for name, R in samples(field):
        (r1, _, m), (r2, _, _) = slot_action(R, 0, 1), slot_action(R, 1, 2)
        w = 3 * (9 * m).bit_length() + 2
        pairs = list(zip(slot_product((r1, r2, r1), w), slot_product((r2, r1, r2), w)))
        calls.clear()
        report = check_braid(R)
        assert all(call == (w, p) for call in calls), name
        if report.passed:
            assert len(calls) == (sum(x != y for x, y in pairs) if p else 0), name
        else:
            c = idx3(*(i - 1 for i in report.witness["input"]["basis_tensor"]))
            assert len(calls) == (sum(x != y for x, y in pairs[:c + 1]) if p else 0) + 2, name


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_cybe_unpacks_only_nonzero_columns_up_to_the_witness(field, monkeypatch):
    calls, p = recorded_unpacks(monkeypatch, cybe), field.characteristic
    for name, op in samples(field):
        calls.clear()
        report = check_cybe(GlTensor(op, (), ()))
        m = slot_action(op, 0, 1)[2]
        assert all(call == (2 * (9 * m).bit_length() + 4, p) for call in calls), name
        if not p:
            assert len(calls) == (0 if report.passed else 1), name

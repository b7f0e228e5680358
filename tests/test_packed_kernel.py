"""The packed-column kernel of the degree-3 checks against two references.

``check_braid``, ``braid_table`` and ``check_cybe`` form every product of slot
actions as packed integer columns (``multilinear.slot_product``; where every column of Y
alternates, ``braid_table`` forms the same columns off the pairing coordinates of Y, which
``test_braid_closed_form`` compares with the slot kernel).  Each is
compared here with the list action that formed one coordinate at a time
(``field_reference.slot_action``) and with dense Kronecker products of 27x27
matrices, over Q, F_3, F_7, F_1000003 and F_(2^61 - 1).  The samples are
strategy A and B symmetries (their R, Y and classical r), adversarial
operators, the zero operator, and extreme operators whose entries are all
+-m; on the extreme operators the exact coordinates of every product and
difference are checked against the packing bound 2^(w - 1).  The checks
decide each packed column with ``multilinear.vanishes_mod``, one exact division
per column over F_p, and unpack only the two sides of the witness column; the
batch kernels ``vanishes_mod`` and ``unpack`` are compared with the former
lane-by-lane kernels of ``field_reference``.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

import field_reference as fref
from hecke3 import verifier
from hecke3.cybe import GlTensor, check_cybe, classical_r
from hecke3.fields import GF, QQ
from hecke3.heckecore import build_R, skewsymmetrizer_matrix
from hecke3.linalg import Matrix, field_scalars, integer_coordinates, reduce_mod
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
    vanishes_mod,
    wedge2,
)
from hecke3.verifier import (
    braid_table,
    check_braid,
    column_witness,
    sample_adversarial,
    sample_strategy_a,
    sample_strategy_b,
)

FIELDS = [QQ, GF(3), GF(7), GF(1000003), GF(2**61 - 1)]
FIELD_IDS = ["Q", "Fp3", "Fp7", "Fp1000003", "Fp2^61-1"]
PAIRS = ((0, 1), (0, 2), (1, 2))  # e_j ^ e_k = alt2_basis()[s] for (j, k) = PAIRS[s]
NUMERATOR_30 = 123456789012345678901234567891  # 30 digits
NUMERATOR_20 = 98765432109876543211  # 20 digits


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


def zero_columns(op, cols):
    """op with the columns ``cols`` set to zero."""
    n, d = op.integers()
    return Matrix.of_integers(op.field, 9, 9, [0 if c % 9 in cols else x for c, x in enumerate(n)],
                              d)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_slot_action_matches_the_list_action_move_for_move(field):
    """The move tables read off one scan of the columns hold, per basis tensor, the set of moves
    the list action applied one basis tensor at a time, on all three slot pairs; d and m too."""
    ops = [op for _, op in samples(field)]
    ops += [zero_columns(op, cols) for op in ops[:6] for cols in ({0, 4, 8}, set(range(9)) - {5})]
    for op in ops:
        for s, t in PAIRS:
            moves, d, m = slot_action(op, s, t)
            act, d_ref = fref.slot_action(op, s, t)
            assert d == d_ref
            assert m == max((abs(x) for mv in moves for _, x in mv), default=0)
            assert all(len(set(mv)) == len(mv) for mv in moves)
            assert [set(mv) for mv in moves] == [{(o, x) for o, x in enumerate(act(e)) if x}
                                                 for e in unit_tensors(3)]


def lane_values(w, p):
    """(zeros, others): coordinates below the packing bound 2^(w - 1) that are 0 mod p (0, +-p,
    +-the largest multiple of p) and that need not be (+-1, +-(2^(w - 1) - 1))."""
    top = 2 ** (w - 1) - 1
    zeros = sorted({c for c in (0, p, -p, top - top % p, top % p - top) if abs(c) <= top})
    return zeros, sorted({c for c in (1, -1, top, -top) if abs(c) <= top} - set(zeros))


@pytest.mark.parametrize("p", [3, 7, 1000003, 2**61 - 1], ids=FIELD_IDS[1:])
def test_vanishes_mod_is_unpacking_to_zero(p):
    """The batch kernels agree, column by column and in the batch's order, with the former
    lane-by-lane kernels of field_reference and with the coordinates themselves, at every width
    from 1 (below bitlen(p), where t = (2^(w - 1) - 1) // p = 0 and only 0 vanishes) to
    3 bitlen(p) + 7.  The columns: every pair of lane values on two adjacent lanes (the low two
    and the top two) with the rest 0, where a carry between lanes can make the whole int a
    multiple of p though a lane is not, and columns of values 0 mod p with up to two others."""
    rng, verdicts = random.Random(p), set()
    for w in range(1, 3 * p.bit_length() + 8):
        zeros, others = lane_values(w, p)
        columns = []
        for (a, b), k in product(product(zeros + others, repeat=2), (0, 25)):
            columns.append([0] * 27)
            columns[-1][k:k + 2] = a, b
        for n in range(60):
            columns.append([rng.choice(zeros) for _ in range(27)])
            for _ in range(n % 3 if others else 0):
                columns[-1][rng.randrange(27)] = rng.choice(others)
        rng.shuffle(columns)
        packed = [sum(c << (w * k) for k, c in enumerate(col)) for col in columns]
        got = vanishes_mod(packed, w, p)
        assert got == [fref.vanishes_mod(v, w, p) for v in packed], w
        assert got == [not any(reduce_mod(col, p)) for col in columns], w
        assert got == [vanishes_mod([v], w, p)[0] for v in packed], w
        assert vanishes_mod(packed, w, 0) == [not any(col) for col in columns], w
        assert unpack(packed, w, p) == [fref.unpack(v, w, p) for v in packed], w
        assert unpack(packed, w, 0) == columns, w
        verdicts.update(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_braid_witness_matches_the_list_action_and_the_dense_products(field):
    verdicts = set()
    for name, R in samples(field):
        report = check_braid(R)
        (r1, d), (r2, _) = fref.slot_action(R, 0, 1), fref.slot_action(R, 1, 2)
        columns = ((r1(r2(r1(w))), r2(r1(r2(w)))) for w in unit_tensors(3))
        assert report.witness == fref.columns_witness(field, columns, d ** 3), name
        L, _, Rr = dense_slots(R)
        assert report.witness == column_witness(L * Rr * L, Rr * L * Rr), name
        verdicts.add(report.passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_braid_table_matches_the_list_action_and_the_dense_products(field):
    """At q = 0 the table's differences b col - a d^2 w are its columns, as the slot actions and
    the dense 27x27 products form them."""
    e = unit_tensors(1)
    for name, Y in samples(field):
        diffs, _, d, braid = braid_table(Y, 0)
        cols = unpack(diffs, braid[2], field.characteristic)
        vxa, axv = [cols[i:i + 3] for i in (0, 3, 6)], [cols[i:i + 3] for i in (9, 12, 15)]
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
    return fref.columns_witness(field, columns, d * d)


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


def extreme_pairs(field):
    """(q, Y) on the extreme operators: q = 0 (the braid of R alone) and q far from 0, 10^30 / 7
    and -10^30 / 7 over Q, also against Y with 20-digit entries, and p - 2 over F_p."""
    p = field.characteristic
    ys = extreme_operators(field)
    if not p:
        rng = random.Random(43)
        ys += [Matrix.of_integers(field, 9, 9, [rng.choice((-1, 1)) * NUMERATOR_20
                                                for _ in range(81)], d) for d in (1, 3)]
    qs = [0, p - 2] if p else [0, Fraction(10 ** 30, 7), Fraction(-10 ** 30, 7)]
    return [(field.of(q), Y) for Y in ys for q in qs]


def affine(moves, ad, b):
    """The move table of a d Id - b N from that of N."""
    return [[(c, ad)] + [(o, -b * x) for o, x in mv] for c, mv in enumerate(moves)]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_extreme_operators_stay_inside_the_packing_bound(field, monkeypatch):
    """Every product and difference the degree-3 checks unpack stays below 2^(w - 1) at the width
    w they pack at: for the braid and its table of (Y, q = a / b), Y = N / d, the rule's
    w = 3 bitlen(|a| d + 3 b m) + 2, reached as (3m)^3 by the all-plus operator at q = 0, where
    bitlen(m) would not hold it; for CYBE 2 bitlen(9m) + 4.  The braid reports, witnesses
    included, equal the former kernel's in the suite and alone."""
    widths, packed = [], verifier.slot_product
    monkeypatch.setattr(verifier, "slot_product",
                        lambda factors, w, cols=None: widths.append(w) or packed(factors, w, cols))
    for q, Y in extreme_pairs(field):
        (y1, d, m), (y2, _, _) = slot_action(Y, 0, 1), slot_action(Y, 1, 2)
        assert m == max(abs(x) for x in reduce_mod(Y.integers()[0], field.characteristic)) > 0
        (a,), b = integer_coordinates(field, [q])
        widths.clear()
        table = braid_table(Y, q)
        w = 3 * (abs(a) * d + 3 * b * m).bit_length() + 2
        assert set(widths) == {w}

        m1, m2 = affine(y1, a * d, b), affine(y2, a * d, b)
        lhs, rhs = exact_product((m1, m2, m1)), exact_product((m2, m1, m2))
        diff = [[x - y for x, y in zip(u, v)] for u, v in zip(lhs, rhs)]
        y21, y12 = exact_product((y2, y1)), exact_product((y1, y2))
        cols = [[x - y for x, y in zip(p[idx3(*u)], p[idx3(*v)])]
                for p, u, v in [(y21, (i, j, k), (i, k, j)) for i in range(3) for j, k in PAIRS]
                + [(y12, (j, k, i), (k, j, i)) for i in range(3) for j, k in PAIRS]]
        assert largest(lhs + rhs + diff + cols) < 2 ** (w - 1)
        if a == 0 and Y.integers()[0] == [Y.integers()[0][0]] * 81:  # all plus
            assert largest(lhs) == (3 * m) ** 3 >= 2 ** (3 * m.bit_length() + 1)

        R = Matrix.identity(field, 9).scale(q) - Y
        want = fref.braid(R).to_json()
        assert check_braid(R, table).to_json() == want
        assert check_braid(R).to_json() == want

    for op in extreme_operators(field):
        a01, a02, a12 = (slot_action(op, *s) for s in PAIRS)
        m, (r1, r13, r2) = a01[2], (a01[0], a02[0], a12[0])
        products = [exact_product(f) for x, y in ((r1, r13), (r1, r2), (r13, r2))
                    for f in ((x, y), (y, x))]
        total = [[sum(p[c][o] * (-1) ** n for n, p in enumerate(products)) for o in range(27)]
                 for c in range(27)]
        assert largest(sum(products, []) + total) < 2 ** (2 * (9 * m).bit_length() + 3)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_packed_columns_unpack_to_the_exact_product(field):
    """slot_product and unpack at the checks' widths give the exact integer product, reduced."""
    p = field.characteristic
    for name, op in samples(field):
        (r1, _, m), (r2, _, _) = slot_action(op, 0, 1), slot_action(op, 1, 2)
        w = 3 * (9 * m).bit_length() + 2
        got = unpack(slot_product((r1, r2, r2), w), w, p)
        assert got == [reduce_mod(col, p) for col in exact_product((r1, r2, r2))], name


def recorded(monkeypatch, name):
    """The (width, modulus, batch size) of every call of verifier.<name> (``unpack`` or
    ``vanishes_mod``), in a list that fills as it runs: check_braid, braid_table and, through
    packed_witness, check_cybe all call them there."""
    calls, kernel = [], getattr(verifier, name)

    def recording(columns, w, p):
        calls.append((w, p, len(columns)))
        return kernel(columns, w, p)

    monkeypatch.setattr(verifier, name, recording)
    return calls


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_braid_unpacks_differences_mod_p_and_both_sides_only_at_the_witness(field, monkeypatch):
    """One vanishes_mod call decides the 27 differences of the packed sides (over Q, v == 0; over
    F_p, one exact division each); over both, unpack runs on no column of a pass and once, on the
    two sides of the witness column, on a failure.  braid_table decides its 18 containment
    differences in one more vanishes_mod call and unpacks nothing."""
    unpacks, p = recorded(monkeypatch, "unpack"), field.characteristic
    tests = recorded(monkeypatch, "vanishes_mod")
    verdicts = set()
    for name, R in samples(field):
        w = 3 * (3 * slot_action(R, 0, 1)[2]).bit_length() + 2  # alone: Y = -R, q = 0
        unpacks.clear()
        tests.clear()
        report = check_braid(R)
        assert tests == [(w, p, 27)], name
        assert unpacks == ([] if report.passed else [(w, p, 2)]), name
        verdicts.add(report.passed)
        unpacks.clear()
        tests.clear()
        braid_table(-R, 0)
        assert (unpacks, tests) == ([], [(w, p, 18)]), name
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_cybe_unpacks_only_nonzero_columns_up_to_the_witness(field, monkeypatch):
    """As the braid: one vanishes_mod call on the 27 columns of the commutator sum, and over Q and
    F_p alike no unpack on a pass and one, of the witness column and its zero side, on a failure."""
    unpacks, p = recorded(monkeypatch, "unpack"), field.characteristic
    tests = recorded(monkeypatch, "vanishes_mod")
    verdicts = set()
    for name, op in samples(field):
        w = 2 * (9 * slot_action(op, 0, 1)[2]).bit_length() + 4
        unpacks.clear()
        tests.clear()
        report = check_cybe(GlTensor(op, (), ()))
        assert tests == [(w, p, 27)], name
        assert unpacks == ([] if report.passed else [(w, p, 2)]), name
        verdicts.add(report.passed)
    assert verdicts == {True, False}

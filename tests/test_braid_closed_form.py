"""The braid table read off the pairing coordinates of Y, against the slot kernel.

Where every column of Y = N / d alternates, ``verifier.braid_table`` forms its packed columns as
three-term combinations in l_c = (N[1,c], N[2,c], N[5,c]) (the lemma is in its docstring), and
``check_braid`` decides the braid on one packed difference, forming both sides at a witness
column only.  Elsewhere the slot kernel runs, as it does for ``check_braid(R)`` alone.  These
tests compare, over Q, F_3, F_7, F_1000003 and F_(2^61 - 1), the table with the former
``verifier.braid_table`` (``field_reference.braid_table``): the 18 differences b col - a d^2 w
that the containments read, unpacked, with their Alt3 coefficients and verdicts, d, the width
and scale, and every packed column of both sides; the braid report with the former
``check_braid`` on R's own products (``field_reference.braid``); and each suite report, witnesses
included, with the former check bodies in ``field_reference``.
"""

import random

import pytest

import field_reference as fref
from test_braid_table import braid_corpus
from test_eigen_sides import FIELDS, FIELD_IDS, _bumped, _outcome
from hecke3 import verifier
from hecke3.errors import NotHeckeSym0
from hecke3.heckecore import HeckeSymmetry, build_R, flip_matrix
from hecke3.linalg import Matrix, integer_coordinates, reduce_mod
from hecke3.multilinear import (
    alt2_basis,
    idx2,
    idx3,
    is_alt3,
    non_alternating_columns,
    tensor2,
    unit_tensors,
    unpack,
)
from hecke3.verifier import (
    CheckReport,
    braid_table,
    check_braid,
    check_component_identity,
    check_containments,
    check_cyclic_shift_identity,
    packed_witness,
    run_suite,
    sample_strategy_a,
    sample_strategy_b,
)


def projection_failing(field, rng):
    """(q, Y = (q + 1) P) for P = A (Id - G S) a projection onto Alt2 along a complement chosen
    by a random G with entries in {-1, 0, 1}, A = (Id - flip) / 2 and S = (Id + flip) / 2."""
    one, flip, half = Matrix.identity(field, 9), flip_matrix(field), field.one() / 2
    G = Matrix.of_integers(field, 9, 9, [rng.randint(-1, 1) for _ in range(81)])
    P = (one - flip).scale(half) * (one - G * (one + flip).scale(half))
    q = field.of(rng.choice((2, 3, 5, "1/2")))
    return q, P.scale(q + 1)


def cases(field):
    """(name, q, Y): the braid corpus (strategy A and B at q, q + 1 and 3 Y, adversarial, and
    Id - flip), symmetries at q = -1, braid-failing projections (q + 1) P, and symmetries with
    columns moved out of Alt2, where the slot kernel runs: a diagonal coordinate of a random
    column bumped, and at q + 1 the e1 (x) e1 coordinate of column e1 (x) e1 and the e2 (x) e3
    coordinate of column e2 (x) e2."""
    rng = random.Random(61)
    out = [("corpus", q, Y) for q, Y in braid_corpus(field)]
    syms = [build_R(sampler(field, rng)) for sampler in (sample_strategy_a, sample_strategy_b) * 2]
    out += [("q = -1", field.of(-1), sym.Y) for sym in syms]
    out += [("projection", *projection_failing(field, rng)) for _ in range(4)]
    one = field.one()
    for n, sym in enumerate(syms):
        c = rng.randrange(9)
        out += [("bumped", sym.q, _bumped(sym.Y, [(idx2(n % 3, n % 3), c, one)])),
                ("bumped", sym.q + 1, _bumped(sym.Y, [(0, 0, one), (idx2(1, 2), 4, one)]))]
    return out


def reference_suite(sym):
    """run_suite by the former bodies: the braid on R's own products, the other checks from
    ``field_reference``, their table from the former braid_table."""
    table = fref.braid_table(sym.Y, sym.q)
    reports = [fref.braid(sym.R), fref.check_hecke(sym.R, sym.q),
               fref.check_image_and_eigen(sym.Y, sym.q), fref.containments(sym.Y, sym.q, table),
               fref.component_identity(sym.Y, sym.q, table), fref.pairing_identities(sym.Y, sym.q)]
    try:
        f_op = fref.extract_F(sym)
    except NotHeckeSym0 as exc:
        return reports + [CheckReport("cyclic_shift_identity",
                                      {"error": f"no valid invariant operator: {exc}"})]
    T = fref.t_operator_of_F(f_op)
    return reports + [fref.cyclic_shift_identity(sym.Y, T, sym.q, table)]


def former_differences(field, q, table):
    """The former table's 18 differences b col - a d^2 w (Y = N / d, q = a / b; w the spanning
    tensors e_i (x) t_s, then t_s (x) e_i), reduced mod p, and each one's (e1 (x) e2 (x) e3
    coordinate, whether it lies in Alt3)."""
    vxa, axv, d, _ = table
    (a,), b = integer_coordinates(field, [q])
    e, p = unit_tensors(1), field.characteristic
    spanning = [tensor2(v, t) for v in e for t in alt2_basis()] + [
        tensor2(t, v) for v in e for t in alt2_basis()]
    cols = [col for half in (vxa, axv) for row in half for col in row]
    diffs = [reduce_mod([b * x - a * d * d * y for x, y in zip(col, u)], p)
             for col, u in zip(cols, spanning)]
    return diffs, [(x[idx3(0, 1, 2)], is_alt3(x)) for x in diffs]


def assert_tables_agree(field, q, Y):
    """The unpacked differences, their Alt3 coefficients (mod p) and verdicts, d, width and scale
    are those of the former table, and so is every packed column of both braid sides once the
    shared sum is added."""
    table = braid_table(Y, q)
    diffs, alt3, d, (lhs, rhs, w, scale, shared) = table
    ref = fref.braid_table(Y, q)
    ref_d, (ref_lhs, ref_rhs, ref_w, ref_scale) = ref[2:]
    p = field.characteristic
    got = unpack(diffs, w, p), [(reduce_mod([k], p)[0], ok) for k, ok in alt3]
    assert (got, d, w, scale) == (former_differences(field, q, ref), ref_d, ref_w, ref_scale)
    for c in range(27):
        s = sum(k * col[c] for k, col in shared)
        assert (lhs[c] + s, rhs[c] + s) == (ref_lhs[c], ref_rhs[c]), c
    R = Matrix.identity(field, 9).scale(q) - Y
    report = check_braid(R, table)
    assert report.to_json() == CheckReport("braid", packed_witness(
        field, ref_lhs, ref_rhs, ref_w, ref_scale)).to_json() == fref.braid(R).to_json()
    return report


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_table_and_the_braid_equal_the_slot_kernel(field, monkeypatch):
    """Every case: the same table and braid report as the former kernel, and check_braid(R) alone
    too; the slot kernel runs exactly where a column of Y is outside Alt2, and the braid both
    passes and fails whether or not Y alternates."""
    fallbacks, kernel = [], verifier._braid_products
    monkeypatch.setattr(verifier, "_braid_products",
                        lambda Y, q: fallbacks.append(Y) or kernel(Y, q))
    verdicts = set()
    for name, q, Y in cases(field):
        fallbacks.clear()
        report = assert_tables_agree(field, q, Y)
        alternating = not non_alternating_columns(Y)
        assert fallbacks == ([] if alternating else [Y]), name
        assert name != "bumped" or not alternating
        R = Matrix.identity(field, 9).scale(q) - Y
        assert check_braid(R).to_json() == fref.braid(R).to_json(), name
        verdicts.add((alternating, report.passed))
    assert verdicts == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_every_report_equals_the_former_bodies(field):
    """run_suite equals the former bodies report by report, witnesses included, wherever
    HeckeSymmetry admits (q, R); on every case the containments, the component identity and
    the cyclic-shift identity (with the T of a sampled symmetry) equal them alone."""
    T = fref.t_operator_of_F(fref.extract_F(build_R(sample_strategy_a(field, random.Random(3)))))
    failed = set()
    for name, q, Y in cases(field):
        R = Matrix.identity(field, 9).scale(q) - Y
        if q != 0 and not non_alternating_columns(Y):
            sym = HeckeSymmetry(R, q)
            got = [rep.to_json() for rep in run_suite(sym)]
            assert got == [rep.to_json() for rep in reference_suite(sym)], name
            failed |= {rep["name"] for rep in got if not rep["passed"]}
        for got, want in ((lambda: check_containments(Y, q), lambda: fref.containments(Y, q)),
                          (lambda: check_component_identity(Y, q),
                           lambda: fref.component_identity(Y, q)),
                          (lambda: check_cyclic_shift_identity(Y, T, q),
                           lambda: fref.cyclic_shift_identity(Y, T, q))):
            assert _outcome(got) == _outcome(want), name
    assert {"braid", "containments", "component_identity"} <= failed


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_adversarial_fuzz_reads_its_braid_off_the_closed_form(field, monkeypatch):
    """fuzz --adversarial passes, as before, reading each braid off (Y, q) without the slot
    kernel and unpacking only the two sides of its witness column, not the 18 table columns; each
    of its reports equals the former kernel's."""
    seen, kernel, check, unpack = [], verifier._braid_products, verifier.check_braid, verifier.unpack

    def compared(R, table=None):
        report = check(R, table)
        assert report.to_json() == fref.braid(R).to_json()
        seen.append(report.passed)
        return report

    monkeypatch.setattr(verifier, "check_braid", compared)
    monkeypatch.setattr(verifier, "_braid_products", lambda *a: seen.append("slot") or kernel(*a))
    monkeypatch.setattr(verifier, "unpack", lambda cols, w, p: seen.append(len(cols)) or
                        unpack(cols, w, p))
    assert verifier.fuzz(field, 4, 2, adversarial=True).passed
    assert seen == [2, False] * 4

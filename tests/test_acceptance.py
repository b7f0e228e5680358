"""Acceptance criteria: every published claim as an exact, zero-tolerance test.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  All comparisons are bit-exact; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

import pytest

from hecke3.errors import CharacteristicTwo, SingularDeformation
from hecke3.fields import GF, QQ
from hecke3.linalg import Matrix
from hecke3.multilinear import change_of_basis, random_invertible, std_basis, wedge2
from hecke3.heckecore import (
    build_R,
    build_Y_from_F,
    conjugate,
    deform,
    extract_F,
    extract_q,
    flip_matrix,
    skewsymmetrizer_matrix,
)
from hecke3.verifier import (
    check_braid,
    check_component_identity,
    check_containments,
    check_cyclic_shift_identity,
    check_hecke,
    check_image_and_eigen,
    check_pairing_identities,
    run_suite,
    sample_adversarial,
    sample_strategy_a,
    sample_strategy_b,
)
from hecke3.classify import TYPE_LABELS, canonical, check_value_tables, classify
from hecke3.cybe import (
    carrier,
    check_cybe,
    check_symmetrized,
    classical_r,
    fingerprint,
    is_frobenius,
    lie_subalgebra,
    matrix_unit,
    r21,
    reference_carriers,
)

Fr = Fraction
Q_POOL = (2, 3, -1, "1/2")


def report(number: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def family_qs(field):
    """The q sample for the two q-families, restricted to the field's units."""
    out = []
    for x in Q_POOL:
        q = field.of(x)
        if q != 0 and q != 1 and q not in out:
            out.append(q)
    return out


def canonical_symmetries(field):
    syms = []
    for label in TYPE_LABELS:
        if label in ("Type1", "Type2"):
            for q in family_qs(field):
                syms.append((label, canonical(label, q, field)))
        else:
            syms.append((label, canonical(label, field=field)))
    return syms


def sufficiency_suite(field, random_bases=10, seed=0):
    rng = random.Random(seed)
    failures = []
    for label, data in canonical_symmetries(field):
        sym = build_R(data)
        moved = [
            check_component_identity(change_of_basis(sym.Y, random_invertible(field, rng)), sym.q)
            for _ in range(random_bases)
        ]
        for rep in run_suite(sym) + moved:
            if not rep.passed:
                failures.append((label, field.fmt(sym.q), rep.name))
    return failures


def roundtrip_trials(field, strategy, trials, seed):
    sampler = sample_strategy_a if strategy == "A" else sample_strategy_b
    failures = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        data = sampler(field, rng)
        sym = build_R(data)
        if build_Y_from_F(sym.q, extract_F(sym)) != build_R(data).Y:
            failures.append((strategy, trial, "rebuild"))
        if extract_q(sym.R) != sym.q:
            failures.append((strategy, trial, "parameter"))
    return failures


def simple_tensor_matrix(field, a, b):
    ar, br, rows = a.rows, b.rows, Matrix.zeros(field, 9).rows
    for i in range(3):
        for j in range(3):
            if ar[i][j] == 0:
                continue
            for k in range(3):
                for l in range(3):
                    if br[k][l] != 0:
                        rows[3 * i + k][3 * j + l] = ar[i][j] * br[k][l]
    return Matrix(field, rows)


def family_reference_r(field, q, with_tail=True):
    """The displayed classical r-matrix of the first family."""
    E = lambda i, j: matrix_unit(field, i, j)
    qm = q - 1
    terms = [
        (qm, E(1, 1), E(1, 1)), (qm, E(2, 2), E(2, 2)), (qm, E(3, 3), E(3, 3)),
        (qm, E(2, 2), E(1, 1)), (qm, E(2, 2), E(3, 3)), (qm, E(3, 3), E(1, 1)),
        (qm, E(2, 1), E(1, 2)), (qm, E(2, 3), E(3, 2)), (qm, E(3, 1), E(1, 3)),
    ]
    if with_tail:
        terms += [(field.one(), E(1, 3), E(2, 3)), (-field.one(), E(2, 3), E(1, 3))]
    m = Matrix.zeros(field, 9)
    for c, a, b in terms:
        m = m + simple_tensor_matrix(field, a, b).scale(field.of(c))
    return m


def classical_structure_failures(field):
    failures = []
    for label, data in canonical_symmetries(field):
        sym = build_R(data)
        r = classical_r(sym)
        if not check_cybe(r).passed:
            failures.append((label, field.fmt(sym.q), "cybe"))
        if not check_symmetrized(r, sym.q).passed:
            failures.append((label, field.fmt(sym.q), "symmetrized"))
        if label == "Type1" and r.matrix != family_reference_r(field, sym.q, True):
            failures.append((label, field.fmt(sym.q), "displayed formula"))
        if label == "Type2" and r.matrix != family_reference_r(field, sym.q, False):
            failures.append((label, field.fmt(sym.q), "displayed formula"))
    return failures


def test_criterion_1_sufficiency_suite():
    t0 = time.time()
    failures = sufficiency_suite(QQ)
    elapsed = time.time() - t0
    report(
        1,
        not failures and elapsed < 5.0,
        f"all checks on every canonical type over Q in {elapsed:.2f}s "
        f"(failures: {failures or 'none'})",
    )


def test_criterion_2_value_table_fidelity():
    failures = []
    for q in Q_POOL:
        rep = check_value_tables(QQ.of(q))
        if not rep.passed:
            failures.append((q, rep.witness))
    report(2, not failures, f"published R values reproduced bit-exactly at q in {Q_POOL}")


def test_criterion_3_classification_invariance():
    rng = random.Random(160)
    total = 0
    failures = []
    for label in TYPE_LABELS:
        q = Fr(2) if label in ("Type1", "Type2") else None
        sym = build_R(canonical(label, q))
        for _ in range(20):
            moved = conjugate(sym, random_invertible(QQ, rng))
            got = classify(moved)
            total += 1
            if got.label != label or got.q != sym.q:
                failures.append((label, got.label))
    report(3, total == 160 and not failures,
           f"{total} classifications under random basis changes, all correct")


def test_criterion_4_bijection_roundtrip():
    failures = []
    for field in (QQ, GF(11)):
        for strategy in ("A", "B"):
            failures += roundtrip_trials(field, strategy, 100, seed=42)
    report(4, not failures,
           "rebuild-from-extracted-pair and parameter recovery on 100 trials "
           "per strategy over Q and F11")


def test_criterion_5_deformation_family():
    sym = build_R(canonical("Type1", Fr(3)))
    failures = []
    for lam in (Fr(1, 2), Fr(2), Fr(-1), Fr(1, 3)):
        moved = deform(sym, lam)
        if moved.q != 1 + 2 * lam:
            failures.append((lam, "parameter"))
        for rep in run_suite(moved):
            if not rep.passed:
                failures.append((lam, rep.name))
    try:
        deform(sym, Fr(-1, 2))
        failures.append(("-1/2", "singular value accepted"))
    except SingularDeformation:
        pass
    report(5, not failures, f"deformed symmetries verified, singular value rejected "
                            f"(failures: {failures or 'none'})")


def test_criterion_6_classical_structures():
    failures = classical_structure_failures(QQ)
    report(6, not failures,
           f"CYBE, symmetrization and displayed r formulas over Q "
           f"(failures: {failures or 'none'})")


def test_criterion_7_carriers():
    refs = reference_carriers(QQ)
    failures = []
    prints = []
    for label in ("Type3", "Type4", "Type5", "Type6", "Type7", "Type8"):
        sub = carrier(classical_r(build_R(canonical(label))))
        ref = lie_subalgebra(QQ, refs[label])
        if sub.basis != ref.basis:
            failures.append((label, "span"))
        prints.append(fingerprint(sub))
        frob = is_frobenius(sub)
        if label in ("Type3", "Type4", "Type5", "Type6"):
            if frob.status != "yes" or frob.witness is None:
                failures.append((label, "frobenius witness"))
        elif label == "Type7":
            abelian = all((x * y - y * x).is_zero()
                          for x in sub.basis for y in sub.basis)
            if frob.status != "no" or not abelian:
                failures.append((label, "abelian negative"))
    if len(set(prints)) != 6:
        failures.append(("fingerprints", prints))
    report(7, not failures,
           f"carriers match the listed spans, Frobenius certificates found, "
           f"fingerprints pairwise distinct (failures: {failures or 'none'})")


def test_criterion_8_necessity_spot_check():
    rng = random.Random(50)
    failures = []
    for trial in range(50):
        q, a, b, g = sample_adversarial(QQ, rng)
        Y = skewsymmetrizer_matrix(q, g, wedge2(a, b))
        R = Matrix.identity(QQ, 9).scale(q) - Y
        braid = check_braid(R)
        hecke = check_hecke(R, q)
        if braid.passed and hecke.passed:
            failures.append((trial, "undetected"))
            continue
        failing = braid if not braid.passed else hecke
        if failing.witness is None:
            failures.append((trial, "no witness"))
    report(8, not failures, "50 deliberately broken quadruples all caught with witnesses")


def test_criterion_9_field_generality():
    failures = []
    for p in (7, 11, 3):
        failures += [(f"F{p}", *f) for f in sufficiency_suite(GF(p), random_bases=3)]
    for p in (7, 11, 3):
        for strategy in ("A", "B"):
            failures += [(f"F{p}", *f)
                         for f in roundtrip_trials(GF(p), strategy, 100, seed=9)]
    for p in (7, 11):
        failures += [(f"F{p}", *f) for f in classical_structure_failures(GF(p))]
    with pytest.raises(CharacteristicTwo):
        GF(2)
    report(9, not failures,
           f"suite/roundtrip/classical checks over F7, F11 and F3; "
           f"characteristic 2 rejected (failures: {failures or 'none'})")

"""The one table of degree-3 columns read by the reformulated braid checks.

``verifier.braid_table`` forms the 18 columns of (Id x Y)(Y x Id) on V (x) Alt2
and (Y x Id)(Id x Y) on Alt2 (x) V once.  The containments, the component
identity and the cyclic-shift identity used to form them each from their own
pair of slot actions; that per-check formation is kept here as the reference.
"""

import random

import pytest

import field_reference as fref
from hecke3 import verifier
from hecke3.classify import TYPE_LABELS, canonical
from hecke3.errors import NotHeckeSym0
from hecke3.fields import GF, QQ
from hecke3.heckecore import (
    HeckeSymmetry,
    build_R,
    conjugate_data,
    extract_F,
    skewsymmetrizer_matrix,
    t_operator_of_F,
)
from hecke3.multilinear import (
    alt2_basis,
    idx2,
    is_alt3,
    random_invertible,
    slot_action,
    std_basis,
    tensor2,
    unit_tensors,
    wedge2,
)
from hecke3.verifier import (
    braid_table,
    check_component_identity,
    check_containments,
    check_cyclic_shift_identity,
    run_suite,
    sample_adversarial,
    sample_strategy_a,
)
from test_verifier import _bumped, non_member_Y


def per_check_columns(Y):
    """The degree-3 columns as the three checks formed them, each from its own slot actions.

    Returns (containments, component, shift): containments[space][i][s],
    component[(i, j, k)] = (Id x N)(N x Id)(e_i (x) e_j^e_k) and shift[i][s] =
    ((N x Id)(Id x N)(t_s (x) e_i), (Id x N)(N x Id)(e_i (x) t_s)).
    """
    e = unit_tensors(1)
    (y1, _), (y2, _) = fref.slot_action(Y, 0, 1), fref.slot_action(Y, 1, 2)
    containments = {
        "VxAlt2": [[y2(y1(tensor2(e[i], t))) for t in alt2_basis()] for i in range(3)],
        "Alt2xV": [[y1(y2(tensor2(t, e[i]))) for t in alt2_basis()] for i in range(3)],
    }
    (y1, _), (y2, _) = fref.slot_action(Y, 0, 1), fref.slot_action(Y, 1, 2)
    component = {(i, j, k): y2(y1(tensor2(e[i], wedge2(e[j], e[k]))))
                 for i in range(3) for j in range(3) for k in range(3)}
    (y1, _), (y2, _) = fref.slot_action(Y, 0, 1), fref.slot_action(Y, 1, 2)
    shift = [[(y1(y2(tensor2(t, e[i]))), y2(y1(tensor2(e[i], t)))) for t in alt2_basis()]
             for i in range(3)]
    return containments, component, shift


def _samples(field):
    """Valid, moved, sampled and adversarial symmetries, a non-member of the class, and a
    symmetry bumped inside Alt2 whose invariant operator is still extracted."""
    rng = random.Random(12)
    syms = []
    for label in TYPE_LABELS:
        q = 2 if label in ("Type1", "Type2") else None
        syms.append(build_R(conjugate_data(canonical(label, q, field),
                                           random_invertible(field, rng))))
    for _ in range(3):
        syms.append(build_R(sample_strategy_a(field, rng)))
        q, a, b, g = sample_adversarial(field, rng)
        Y = skewsymmetrizer_matrix(q, g, wedge2(a, b))
        syms.append(HeckeSymmetry(fref.q_id_minus(q, Y), q))
    e1, e2, _ = std_basis(field)
    q = field.of(2)
    Y = non_member_Y(field, {0: wedge2(e1, e2)})
    syms.append(HeckeSymmetry.from_matrix(fref.q_id_minus(q, Y)))
    # l[0][1][2] += 1 and l[1][0][2] -= 1 leave F = (l_i(j,k) + l_j(i,k)) / 2 as it was
    one, sym = field.one(), syms[-3]
    Y = _bumped(sym.Y, [(idx2(1, 2), idx2(1, 2), one), (idx2(2, 1), idx2(1, 2), -one),
                        (idx2(2, 0), idx2(0, 2), -one), (idx2(0, 2), idx2(0, 2), one)])
    syms.append(HeckeSymmetry(fref.q_id_minus(sym.q, Y), sym.q))
    return syms


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_table_holds_the_columns_each_check_formed(field):
    for sym in _samples(field):
        vxa, axv, d = braid_table(sym.Y)
        assert d == sym.Y.integers()[1]
        containments, component, shift = per_check_columns(sym.Y)
        assert containments == {"VxAlt2": vxa, "Alt2xV": axv}
        assert shift == [list(zip(axv[i], vxa[i])) for i in range(3)]
        for (i, j, k), col in component.items():
            if j == k:
                assert col == [0] * 27
            else:
                s = j + k - 1  # e_j^e_k = +-alt2_basis()[s]
                assert col == (vxa[i][s] if j < k else [-x for x in vxa[i][s]])


def test_a_suite_forms_the_slot_actions_of_y_and_r_twice_each(monkeypatch):
    sym = build_R(sample_strategy_a(QQ, random.Random(4)))
    seen = []

    def counted(op, s, t):
        seen.append("Y" if op is sym.Y else "R" if op is sym.R else "other")
        return slot_action(op, s, t)

    monkeypatch.setattr(verifier, "slot_action", counted)
    assert all(rep.passed for rep in run_suite(sym))
    assert sorted(seen) == ["R", "R", "Y", "Y"]


def test_the_containments_test_all_18_spanning_tensors(monkeypatch):
    """Both halves run: no report is known to tell V (x) Alt2 from Alt2 (x) V apart, and
    whether one half implies the other for every Y with alternating columns is unproven."""
    sym = build_R(sample_strategy_a(QQ, random.Random(4)))
    seen = []

    def counted(u):
        seen.append(u)
        return is_alt3(u)

    monkeypatch.setattr(verifier, "is_alt3", counted)
    assert check_containments(sym.Y, sym.q).passed
    assert len(seen) == 18


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_each_check_alone_reports_as_inside_the_suite(field):
    verdicts = set()
    for sym in _samples(field):
        suite = {rep.name: rep for rep in run_suite(sym)}
        alone = [check_containments(sym.Y, sym.q), check_component_identity(sym.Y, sym.q)]
        try:
            alone.append(check_cyclic_shift_identity(
                sym.Y, t_operator_of_F(extract_F(sym)), sym.q))
        except NotHeckeSym0:
            pass  # the suite reports the failed extraction instead
        for rep in alone:
            assert rep == suite[rep.name]
            verdicts.add((rep.name, rep.passed))
    assert {v for _, v in verdicts} == {True, False}
    assert {n for n, v in verdicts if not v} == {
        "containments", "component_identity", "cyclic_shift_identity"}

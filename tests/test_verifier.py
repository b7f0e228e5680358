"""Exact identity checks and the fuzz harness."""

import hashlib
import json
import random
from fractions import Fraction
from math import prod

import pytest

import field_reference as fref
from paper_reference import reference_r_matrix, typed_witness
from hecke3.cli import main
from hecke3.errors import (
    DimensionMismatch,
    FieldMismatch,
    InputError,
    NoHeckeParameter,
    NotHeckeSym0,
    SingularMatrix,
)
from hecke3 import fields, heckecore, verifier
from hecke3.fields import GF, QQ
from hecke3.linalg import Matrix, integer_coordinates, reduce_mod
from hecke3.multilinear import (
    bivector,
    change_of_basis,
    cyclic_shift,
    idx2,
    is_alt2,
    is_alt3,
    non_alternating_columns,
    random_invertible,
    std_basis,
    tensor2,
    vol,
    wedge2,
)
from hecke3.heckecore import (
    FOperator,
    HeckeData,
    HeckeSymmetry,
    build_R,
    conjugate_data,
    extract_F,
    extract_q,
    flip_matrix,
    hecke_residual,
    skewsymmetrizer_matrix,
    symmetric_form,
    t_operator_of_F,
)
from hecke3.classify import TYPE_LABELS, canonical, classify
from hecke3.cybe import check_cybe, check_symmetrized, classical_r, gl_tensor
from hecke3.jsonio import hecke_data_to_json, matrix_to_json, vector_to_json
from hecke3.verifier import (
    CheckReport,
    _random_independent_pair,
    _random_int,
    braid_table,
    check_braid,
    check_component_identity,
    check_containments,
    check_cyclic_shift_identity,
    check_hecke,
    check_image_and_eigen,
    check_pairing_identities,
    column_witness,
    fuzz,
    run_suite,
    sample_adversarial,
    sample_strategy_a,
    sample_strategy_b,
)

Fr = Fraction
E1, E2, E3 = std_basis(QQ)


def family_sym(q):
    s = (QQ.of(q) - 1) / 2
    g = symmetric_form(QQ, [[0, s, 0], [s, 0, 0], [0, 0, 1]])
    return build_R(HeckeData(QQ.of(q), E1, E2, g))


def broken_gram(q):
    """First-family matrix with one entry bumped off the q constraint."""
    s = (QQ.of(q) - 1) / 2
    return symmetric_form(QQ, [[0, s + 1, 0], [s + 1, 0, 0], [0, 0, 1]])


class TestBraid:
    def test_flip_passes(self):
        assert check_braid(flip_matrix(QQ)).passed

    def test_family_passes(self):
        assert check_braid(family_sym(Fr(2)).R).passed

    def test_broken_constraint_fails_with_witness(self):
        q = QQ.of(2)
        Y = skewsymmetrizer_matrix(q, broken_gram(q), wedge2(E1, E2))
        R = Matrix.identity(QQ, 9).scale(q) - Y
        rep = check_braid(R)
        assert not rep.passed
        assert rep.witness is not None
        assert rep.witness["lhs"] != rep.witness["rhs"]
        assert len(rep.witness["input"]["basis_tensor"]) == 3


class TestHecke:
    def test_flip_at_one(self):
        assert check_hecke(flip_matrix(QQ), QQ.one()).passed

    def test_third_type_at_one(self):
        assert check_hecke(build_R(canonical("Type3")).R, QQ.one()).passed

    def test_flip_at_two_fails_on_first_monomial(self):
        rep = check_hecke(flip_matrix(QQ), QQ.of(2))
        assert not rep.passed
        assert rep.witness["input"]["basis_tensor"] == [1, 1]


class TestImageAndEigen:
    def test_classical_skewsymmetrizer(self):
        d = HeckeData(QQ.one(), E1, E2, Matrix.zeros(QQ, 3))
        assert check_image_and_eigen(build_R(d).Y, QQ.one()).passed

    def test_built_operator(self):
        sym = family_sym(Fr(1, 2))
        assert check_image_and_eigen(sym.Y, sym.q).passed

    def test_zero_operator_fails_rank(self):
        rep = check_image_and_eigen(Matrix.zeros(QQ, 9), QQ.one())
        assert not rep.passed
        assert rep.witness["input"] == {"rank": 0}


class TestContainments:
    def test_built_operator(self):
        sym = family_sym(Fr(3))
        assert check_containments(sym.Y, sym.q).passed

    def test_classical(self):
        d = HeckeData(QQ.one(), E1, E2, Matrix.zeros(QQ, 3))
        assert check_containments(build_R(d).Y, QQ.one()).passed

    def test_scaled_operator_fails(self):
        sym = family_sym(Fr(2))
        rep = check_containments(sym.Y.scale(QQ.of(2)), sym.q)
        assert not rep.passed and rep.witness is not None


class TestComponentIdentity:
    def test_standard_basis(self):
        sym = family_sym(Fr(2))
        assert check_component_identity(sym.Y, sym.q).passed

    def test_random_bases(self):
        rng = random.Random(71)
        sym = build_R(canonical("Type4"))
        for _ in range(10):
            moved = change_of_basis(sym.Y, random_invertible(QQ, rng))
            assert check_component_identity(moved, sym.q).passed

    def test_broken_constraint_fails_with_tuple(self):
        q = QQ.of(2)
        Y = skewsymmetrizer_matrix(q, broken_gram(q), wedge2(E1, E2))
        rep = check_component_identity(Y, q)
        assert not rep.passed
        assert len(rep.witness["input"]["indices"]) == 5

    def test_singular_basis_rejected(self):
        sym = family_sym(Fr(2))
        with pytest.raises(SingularMatrix):
            change_of_basis(sym.Y, Matrix.zeros(QQ, 3))


class TestPairingIdentities:
    def test_built_operator(self):
        sym = family_sym(Fr(3))
        assert check_pairing_identities(sym.Y, sym.q).passed

    def test_classical_at_one(self):
        d = HeckeData(QQ.one(), E1, E2, Matrix.zeros(QQ, 3))
        assert check_pairing_identities(build_R(d).Y, QQ.one()).passed

    def test_asymmetric_form_fails(self):
        g = Matrix.from_rows(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 1]])
        Y = skewsymmetrizer_matrix(QQ.one(), g, wedge2(E1, E2))
        rep = check_pairing_identities(Y, QQ.one())
        assert not rep.passed


# Operators over F7 whose wedge identity first fails at a sum point x of the polarization
# sample, with the witness indices there.  Each is a valid strategy-A or -B symmetry over F7
# whose pairing coordinates were bumped at one to three positions (i, j, k) and (i, k, j)
# alike, so its columns stay alternating and the eigenvalue identity holds.  Each also fails
# at one other sum point, later in the sample order.
POLARIZATION_CASES = [
    ({"x": "e1+e2", "indices": [3, 2, 1, 2]}, 5,  # and at e2+e3
     [[0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 5, 0, 6, 1, 0, 0, 0, 0], [6, 0, 2, 0, 0, 0, 3, 0, 3],
      [0, 2, 0, 1, 6, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 2, 1, 0, 2, 0],
      [1, 0, 5, 0, 0, 0, 4, 0, 4], [0, 0, 0, 0, 5, 6, 0, 5, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0]]),
    ({"x": "e1+e2", "indices": [3, 1, 1, 3]}, 1,  # and at e1+e3
     [[0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 6, 0, 0, 0, 0, 0], [3, 0, 1, 0, 0, 0, 6, 0, 0],
      [0, 6, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 6, 4],
      [4, 0, 6, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 6, 0, 1, 3], [0, 0, 0, 0, 0, 0, 0, 0, 0]]),
    ({"x": "e1+e3", "indices": [2, 3, 1, 3]}, 1,  # and at e2+e3
     [[0, 0, 0, 0, 0, 0, 0, 0, 0], [3, 1, 0, 6, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 6, 0, 5],
      [4, 6, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 6, 0],
      [0, 0, 6, 0, 0, 0, 1, 0, 2], [0, 0, 0, 0, 0, 6, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0]]),
]


@pytest.mark.parametrize("where, q, rows", POLARIZATION_CASES,
                         ids=["e1+e2,q5", "e1+e2,q1", "e1+e3,q1"])
def test_pairing_witness_at_a_sum_point_of_the_polarization(where, q, rows):
    Y = Matrix.from_rows(GF(7), rows)
    rep = check_pairing_identities(Y, q)
    assert rep.witness["identity"] == "wedge" and rep.witness["input"] == where
    assert rep.to_json() == reference_pairing_identities(Y, q).to_json()


class TestCyclicShiftIdentity:
    def test_zero_traceless_operator(self):
        sym = build_R(canonical("Type8"))
        T = Matrix.zeros(QQ, 3)
        assert check_cyclic_shift_identity(sym.Y, T, sym.q).passed

    def test_third_type(self):
        d = canonical("Type3")
        sym = build_R(d)
        T = t_operator_of_F(FOperator(d.g, wedge2(d.a, d.b)))
        assert check_cyclic_shift_identity(sym.Y, T, sym.q).passed

    def test_first_family_annihilated_direction(self):
        # T kills e3, so the right side vanishes for x = e3, t = e1^e2
        d = canonical("Type1", Fr(2))
        T = t_operator_of_F(FOperator(d.g, wedge2(d.a, d.b)))
        assert T.apply(E3) == [QQ.zero()] * 3
        sym = build_R(d)
        assert check_cyclic_shift_identity(sym.Y, T, sym.q).passed

    def test_wrong_factor_detected(self):
        d = canonical("Type3")
        sym = build_R(d)
        T = t_operator_of_F(FOperator(d.g, wedge2(d.a, d.b)))
        rep = check_cyclic_shift_identity(sym.Y, T.scale(QQ.of(2)), sym.q)
        assert not rep.passed

    def test_a_9x9_operator_is_rejected(self):
        # the former body read a 9x9 T's entries tn[i::3] and returned a failing report
        sym = build_R(canonical("Type3"))
        with pytest.raises(DimensionMismatch, match="must be 3x3"):
            check_cyclic_shift_identity(sym.Y, Matrix.identity(QQ, 9), sym.q)

    def test_a_2x2_operator_is_rejected(self):
        # the former body raised a bare IndexError
        sym = build_R(canonical("Type3"))
        with pytest.raises(DimensionMismatch, match="must be 3x3"):
            check_cyclic_shift_identity(sym.Y, Matrix.identity(QQ, 2), sym.q)

    def test_an_operator_over_another_field_is_rejected(self):
        # the former body raised a bare ValueError ("base is not invertible") formatting the
        # witness over F_7 at the scale 7 of T
        field = GF(7)
        sym = build_R(canonical("Type3", field=field))
        T = Matrix.from_rows(QQ, [["1/7", 0, 0], [0, 1, 0], [0, 0, -1]])
        with pytest.raises(FieldMismatch, match="Fp:7 matrix mixed with Q matrix"):
            check_cyclic_shift_identity(sym.Y, T, sym.q)


@pytest.mark.parametrize("rhs", [Matrix.zeros(QQ, 27), Matrix.zeros(GF(7), 9)], ids=["27x27", "Fp7"])
def test_column_witness_rejects_operators_of_another_shape_or_field(rhs):
    # the former body returned a witness at the first column for 27x27 and None for F_7
    with pytest.raises(DimensionMismatch if rhs.ncols == 27 else FieldMismatch):
        column_witness(Matrix.zeros(QQ, 9), rhs)


class TestFormulationAgreement:
    """The three reformulations decide the same way on these families."""

    def _verdicts(self, Y, q):
        rng = random.Random(5)
        coords = check_component_identity(Y, q).passed and all(
            check_component_identity(change_of_basis(Y, random_invertible(QQ, rng)), q).passed
            for _ in range(10)
        )
        return (
            coords,
            check_pairing_identities(Y, q).passed,
            check_containments(Y, q).passed,
        )

    def test_valid_samples_agree_on_pass(self):
        rng = random.Random(61)
        for _ in range(5):
            sym = build_R(sample_strategy_a(QQ, rng))
            assert self._verdicts(sym.Y, sym.q) == (True, True, True)

    def test_adversarial_samples_agree_on_fail(self):
        rng = random.Random(67)
        for _ in range(5):
            q, a, b, g = sample_adversarial(QQ, rng)
            Y = skewsymmetrizer_matrix(q, g, wedge2(a, b))
            assert self._verdicts(Y, q) == (False, False, False)


class TestRunSuite:
    def test_all_pass_on_built_symmetry(self):
        sym, rng = family_sym(Fr(2)), random.Random(0)
        reports = run_suite(sym) + [
            check_component_identity(change_of_basis(sym.Y, random_invertible(QQ, rng)), sym.q)
            for _ in range(3)
        ]
        assert all(r.passed for r in reports)
        names = [r.name for r in reports]
        assert names[0] == "braid" and "pairing_identities" in names

    def test_works_without_data(self):
        from hecke3.heckecore import HeckeSymmetry

        sym = family_sym(Fr(2))
        raw = HeckeSymmetry.from_matrix(sym.R)  # no quadruple attached
        assert all(r.passed for r in run_suite(raw))

    def test_reports_serialize(self):
        for rep in run_suite(build_R(canonical("Type8"))):
            doc = rep.to_json()
            json.dumps(doc)
            assert (doc["witness"] is None) == doc["passed"]


SAMPLER_DIGEST = "3517f5caae5a5af963b21da091bbab312bf656757ee2adc1ed89258eddcf3f96"


def test_the_samplers_give_the_pinned_quadruples_and_streams():
    """sha256 of every sampler's quadruple on seeds 0-49 per field, each with rng.random() after.

    Over F_3 and F_5 some q of strategy B's pool vanish or equal 1 and are drawn again.
    """
    h = hashlib.sha256()
    for field in (QQ, GF(3), GF(5), GF(7), GF(1_000_003), GF(2**61 - 1)):
        for seed in range(50):
            for sampler in (sample_strategy_a, sample_strategy_b):
                rng = random.Random(seed)
                h.update(json.dumps(hecke_data_to_json(sampler(field, rng))).encode())
                h.update(repr(rng.random()).encode())
            rng = random.Random(seed)
            q, a, b, g = sample_adversarial(field, rng)
            h.update(json.dumps([field.fmt(q), vector_to_json(field, a), vector_to_json(field, b),
                                 matrix_to_json(g)]).encode())
            h.update(repr(rng.random()).encode())
    assert h.hexdigest() == SAMPLER_DIGEST


class TestSamplers:
    def test_strategy_a_always_valid(self):
        for field in (QQ, GF(11)):
            rng = random.Random(3)
            for _ in range(20):
                d = sample_strategy_a(field, rng)  # constructor validates
                assert d.q != 0

    def test_strategy_b_always_valid(self):
        """Over F_3 and F_5 pool values are 0 (3, 5), 1 (-2/3 over F_5) or absent (-2/3 over F_3)."""
        for field in (QQ, GF(3), GF(5), GF(7)):
            rng = random.Random(4)
            for _ in range(20):
                d = sample_strategy_b(field, rng)
                assert d.q != 0

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(7)], ids=["Q", "Fp3", "Fp7"])
    def test_strategy_b_raises_what_canonical_raises(self, field, monkeypatch):
        """Only a pool q that is not in the field, or is 0 or 1 there, is drawn again: an error of
        canonical itself propagates, where a retry on every InputError would loop for ever."""
        calls = []

        def broken(label, q=None, field=QQ):
            calls.append(label)
            if len(calls) > 50:  # a sampler that retries fails here rather than hangs
                raise RuntimeError("canonical called again after it raised")
            raise InputError("a defect in canonical")

        monkeypatch.setattr(verifier, "canonical", broken)
        for seed in range(12):
            calls.clear()
            with pytest.raises(InputError, match="a defect in canonical"):
                sample_strategy_b(field, random.Random(seed))
            assert len(calls) == 1

    def test_adversarial_breaks_constraint(self):
        rng = random.Random(6)
        from hecke3.heckecore import discriminant

        for _ in range(10):
            q, a, b, g = sample_adversarial(QQ, rng)
            assert (q - 1) ** 2 != -4 * discriminant(a, b, g)


def reference_sample_strategy_a(field, rng):
    """Strategy A with a completed to a basis by rank tests, one g entry at a time."""
    a, b = ([field.of(x) for x in v] for v in _random_independent_pair(field, rng))
    cols = [a]
    for i in range(3):
        cand = std_basis(field)[i]
        if Matrix.from_columns(field, cols + [cand]).rank() == len(cols) + 1:
            cols.append(cand)
        if len(cols) == 3:
            break
    B = Matrix.from_columns(field, cols)
    entries = [[field.zero()] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            if i == 0 and j == 0:
                continue
            v = field.of(_random_int(field, rng))
            entries[i][j] = v
            entries[j][i] = v
    binv = B.inverse()
    g = binv.transpose() * Matrix(field, entries) * binv
    gab = fref.g_value(g, a, b)
    q = field.of(1) + 2 * gab
    if q == 0:
        q = field.of(1) - 2 * gab
    return HeckeData(q, a, b, g)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(1_000_003)], ids=["Q", "Fp7", "Fp1000003"])
def test_strategy_a_matches_the_reference_sampler(field):
    """Same quadruple and the same random stream afterwards, on 30 seeds."""
    for seed in range(30):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got, want = sample_strategy_a(field, rng), reference_sample_strategy_a(field, ref_rng)
        assert (got.q, got.a, got.b, got.g) == (want.q, want.a, want.b, want.g), seed
        assert rng.getstate() == ref_rng.getstate(), seed


class TestFuzz:
    def test_rationals_strategy_a(self):
        rep = fuzz(QQ, 20, 42, "A")
        assert rep.passed, rep.witness

    def test_prime_field_strategy_b(self):
        rep = fuzz(GF(11), 20, 7, "B")
        assert rep.passed, rep.witness

    def test_adversarial_mode_all_fail_as_expected(self):
        rep = fuzz(QQ, 10, 3, "A", adversarial=True)
        assert rep.passed  # pass means every broken trial was caught

    @pytest.mark.parametrize("field", [QQ, GF(7), GF(1_000_003)], ids=["Q", "Fp7", "Fp1000003"])
    def test_strategy_b_covers_every_type(self, field):
        """Seed 1, trials 0-59 of a strategy-B fuzz run reach all eight types."""
        seed, labels = 1, set()
        for trial in range(60):
            rng = random.Random(seed * 1_000_003 + trial)  # as fuzz derives each trial's stream
            labels.add(classify(build_R(sample_strategy_b(field, rng))).label)
        assert labels == set(TYPE_LABELS)

    def test_deterministic_given_seed(self):
        a = fuzz(QQ, 5, 99, "B")
        b = fuzz(QQ, 5, 99, "B")
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("strategy", ["A", "B"])
    def test_residual_formed_once_per_valid_trial(self, monkeypatch, strategy):
        """check_hecke forms (R - q)(R + 1); the parameter round trip reuses its verdict."""
        calls = []

        def counted(R, q):
            calls.append(q)
            return hecke_residual(R, q)

        monkeypatch.setattr(verifier, "hecke_residual", counted)
        monkeypatch.setattr(heckecore, "hecke_residual", counted)
        assert fuzz(GF(7), 6, 3, strategy).passed
        assert len(calls) == 6

    def test_failing_hecke_trial_is_still_reported(self, monkeypatch):
        """R fails the relation at its q = -1 but satisfies it at 2: both failures are reported."""
        P = (Matrix.identity(QQ, 9) - flip_matrix(QQ)).scale(QQ.of("1/2"))
        R = P.scale(QQ.of(3)) - Matrix.identity(QQ, 9)  # (R - 2)(R + 1) = 0
        monkeypatch.setattr(verifier, "build_R", lambda data: HeckeSymmetry(R, QQ.of(-1)))
        failures = fuzz(QQ, 2, 1, "A").witness["failures"]
        assert [f["trial"] for f in failures if f["check"] == "hecke"] == [0, 1]
        assert [f["witness"] for f in failures if f["check"] == "parameter_roundtrip"] == [
            {"note": "extracted q differs"}] * 2

    def test_failing_hecke_trial_still_verifies_the_extracted_q(self, monkeypatch):
        """Where no q satisfies the relation, the round trip is a reported failure, not a raise."""
        sym = build_R(canonical("Type3"))
        Y = _bumped(sym.Y, [(1, 1, QQ.one()), (3, 1, -QQ.one())])  # stays in Alt2
        bad = HeckeSymmetry(Matrix.identity(QQ, 9).scale(sym.q) - Y, sym.q)
        with pytest.raises(NoHeckeParameter, match="no q satisfies"):
            extract_q(bad.R)
        monkeypatch.setattr(verifier, "build_R", lambda data: bad)
        failures = fuzz(QQ, 2, 1, "A").witness["failures"]
        assert [f["trial"] for f in failures if f["check"] == "hecke"] == [0, 1]
        assert [f["witness"] for f in failures if f["check"] == "parameter_roundtrip"] == [
            {"note": "no q satisfies the quadratic Hecke relation"}] * 2

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            fuzz(QQ, 0, 1, "A")
        with pytest.raises(ValueError):
            fuzz(QQ, 1, 1, "C")


def test_necessity_spot_check():
    """Deliberately broken quadruples never survive the braid/quadratic pair."""
    rng = random.Random(8)
    for _ in range(10):
        q, a, b, g = sample_adversarial(QQ, rng)
        Y = skewsymmetrizer_matrix(q, g, wedge2(a, b))
        R = Matrix.identity(QQ, 9).scale(q) - Y
        braid = check_braid(R)
        hecke = check_hecke(R, q)
        assert not (braid.passed and hecke.passed)
        failing = braid if not braid.passed else hecke
        assert failing.witness is not None


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_braid_witness_matches_kron_products(field):
    """check_braid agrees with the dense 27x27 Kronecker products it replaced."""
    rng = random.Random(17)
    ident3 = Matrix.identity(field, 3)
    operators = [build_R(sample_strategy_a(field, rng)).R]
    for _ in range(3):
        q, a, b, g = sample_adversarial(field, rng)
        operators.append(Matrix.identity(field, 9).scale(q) - skewsymmetrizer_matrix(q, g, wedge2(a, b)))
    for R in operators:
        r1, r2 = R.kron(ident3), ident3.kron(R)
        assert check_braid(R).witness == column_witness(r1 * (r2 * r1), r2 * (r1 * r2))


def _golden_cases(field):
    """Failing checks whose witnesses are pinned byte for byte."""
    q, a, b, g = sample_adversarial(field, random.Random(8))
    Y = skewsymmetrizer_matrix(q, g, wedge2(a, b))
    R = Matrix.identity(field, 9).scale(q) - Y
    flip_y2 = build_R(canonical("Type8", field=field)).Y.scale(field.of(2))
    type1 = build_R(canonical("Type1", 3, field))
    ident9 = Matrix.identity(field, 9)
    return {
        "braid": lambda: check_braid(R),
        "containments": lambda: check_containments(Y, q),
        "component_identity": lambda: check_component_identity(Y, q),
        "pairing_wedge": lambda: check_pairing_identities(Y, q),
        "cybe": lambda: check_cybe(gl_tensor(flip_matrix(field) * R - ident9)),
        "hecke_flip_at_2": lambda: check_hecke(flip_matrix(field), 2),
        "image_eigen_identity": lambda: check_image_and_eigen(ident9, 1),
        "image_eigen_zero": lambda: check_image_and_eigen(Matrix.zeros(field, 9), 1),
        "image_eigen_flip_2y": lambda: check_image_and_eigen(flip_y2, 1),
        "pairing_identity": lambda: check_pairing_identities(ident9, 1),
        "pairing_flip_2y": lambda: check_pairing_identities(flip_y2, 1),
        "cyclic_shift_type1_id": lambda: check_cyclic_shift_identity(
            type1.Y, Matrix.identity(field, 3), type1.q),
        "symmetrized_type1_at_5": lambda: check_symmetrized(classical_r(type1), 5),
        "column_witness_context": lambda: CheckReport("column_witness_context", typed_witness(
            column_witness(build_R(canonical("Type1", 2, field)).R,
                           reference_r_matrix("Type1", 3, field)), "Type1")),
    }


# sha256 of json.dumps(report.to_json())
GOLDEN_WITNESS_DIGESTS = {
    "Q": {
        "braid": "26e9f9f73b4c7f77317e5162e3fc2c7361cfde81596bbfaf074abf33749d2b54",
        "containments": "cc27da07c8b1e5c5f18f60167ecd99a94e39179a724229fd4d17b65980d78e76",
        "component_identity": "6217176dc97ebf9d48579da1eac2cf81e156e32db9c82b28c984f1a8970971b4",
        "pairing_wedge": "45cecb8f725f78903b58401680710d90a665ad14db32029888572a2243c68aeb",
        "cybe": "9dc723792bb9c1e2401a2772f096aac4c5d1e25d74724d7d09d680310178488f",
        "hecke_flip_at_2": "24c8e95435e93c6a3a443e58c85f7d9c4956409eadf86bd9956c1e7c0eececd2",
        "image_eigen_identity": "ce1a25cb170e5e5a198f44ce1dbfeaad4d08d2a80934f503c50874f56257946a",
        "image_eigen_zero": "ac5da491b2ceb8bc009a351927fc566891f0fda1d9107e865dcca2774d63f773",
        "image_eigen_flip_2y": "747f6c360fb99f500a69c8ca761e03743cfd763be872132262b8af6dd55d3c8d",
        "pairing_identity": "f0e7ed4ce2bafb6b20889908b14919a489374ff7ec939df1b609b15af072b2a5",
        "pairing_flip_2y": "42e5a04ab303a65b2e709edc48685f51d220c29f20a71bd4ca70931a4470d3d0",
        "cyclic_shift_type1_id": "242f687c1a0368ed2f554e043db698cd4538a7e9e9b897dd14cc2e42e10a81e8",
        "symmetrized_type1_at_5": "e4f1210f91c29b61bc0db535c58688dc7a50f51324e800bbcb85f22dbf475377",
        "column_witness_context": "e2d31bd61cf79358311b628ceaf1824a4c3582fc721a2af73565cb867f615fff",
    },
    "Fp:7": {
        "braid": "1d835b4f681d4a66d7358c0e6bd0d0fb18dc25db7fc878400ec235f3a97a2093",
        "containments": "46e28cab3de9df990e38956a63a5718444d80e75c20811e5d3fefac0b9b0a603",
        "component_identity": "77b9dff7b9c13c3b31ea9704395ee7c9b5a2f553920394d8646f34edcd935ebb",
        "pairing_wedge": "d2c400f99f820a03ecee03e02dab36c703d7542417fac7c4daeeccf39b08fe25",
        "cybe": "9b1f7d5354b745538e8dc8175637283ceab38667e4a6a87e71c58e6f6ae5620a",
        "hecke_flip_at_2": "5ad09497d843d6d5ab90e17757f794e66f5ba37e94770d132b76c7d8837c2d52",
        "image_eigen_identity": "ce1a25cb170e5e5a198f44ce1dbfeaad4d08d2a80934f503c50874f56257946a",
        "image_eigen_zero": "ac5da491b2ceb8bc009a351927fc566891f0fda1d9107e865dcca2774d63f773",
        "image_eigen_flip_2y": "0207f1d4b0680313956ccdacb715b071466dcdff381f746924644d984db3d7e7",
        "pairing_identity": "f0e7ed4ce2bafb6b20889908b14919a489374ff7ec939df1b609b15af072b2a5",
        "pairing_flip_2y": "42e5a04ab303a65b2e709edc48685f51d220c29f20a71bd4ca70931a4470d3d0",
        "cyclic_shift_type1_id": "a496cfe3309907b03cd30135a2720464d6cad80ebf927e23da3aa96e7eae6757",
        "symmetrized_type1_at_5": "8ae238f2a2b406f418cb1efc275121ede5fa18d572dd0103a40b056ee75a539b",
        "column_witness_context": "e2d31bd61cf79358311b628ceaf1824a4c3582fc721a2af73565cb867f615fff",
    },
}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_golden_witness_bytes(field):
    """Witness documents of failing checks stay byte-identical."""
    digests = {}
    for name, run in _golden_cases(field).items():
        doc = run().to_json()
        assert not doc["passed"], name
        digests[name] = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digests == GOLDEN_WITNESS_DIGESTS[field.name]


def reference_component_identity(Y, q):
    """The component identity as the index loop over Y's components it was first written as."""
    fld = Y.field
    qq = fld.of(q)
    zero = fld.zero()
    comp = Y.rows  # comp[idx2(k,l)][idx2(i,j)] = Y_ij^{kl}

    def y(i, j, k, l):
        return comp[idx2(k, l)][idx2(i, j)]

    for r in range(3):
        for t in range(3):
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        acc = zero
                        for l in range(3):
                            acc = acc + y(i, j, r, l) * y(l, k, r, t) \
                                - y(i, k, r, l) * y(l, j, r, t)
                        if i != r or t == r or {j, k} != {r, t}:
                            want = zero
                        elif j == r and k == t:
                            want = qq
                        else:
                            want = -qq
                        if acc != want:
                            indices = [i + 1, j + 1, k + 1, r + 1, t + 1]
                            return CheckReport("component_identity",
                                               fref._witness(fld, {"indices": indices}, acc, want))
    return CheckReport("component_identity")


def reference_pairing_identities(Y, q):
    """The pairing identities with every term written out and vol evaluated directly."""
    fld = Y.field
    qq = fld.of(q)
    e = std_basis(fld)
    zero = fld.zero()

    def mismatches():
        for c in range(9):
            if not is_alt2(Y.col(c)):
                yield fref._witness(fld, {"basis_tensor": [c // 3 + 1, c % 3 + 1]}, Y.col(c),
                                    "alternating tensor expected")
        ell = [[[Y.rows[r][idx2(j, k)] for k in range(3)] for j in range(3)] for r in (5, 6, 1)]
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    lhs = ell[i][j][k] - ell[i][k][j]
                    rhs = (qq + 1) * vol(e[i], e[j], e[k])
                    if lhs != rhs:
                        yield fref._witness(fld, {"indices": [i + 1, j + 1, k + 1]}, lhs, rhs,
                                            identity="eigenvalue")
        xs = [(f"e{i+1}", e[i]) for i in range(3)]
        xs += [
            (f"e{i+1}+e{j+1}", [a + b for a, b in zip(e[i], e[j])])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        for xname, x in xs:
            lx = [[sum((x[i] * ell[i][j][u] for i in range(3)), zero) for u in range(3)]
                  for j in range(3)]
            lxx = [sum((x[j] * lx[j][u] for j in range(3)), zero) for u in range(3)]
            volx = [[vol(x, e[u], e[v]) for v in range(3)] for u in range(3)]
            for j in range(3):
                for k in range(3):
                    vxjk = vol(x, e[j], e[k])
                    ljk = ell[j][k]
                    for u in range(3):
                        for v in range(3):
                            lhs = (
                                lx[j][u] * lx[k][v]
                                - lx[j][v] * lx[k][u]
                                - lxx[u] * ljk[v]
                                + lxx[v] * ljk[u]
                            )
                            rhs = qq * vxjk * volx[u][v]
                            if lhs != rhs:
                                yield fref._witness(
                                    fld, {"x": xname, "indices": [j + 1, k + 1, u + 1, v + 1]},
                                    lhs, rhs, identity="wedge")

    return CheckReport("pairing_identities", next(mismatches(), None))


def non_member_Y(field, squares):
    """Y = (q+1)(P + sum of t (x) (e_i (x) e_i)*) at q = 2, with P = (Id - flip)/2.

    ``squares`` maps i to the bivector t taking the column of e_i (x) e_i.
    """
    P = (Matrix.identity(field, 9) - flip_matrix(field)).scale(field.one() / 2)
    cols = [P.col(c) for c in range(9)]
    for i, t in squares.items():
        cols[idx2(i, i)] = [a + b for a, b in zip(cols[idx2(i, i)], t)]
    return Matrix.from_columns(field, cols).scale(field.of(3))


def _bumped(Y, entries):
    """Y with x added at (r, c) for each (r, c, x) of ``entries``."""
    rows = [row[:] for row in Y.rows]
    for r, c, x in entries:
        rows[r][c] = rows[r][c] + x
    return Matrix(Y.field, rows)


def _reference_samples(field):
    """(q, Y) pairs: valid, moved, sampled, adversarial, bumped and non-member operators."""
    rng = random.Random(23)
    e1, e2, e3 = std_basis(field)
    out = []
    for label in TYPE_LABELS:
        q = 2 if label in ("Type1", "Type2") else None
        sym = build_R(conjugate_data(canonical(label, q, field), random_invertible(field, rng)))
        out.append((sym.q, sym.Y))
    for _ in range(3):
        sym = build_R(sample_strategy_a(field, rng))
        out.append((sym.q, sym.Y))
        q, a, b, g = sample_adversarial(field, rng)
        out.append((q, skewsymmetrizer_matrix(q, g, wedge2(a, b))))
    q, Y = out[2]  # a moved Type 3
    one = field.one()
    for c in (0, 1, 4, 7):
        out.append((q, _bumped(Y, [(3 * c % 9, c, one)])))  # leaves the alternating square
        out.append((q, _bumped(Y, [(idx2(0, 1), c, one), (idx2(1, 0), c, -one)])))  # stays in it
        out.append((q, _bumped(Y, [(idx2(1, 2), c, one), (idx2(2, 1), c, -one)])))
    out.append((field.of(2), non_member_Y(field, {0: wedge2(e1, e2)})))
    out.append((field.of(2), non_member_Y(field, {0: wedge2(e1, e2), 1: wedge2(e2, e3)})))
    return out


def _variant_samples(field, rng):
    """Strategy-B symmetries, each also at q + 1 and scaled to 3 Y: valid and failing operators."""
    out = []
    for _ in range(4):
        sym = build_R(sample_strategy_b(field, rng))
        out += [(sym.q, sym.Y), (sym.q + 1, sym.Y), (sym.q, sym.Y.scale(field.of(3)))]
    return out


FIELDS = [QQ, GF(3), GF(7), GF(1_000_003), GF(2**61 - 1)]
FIELD_IDS = ["Q", "Fp3", "Fp7", "Fp1000003", "Fp2^61-1"]


def _image_samples(field):
    """(q, Y) at q = 4 that fail the image and eigenvalue check each its own way: 9 columns
    outside Alt2 (Id), rank 0 and rank 2 inside Alt2, and Y acting as q + 1 on e1^e2 and e1^e3
    only (as 2(q + 1) on e2^e3)."""
    q = field.of(4)
    P = (Matrix.identity(field, 9) - flip_matrix(field)).scale((q + 1) / 2)
    zeroed, doubled = [P.col(c) for c in range(9)], [P.col(c) for c in range(9)]
    for c in (idx2(1, 2), idx2(2, 1)):
        zeroed[c] = [field.zero()] * 9
        doubled[c] = [2 * x for x in doubled[c]]
    return [(q, Matrix.identity(field, 9)), (q, Matrix.zeros(field, 9)),
            (q, Matrix.from_columns(field, zeroed)), (q, Matrix.from_columns(field, doubled))]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_component_and_pairing_match_the_reference_loops(field):
    """Same documents, witnesses included, as the written-out loops and the former bodies
    (field_reference) of every check that shares one comparison of integer sides: the Hecke
    relation and column_witness (Y^2 = (q + 1) Y on 9x9, Y x Id = Id x Y on 27x27), the image
    and eigenvalue check, the component and pairing identities, and the cyclic-shift identity
    with the traceless operator, twice it and a fixed wrong T."""
    witnesses = {}
    ident3, ident9 = Matrix.identity(field, 3), Matrix.identity(field, 9)
    wrong_t = Matrix.from_rows(field, [[1, 2, 0], [0, -1, 3], [4, 0, 5]])
    for q, Y in (_reference_samples(field) + _variant_samples(field, random.Random(29))
                 + _image_samples(field)):
        R, T = ident9.scale(q) - Y, _traceless(field, q, Y)
        residual, zero = hecke_residual(R, q), Matrix.zeros(field, 9)
        pairs = [
            (check_hecke(R, q), CheckReport("hecke", fref.column_witness(residual, zero))),
            (CheckReport("columns9", column_witness(Y * Y, Y.scale(q + 1))),
             CheckReport("columns9", fref.column_witness(Y * Y, Y.scale(q + 1)))),
            (CheckReport("columns27", column_witness(Y.kron(ident3), ident3.kron(Y))),
             CheckReport("columns27", fref.column_witness(Y.kron(ident3), ident3.kron(Y)))),
            (check_image_and_eigen(Y, q), fref.image_and_eigen(Y, q)),
            (check_component_identity(Y, q), reference_component_identity(Y, q)),
            (check_pairing_identities(Y, q), reference_pairing_identities(Y, q)),
        ] + [(check_cyclic_shift_identity(Y, t, q), fref.cyclic_shift_identity(Y, t, q))
             for t in (T, T.scale(field.of(2)), wrong_t)]
        for got, want in pairs:
            assert got.to_json() == want.to_json(), got.name
            witness = got.witness or {}
            witnesses.setdefault(got.name, set()).add(
                witness.get("identity") or next(iter(witness.get("input", {None: 0}))))
    assert witnesses == {
        "hecke": {None, "basis_tensor"}, "columns9": {None, "basis_tensor"},
        "columns27": {None, "basis_tensor"}, "image_eigen": {None, "basis_tensor", "rank", "bivector"},
        "component_identity": {None, "indices"},
        "pairing_identities": {None, "basis_tensor", "eigenvalue", "wedge"},
        "cyclic_shift_identity": {None, "vector"}}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_component_and_pairing_match_the_pairwise_reductions(field):
    """Each side reduced once, whole, gives the document, witness included, of each (lhs, rhs)
    pair reduced on its own (field_reference), also at q + 1, at 3 Y and on adversarial Y."""
    rng = random.Random(47)
    base = _reference_samples(field) + _variant_samples(field, random.Random(29))
    samples = base + [(q + 1, Y) for q, Y in base] + [(q, Y.scale(field.of(3))) for q, Y in base]
    for _ in range(10):
        q, a, b, g = sample_adversarial(field, rng)
        samples.append((q, skewsymmetrizer_matrix(q, g, wedge2(a, b))))
    component, pairing = set(), set()
    for q, Y in samples:
        got = check_component_identity(Y, q).to_json()
        assert got == fref.component_identity(Y, q).to_json()
        component.add(got["passed"])
        got = check_pairing_identities(Y, q).to_json()
        assert got == fref.pairing_identities(Y, q).to_json()
        pairing.add((got["witness"] or {}).get("identity"))
    assert component == {True, False}
    assert pairing >= {None, "eigenvalue", "wedge"}


def test_a_passing_fp_suite_reduces_each_side_of_a_block_once(monkeypatch):
    """The pairing check reduces two lists per identity (the 9 pairings of the eigen sides, then
    the wedge identity's 27 cells at each of the 5 sample points), each holding the whole
    identity; the containments and the component identity, read off the table's packed
    verdicts, reduce none."""
    field, calls = GF(1_000_003), []
    monkeypatch.setattr(verifier, "reduce_mod", lambda ns, p: calls.append(len(ns)) or
                        reduce_mod(ns, p))
    rng = random.Random(53)
    for sampler in (sample_strategy_a, sample_strategy_b) * 2:
        sym = build_R(sampler(field, rng))
        table = braid_table(sym.Y, sym.q)
        calls.clear()
        assert check_pairing_identities(sym.Y, sym.q).passed
        assert calls == [9, 9, 135, 135]
        calls.clear()
        assert check_containments(sym.Y, sym.q, table).passed
        assert check_component_identity(sym.Y, sym.q, table).passed
        assert calls == []


def _counted(monkeypatch, names):
    """Counts of the calls of the verifier's functions ``names``, by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(verifier, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(verifier, name, counted)
    return calls


@pytest.mark.parametrize("field", [QQ, GF(1_000_003)], ids=["Q", "Fp1000003"])
def test_only_a_failing_check_builds_a_witness(field, monkeypatch):
    """A passing run_suite calls neither _witness nor vector_to_json: no witness input (a
    bivector's text, an index list) is formed before a block fails.  Each failing check builds
    exactly one witness, whichever way it fails."""
    rng = random.Random(61)
    syms = [build_R(sampler(field, rng)) for sampler in (sample_strategy_a, sample_strategy_b) * 3]
    calls = _counted(monkeypatch, ["_witness", "vector_to_json"])
    for sym in syms:
        assert all(rep.passed for rep in run_suite(sym))
    assert calls == {"_witness": 0, "vector_to_json": 0}
    q, a, b, g = sample_adversarial(field, rng)
    bad = skewsymmetrizer_matrix(q, g, wedge2(a, b))
    sym, wrong_t = syms[0], Matrix.from_rows(field, [[1, 2, 0], [0, -1, 3], [4, 0, 5]])
    samples = [(q, bad)] + [(sym.q, _bumped(sym.Y, [(3 * c % 9, c, field.one())])) for c in (0, 4)]
    samples += [(sym.q + 1, sym.Y), (sym.q, sym.Y.scale(field.of(3)))] + _image_samples(field)
    failed = set()
    for q, Y in samples:
        R = Matrix.identity(field, 9).scale(q) - Y
        for check in (lambda: check_braid(R), lambda: check_hecke(R, q),
                      lambda: check_image_and_eigen(Y, q), lambda: check_containments(Y, q),
                      lambda: check_component_identity(Y, q),
                      lambda: check_pairing_identities(Y, q),
                      lambda: check_cyclic_shift_identity(Y, wrong_t, q)):
            calls["_witness"] = 0
            report = check()
            assert calls["_witness"] == (not report.passed), report.name
            if not report.passed:
                failed.add(report.name)
    assert failed == {"braid", "hecke", "image_eigen", "containments",
                      "component_identity", "pairing_identities", "cyclic_shift_identity"}


@pytest.mark.parametrize("field", [QQ, GF(1_000_003)], ids=["Q", "Fp1000003"])
def test_equal_operators_are_not_scanned(field, monkeypatch):
    """column_witness decides equal operators by their integer coordinates: a passing check_hecke
    or check_symmetrized calls _first_witness zero times, a failing one once.  A passing
    check_hecke decides its zero residual without column_witness, and a failing one calls it once
    and gives the former body's witness.  Operators of different shapes or fields still raise."""
    rng = random.Random(67)
    syms = [build_R(sampler(field, rng)) for sampler in (sample_strategy_a, sample_strategy_b) * 2]
    calls = _counted(monkeypatch, ["_first_witness", "column_witness"])
    for sym in syms:
        assert check_hecke(sym.R, sym.q).passed
        assert check_symmetrized(classical_r(sym), sym.q).passed
    assert calls == {"_first_witness": 0, "column_witness": 0}
    sym = syms[0]
    report = check_hecke(sym.R, sym.q + 1)
    assert not report.passed
    assert not check_symmetrized(classical_r(sym), sym.q + 1).passed
    assert calls == {"_first_witness": 2, "column_witness": 1}
    assert report.to_json() == fref.check_hecke(sym.R, sym.q + 1).to_json()
    zero = Matrix.zeros(field, 9)
    with pytest.raises(DimensionMismatch, match="^9x9 vs 3x3$"):
        column_witness(zero, Matrix.zeros(field, 3))
    with pytest.raises(FieldMismatch):
        column_witness(zero, Matrix.zeros(GF(7), 9))


def _kron_lifts(op):
    """op on slots (1,2), (2,3) and (1,3) of degree-3 tensors, as dense 27x27 Kronecker products."""
    ident3 = Matrix.identity(op.field, 3)
    swap23 = ident3.kron(flip_matrix(op.field))
    left = op.kron(ident3)
    return left, ident3.kron(op), swap23 * left * swap23


def _field_alt2_basis(field):
    e = std_basis(field)
    return [wedge2(e[0], e[1]), wedge2(e[0], e[2]), wedge2(e[1], e[2])]


def reference_braid(R):
    """The braid equation as products of the dense lifts."""
    r1, r2, _ = _kron_lifts(R)
    return CheckReport("braid", column_witness(r1 * (r2 * r1), r2 * (r1 * r2)))


def reference_containments(Y, q):
    """The containments in field coordinates, the dense lifts applied to each spanning tensor."""
    fld, qq = Y.field, Y.field.of(q)
    y1, y2, _ = _kron_lifts(Y)
    e = std_basis(fld)
    for space, first, second in (("VxAlt2", y1, y2), ("Alt2xV", y2, y1)):
        for i in range(3):
            for t in _field_alt2_basis(fld):
                w = tensor2(e[i], t) if space == "VxAlt2" else tensor2(t, e[i])
                u = [a - qq * b for a, b in zip(second.apply(first.apply(w)), w)]
                if not is_alt3(u):
                    return CheckReport("containments", fref._witness(
                        fld, {"space": space, "vector": i + 1, "bivector": vector_to_json(fld, t)},
                        u, "element of Alt3 expected"))
    return CheckReport("containments")


def reference_cyclic_shift_identity(Y, T, q):
    """The cyclic-shift identity in field coordinates through the dense lifts."""
    fld, qq = Y.field, Y.field.of(q)
    y1, y2, _ = _kron_lifts(Y)
    e = std_basis(fld)
    for i in range(3):
        for t in _field_alt2_basis(fld):
            tx, xt = tensor2(t, e[i]), tensor2(e[i], t)
            shift = cyclic_shift(y2.apply(y1.apply(xt)))
            lhs = [a - b for a, b in zip(y1.apply(y2.apply(tx)), shift)]
            rhs = [2 * (qq + 1) * c for c in fref.wedge_vt(T.apply(e[i]), t)]
            if lhs != rhs:
                return CheckReport("cyclic_shift_identity", fref._witness(
                    fld, {"vector": i + 1, "bivector": vector_to_json(fld, t)}, lhs, rhs))
    return CheckReport("cyclic_shift_identity")


def reference_hecke(R, q):
    """The quadratic relation as the product (R - q Id)(R + Id) of field matrices."""
    ident = Matrix.identity(R.field, 9)
    residual = (R - ident.scale(R.field.of(q))) * (R + ident)
    return CheckReport("hecke", column_witness(residual, Matrix.zeros(R.field, 9)))


def reference_cybe(t):
    """The classical Yang-Baxter equation as commutators of the dense lifts."""
    r12, r23, r13 = _kron_lifts(t.matrix)
    total = zero = Matrix.zeros(t.field, 27)
    for x, y in ((r12, r13), (r12, r23), (r13, r23)):
        total = total + (x * y - y * x)
    return CheckReport("cybe", column_witness(total, zero))


def _traceless(field, q, Y):
    """The traceless operator of Y's invariant operator, or a fixed 3x3 matrix when there is none."""
    try:
        return t_operator_of_F(extract_F(HeckeSymmetry(Matrix.identity(field, 9).scale(q) - Y, q)))
    except NotHeckeSym0:
        return Matrix.from_rows(field, [[1, 2, 0], [0, -1, 3], ["1/2", 0, 5]])


def assert_integer_checks_match_kron_references(field, samples):
    """Each integer-coordinate check gives the reference document, witness included; the
    cyclic-shift identity also with the traceless operator doubled."""
    verdicts = {}
    for q, Y in samples:
        R = Matrix.identity(field, 9).scale(q) - Y
        T = _traceless(field, q, Y)
        T2 = T.scale(field.of(2))
        r = gl_tensor(flip_matrix(field) * R - Matrix.identity(field, 9))
        pairs = [
            (check_braid(R), reference_braid(R)),
            (check_hecke(R, q), reference_hecke(R, q)),
            (check_containments(Y, q), reference_containments(Y, q)),
            (check_component_identity(Y, q), reference_component_identity(Y, q)),
            (check_pairing_identities(Y, q), reference_pairing_identities(Y, q)),
            (check_cyclic_shift_identity(Y, T, q), reference_cyclic_shift_identity(Y, T, q)),
            (check_cyclic_shift_identity(Y, T2, q), reference_cyclic_shift_identity(Y, T2, q)),
            (check_cybe(r), reference_cybe(r)),
        ]
        for got, want in pairs:
            assert got.to_json() == want.to_json()
            verdicts.setdefault(got.name, set()).add(got.passed)
    return verdicts


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_integer_checks_match_kron_references(field):
    """Every integer-coordinate check agrees with its field reference, and passes and fails."""
    rng = random.Random(41)
    samples = []
    for label in TYPE_LABELS:
        q = 2 if label in ("Type1", "Type2") else None
        sym = build_R(conjugate_data(canonical(label, q, field), random_invertible(field, rng)))
        samples.append((sym.q, sym.Y))
    for _ in range(2):
        sym = build_R(sample_strategy_a(field, rng))
        samples.append((sym.q, sym.Y))
        q, a, b, g = sample_adversarial(field, rng)
        samples.append((q, skewsymmetrizer_matrix(q, g, wedge2(a, b))))
    q, Y = samples[2]  # a moved Type 3
    for c in (0, 4, 8):
        samples.append((q, _bumped(Y, [(3 * c % 9, c, field.one())])))
    samples += _variant_samples(field, rng)
    verdicts = assert_integer_checks_match_kron_references(field, samples)
    assert verdicts == dict.fromkeys(
        ["braid", "hecke", "containments", "component_identity", "pairing_identities",
         "cyclic_shift_identity", "cybe"], {True, False})


class TestIntegerScaling:
    """Scales that the integer coordinates must clear: denominators of q, of Y and of T."""

    @pytest.mark.parametrize("label, q", [("Type1", "1/2"), ("Type2", "-2/3")])
    def test_q_with_a_denominator(self, label, q):
        rng = random.Random(5)
        sym = build_R(conjugate_data(canonical(label, q, QQ), random_invertible(QQ, rng)))
        assert sym.q.denominator > 1
        assert all(rep.passed for rep in run_suite(sym))
        fifth = QQ.of("1/5")
        samples = [(sym.q, sym.Y), (sym.q, _bumped(sym.Y, [(1, 4, fifth)])),
                   (sym.q, _bumped(sym.Y, [(1, 1, fifth), (3, 1, -fifth)]))]  # stays in Alt2
        verdicts = assert_integer_checks_match_kron_references(QQ, samples)
        assert verdicts["braid"] == verdicts["pairing_identities"] == {True, False}
        assert check_pairing_identities(samples[2][1], sym.q).witness["identity"] == "eigenvalue"

    def test_pairwise_coprime_denominators(self):
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29]
        sym = build_R(conjugate_data(canonical("Type3"), random_invertible(QQ, random.Random(6))))
        Y = _bumped(sym.Y, [(3 * k % 9, k, Fraction(1, p)) for k, p in enumerate(primes)])
        assert integer_coordinates(QQ, [x for row in Y.rows for x in row])[1] % prod(primes) == 0
        verdicts = assert_integer_checks_match_kron_references(QQ, [(sym.q, Y)])
        assert all(v == {False} for v in verdicts.values())

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    def test_zero_operator(self, field):
        zero = Matrix.zeros(field, 9)
        assert integer_coordinates(field, [x for row in zero.rows for x in row])[1] == 1
        assert check_braid(zero).passed
        assert check_cybe(gl_tensor(zero)).passed
        q = field.of(2)
        verdicts = assert_integer_checks_match_kron_references(field, [(q, zero)])
        assert verdicts["containments"] == {False}

    def test_large_prime_witness(self):
        field = GF(2**61 - 1)
        rng = random.Random(9)
        sym = build_R(sample_strategy_a(field, rng))
        q, a, b, g = sample_adversarial(field, rng)
        bad = skewsymmetrizer_matrix(q, g, wedge2(a, b))
        verdicts = assert_integer_checks_match_kron_references(field, [(sym.q, sym.Y), (q, bad)])
        assert verdicts["braid"] == {True, False}
        R = Matrix.identity(field, 9).scale(q) - bad
        witness = check_braid(R).witness
        assert any(int(x) > 2**40 for x in witness["lhs"] + witness["rhs"])


def test_degree_three_kernel_forms_no_field_objects(monkeypatch):
    """Braid, containments, Hecke and pairing build no Fp object on a valid operator."""
    field = GF(1_000_003)
    sym = build_R(sample_strategy_a(field, random.Random(3)))
    made = []
    init = fields.Fp.__init__

    def counted(obj, v, p):
        made.append(v)
        init(obj, v, p)

    monkeypatch.setattr(fields.Fp, "__init__", counted)
    assert check_braid(sym.R).passed
    assert check_containments(sym.Y, sym.q).passed
    assert check_hecke(sym.R, sym.q).passed
    assert check_pairing_identities(sym.Y, sym.q).passed
    assert len(made) <= 9


class TestNonMembers:
    """Operators that pass from_matrix but are not Hecke symmetries of the polynomial algebra."""

    @pytest.mark.parametrize("field", [QQ, GF(7), GF(1_000_003)], ids=["Q", "Fp7", "Fp1000003"])
    def test_one_square_fails_every_degree_three_check(self, field):
        e1, e2, _ = std_basis(field)
        q = field.of(2)
        Y = non_member_Y(field, {0: wedge2(e1, e2)})
        sym = HeckeSymmetry.from_matrix(Matrix.identity(field, 9).scale(q) - Y)
        assert sym.q == q
        for check in (check_braid(sym.R), check_containments(sym.Y, q),
                      check_component_identity(sym.Y, q), check_pairing_identities(sym.Y, q)):
            assert not check.passed, check.name

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    def test_two_squares_have_no_rank_one_invariant_operator(self, field, tmp_path, capsys):
        e1, e2, e3 = std_basis(field)
        q = field.of(2)
        R = Matrix.identity(field, 9).scale(q) - non_member_Y(
            field, {0: wedge2(e1, e2), 1: wedge2(e2, e3)})
        with pytest.raises(NotHeckeSym0, match="^the invariant operator does not have rank 1$"):
            extract_F(HeckeSymmetry.from_matrix(R))
        path = tmp_path / "R.json"
        path.write_text(json.dumps({"field": field.name, "q": "2", "R": matrix_to_json(R)}))
        assert main(["verify", "--matrix", str(path)]) == 1
        shift = json.loads(capsys.readouterr().out)[-1]
        assert shift == {"name": "cyclic_shift_identity", "passed": False, "witness": {
            "error": "no valid invariant operator: the invariant operator does not have rank 1"}}


def _gate_samples(field):
    """Random alternating 9x9 operators, each also with one entry bumped out of Alt2, and
    operators with 1 and 6 at (1,2) and (2,1) of a column: alternating over F7 only."""
    rng = random.Random(31)

    def scalar():
        return field.of(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))

    out = []
    for _ in range(8):
        Y = Matrix.from_columns(field, [bivector([scalar() for _ in range(3)])
                                        for _ in range(9)])
        bump = [(rng.randrange(9), rng.randrange(9), field.of(rng.randint(1, 6)))]
        out += [Y, _bumped(Y, bump)]
        c = rng.randrange(9)
        rows = [row[:] for row in Y.rows]
        rows[idx2(0, 1)][c], rows[idx2(1, 0)][c] = field.of(1), field.of(6)
        out.append(Matrix(field, rows))
    return out


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_alternation_gate_matches_the_column_loop(field):
    """The integer gate finds the columns the field-object is_alt2 loop finds."""
    found = [non_alternating_columns(Y) for Y in _gate_samples(field)]
    assert found == [fref.non_alternating_columns(Y) for Y in _gate_samples(field)]
    assert [] in found and any(found)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_constructor_rejects_where_the_checks_witness_a_column_first(field):
    """HeckeSymmetry(q Id - Y, q) raises exactly when image_eigen and pairing lead with a column."""
    q, raised = field.of(2), set()
    for Y in _gate_samples(field):
        bad = fref.non_alternating_columns(Y)
        try:
            HeckeSymmetry(Matrix.identity(field, 9).scale(q) - Y, q)
        except NotHeckeSym0:
            raised.add(True)
            assert bad
        else:
            raised.add(False)
            assert not bad
        for report in (check_image_and_eigen(Y, q), check_pairing_identities(Y, q)):
            first = (report.witness or {}).get("input", {}).get("basis_tensor")
            assert first == ([bad[0] // 3 + 1, bad[0] % 3 + 1] if bad else None)
    assert raised == {True, False}

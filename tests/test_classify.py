"""Type determination, canonical fixtures, value tables, invariance."""

import itertools
import random
from fractions import Fraction

import pytest

import field_reference as fref
from paper_reference import check_value_tables, reference_r_matrix
from hecke3.errors import Hecke3Error, InputError, InvalidQ
from hecke3.fields import GF, QQ, clip
from hecke3.linalg import Matrix
from hecke3.multilinear import idx2, random_invertible
from hecke3.verifier import sample_strategy_a, sample_strategy_b
from hecke3.heckecore import build_R, conjugate, conjugate_data
from hecke3.classify import (
    TYPE_LABELS,
    _LABELS,
    canonical,
    classify,
)

Fr = Fraction

EXPECTED_INVARIANTS = {
    # label: (rank_g, rank_restricted)
    "Type1": (3, 2),
    "Type2": (2, 2),
    "Type3": (3, 1),
    "Type4": (2, 1),
    "Type5": (1, 1),
    "Type6": (2, 0),
    "Type7": (1, 0),
    "Type8": (0, None),
}


class TestCanonical:
    def test_first_family_gram(self):
        g = canonical("Type1", Fr(2)).g
        assert g.rows == Matrix.from_rows(QQ, [[0, "1/2", 0], ["1/2", 0, 0], [0, 0, 1]]).rows

    def test_sixth_gram(self):
        g = canonical("Type6").g
        assert g == Matrix.from_rows(QQ, [[0, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_eighth_gram_is_zero(self):
        assert canonical("Type8").g.is_zero()

    def test_q_validation(self):
        with pytest.raises(InvalidQ):
            canonical("Type1", Fr(1))
        with pytest.raises(InvalidQ):
            canonical("Type2", Fr(0))
        with pytest.raises(InvalidQ):
            canonical("Type1")
        with pytest.raises(InvalidQ):
            canonical("Type3", Fr(2))

    @pytest.mark.parametrize("label", ["Type9", "Type0", "type1", "Type", 1, None,
                                       pytest.param("T" * 300, id="300-characters")])
    def test_unknown_labels_are_input_errors(self, label):
        """Tested before any q: "Type9" at q = 2 is not a q = 1 type given the wrong q."""
        for args in ((), (2,), (Fr(1, 2), GF(7)), (None, GF(7))):
            with pytest.raises(InputError) as err:
                canonical(label, *args)
            assert str(err.value) == f"unknown type label {clip(repr(label))}"

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(7), GF(1_000_003)],
                             ids=["Q", "F3", "F7", "F1000003"])
    def test_canonical_matches_the_former_form_and_quadruple_pair(self, field):
        """Equal quadruples, or the same error type and text, in the same order of checks."""

        def outcome(fn, label, q):
            try:
                return fn(label, q, field)
            except Exception as exc:
                return type(exc), str(exc)

        for label in TYPE_LABELS + ("Type9",):
            for q in (None, 0, 1, 2, 3, -1, "1/2", "-2/3", "x"):
                assert outcome(canonical, label, q) == outcome(fref.canonical, label, q), (label, q)

    def test_all_canonical_data_valid(self):
        for label in TYPE_LABELS:
            q = Fr(3) if label in ("Type1", "Type2") else None
            d = canonical(label, q)  # constructor validates the constraint
            assert d.a == [QQ.one(), QQ.zero(), QQ.zero()]


class TestClassify:
    def test_flip_is_type8(self):
        assert classify(build_R(canonical("Type8"))).label == "Type8"

    @pytest.mark.parametrize("label", TYPE_LABELS)
    def test_canonical_types(self, label):
        q = Fr(2) if label in ("Type1", "Type2") else None
        rep = classify(build_R(canonical(label, q)))
        assert rep.label == label
        assert (rep.rank_g, rep.rank_restricted) == EXPECTED_INVARIANTS[label]

    @pytest.mark.parametrize("q", [Fr(2), Fr(3), Fr(-1), Fr(1, 2)])
    def test_first_families_across_q(self, q):
        assert classify(build_R(canonical("Type1", q))).label == "Type1"
        assert classify(build_R(canonical("Type2", q))).label == "Type2"

    def test_conjugated_third_type(self):
        rng = random.Random(19)
        sym = build_R(canonical("Type3"))
        for _ in range(5):
            rep = classify(conjugate(sym, random_invertible(QQ, rng)))
            assert rep.label == "Type3"

    def test_diagonal_rescaling_keeps_type(self):
        P = Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        sym = build_R(canonical("Type1", Fr(2)))
        assert classify(conjugate(sym, P)).label == "Type1"

    def test_rank_inequality(self):
        for label in TYPE_LABELS:
            q = Fr(3) if label in ("Type1", "Type2") else None
            rep = classify(build_R(canonical(label, q)))
            if rep.rank_restricted is not None:
                assert rep.rank_restricted <= rep.rank_g <= 2 + rep.rank_restricted

    def test_report_json(self):
        rep = classify(build_R(canonical("Type3")))
        doc = rep.to_json()
        assert doc["type"] == "Type3" and doc["q"] == "1"
        assert doc["rank_g"] == 3 and doc["rank_restricted"] == 1

    def test_over_prime_field(self):
        f7 = GF(7)
        for label in TYPE_LABELS:
            q = f7.of(3) if label in ("Type1", "Type2") else None
            assert classify(build_R(canonical(label, q, f7))).label == label


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7)], ids=["Q", "Fp3", "Fp7"])
def test_restricted_rank_is_the_rank_of_the_gram_matrix_on_a_and_b(field):
    """rank(t^T g t) against the 2x2 Gram matrix of the quadruple's g on (a, b)."""
    rng, seen = random.Random(43), set()
    samples = [sample_strategy_a(field, rng) for _ in range(12)]
    samples += [sample_strategy_b(field, rng) for _ in range(12)]
    samples += [conjugate_data(canonical(label, 2 if label in ("Type1", "Type2") else None, field),
                               random_invertible(field, rng)) for label in TYPE_LABELS]
    for data in samples:
        a, b, g = data.a, data.b, data.g
        gram = Matrix(field, [[fref.g_value(g, a, a), fref.g_value(g, a, b)],
                              [fref.g_value(g, b, a), fref.g_value(g, b, b)]])
        rep = classify(build_R(data))
        want = None if g.is_zero() else gram.rank()
        assert rep.rank_restricted == want, (rep.label, g.rows)
        seen.add(want)
    assert seen == {None, 0, 1, 2}


def reference_label(q_is_one, rank_g, rank_res):
    """The label by the nested branches, each impossible pattern raising on its own."""
    if not rank_res <= rank_g <= 2 + rank_res:
        raise Hecke3Error("internal inconsistency: rank inequality violated")
    if not q_is_one:
        if rank_res != 2:
            raise Hecke3Error("internal inconsistency: q != 1 forces a nondegenerate restriction")
        if rank_g == 3:
            return "Type1"
        if rank_g == 2:
            return "Type2"
        raise Hecke3Error("internal inconsistency: impossible rank for q != 1")
    if rank_res == 2:
        raise Hecke3Error("internal inconsistency: q = 1 forces a degenerate restriction")
    if rank_res == 1:
        label = {3: "Type3", 2: "Type4", 1: "Type5"}.get(rank_g)
    else:
        label = {2: "Type6", 1: "Type7"}.get(rank_g)
    if label is None:
        raise Hecke3Error("internal inconsistency: impossible rank pattern")
    return label


def test_label_table_agrees_with_the_branches():
    """On all 2 x 4 x 3 triples (q == 1, rank g, restricted rank) of a nonzero F."""
    for key in itertools.product((False, True), range(4), range(3)):
        try:
            want = reference_label(*key)
        except Hecke3Error:
            want = None
        assert _LABELS.get(key) == want, key
    assert sorted(_LABELS.values()) == sorted(TYPE_LABELS[:7])


class TestValueTables:
    @pytest.mark.parametrize("q", [Fr(2), Fr(3), Fr(-1), Fr(1, 2)])
    def test_tables_match(self, q):
        rep = check_value_tables(q)
        assert rep.passed, rep.witness

    def test_second_type_square_entry(self):
        q = Fr(3)
        m = reference_r_matrix("Type2", q)
        col = m.col(idx2(2, 2))
        assert col[idx2(2, 2)] == q and sum(1 for c in col if c != 0) == 1

    def test_third_type_first_square(self):
        m = reference_r_matrix("Type3", None)
        col = m.col(idx2(0, 0))
        assert col[idx2(0, 0)] == 1
        assert col[idx2(0, 1)] == 1
        assert col[idx2(1, 0)] == -1

    def test_sixth_type_mixed_entry(self):
        m = reference_r_matrix("Type6", None)
        col = m.col(idx2(0, 2))
        assert col[idx2(2, 0)] == 1 and sum(1 for c in col if c != 0) == 1

    def test_tables_match_over_prime_field(self):
        f11 = GF(11)
        rep = check_value_tables(f11.of(2), f11)
        assert rep.passed, rep.witness


class TestInvariance:
    def test_first_two_families_never_confused(self):
        rng = random.Random(29)
        for q in (Fr(2), Fr(-1)):
            s1 = build_R(canonical("Type1", q))
            s2 = build_R(canonical("Type2", q))
            for _ in range(5):
                P = random_invertible(QQ, rng)
                assert classify(conjugate(s1, P)).label == "Type1"
                assert classify(conjugate(s2, P)).label == "Type2"

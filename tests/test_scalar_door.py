"""One door each way between integers and field scalars.

``linalg.field_scalars`` turns integers n over a scale d into the field scalars n / d, over
F_p too, and ``FOperator`` keeps its bivector as the integer matrix ``plane``, which
``is_zero``, ``matrix``, ``delta``, ``t_operator_of_F`` and ``classify`` read.  Both are
compared with the field-scalar references of ``field_reference``.  The samplers' outputs and
random states on 300 seeds are pinned by one digest.
"""

import hashlib
import random
from fractions import Fraction

import pytest

import field_reference as fref
from hecke3.classify import TYPE_LABELS, classify
from hecke3.errors import DimensionMismatch, InputError
from hecke3.fields import GF, QQ, Fp
from hecke3.heckecore import (
    FOperator,
    HeckeData,
    build_R,
    build_Y_from_F,
    extract_F,
    t_operator_of_F,
)
from hecke3.linalg import Matrix, field_scalars
from hecke3.multilinear import random_invertible, wedge2
from hecke3.verifier import sample_adversarial, sample_strategy_a, sample_strategy_b
from test_heckecore import moved_samples
from test_integer_construction import _coprime_denominators

FIELDS = [QQ, GF(3), GF(7), GF(1_000_003), GF(2**61 - 1)]
FIELD_IDS = ["Q", "Fp3", "Fp7", "Fp1000003", "Fp2^61-1"]


def _scales(p):
    """1, 2, -1, 3, p - 1 and a unit above p (a large integer over Q), none divisible by p."""
    ds = [1, 2, -1, 3] + ([p - 1, p + 2] if p else [2**64 + 1])
    return [d for d in ds if not p or d % p]


def test_field_scalars_divides_by_its_scale_over_a_prime_field():
    assert field_scalars(GF(7), [1, 3], 2) == [Fp(4, 7), Fp(5, 7)]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_field_scalars_honours_its_scale(field):
    p = field.characteristic
    ns = [0, 1, -1, 2, 5, -6, 7, 12, p, -p, 3 * p + 1, 10**30, -(10**30) + 7]
    for d in _scales(p):
        got = field_scalars(field, ns, d)
        assert got == [field.of(Fraction(n, d)) for n in ns], d
        assert got == fref.ratios(field, ns, d), d
        assert {type(x) for x in got} == {type(field.zero())}
        if d > 0:
            assert got == Matrix.of_integers(field, 1, len(ns), ns, d).rows[0], d


def _rescaled(g, t):
    """(2g, t/2): the same operator F under another pair."""
    return g.scale(2), [x / 2 for x in t]


def _pairs(field):
    """(g, t): canonical types moved by a random basis, strategy A and B samples, their
    (2g, t/2) rescalings, t = 0, g = 0, and entries with pairwise coprime denominators."""
    out = []
    for data in moved_samples(field, random.Random(47)):
        out += [(data.g, data.t), _rescaled(data.g, data.t)]
    g, t = out[0]
    zero = field.zero()
    out += [(g, [zero] * 9), (Matrix.zeros(field, 3), t), (Matrix.zeros(field, 3), [zero] * 9)]
    _, g, t = _coprime_denominators(field)
    out += [(g, t), _rescaled(g, t)]
    return out


def _assert_same_matrix(got, want):
    assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_foperator_reads_its_plane_like_the_field_reference(field):
    pairs = _pairs(field)
    assert len(pairs) == 2 * (24 + len(TYPE_LABELS)) + 5
    if field is QQ:  # the coprime sample reaches a common scale above 1 in g and in t
        _, g, t = _coprime_denominators(field)
        assert g.integers()[1] > 1 and FOperator(g, t).plane.integers()[1] > 1
    for g, t in pairs:
        f_op = FOperator(g, t)
        assert fref.is_bivector(t)
        _assert_same_matrix(f_op.plane, fref.t_matrix(field, t))
        _assert_same_matrix(t_operator_of_F(f_op), fref.t_operator_of_F(f_op))
        _assert_same_matrix(f_op.matrix(), fref.f_matrix(f_op))
        assert f_op.delta() == fref.delta(f_op)
        assert type(f_op.delta()) is type(field.zero())
        assert f_op.is_zero() == fref.is_zero(f_op)
        assert f_op == FOperator(g, t)
        assert "plane" not in repr(f_op)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_extract_F_normalizes_like_the_field_reference(field):
    """Same pair and plane as the field-scalar extraction, and the same Y from its (2g, t/2)
    rescaling; the label, which reads the plane, covers all eight types."""
    labels = set()
    for data in moved_samples(field, random.Random(53)):
        sym = build_R(data)
        got, want = extract_F(sym), fref.extract_F(sym)
        _assert_same_matrix(got.g, want.g)
        assert got.t == want.t and got == want
        assert {type(x) for x in got.t} == {type(field.zero())}
        _assert_same_matrix(got.plane, fref.t_matrix(field, want.t))
        _assert_same_matrix(build_Y_from_F(sym.q, FOperator(*_rescaled(got.g, got.t))), sym.Y)
        labels.add(classify(sym).label)
    assert labels == set(TYPE_LABELS)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
class TestFOperatorErrors:
    def test_a_non_alternating_bivector_is_an_input_error(self, field):
        g = Matrix.identity(field, 3)
        for t in ([1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0, 0, 0, 0],
                  [0, 1, 0, -2, 0, 0, 0, 0, 0]):
            assert not fref.is_bivector(field_scalars(field, t))
            for entries in (t, field_scalars(field, t)):
                with pytest.raises(InputError, match="^the bivector part must be alternating$"):
                    FOperator(g, entries)

    def test_alternation_is_read_on_residues(self, field):
        """Over F_7, 6 is -1: e1 (x) e2 + 6 e2 (x) e1 is e1^e2, a bivector there but not over Q."""
        t = [0, 1, 0, 6, 0, 0, 0, 0, 0]
        if field.characteristic:
            _assert_same_matrix(FOperator(Matrix.identity(field, 3), t).plane,
                                fref.t_matrix(field, field_scalars(field, t)))
        else:
            with pytest.raises(InputError):
                FOperator(Matrix.identity(field, 3), t)

    @pytest.mark.parametrize("n", [0, 3, 8, 10])
    def test_a_bivector_of_the_wrong_length_is_a_dimension_mismatch(self, field, n):
        with pytest.raises(DimensionMismatch, match=f"got {n}$"):
            FOperator(Matrix.identity(field, 3), [field.zero()] * n)

    def test_a_float_bivector_is_rejected_at_construction(self, field):
        with pytest.raises(InputError):
            FOperator(Matrix.identity(field, 3), [0.0, 1.0, 0.0, -1.0, 0, 0, 0, 0, 0])

    def test_text_entries_go_through_the_field(self, field):
        g = Matrix.identity(field, 3)
        text = FOperator(g, ["0", "1/2", "0", "-1/2", "0", "0", "0", "0", "0"])
        half = field.one() / 2
        scalars = FOperator(g, wedge2(field_scalars(field, [1, 0, 0]), [0, half, 0]))
        _assert_same_matrix(text.plane, scalars.plane)
        assert text.delta() == scalars.delta()


def _doc(field, x):
    """A nested list pinning x: each scalar's type and text, each matrix's integer coordinates."""
    if isinstance(x, HeckeData):
        return ["HeckeData", _doc(field, [x.q, x.a, x.b, x.g, x.t])]
    if isinstance(x, Matrix):
        return ["Matrix", x.nrows, x.ncols, x.integers(), _doc(field, x.rows)]
    if isinstance(x, (list, tuple)):
        return [_doc(field, y) for y in x]
    return [type(x).__name__, field.fmt(x)]


# sha256 over Q, F_7 and F_1000003, each sampler and seeds 0-299 of the repr of
# (field name, sampler name, seed, _doc of the output, the generator's getstate() after it)
SAMPLER_DIGEST = "2cbe09cad7c996f7367b45e307dee30f4e65bff9f2807283dab502a7657dce69"


def test_the_samplers_draw_the_pinned_outputs():
    h = hashlib.sha256()
    for field in (QQ, GF(7), GF(1_000_003)):
        for sampler in (sample_strategy_a, sample_strategy_b, sample_adversarial,
                        random_invertible):
            for seed in range(300):
                rng = random.Random(seed)
                out = sampler(field, rng)
                h.update(repr((field.name, sampler.__name__, seed, _doc(field, out),
                               rng.getstate())).encode())
    assert h.hexdigest() == SAMPLER_DIGEST

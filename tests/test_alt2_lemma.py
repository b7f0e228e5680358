"""The Hecke relation and rank 3 read off how Y acts on Alt2.

Where Y = q Id - R maps into Alt2 and acts there as q + 1, (R - q)(R + 1) = Y^2 - (q+1) Y = 0,
and rank Y = 3 when q + 1 != 0 (``heckecore._acts_on_alt2_as_q_plus_1``).  These tests compare
``hecke_residual``, ``check_hecke``, ``check_image_and_eigen`` and ``HeckeSymmetry.from_matrix``
with their former bodies in ``field_reference``, which form the product and the rank on every
input, and count the products and eliminations the package runs on each side of the lemma.
"""

import random

import pytest

import field_reference as fref
from hecke3.classify import TYPE_LABELS, canonical
from hecke3.errors import DimensionMismatch
from hecke3.fields import GF, QQ
from hecke3.heckecore import (
    HeckeSymmetry,
    _acts_on_alt2_as_q_plus_1,
    build_R,
    conjugate_data,
    flip_matrix,
    hecke_residual,
)
from hecke3.linalg import Matrix
from hecke3.multilinear import alt2_basis, idx2, non_alternating_columns, random_invertible
from hecke3.verifier import (
    check_hecke,
    check_image_and_eigen,
    check_pairing_identities,
    sample_strategy_a,
    sample_strategy_b,
)

FIELDS = [QQ, GF(3), GF(7), GF(1_000_003), GF(2**61 - 1)]
FIELD_IDS = ["Q", "Fp3", "Fp7", "Fp1000003", "Fp2^61-1"]


def _moved(field, label, q, rng):
    """The canonical symmetry of a type (q for Types 1 and 2 only), moved by a random P."""
    q = q if label in ("Type1", "Type2") else None
    return build_R(conjugate_data(canonical(label, q, field), random_invertible(field, rng)))


def _bumped(Y, entries):
    """Y with x added at (r, c) for each (r, c, x) of ``entries``."""
    rows = [row[:] for row in Y.rows]
    for r, c, x in entries:
        rows[r][c] = rows[r][c] + x
    return Matrix(Y.field, rows)


def _projection_Y(field, q, rng):
    """(q + 1) P for P = A (B A)^-1 B, a projection onto Alt2 (the columns of A) along the kernel
    of a random 3x9 B: the Y of R = q - (q + 1) P, the braid-failing family of ``cli_mixed``."""
    A = Matrix.from_columns(field, alt2_basis())
    while True:
        B = Matrix.of_integers(field, 3, 9, [rng.randint(-1, 1) for _ in range(27)])
        if (B * A).det() != 0:
            return (A * (B * A).inverse() * B).scale(field.of(q) + 1)


def _lemma_samples(field):
    """(q, Y) on both sides of the lemma: sampled and moved symmetries and their q + 1 variants,
    Types 1 and 2 at q = -1, R = -Id at q = -1 (Y = 0), a column outside Alt2, Y of rank 2 in
    Alt2, Y acting as q + 1 on two of the three bivectors, entries bumped inside Alt2, and the
    projection family."""
    rng, one, out = random.Random(71), field.one(), []
    syms = [build_R(sampler(field, rng)) for sampler in (sample_strategy_a, sample_strategy_b) * 3]
    syms += [_moved(field, label, q, rng) for label in ("Type1", "Type2") for q in (-1, 2)]
    syms += [_moved(field, label, None, rng) for label in TYPE_LABELS[2:]]
    for sym in syms:
        out += [(sym.q, sym.Y), (sym.q + 1, sym.Y)]
    out.append((field.of(-1), Matrix.zeros(field, 9)))
    q, Y = syms[0].q, syms[0].Y
    for c in (0, 4, 8):
        out.append((q, _bumped(Y, [(idx2(c % 3, c % 3), c, one)])))  # leaves Alt2
        out.append((q, _bumped(Y, [(idx2(0, 1), c, one), (idx2(1, 0), c, -one)])))  # stays in it
    P = (Matrix.identity(field, 9) - flip_matrix(field)).scale(field.of(5) / 2)  # q + 1 = 5
    zeroed, doubled = [P.col(c) for c in range(9)], [P.col(c) for c in range(9)]
    for c in (idx2(1, 2), idx2(2, 1)):
        zeroed[c] = [field.zero()] * 9
        doubled[c] = [2 * x for x in doubled[c]]
    out += [(field.of(4), Matrix.from_columns(field, cols)) for cols in (zeroed, doubled)]
    out += [(field.of(q), _projection_Y(field, q, rng)) for q in (2, 3, 5, "1/2", -1)]
    return out


def _outcome(call):
    """What a call returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:  # compared, not swallowed: the reference must raise the same
        return type(exc), str(exc)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_lemma_matches_the_product_and_the_rank(field):
    """Reports, residual matrices and from_matrix results or errors equal the former bodies'
    on inputs on both sides of the lemma, q = -1 (where the rank is formed) included."""
    sides, kinds = set(), set()
    for q, Y in _lemma_samples(field):
        R = Matrix.identity(field, 9).scale(q) - Y
        assert hecke_residual(R, q) == fref.hecke_residual(R, q)
        assert check_hecke(R, q).to_json() == fref.check_hecke(R, q).to_json()
        got = check_image_and_eigen(Y, q).to_json()
        assert got == fref.check_image_and_eigen(Y, q).to_json()
        for qq in (q, None):
            assert _outcome(lambda: HeckeSymmetry.from_matrix(R, qq)) == _outcome(
                lambda: fref.from_matrix(R, qq))
        sides.add((_acts_on_alt2_as_q_plus_1(Y, q), q == -1))
        kinds.add(next(iter((got["witness"] or {"input": {None: 0}})["input"])))
    assert sides >= {(True, False), (True, True), (False, False)}
    assert kinds == {None, "basis_tensor", "rank", "bivector"}


def _count_products_and_eliminations(monkeypatch):
    calls = {"mul": 0, "eliminate": 0}
    mul, eliminate = Matrix.__mul__, Matrix._eliminate

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counted_eliminate(self):
        calls["eliminate"] += 1
        return eliminate(self)

    monkeypatch.setattr(Matrix, "__mul__", counted_mul)
    monkeypatch.setattr(Matrix, "_eliminate", counted_eliminate)
    return calls


def _counts(calls, run):
    """The products and eliminations one call runs, after asserting that it passed."""
    calls.update(mul=0, eliminate=0)
    result = run()
    assert getattr(result, "passed", True)
    return dict(calls)


@pytest.mark.parametrize("field", [QQ, GF(1_000_003)], ids=["Q", "Fp1000003"])
def test_valid_input_forms_no_product_and_no_rank(field, monkeypatch):
    """All eight types, each moved by a random P: check_hecke forms no product, and
    check_image_and_eigen and from_matrix (with q and without) run no elimination."""
    rng = random.Random(73)
    syms = [_moved(field, label, 2, rng) for label in TYPE_LABELS]
    calls = _count_products_and_eliminations(monkeypatch)
    for sym in syms:
        assert _counts(calls, lambda: check_hecke(sym.R, sym.q)) == {"mul": 0, "eliminate": 0}
        assert _counts(calls, lambda: check_image_and_eigen(sym.Y, sym.q))["eliminate"] == 0
        for q in (sym.q, None):
            assert _counts(calls, lambda: HeckeSymmetry.from_matrix(sym.R, q)) == {
                "mul": 0, "eliminate": 0}


@pytest.mark.parametrize("field, q", [(QQ, -1), (GF(7), -1), (GF(3), 2)],
                         ids=["Q", "Fp7", "Fp3-q2"])
def test_at_q_minus_one_the_rank_is_formed_once(field, q, monkeypatch):
    """Y acts on Alt2 as q + 1 = 0 there, which says nothing of its rank: check_image_and_eigen
    and from_matrix each run exactly one elimination, and each still passes."""
    rng = random.Random(79)
    syms = [_moved(field, label, q, rng) for label in ("Type1", "Type2")]
    calls = _count_products_and_eliminations(monkeypatch)
    for sym in syms:
        assert sym.q == -1
        assert _counts(calls, lambda: check_hecke(sym.R, sym.q))["mul"] == 0
        assert _counts(calls, lambda: check_image_and_eigen(sym.Y, sym.q))["eliminate"] == 1
        for qq in (sym.q, None):
            assert _counts(calls, lambda: HeckeSymmetry.from_matrix(sym.R, qq))["eliminate"] == 1


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_a_bumped_R_still_forms_the_product(field, monkeypatch):
    rng = random.Random(83)
    sym = _moved(field, "Type3", None, rng)
    R = _bumped(sym.R, [(4, 2, field.one())])
    calls = _count_products_and_eliminations(monkeypatch)
    report = check_hecke(R, sym.q)
    assert not report.passed and calls["mul"] == 1


SHAPES = [(3, 3), (9, 3), (27, 27)]


def _shaped(field, nrows, ncols):
    return Matrix.of_integers(field, nrows, ncols, [(c % 5) - 2 for c in range(nrows * ncols)])


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
@pytest.mark.parametrize("shape", SHAPES, ids=[f"{r}x{c}" for r, c in SHAPES])
def test_a_degree_2_operator_that_is_not_9x9_is_named_as_one(field, shape):
    """non_alternating_columns, and the image and pairing checks through it, name the operator's
    shape; they used to name a column of 1, 3 or 81 coordinates."""
    Y = _shaped(field, *shape)
    message = f"a degree-2 operator must be 9x9, got {shape[0]}x{shape[1]}"
    for call in (lambda: non_alternating_columns(Y), lambda: check_image_and_eigen(Y, 2),
                 lambda: check_pairing_identities(Y, 2)):
        with pytest.raises(DimensionMismatch) as exc:
            call()
        assert str(exc.value) == message
    with pytest.raises(DimensionMismatch, match="degree-2 tensor must have 9 coordinates"):
        fref.check_image_and_eigen(Y, 2)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "Fp3"])
def test_malformed_input_raises_as_before(field):
    """A non-9x9 R, or a q outside the field, raises from check_hecke, hecke_residual and
    from_matrix what the former bodies raise, and from check_image_and_eigen on the Y of a
    symmetry too: the lemma runs only after their own validation."""
    sym = _moved(field, "Type3", None, random.Random(89))
    bad_q = ["1/3", GF(5).of(2)] if field.characteristic else ["x", GF(7).of(2)]
    cases = [(_shaped(field, *shape), sym.q) for shape in SHAPES] + [(sym.R, q) for q in bad_q]
    seen = set()
    for R, q in cases:
        pairs = [(lambda: hecke_residual(R, q), lambda: fref.hecke_residual(R, q)),
                 (lambda: check_hecke(R, q), lambda: fref.check_hecke(R, q)),
                 (lambda: HeckeSymmetry.from_matrix(R, q), lambda: fref.from_matrix(R, q)),
                 (lambda: HeckeSymmetry.from_matrix(R), lambda: fref.from_matrix(R))]
        if R is sym.R:
            pairs.append((lambda: check_image_and_eigen(sym.Y, q),
                          lambda: fref.check_image_and_eigen(sym.Y, q)))
        for new, old in pairs:
            got = _outcome(new)
            assert got == _outcome(old)
            seen.add(got[0].__name__ if isinstance(got, tuple) else "value")
    assert {"DimensionMismatch", "InputError", "FieldMismatch"} <= seen
    # The one input that reads q sooner: an alternating Y of rank below 3 with q outside the
    # field.  The former body ranked Y before reading q; the package reads q after alternation.
    zero = Matrix.zeros(field, 9)
    assert not fref.check_image_and_eigen(zero, bad_q[0]).passed
    assert _outcome(lambda: check_image_and_eigen(zero, bad_q[0])) == _outcome(
        lambda: fref.check_image_and_eigen(sym.Y, bad_q[0]))

"""One validation path per input kind.

Each kind of input has one rule, stated once, and every entry that takes that kind raises
through it:

  * an operator on the k-th tensor power of V is n x n for n = 3^k
    (``multilinear._checked_operator``: "a degree-k operator must be nxn, got AxB");
  * a form is symmetric (``heckecore._checked_form``, which :class:`FOperator` calls);
  * a vector has 3 coordinates and a bivector 9 (``multilinear._check_len``), and a
    bivector of :class:`FOperator` is alternating;
  * the integer scale of ``Matrix.of_integers`` is not 0 in the field.

The contract test feeds each entry a malformed input of each kind it takes and expects a
``Hecke3Error`` with that rule's type and text, never an ``IndexError``, a plain ``ValueError``
or a bare ``ZeroDivisionError``.  The differential test compares valid input with the former
bodies in ``field_reference``.
"""

import json
import random

import pytest

import field_reference as fref
from hecke3.classify import TYPE_LABELS, canonical
from hecke3.cli import main
from hecke3.cybe import gl_tensor, lie_subalgebra
from hecke3.errors import (
    DimensionMismatch,
    DivisionByZero,
    Hecke3Error,
    InputError,
    InvalidConstraint,
)
from hecke3.fields import GF, QQ
from hecke3.heckecore import (
    FOperator,
    HeckeData,
    HeckeSymmetry,
    _checked_form,
    build_R,
    build_Y_from_F,
    conjugate_data,
    discriminant,
    flip_matrix,
    hecke_residual,
    skewsymmetrizer_matrix,
    solve_q,
    symmetric_form,
)
from hecke3.jsonio import hecke_data_to_json
from hecke3.linalg import Matrix
from hecke3.multilinear import random_invertible, std_basis, wedge2
from hecke3.verifier import (
    check_braid,
    check_cyclic_shift_identity,
    check_image_and_eigen,
    column_witness,
    sample_strategy_a,
    sample_strategy_b,
)

FIELDS = [QQ, GF(3), GF(7), GF(1_000_003), GF(2**61 - 1)]
FIELD_IDS = ["Q", "Fp3", "Fp7", "Fp1000003", "Fp2^61-1"]


def _shaped(field, nrows, ncols):
    return Matrix.of_integers(field, nrows, ncols, [c % 3 - 1 for c in range(nrows * ncols)])


def _operator(k, shape):
    n = 3 ** k
    return DimensionMismatch, f"a degree-{k} operator must be {n}x{n}, got {shape}"


FORM = (InputError, "bilinear form must be symmetric")


def _cases(field):
    """(entry, kind, call, (type, text)) for each malformed input kind of each entry."""
    e1, e2, _ = std_basis(field)
    t, g = wedge2(e1, e2), Matrix.identity(field, 3)
    e31 = Matrix.of_integers(field, 3, 3, [0, 0, 0, 0, 0, 0, 1, 0, 0])  # 1 at row 3, column 1
    bent = t[:8] + [field.one()]  # the e3 (x) e3 coordinate set
    sym = build_R(canonical("Type3", field=field))
    T = Matrix.identity(field, 3)
    op1 = {s: _shaped(field, *map(int, s.split("x"))) for s in ("2x2", "3x2", "9x9")}
    op2 = {s: _shaped(field, *map(int, s.split("x"))) for s in ("3x3", "9x3", "27x27")}

    def vector(n):
        return DimensionMismatch, f"vector must have 3 coordinates, got {n}"

    def tensor(n):
        return DimensionMismatch, f"degree-2 tensor must have 9 coordinates, got {n}"

    cases = [
        ("HeckeData", "vector-2", lambda: HeckeData(1, e1[:2], e2, g), vector(2)),
        ("HeckeData", "vector-4", lambda: HeckeData(1, e1, e2 + [0], g), vector(4)),
        ("HeckeData", "form-E31", lambda: HeckeData(1, e1, e2, e31), FORM),
        ("FOperator", "form-E31", lambda: FOperator(e31, t), FORM),
        ("FOperator", "bivector-4", lambda: FOperator(g, t[:4]), tensor(4)),
        ("FOperator", "bivector-bent", lambda: FOperator(g, bent),
         (InputError, "the bivector part must be alternating")),
        ("symmetric_form", "form-E31", lambda: symmetric_form(field, e31.rows), FORM),
        ("discriminant", "vector-2", lambda: discriminant(e1[:2], e2, g), vector(2)),
        ("discriminant", "form-E31", lambda: discriminant(e1, e2, e31), FORM),
        ("solve_q", "vector-4", lambda: solve_q(e1, e2 + [0], g), vector(4)),
        ("solve_q", "form-E31", lambda: solve_q(e1, e2, e31), FORM),
        ("build_Y_from_F", "form-E31", lambda: build_Y_from_F(1, FOperator(e31, t)), FORM),
        ("build_Y_from_F", "bivector-4", lambda: build_Y_from_F(1, FOperator(g, t[:4])),
         tensor(4)),
        ("skewsymmetrizer_matrix", "bivector-4", lambda: skewsymmetrizer_matrix(1, g, t[:4]),
         tensor(4)),
        ("Matrix.of_integers", "scale-0", lambda: Matrix.of_integers(field, 1, 1, [1], 0),
         (DivisionByZero, f"a matrix scale of 0 in {field.name}")),
        ("Matrix.of_integers", "scale-0-N0", lambda: Matrix.of_integers(field, 1, 1, [0], 0),
         (DivisionByZero, f"a matrix scale of 0 in {field.name}")),
        ("Matrix.of_integers", "entries-4", lambda: Matrix.of_integers(field, 3, 3, [1] * 4),
         (DimensionMismatch, "a 3x3 matrix from 4 entries")),
    ]
    for s, m in op1.items():
        cases += [
            ("HeckeData", f"operator-{s}", lambda m=m: HeckeData(1, e1, e2, m), _operator(1, s)),
            ("FOperator", f"operator-{s}", lambda m=m: FOperator(m, t), _operator(1, s)),
            ("symmetric_form", f"operator-{s}", lambda m=m: symmetric_form(field, m.rows),
             _operator(1, s)),
            ("discriminant", f"operator-{s}", lambda m=m: discriminant(e1, e2, m),
             _operator(1, s)),
            ("solve_q", f"operator-{s}", lambda m=m: solve_q(e1, e2, m), _operator(1, s)),
            ("build_Y_from_F", f"operator-{s}", lambda m=m: build_Y_from_F(1, FOperator(m, t)),
             _operator(1, s)),
            ("skewsymmetrizer_matrix", f"operator-{s}",
             lambda m=m: skewsymmetrizer_matrix(1, m, t), _operator(1, s)),
            ("lie_subalgebra", f"operator-{s}", lambda m=m: lie_subalgebra(field, [T, m]),
             _operator(1, s)),
            ("check_cyclic_shift_identity", f"operator-{s}",
             lambda m=m: check_cyclic_shift_identity(sym.Y, m, sym.q), _operator(1, s)),
        ]
    for s, m in op2.items():
        cases += [
            ("HeckeSymmetry.from_matrix", f"operator-{s}",
             lambda m=m: HeckeSymmetry.from_matrix(m), _operator(2, s)),
            ("HeckeSymmetry.from_matrix", f"operator-{s}-q",
             lambda m=m: HeckeSymmetry.from_matrix(m, 2), _operator(2, s)),
            ("gl_tensor", f"operator-{s}", lambda m=m: gl_tensor(m), _operator(2, s)),
            ("check_cyclic_shift_identity", f"operator-Y{s}",
             lambda m=m: check_cyclic_shift_identity(m, T, 2), _operator(2, s)),
            ("check_braid", f"operator-{s}", lambda m=m: check_braid(m), _operator(2, s)),
            ("check_image_and_eigen", f"operator-{s}", lambda m=m: check_image_and_eigen(m, 2),
             _operator(2, s)),
        ]
    if field.characteristic:
        p = field.characteristic
        cases.append(("Matrix.of_integers", "scale-p", lambda: Matrix.of_integers(
            field, 1, 1, [1], p), (DivisionByZero, f"a matrix scale of 0 in {field.name}")))
    return cases


CASE_NAMES = {field: [f"{entry}-{kind}" for entry, kind, _, _ in _cases(field)]
              for field in (QQ, GF(7))}


@pytest.mark.parametrize("field, k", [(f, k) for f, names in CASE_NAMES.items()
                                      for k in range(len(names))],
                         ids=[f"{f.name}-{n}" for f, names in CASE_NAMES.items() for n in names])
def test_each_malformed_input_raises_its_rule(field, k):
    entry, kind, call, want = _cases(field)[k]
    with pytest.raises(Exception) as exc:
        call()
    assert isinstance(exc.value, Hecke3Error), (entry, kind, repr(exc.value))
    assert (type(exc.value), str(exc.value)) == want


def test_every_entry_is_covered():
    entries = {entry for entry, _, _, _ in _cases(GF(7))}
    assert entries == {
        "HeckeData", "FOperator", "symmetric_form", "discriminant", "solve_q", "build_Y_from_F",
        "skewsymmetrizer_matrix", "HeckeSymmetry.from_matrix", "gl_tensor", "lie_subalgebra",
        "check_cyclic_shift_identity", "check_braid", "check_image_and_eigen",
        "Matrix.of_integers"}
    assert all(len(set(names)) == len(names) for names in CASE_NAMES.values())


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_the_skewsymmetrizer_still_takes_an_asymmetric_form(field):
    """Only shapes are checked: an asymmetric g (and a broken q) is assembled as before."""
    e1, e2, _ = std_basis(field)
    e31 = Matrix.of_integers(field, 3, 3, [0, 0, 0, 0, 0, 0, 1, 0, 0])
    t = wedge2(e1, e2)
    for q in map(field.of, (1, 2, 5)):
        Y = skewsymmetrizer_matrix(q, e31, t)
        assert (Y.nrows, Y.ncols) == (9, 9) and Y == fref.skewsymmetrizer_matrix(q, e31, t)


def test_of_integers_keeps_its_pair_canonical():
    """A negative scale over Q flips the signs of N and d; a scale 0 in the field raises."""
    m = Matrix.of_integers(QQ, 1, 1, [1], -1)
    assert m == Matrix.of_integers(QQ, 1, 1, [-1]) and m.integers() == ([-1], 1)
    assert hash(m) == hash(Matrix.of_integers(QQ, 1, 1, [-1]))
    assert Matrix.of_integers(QQ, 1, 3, [2, -4, 6], -4).integers() == ([-1, 2, -3], 2)
    assert Matrix.of_integers(QQ, 1, 2, [3, 5], -7).integers() == ([-3, -5], 7)
    assert Matrix.of_integers(GF(7), 1, 2, [1, 2], -1).integers() == ([6, 5], 1)
    for field, N, d in ((QQ, [0], 0), (QQ, [3], 0), (GF(7), [1], 7), (GF(7), [0], -14)):
        with pytest.raises(DivisionByZero, match=f"^a matrix scale of 0 in {field.name}$"):
            Matrix.of_integers(field, 1, len(N), N, d)
    # the last Bareiss pivot of rref is -2 here, and rref passes it to of_integers as it is
    red, _ = Matrix.from_rows(QQ, [[2, 1, 1], [4, 1, 0]]).rref()
    assert red.d == 2 and red == Matrix.from_rows(QQ, [[1, 0, "-1/2"], [0, 1, 2]])


def _samples(field, rng):
    """Strategy A and B data and the eight types moved by a random P (Types 1 and 2 at q = 2)."""
    data = [sampler(field, rng) for sampler in (sample_strategy_a, sample_strategy_b) * 3]
    return data + [conjugate_data(canonical(label, 2 if label in ("Type1", "Type2") else None,
                                            field), random_invertible(field, rng))
                   for label in TYPE_LABELS]


def _outcome(call):
    """What a call returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:  # compared, not swallowed: the reference must raise the same
        return type(exc), str(exc)


def _q_and_t(data):
    return data.q, data.t


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_valid_input_behaves_as_before(field):
    """The form rule, HeckeData, the identity, the flip, of_integers and column_witness agree
    with their former bodies, on every form and on its asymmetric bumps, and on the integer
    coordinates of each g, R and Y at several unit scales."""
    rng, p = random.Random(35), field.characteristic
    assert flip_matrix(field) == fref.flip_matrix(field)
    for n in (0, 1, 2, 3, 9, 27):
        assert Matrix.identity(field, n) == fref.identity(field, n)
    syms = []
    for data in _samples(field, rng):
        q, a, b, g = data.q, data.a, data.b, data.g
        bumps = [g + Matrix.of_integers(field, 3, 3, [int(c == k) for c in range(9)])
                 for k in (1, 2, 5, 6)]
        for h in [g] + bumps:
            assert _outcome(lambda: _checked_form(h)) == _outcome(lambda: fref.checked_form(h))
            for qq in (q, q + 1):
                assert _outcome(lambda: _q_and_t(HeckeData(qq, a, b, h))) == \
                    _outcome(lambda: fref.hecke_data(qq, a, b, h))
        assert data.t == fref.hecke_data(q, a, b, g)[1]
        sym = build_R(data)
        syms.append(sym)
        for m in (g, sym.R, sym.Y):
            N, d = m.integers()
            for s in (1, 2, 5, 6 * d, 35 * d):
                if p and s % p == 0:
                    continue
                for NN, ss in ((N, s), ([4 * x for x in N], 4 * s)):
                    assert Matrix.of_integers(field, m.nrows, m.ncols, NN, ss).integers() == \
                        fref.of_integers(field, m.nrows, m.ncols, NN, ss)
    zero = Matrix.zeros(field, 9)
    pairs = [(s.R, s.R) for s in syms] + [(a.R, b.R) for a, b in zip(syms, syms[1:])]
    pairs += [(hecke_residual(s.R, s.q), zero) for s in syms]
    pairs += [(hecke_residual(s.R, s.q + 1), zero) for s in syms[:4]]
    pairs += [(s.Y.kron(Matrix.identity(field, 3)), Matrix.identity(field, 3).kron(s.Y))
              for s in syms[:3]]
    pairs += [(zero, Matrix.zeros(GF(5) if p != 5 else QQ, 9)), (zero, Matrix.zeros(field, 3))]
    for lhs, rhs in pairs:
        assert _outcome(lambda: column_witness(lhs, rhs)) == \
            _outcome(lambda: fref.column_witness_scanned(lhs, rhs))


def _run(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_the_cli_reports_an_asymmetric_form_in_its_place(field, capsys, tmp_path):
    """The one form error the CLI reaches, a quadruple record with an asymmetric g, is an
    InputError with exit code 2; a malformed vector or g shape is reported before it, and it is
    reported before the rule for q."""
    doc = hecke_data_to_json(canonical("Type3", field=field))
    doc["g"][2][0] = "5"
    path = tmp_path / "record.json"
    for change, want in ((None, FORM), (("q", "0"), FORM), (("q", "7/2"), FORM),
                         (("a", ["1", "0"]), (InputError, "expected a list of 3 scalars")),
                         (("g", [["1", "0"], ["0", "1"]]),
                          (InputError, "expected a 3x3 matrix of scalars"))):
        record = dict(doc, **dict([change])) if change else doc
        path.write_text(json.dumps(record))
        code, out = _run(capsys, ["construct", "--data", str(path)])
        assert code == 2 and (out["error"]["type"], out["error"]["message"]) == \
            (want[0].__name__, want[1])
    path.write_text(json.dumps(dict(doc, g=hecke_data_to_json(canonical("Type3"))["g"],
                                    q="2")))
    code, out = _run(capsys, ["construct", "--data", str(path)])
    assert code == 2 and out["error"]["type"] == InvalidConstraint.__name__

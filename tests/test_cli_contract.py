"""Property test of the command line contract, run in-process.

For any argument vector and input document, ``hecke3.cli.main`` returns 0, 1
or 2, writes exactly one JSON document to stdout (an error document when it
returns 2) and lets no exception escape.  ``--help`` is the documented
exception (usage text, exit 0), so it is never drawn; junk flags are chosen
so that none abbreviates it.
"""

import contextlib
import io
import json
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hecke3.classify import TYPE_LABELS, canonical
from hecke3 import verifier
from hecke3.cli import MAX_INPUT_BYTES, main
from hecke3.fields import GF, QQ
from hecke3.heckecore import build_R, skewsymmetrizer_matrix
from hecke3.jsonio import hecke_data_to_json, matrix_to_json, symmetry_to_json
from hecke3.linalg import Matrix
from hecke3.multilinear import std_basis, wedge2
from hecke3.verifier import MAX_FUZZ_TRIALS

VERBS = ("construct", "verify", "classify", "rmatrix", "carrier", "deform", "fuzz", "table")
FIELD_SPECS = ("Q", "Fp:7", "Fp:3", "Fp:1000003", "Fp:2", "Fp:9", "Fp:", "R", "")

# JSON scalars of every type: exact text (valid or not), integers, floats,
# booleans, null and containers
scalars = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "3/0", "0.5", "1e3",
                     " 7 ", "", "x", "1/-2", "+5"]),
    st.text(max_size=5),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from([[], {}, ["1"], {"q": "1"}]),
)
entries = st.one_of(st.sampled_from(["0", "1", "-1", "2", "1/2"]), st.integers(-2, 2), scalars)
field_values = st.one_of(st.sampled_from(FIELD_SPECS), scalars)


def _matrix(n):
    rows = st.lists(entries, min_size=n, max_size=n)
    return st.one_of(st.lists(rows, min_size=n, max_size=n),
                     st.lists(st.lists(entries, max_size=n + 1), max_size=n + 1),
                     scalars)


vectors = st.one_of(st.lists(entries, min_size=3, max_size=3), st.lists(entries, max_size=4),
                    scalars)
quadruples = st.fixed_dictionaries(
    {"q": entries, "a": vectors, "b": vectors, "g": _matrix(3)},
    optional={"field": field_values},
)
records = st.fixed_dictionaries({"R": _matrix(9)}, optional={"q": entries, "field": field_values})


def _valid_documents():
    docs = []
    for field in (QQ, GF(7)):
        for label in TYPE_LABELS:
            data = canonical(label, 3 if label in ("Type1", "Type2") else None, field)
            sym = build_R(data)
            docs += [hecke_data_to_json(data), symmetry_to_json(sym), matrix_to_json(sym.R)]
    return docs


@st.composite
def damaged(draw, docs):
    """A valid document with one top-level value replaced or removed."""
    doc = draw(st.sampled_from(docs))
    if isinstance(doc, list):
        doc = list(doc)
        doc[draw(st.integers(0, 8))] = draw(st.one_of(st.lists(entries, min_size=9, max_size=9),
                                                      scalars))
        return doc
    doc = dict(doc)
    key = draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = draw(scalars)
    return doc


VALID = _valid_documents()
documents = st.one_of(st.sampled_from(VALID), damaged(VALID), quadruples, records,
                      _matrix(9), scalars)

flag_groups = st.one_of(
    st.tuples(st.just("--field"), st.sampled_from(FIELD_SPECS)),
    st.sampled_from([("--data", "{doc}"), ("--matrix", "{doc}"), ("--data", "{missing}"),
                     ("--adversarial",), ("--bogus",), ("-x",), ("extra",), ("--",),
                     ("--data",), ("--field",)]),
    st.tuples(st.just("--type"), st.sampled_from(["1", "3", "8", "9", "0", "x"])),
    st.tuples(st.sampled_from(["--q", "--seed"]), st.sampled_from(["2", "-1", "1/2", "0", "x"])),
    st.tuples(st.just("--lambda"), st.sampled_from(["2", "-1/2", "1/2", "0", "x", ""])),
    st.tuples(st.just("--trials"), st.sampled_from(["-1", "0", "1", "2", "x"])),
    st.tuples(st.just("--strategy"), st.sampled_from(["A", "B", "C"])),
)
argvs = st.builds(
    lambda verb, groups: verb + [a for g in groups for a in g],
    st.one_of(st.sampled_from(VERBS).map(lambda v: [v]), st.sampled_from([[], ["bogus"]])),
    st.lists(flag_groups, max_size=4),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_contract")


@settings(max_examples=150, deadline=None)
@given(argv=argvs, doc=documents)
def test_every_input_gets_a_contract_answer(workdir, argv, doc):
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [a.format(doc=path, missing=workdir / "missing.json") for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            raise AssertionError(f"exit {exc.code} outside the contract") from exc
    assert code in (0, 1, 2)
    doc_out = json.loads(out.getvalue())  # exactly one document: trailing text fails
    if code == 2:
        assert set(doc_out) == {"error"}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, json.loads(out.getvalue())


def _oversized_document():
    """A valid record followed by blanks, one byte past the input cap."""
    text = json.dumps(symmetry_to_json(build_R(canonical("Type8"))))
    return (text + " " * (MAX_INPUT_BYTES + 1 - len(text))).encode()


# an error document quotes at most fields.MAX_ECHO_CHARS characters of its input text
MAX_ERROR_DOCUMENT_BYTES = 512


@pytest.mark.parametrize("argv", [
    ["construct", "--data", "{q}"],
    ["--field", "Fp:" + "9" * 5000, "table"],
    ["--field", "Fp:" + "9" * 4000, "table"],
    ["fuzz", "--trials", "1", "--seed", "9" * 5000],
    ["fuzz", "--trials", "9" * 5000, "--seed", "1"],
    ["construct", "--type", "9" * 4000],
    ["verify", "--matrix", "9" * 5000],
], ids=["q-200000-digits", "field-5000-nines", "field-4000-nines", "seed-5000-digits",
        "trials-5000-digits", "type-4000-nines", "path-5000-nines"])
def test_overlong_input_text_is_echoed_bounded(tmp_path, argv):
    """Rejected text is quoted cut to a fixed prefix plus its length, in one small document."""
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"q": "9" * 200_000, "a": ["1", "0", "0"], "b": ["0", "1", "0"],
                                "g": [["0", "0", "0"]] * 3}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([a.format(q=path) for a in argv])
    assert code == 2
    assert len(out.getvalue().encode()) < MAX_ERROR_DOCUMENT_BYTES
    message = json.loads(out.getvalue())["error"]["message"]
    assert int(re.search(r"9'?\.\.\. \((\d+) characters\)", message)[1]) >= 4000


def test_oversized_file_is_bad_input(tmp_path):
    path = tmp_path / "big.json"
    path.write_bytes(_oversized_document())
    code, doc = _run(["verify", "--matrix", str(path)])
    assert code == 2
    assert f"more than {MAX_INPUT_BYTES} bytes" in doc["error"]["message"]


def test_oversized_stdin_is_bad_input(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(_oversized_document())))
    code, doc = _run(["verify", "--matrix", "-"])
    assert code == 2
    assert f"more than {MAX_INPUT_BYTES} bytes" in doc["error"]["message"]


def test_trials_above_the_bound_are_rejected_before_any_trial(monkeypatch):
    def no_trial(field, rng):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(verifier, "sample_strategy_a", no_trial)
    code, doc = _run(["fuzz", "--trials", str(MAX_FUZZ_TRIALS + 1), "--seed", "1"])
    assert code == 2
    assert doc["error"] == {"type": "InputError",
                            "message": f"trials must be <= {MAX_FUZZ_TRIALS}"}


@pytest.mark.parametrize("verb", [["verify"], ["classify"], ["rmatrix"], ["carrier"],
                                  ["deform", "--lambda=1/2"]], ids=lambda v: v[0])
def test_integer_scalars_share_the_text_bound(tmp_path, verb):
    """JSON integers of 2,502 digits are bad input, as text scalars of that length are.

    Unbounded, their products outgrow Python's 4,300-digit int-to-text limit in
    the witness of a failing check, which then raised out of ``main``.
    """
    big = 10 ** 2500 + 7
    e1, e2, _ = std_basis(QQ)
    g = Matrix.from_rows(QQ, [[big, 1, big], [1, big, big], [big, big, big]])
    R = Matrix.identity(QQ, 9).scale(QQ.of(3)) - skewsymmetrizer_matrix(QQ.of(3), g, wedge2(e1, e2))
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": "Q", "q": "3",
                                "R": [[int(x) for x in row] for row in R.rows]}))
    code, doc = _run(verb + ["--matrix", str(path)])
    assert code == 2
    assert doc["error"]["type"] == "InputError"
    assert doc["error"]["message"].startswith("bad matrix entry: bad rational scalar")


def _long_quadruple():
    """A quadruple over Q whose scalars all fit the text bound and whose -4 delta does not.

    Each scalar has 999 characters; -4 delta has more digits than Python's 4,300-digit
    int-to-text limit, so an error text that printed it raised out of ``main``.
    """
    f1 = "7" * 499 + "/" + "3" * 499
    f2 = "5" * 499 + "/" + "1" * 498 + "3"
    f3 = "2" * 499 + "/" + "9" * 498 + "7"
    return {"field": "Q", "q": f1, "a": [f1, f2, f3], "b": [f2, f3, f1],
            "g": [[f1, f2, f3], [f2, f3, f1], [f3, f1, f2]]}


@pytest.mark.parametrize("verb", ["construct", "verify"])
def test_a_failing_constraint_on_long_scalars_is_one_small_document(tmp_path, verb):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_long_quadruple()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([verb, "--data", str(path)])
    assert code == 2
    assert json.loads(out.getvalue())["error"]["type"] == "InvalidConstraint"
    assert len(out.getvalue().encode()) < MAX_ERROR_DOCUMENT_BYTES

"""One pass per identity: the pairing, containment and component checks.

The pairing and component checks compare their identity once, each side reduced mod p once, on
fixed tensor data that ``verifier`` builds at import: the polarization sample and the wedge
identity's vol products, and the component identity's 81 cells.  The containments read the 18
verdicts that ``braid_table`` decides packed, in one call, and unpack only a witness column.
These tests compare the documents, or the type and text of what is raised, of
``check_pairing_identities``, ``check_containments`` and ``check_component_identity`` with the
former bodies in ``field_reference`` (``pairing_identities``, ``containments`` and
``component_identity``), count the columns the containments unpack, and read the checks' source
for the calls each identity makes.
"""

import ast
import inspect

import pytest

import field_reference as fref
from test_eigen_sides import FIELDS, FIELD_IDS, _outcome, _samples
from test_verifier import POLARIZATION_CASES
from hecke3 import multilinear, verifier
from hecke3.errors import InputError
from hecke3.jsonio import vector_to_json
from hecke3.linalg import Matrix, integer_coordinates, reduce_mod
from hecke3.multilinear import alt2_basis
from hecke3.verifier import (
    braid_table,
    check_component_identity,
    check_containments,
    check_pairing_identities,
)

CHECKS = [
    ("pairing", lambda Y, q, table: check_pairing_identities(Y, q),
     lambda Y, q, table: fref.pairing_identities(Y, q)),
    ("containments", check_containments, fref.containments),
    ("component", check_component_identity, fref.component_identity),
]


def _doctored(field, q, table, ref, c):
    """The braid table and the former one (``ref``) with 1 added at e1 (x) e1 (x) e1 of spanning
    column c: that coordinate of e1^e2^e3 is 0, so only this column leaves Alt3.  The table's
    difference b col - a d^2 w gains b there (q = a / b); its pair (Alt3 coefficient, verdict)
    is read off its exact coordinates, unpacked."""
    diffs, alt3, d, braid = table
    halves = [[[col[:] for col in row] for row in h] for h in ref[:2]]
    halves[c // 9][c // 3 % 3][c % 3][0] += 1
    diffs, alt3 = diffs[:], alt3[:]
    diffs[c] += integer_coordinates(field, [q])[1]
    lanes = multilinear.unpack(diffs[c:c + 1], braid[2], 0)[0]
    alt3[c] = lanes[5], multilinear.is_alt3(reduce_mod(lanes, field.characteristic))
    return (diffs, alt3, d, braid), (*halves, *ref[2:])


def _cases(field):
    """(q, Y, table, former table): the eigen-sides samples (strategy A and B symmetries at q,
    q + 1 and -1, adversarial, bumped and rank-deficient operators) and a non-alternating Y with
    a q outside the field, each with the tables the checks form; the F_7 operators whose wedge
    identity first fails at e1+e2 or e1+e3; and a passing symmetry's tables doctored at each of
    the 18 columns."""
    bad_q = f"1/{field.characteristic}" if field.characteristic else "x"
    samples = _samples(field) + [(bad_q, Matrix.identity(field, 9))]
    if field.characteristic == 7:
        samples += [(field.of(q), Matrix.from_rows(field, rows))
                    for _, q, rows in POLARIZATION_CASES]
    out = [(q, Y, None, None) for q, Y in samples]
    q, Y = samples[0]
    table, ref = braid_table(Y, q), fref.braid_table(Y, q)
    return out + [(q, Y, *_doctored(field, q, table, ref, c)) for c in range(18)]


def _input(doc):
    """The witness input of a document as a hashable key, or the name of what was raised."""
    if isinstance(doc, tuple):
        return doc[0].__name__
    witness = (doc["witness"] or {}).get("input")
    return witness and tuple((k, str(v)) for k, v in witness.items())


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_checks_match_the_references(field):
    """Same documents, witnesses included, as the former bodies on every case; the doctored
    tables reach all 18 containment witnesses, the Alt2 (x) V ones of which no known Y does."""
    seen = {name: set() for name, _, _ in CHECKS}
    for q, Y, table, ref in _cases(field):
        for name, got, want in CHECKS:
            doc = _outcome(lambda: got(Y, q, table))
            assert doc == _outcome(lambda: want(Y, q, ref)), (name, q)
            seen[name].add(_input(doc))
    bivectors = [str(vector_to_json(field, t)) for t in alt2_basis()]
    assert {(("space", space), ("vector", str(i + 1)), ("bivector", t))
            for space in ("VxAlt2", "Alt2xV") for i in range(3) for t in bivectors
            } <= seen["containments"]
    assert {None, "InputError"} <= seen["pairing"] & seen["containments"] & seen["component"]
    if field.characteristic == 7:
        assert {("x", "e1+e2"), ("x", "e1+e3")} <= {key[0] for key in seen["pairing"]
                                                    if isinstance(key, tuple)}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_containments_unpack_only_their_witness_column(field, monkeypatch):
    """The table's 18 verdicts decide the containments: on every case, as the former body does,
    with no unpack on a pass and one, of the witness column alone, on a failure."""
    calls, kernel = [], verifier.unpack
    monkeypatch.setattr(verifier, "unpack", lambda cols, w, p: calls.append(len(cols)) or
                        kernel(cols, w, p))
    for q, Y, table, ref in _cases(field):
        if table is None:
            try:
                table = braid_table(Y, q)
            except InputError:
                continue
        calls.clear()
        doc = _outcome(lambda: check_containments(Y, q, table))
        assert doc == _outcome(lambda: fref.containments(Y, q, ref)), q
        assert calls == ([] if doc["passed"] else [1]), q


def _calls(fn):
    """The names called in the body of ``fn``, with repeats, and whether it defines a function."""
    tree = ast.parse(inspect.getsource(fn))
    names = [getattr(n.func, "id", None) or getattr(n.func, "attr", None)
             for n in ast.walk(tree) if isinstance(n, ast.Call)]
    nested = [n for n in ast.walk(tree.body[0]) if isinstance(n, ast.FunctionDef)][1:]
    return names, bool(nested)


def test_each_identity_is_compared_once_on_fixed_data():
    """The pairing check makes two comparisons (the eigenvalue, then the wedge identity) and
    nests no function; braid_table decides the 18 containments in one vanishes_mod call and
    unpacks nothing, and the containments unpack only their witness column; no check, nor
    cyclic_shift, braid_table or the closed form it reads (with its two helpers), builds the
    fixed index data a call at a time or nests a function."""
    fixed = {"product", "idx2", "idx3", "tensor2", "bivector"}
    checks = (check_pairing_identities, check_containments, check_component_identity,
              multilinear.cyclic_shift, braid_table, verifier._braid_columns, verifier._through,
              verifier._antisym)
    for fn in checks:
        names, nested = _calls(fn)
        assert not fixed & set(names), fn.__name__
        assert not nested, fn.__name__
    assert _calls(check_pairing_identities)[0].count("_first_witness") == 2
    assert _calls(check_containments)[0].count("unpack") == 1
    assert _calls(braid_table)[0].count("vanishes_mod") == 1
    assert "unpack" not in _calls(braid_table)[0]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_is_alt3_gives_a_tuple_the_verdict_of_its_list(field):
    """is_alt3 takes any sequence of 27 scalars: c e1^e2^e3 passes, as list or tuple, and
    each single coordinate changed fails; field scalars and their integer coordinates (residues
    nearest zero over F_p) agree."""
    for c in (field.zero(), field.one(), field.of(-2), field.of(5)):
        w = [c * s for s in multilinear._ALT3_UNIT]
        cases = [(w, True)] + [(w[:k] + [w[k] + 1] + w[k + 1:], False) for k in range(27)]
        for v, want in cases:
            assert multilinear.is_alt3(v) is multilinear.is_alt3(tuple(v)) is want, (c, v)
            ints = reduce_mod(integer_coordinates(field, v)[0], field.characteristic)
            assert multilinear.is_alt3(ints) is multilinear.is_alt3(tuple(ints)) is want

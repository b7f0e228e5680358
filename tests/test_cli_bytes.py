"""CLI output pinned byte for byte: the `table` hashes, one digest of a verb corpus, and the
error documents of the rule for q.

Everything runs in-process.  The corpus digest covers the stdout bytes and
exit code of verify, classify, rmatrix, carrier and deform on the eight
canonical types moved by a random basis (odd-numbered types as symmetry
records, even-numbered ones as quadruples), two operators that pass
``from_matrix`` but are not Hecke symmetries, and one adversarial record,
over Q and F7.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from hecke3.classify import TYPE_LABELS, canonical
from hecke3.cli import main
from hecke3.fields import GF, QQ
from hecke3.heckecore import build_R, conjugate_data, flip_matrix, skewsymmetrizer_matrix
from hecke3.jsonio import hecke_data_to_json, matrix_to_json, symmetry_to_json
from hecke3.linalg import Matrix
from hecke3.multilinear import idx2, random_invertible, std_basis, wedge2
from hecke3.verifier import sample_adversarial

VERBS = (["verify"], ["classify"], ["rmatrix"], ["carrier"], ["deform", "--lambda=1/2"])


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def non_member_record(field, squares):
    """R = q Id - Y at q = 2 with Y = (q+1)(P + sum of t (x) (e_i (x) e_i)*), P = (Id - flip)/2.

    ``squares`` maps i to the bivector t taking the column of e_i (x) e_i.
    """
    q = field.of(2)
    P = (Matrix.identity(field, 9) - flip_matrix(field)).scale(field.one() / 2)
    cols = [P.col(c) for c in range(9)]
    for i, t in squares.items():
        cols[idx2(i, i)] = [a + b for a, b in zip(cols[idx2(i, i)], t)]
    Y = Matrix.from_columns(field, cols).scale(q + 1)
    R = Matrix.identity(field, 9).scale(q) - Y
    return {"field": field.name, "q": field.fmt(q), "R": matrix_to_json(R)}


def corpus(field):
    """(name, document) pairs, in a fixed order."""
    rng = random.Random(9)
    e1, e2, e3 = std_basis(field)
    docs = []
    for n, label in enumerate(TYPE_LABELS):
        q = 3 if label in ("Type1", "Type2") else None
        data = conjugate_data(canonical(label, q, field), random_invertible(field, rng))
        # odd-numbered types as symmetry records, even-numbered ones as quadruples
        if n % 2 == 0:
            docs.append((f"{label}-record", symmetry_to_json(build_R(data))))
        else:
            docs.append((f"{label}-quadruple", hecke_data_to_json(data)))
    docs.append(("non-member-1", non_member_record(field, {0: wedge2(e1, e2)})))
    docs.append(("non-member-2", non_member_record(field, {0: wedge2(e1, e2), 1: wedge2(e2, e3)})))
    q, a, b, g = sample_adversarial(field, rng)
    R = Matrix.identity(field, 9).scale(q) - skewsymmetrizer_matrix(q, g, wedge2(a, b))
    docs.append(("adversarial", {"field": field.name, "q": field.fmt(q), "R": matrix_to_json(R)}))
    return docs


def corpus_digest(field, tmp_path):
    h = hashlib.sha256()
    for name, doc in corpus(field):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        flag = "--data" if name.endswith("quadruple") else "--matrix"
        for verb in VERBS:
            code, out = _run(verb + [flag, str(path)])
            h.update(f"{name} {verb[0]} {code}\n{out}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("argv, digest", [
    (["table", "--q", "2"],
     "ae21d55312277f3ea19ebbda63b8d457a62ba47f79d8c8832424e1a341940952"),
    (["table", "--q", "3", "--field", "Fp:7"],
     "9a6525c74d74ffc1b7c654e55d51d79969877ce7cc6213dd6c8b80e2a49f8eca"),
], ids=["Q-q2", "Fp7-q3"])
def test_table_bytes(argv, digest):
    code, out = _run(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 over "<name> <verb> <exit code>\n<stdout>" for every corpus entry and verb
CORPUS_DIGESTS = {
    "Q": "8f05c5e67399dc1b4194ec879bb1a702d72ec8152d8f0bb7d839376783ea3176",
    "Fp:7": "328c067d4f835228b633e1fba2a042f46780efb34156a4e6fd74de95dbe47684",
}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_verb_corpus_bytes(field, tmp_path):
    assert corpus_digest(field, tmp_path) == CORPUS_DIGESTS[field.name]


def _error_document(kind, message):
    return json.dumps({"error": {"type": kind, "message": message}}, indent=2) + "\n"


E1, E2 = ["1", "0", "0"], ["0", "1", "0"]


@pytest.mark.parametrize("argv, quadruple, kind, message", [
    (["construct"], {"q": "0", "a": E1, "b": E2, "g": [["0", "-1/2", "0"], ["-1/2", "0", "0"],
                                                       ["0", "0", "0"]]},
     "ZeroQ", "the Hecke parameter q must be nonzero"),
    (["construct"], {"q": "2", "a": E1, "b": E2, "g": [["0", "0", "0"]] * 3},
     "InvalidConstraint", "(q-1)^2 = -4*discriminant(F) fails for the requested q"),
    (["construct"], {"field": "Fp:7", "q": "7", "a": E1, "b": E2, "g": [["0", "0", "0"]] * 3},
     "ZeroQ", "the Hecke parameter q must be nonzero"),
    (["construct", "--type", "1", "--q", "1"], None, "InvalidQ", "Type1 needs q outside {0, 1}"),
], ids=["zero-q", "broken-constraint", "q-7-over-Fp7", "type1-at-q-1"])
def test_error_documents_of_the_rule_for_q(tmp_path, argv, quadruple, kind, message):
    if quadruple is not None:
        path = tmp_path / "quadruple.json"
        path.write_text(json.dumps(quadruple))
        argv = argv + ["--data", str(path)]
    assert _run(argv) == (2, _error_document(kind, message))

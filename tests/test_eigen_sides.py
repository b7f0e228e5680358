"""Y(e_j^e_k) = (q+1) e_j^e_k stated once, by ``heckecore._alt2_eigen_sides``.

The pairing check reads its eigenvalue identity L[x,y](z) - L[x,z](y) = (q+1) vol(x,y,z) off
those sides, paired with e_i, and the image check forms them once, after alternation, and reads
rank 3 off the Alt2 lemma where they agree and q + 1 != 0.  These tests compare the documents,
or the type and text of what is raised, of ``check_pairing_identities``,
``check_image_and_eigen`` and ``check_hecke`` with the former bodies in ``field_reference``
(``pairing_identities`` reads all 27 basis triples), and count how often each check reads the
sides and tests alternation.
"""

import random

import pytest

import field_reference as fref
from hecke3 import verifier
from hecke3.fields import GF, QQ
from hecke3.heckecore import build_R, flip_matrix, skewsymmetrizer_matrix
from hecke3.linalg import Matrix
from hecke3.multilinear import (
    _ALT2_PAIRS,
    bivector,
    idx2,
    non_alternating_columns,
    unit_tensors,
    wedge2,
)
from hecke3.verifier import (
    check_hecke,
    check_image_and_eigen,
    check_pairing_identities,
    sample_adversarial,
    sample_strategy_a,
    sample_strategy_b,
)

FIELDS = [QQ, GF(3), GF(7), GF(1_000_003), GF(2**61 - 1)]
FIELD_IDS = ["Q", "Fp3", "Fp7", "Fp1000003", "Fp2^61-1"]


def _bumped(Y, entries):
    """Y with x added at (r, c) for each (r, c, x) of ``entries``."""
    rows = [row[:] for row in Y.rows]
    for r, c, x in entries:
        rows[r][c] = rows[r][c] + x
    return Matrix(Y.field, rows)


def _with_columns(field, columns):
    """The 9x9 operator whose column c is columns.get(c), integer coordinates, else 0."""
    return Matrix.from_columns(field, [columns.get(c, [0] * 9) for c in range(9)])


def _samples(field):
    """(q, Y): strategy A and B symmetries at q, q + 1 and -1; adversarial operators; random
    operators with alternating columns at an adversarial q, at q + 1 and at -1; one column
    jk bumped by bivector(e_i), so that the first failing triple is (i, j, k), at each of the 9
    (i, pair) positions (with i the third index, Y acts as q + 1 on the two other bivectors);
    the projection onto Alt2 at q = 4 with one pair of columns doubled or zeroed; columns
    outside Alt2; Y inside Alt2 of rank 0, 1, 2, and 3 with the columns jk and kj equal, each
    with the eigen sides holding (q = -1) and failing (q = 2)."""
    rng, one, out = random.Random(97), field.one(), []
    syms = [build_R(sampler(field, rng)) for sampler in (sample_strategy_a, sample_strategy_b) * 2]
    for sym in syms:
        out += [(q, sym.Y) for q in (sym.q, sym.q + 1, field.of(-1))]
    for _ in range(3):
        q, a, b, g = sample_adversarial(field, rng)
        out.append((q, skewsymmetrizer_matrix(q, g, wedge2(a, b))))
        Y = _with_columns(field, {c: bivector([rng.randint(-3, 3) for _ in range(3)])
                                  for c in range(9)})
        out += [(q, Y), (q + 1, Y), (field.of(-1), Y)]
    q, Y = syms[0].q, syms[0].Y
    for i, v in enumerate(unit_tensors(1)):
        for j, k in _ALT2_PAIRS:
            out.append((q, _bumped(Y, [(m, idx2(j, k), x * one) for m, x in enumerate(bivector(v))
                                       if x])))
    q4 = field.of(4)
    P = (Matrix.identity(field, 9) - flip_matrix(field)).scale((q4 + 1) / 2)
    for j, k in _ALT2_PAIRS:
        for factor in (2, 0):
            cols = [P.col(c) for c in range(9)]
            for c in (idx2(j, k), idx2(k, j)):
                cols[c] = [factor * x for x in cols[c]]
            out.append((q4, Matrix.from_columns(field, cols)))
    out += [(q4, Matrix.identity(field, 9)), (q, _bumped(Y, [(idx2(1, 1), 4, one)])),
            (q, _bumped(Y, [(idx2(0, 1), 2, one)])),
            (q, _bumped(Y, [(idx2(1, 2), c, one) for c in range(9)]))]
    e = unit_tensors(1)
    rank1 = _with_columns(field, {idx2(0, 0): wedge2(e[0], e[1])})
    rank2 = _with_columns(field, {c: wedge2(e[0], e[c % 3]) for c in (idx2(1, 1), idx2(2, 2))})
    symmetric = _with_columns(field, {idx2(j, k): wedge2(e[j], e[k]) for j, k in _ALT2_PAIRS}
                              | {idx2(k, j): wedge2(e[j], e[k]) for j, k in _ALT2_PAIRS})
    for q in (field.of(-1), field.of(2)):
        out += [(q, Matrix.zeros(field, 9)), (q, rank1), (q, rank2), (q, symmetric)]
    return out


def _outcome(call):
    """The document of a report, or the type and text of what the call raises."""
    try:
        return call().to_json()
    except Exception as exc:  # compared, not swallowed: the reference must raise the same
        return type(exc), str(exc)


def _kind(doc):
    """The first input key of a witness document, its identity for the pairing check."""
    if isinstance(doc, tuple):
        return doc[0].__name__
    witness = doc["witness"] or {}
    return witness.get("identity") or next(iter(witness.get("input", {None: 0})))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_checks_match_the_references(field):
    """Same documents, witnesses included, as the former bodies on every sample, and on a
    non-alternating Y with a q outside the field: the pairing check reads q before alternation
    (and raises), the image check after (and names the column)."""
    bad_q = f"1/{field.characteristic}" if field.characteristic else "x"
    ident, kinds, triples = Matrix.identity(field, 9), {}, set()
    for q, Y in _samples(field) + [(bad_q, Matrix.identity(field, 9))]:
        for name, got, want in (
                ("pairing", lambda: check_pairing_identities(Y, q),
                 lambda: fref.pairing_identities(Y, q)),
                ("image", lambda: check_image_and_eigen(Y, q),
                 lambda: fref.check_image_and_eigen(Y, q)),
                ("hecke", lambda: check_hecke(ident.scale(q) - Y, q),
                 lambda: fref.check_hecke(ident.scale(q) - Y, q))):
            doc = _outcome(got)
            assert doc == _outcome(want), (name, q)
            kinds.setdefault(name, set()).add(_kind(doc))
            if _kind(doc) == "eigenvalue":
                triples.add(tuple(doc["witness"]["input"]["indices"]))
    assert kinds == {"pairing": {None, "basis_tensor", "eigenvalue", "wedge", "InputError"},
                     "image": {None, "basis_tensor", "rank", "bivector"},
                     "hecke": {None, "basis_tensor", "InputError"}}
    assert triples == {(i + 1, j + 1, k + 1) for i in range(3) for j, k in _ALT2_PAIRS}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_each_check_reads_the_sides_once(field, monkeypatch):
    """check_pairing_identities on an alternating Y forms the eigen sides once; the image check
    tests alternation once and forms the sides at most once (not at all without alternation),
    on every sample, where it used to do each twice when the lemma did not decide."""
    calls = dict.fromkeys(["_alt2_eigen_sides", "non_alternating_columns"], 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(verifier, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(verifier, name, counted)
    for q, Y in _samples(field):
        calls.update(dict.fromkeys(calls, 0))
        check_image_and_eigen(Y, q)
        alternating = not non_alternating_columns(Y)
        assert calls == {"_alt2_eigen_sides": int(alternating), "non_alternating_columns": 1}
        calls.update(dict.fromkeys(calls, 0))
        check_pairing_identities(Y, q)
        assert calls == {"_alt2_eigen_sides": int(alternating), "non_alternating_columns": 1}

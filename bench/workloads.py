"""The four benchmark workloads.

Each workload turns a seed into a list of requests during set-up and runs
one request at a time (a closed loop with one client).  A request carries
its expected verdict; ``execute`` returns the verdict the program gave, so
a request is correct iff the two are equal.  Verdicts hold outcomes only:
pass/fail, labels, exit codes, invariants and whether a witness is present,
never raw output bytes or timings.

``h`` is a namespace holding the loaded hecke3 modules by short name
(``h.verifier``, ``h.cli``, ...); workloads look functions up through it
at call time, so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle

P_BIG = 1_000_003
TYPES = tuple(f"Type{n}" for n in range(1, 9))


@dataclass(frozen=True)
class Request:
    data: tuple
    expected: tuple


class Workload:
    name = ""
    pool = 0            # distinct requests generated per set-up; runs cycle
    warmup = 2          # requests run once at the end of set-up
    cycle = 1           # requests in one period of the mix; runs send whole periods
    rate = 1.0          # requests per second of --seconds in a timed run
    trace_rate = 1.0    # requests per second of --seconds in a traced run

    def requests_for(self, seconds, rate):
        """A whole number of mix periods, about ``seconds * rate`` requests."""
        n = max(self.cycle, round(seconds * rate))
        return -(-n // self.cycle) * self.cycle

    def setup(self, h, seed, workdir):
        raise NotImplementedError

    def execute(self, h, data):
        raise NotImplementedError


class FuzzQ(Workload):
    """verifier.fuzz over Q, strategy A, one trial per request."""

    name = "fuzz_q"
    pool = 4096
    rate = 6.5
    trace_rate = 2.0

    def setup(self, h, seed, workdir):
        rng = random.Random(seed)
        return [Request((rng.randrange(1 << 31), "A", False), (True, False))
                for _ in range(self.pool)]

    def execute(self, h, data):
        trial_seed, strategy, adversarial = data
        rep = h.verifier.fuzz(self.field(h), trials=1, seed=trial_seed,
                              strategy=strategy, adversarial=adversarial)
        return (rep.passed, rep.witness is not None)

    def field(self, h):
        return h.fields.QQ


class FuzzFp(FuzzQ):
    """verifier.fuzz over F_1000003: three strategy-B trials, one adversarial."""

    name = "fuzz_fp"
    cycle = 4
    rate = 13.0
    trace_rate = 3.0

    def setup(self, h, seed, workdir):
        rng = random.Random(seed)
        return [Request((rng.randrange(1 << 31), "B", i % 4 == 3), (True, False))
                for i in range(self.pool)]

    def field(self, h):
        return h.fields.GF(P_BIG)


class StructureQ(Workload):
    """Transport a canonical type by a random basis, then classify and analyse it.

    The expected label is the source type; the expected fingerprint and
    Frobenius status are those of the untransported canonical symmetry,
    which any basis change must preserve.
    """

    name = "structure_q"
    pool = 512
    cycle = 8
    rate = 22.0
    trace_rate = 4.0
    Q_POOL = (2, 3, -1, Fraction(1, 2))

    def setup(self, h, seed, workdir):
        rng = random.Random(seed)
        QQ = h.fields.QQ
        canon, expect = {}, {}
        requests = []
        for i in range(self.pool):
            label = TYPES[i % 8]
            q = rng.choice(self.Q_POOL) if label in ("Type1", "Type2") else None
            key = (label, q)
            if key not in canon:
                sym = h.heckecore.build_R(h.classify.canonical(label, q, QQ))
                sub = h.cybe.carrier(h.cybe.classical_r(sym))
                canon[key] = sym
                expect[key] = (label, tuple(h.cybe.fingerprint(sub)),
                               h.cybe.is_frobenius(sub).status)
            P = oracle.random_invertible3(rng)
            requests.append(Request((canon[key], P), expect[key]))
        return requests

    def execute(self, h, data):
        sym, P = data
        cy = h.cybe
        moved = h.heckecore.conjugate(sym, h.linalg.Matrix.from_rows(sym.field, P))
        label = h.classify.classify(moved).label
        sub = cy.carrier(cy.classical_r(moved))
        status = cy.is_frobenius(sub).status
        return (label, tuple(cy.fingerprint(sub)), status)


# One cycle of cli_mixed requests: the four verbs in turn; half valid moved
# symmetries, a quarter that pass validation but fail the braid check (only
# verify and classify, which then exit 1), a quarter rejected with exit 2.
CLI_CYCLE = (
    ("verify", "valid"), ("classify", "valid"), ("rmatrix", "valid"),
    ("carrier", "valid"), ("verify", "failing"), ("classify", "failing"),
    ("rmatrix", "bumped"), ("carrier", "bumped"),
)
CLI_Q_POOL = (2, 3, 5, Fraction(1, 2))


class CliMixed(Workload):
    """hecke3.cli.main in-process over JSON files written during set-up.

    Inputs alternate Q and F_1000003 (every 8 requests) and symmetry
    records {"field","q","R"} and bare 9x9 arrays passed with --field
    (every 16).  Expected exit codes and labels come from how each input
    was built, checked with the independent arithmetic in ``oracle``.
    """

    name = "cli_mixed"
    pool = 128
    cycle = 64          # verb, kind, field, form and type all repeat after 64
    warmup = 4
    rate = 19.0
    trace_rate = 3.0

    def setup(self, h, seed, workdir):
        rng = random.Random(seed)
        canon = {}

        def canonical_R(label, q):
            if (label, q) not in canon:
                data = h.classify.canonical(label, q, h.fields.QQ)
                canon[(label, q)] = [list(row) for row in h.heckecore.build_R(data).R.rows]
            return canon[(label, q)]

        requests = []
        for j in range(self.pool):
            verb, kind = CLI_CYCLE[j % len(CLI_CYCLE)]
            p = None if (j // 8) % 2 == 0 else P_BIG
            record = (j // 16) % 2 == 0
            label = None
            if kind == "failing":
                q, R = self._braid_failing(rng, p)
            else:
                # in every 8 cycles each slot of CLI_CYCLE meets every type
                # once, so the mix is the same on every seed
                label = TYPES[(j + j // len(CLI_CYCLE)) % len(TYPES)]
                q = rng.choice(CLI_Q_POOL) if label in ("Type1", "Type2") else 1
                R = oracle.conjugate(canonical_R(label, None if q == 1 else q),
                                     oracle.random_invertible3(rng))
                if p is not None:
                    R = [[oracle.to_fp(x, p) for x in row] for row in R]
                if kind == "bumped":
                    R = self._bumped(rng, R, p)
            path = workdir / f"in{j:03d}.json"
            doc = self._document(R, q, p, record)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv = [verb, "--matrix", str(path)]
            if not record:
                argv += ["--field", "Q" if p is None else f"Fp:{p}"]
            requests.append(Request((verb, tuple(argv)), self._expected(verb, kind, label)))
        return requests

    @staticmethod
    def _braid_failing(rng, p):
        """R = q - (q+1) P with P a projection onto Alt2 along a random complement."""
        while True:
            q = Fraction(rng.choice(CLI_Q_POOL))
            G = [[rng.randint(-1, 1) for _ in range(9)] for _ in range(9)]
            P = oracle.projection_onto_alt2(G)
            R = oracle.lin(q, oracle.identity(9), -(q + 1), P)
            if p is not None:
                R = [[oracle.to_fp(x, p) for x in row] for row in R]
            if not oracle.braid_holds(R, p):
                return q, R

    @staticmethod
    def _bumped(rng, R, p):
        """R with one entry raised by 1, so that no q satisfies the Hecke relation."""
        while True:
            i, j = rng.randrange(9), rng.randrange(9)
            bumped = [row[:] for row in R]
            bumped[i][j] = bumped[i][j] + 1 if p is None else (bumped[i][j] + 1) % p
            if oracle.quadratic_fails_for_every_q(bumped, p):
                return bumped

    @staticmethod
    def _document(R, q, p, record):
        if p is None:
            rows = [[str(Fraction(x)) for x in row] for row in R]
            qtext = str(Fraction(q))
        else:
            rows = [[str(x) for x in row] for row in R]
            qtext = str(oracle.to_fp(q, p))
        if not record:
            return rows
        return {"field": "Q" if p is None else f"Fp:{p}", "q": qtext, "R": rows}

    @staticmethod
    def _expected(verb, kind, label):
        if kind == "bumped":
            return (2, "error")
        if kind == "failing":
            return (1, "witness")
        return (0, label if verb == "classify" else verb)

    def execute(self, h, data):
        verb, argv = data
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = h.cli.main(list(argv))
        return (code, _stdout_verdict(verb, code, out.getvalue()))


def _stdout_verdict(verb, code, text):
    """Summarize one CLI stdout: exactly one JSON document of the verb's shape."""
    try:
        doc = json.loads(text)
    except ValueError:
        return "malformed"
    if code == 2:
        ok = isinstance(doc, dict) and isinstance(doc.get("error"), dict)
        return "error" if ok else "malformed"
    checks = None
    if verb == "verify" and isinstance(doc, list):
        checks = doc
    elif verb in ("classify", "rmatrix") and isinstance(doc, dict) and "checks" in doc:
        checks = doc["checks"]
    elif verb == "classify" and isinstance(doc, dict) and doc.get("type") in TYPES:
        return doc["type"]
    elif verb == "carrier" and isinstance(doc, dict) and {"fingerprint", "frobenius"} <= set(doc):
        return "carrier"
    if checks is None:
        return "malformed"
    try:
        if all(c["passed"] and c["witness"] is None for c in checks):
            return verb
        if any(not c["passed"] and c["witness"] for c in checks):
            return "witness"
    except (TypeError, KeyError):
        pass
    return "malformed"


WORKLOADS = {w.name: w for w in (FuzzQ(), FuzzFp(), StructureQ(), CliMixed())}

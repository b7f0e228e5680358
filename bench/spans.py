"""Outside-in span tracing of the hecke3 layers.

The tracer wraps public functions of the package from outside: Matrix
methods and other class methods are replaced on their class, and a module
function is rebound in every ``hecke3`` module that imported it by name.
Nothing under ``src/`` changes.  Each call of a wrapped function records a
span (id, name, start, end, parent id, request id); spans stay in memory
and are written out once, after the traced pass.

A layer's self time is its span's duration minus the time covered by its
child spans.  Work the tracer itself does after a call (pattern counting
for scalar multiplications) is recorded as an internal ``_trace`` child of
the caller, so it is charged to no layer.  ``total_s`` sums only the
outermost span of each name, so a function that reaches itself through
another wrapped call is not counted twice.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

_INTERNAL = "_trace"

# Spans reported with .calls and .self_s.
SELF_SPANS = (
    "fields.fmt", "fields.parse",
    "linalg.mul", "linalg.kron", "linalg.rref", "linalg.det", "linalg.apply",
    "linalg.elementwise",
    "multilinear.lift", "multilinear.is_alt2", "multilinear.is_alt3",
    "jsonio.load_symmetry", "jsonio.to_json",
    "cli.main",
)
# Spans reported with .calls, .total_s and .self_s.
TOTAL_SPANS = (
    "heckecore.build_R", "heckecore.from_matrix", "heckecore.extract_q",
    "heckecore.extract_F", "heckecore.build_Y_from_F", "heckecore.conjugate",
    "verifier.sample", "verifier.braid", "verifier.hecke", "verifier.image_eigen",
    "verifier.containments", "verifier.component_identity",
    "verifier.pairing_identities", "verifier.cyclic_shift_identity",
    "classify.classify",
    "cybe.classical_r", "cybe.check_cybe", "cybe.check_symmetrized",
    "cybe.carrier", "cybe.is_frobenius", "cybe.fingerprint",
)
# Counts that must repeat exactly between runs on one seed.
COUNTS = (
    "fields.fp_objects", "linalg.mul27.calls", "linalg.mul.scalar_mults",
    "linalg.apply.scalar_mults", "heckecore.from_matrix.rejected",
    "verifier.checks.failed", "cybe.is_frobenius.det_calls", "cli.exit_nonzero",
)
MODULES = ("fields", "linalg", "multilinear", "heckecore", "verifier",
           "classify", "cybe", "jsonio", "cli")


def exact_count_names():
    """Per-layer metric names whose values must repeat exactly."""
    return [f"{n}.calls" for n in SELF_SPANS + TOTAL_SPANS] + list(COUNTS)


class Tracer:
    """Span recorder; :meth:`install` wraps the layers of a loaded hecke3."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = -1
        self._stack = [0]
        self._next_id = 1
        self._depth = Counter()
        self._frobenius_hits = 0

    # -- span recording -------------------------------------------------

    def wrap(self, name, fn, hook=None):
        """A callable recording one span per call of ``fn``.

        ``hook(args, result, exc)`` runs after the span closes; its time is
        recorded as an internal child of the caller.
        """
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            outer = depth[name] == 0
            depth[name] += 1
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                spans.append((sid, name, t0, t1, parent, self.request, outer))
                if hook is not None:
                    hook(args, result, exc)
                    spans.append((0, _INTERNAL, t1, clock(), parent, self.request, True))

        traced.__wrapped__ = fn
        return traced

    def active(self, name) -> bool:
        return self._depth[name] > 0

    # -- installation ---------------------------------------------------

    def _method(self, cls, attr, name, hook=None):
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], hook))

    def _function(self, modules, owner, attr, name, hook=None):
        orig = getattr(owner, attr)
        traced = self.wrap(name, orig, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)

    def install(self, h):
        """Wrap every traced boundary of the package namespace ``h``."""
        modules = [m for k, m in sys.modules.items()
                   if k == "hecke3" or k.startswith("hecke3.")]
        counts = self.counts

        # fields
        for cls in (h.fields.Rationals, h.fields.PrimeField):
            self._method(cls, "fmt", "fields.fmt")
            self._method(cls, "parse", "fields.parse")
        fp_init = h.fields.Fp.__init__

        def counted_init(obj, v, p):
            counts["fields.fp_objects"] += 1
            fp_init(obj, v, p)

        h.fields.Fp.__init__ = counted_init

        # linalg
        M = h.linalg.Matrix
        self._method(M, "__mul__", "linalg.mul", self._count_mul)
        self._method(M, "kron", "linalg.kron")
        self._method(M, "rref", "linalg.rref")
        self._method(M, "det", "linalg.det", self._count_det)
        self._method(M, "apply", "linalg.apply", self._count_apply)
        for attr in ("__add__", "__sub__", "__neg__", "scale"):
            self._method(M, attr, "linalg.elementwise")

        # multilinear
        ml = h.multilinear
        self._function(modules, ml, "lift_left", "multilinear.lift")
        self._function(modules, ml, "lift_right", "multilinear.lift")
        self._function(modules, ml, "is_alt2", "multilinear.is_alt2")
        self._function(modules, ml, "is_alt3", "multilinear.is_alt3")

        # heckecore
        hc = h.heckecore
        for attr in ("build_R", "extract_q", "extract_F", "build_Y_from_F", "conjugate"):
            self._function(modules, hc, attr, f"heckecore.{attr}")
        from_matrix = hc.HeckeSymmetry.__dict__["from_matrix"].__func__
        hc.HeckeSymmetry.from_matrix = classmethod(
            self.wrap("heckecore.from_matrix", from_matrix, self._count_rejected))

        # verifier
        vf = h.verifier
        for attr in ("sample_strategy_a", "sample_strategy_b", "sample_adversarial"):
            self._function(modules, vf, attr, "verifier.sample")
        for check in ("braid", "hecke", "image_eigen", "containments",
                      "component_identity", "pairing_identities",
                      "cyclic_shift_identity"):
            attr = "check_image_and_eigen" if check == "image_eigen" else f"check_{check}"
            self._function(modules, vf, attr, f"verifier.{check}", self._count_failed)

        # classify
        self._function(modules, h.classify, "classify", "classify.classify")

        # cybe
        cy = h.cybe
        for attr in ("classical_r", "check_cybe", "check_symmetrized", "carrier",
                     "fingerprint"):
            self._function(modules, cy, attr, f"cybe.{attr}")
        self._function(modules, cy, "is_frobenius", "cybe.is_frobenius",
                       self._count_frobenius)

        # jsonio: the JSON envelope builders, in jsonio and on report classes
        js = h.jsonio
        self._function(modules, js, "load_symmetry", "jsonio.load_symmetry")
        for attr in ("vector_to_json", "matrix_to_json", "hecke_data_to_json",
                     "symmetry_to_json"):
            self._function(modules, js, attr, "jsonio.to_json")
        for cls in (vf.CheckReport, h.classify.ClassificationReport, cy.GlTensor,
                    cy.LieSubalgebra, cy.FrobeniusResult):
            self._method(cls, "to_json", "jsonio.to_json")

        # cli
        self._function(modules, h.cli, "main", "cli.main", self._count_exit)

    # -- counting hooks -------------------------------------------------

    def _count_mul(self, args, result, exc):
        a, b = args
        if exc is not None or not isinstance(b, type(a)):
            return
        if len(a.rows) == 27 and len(b.rows) == 27 and len(b.rows[0]) == 27:
            self.counts["linalg.mul27.calls"] += 1
        # the product loop multiplies a[i][k] by every nonzero b[k][j]
        col_nnz = [0] * len(b.rows)
        for row in a.rows:
            for k, x in enumerate(row):
                if x != 0:
                    col_nnz[k] += 1
        self.counts["linalg.mul.scalar_mults"] += sum(
            n * sum(1 for y in brow if y != 0) for n, brow in zip(col_nnz, b.rows))

    def _count_apply(self, args, result, exc):
        m, vec = args
        if exc is not None:
            return
        nz = [x != 0 for x in vec]
        self.counts["linalg.apply.scalar_mults"] += sum(
            1 for row in m.rows for a, z in zip(row, nz) if z and a != 0)

    def _count_det(self, args, result, exc):
        if self.active("cybe.is_frobenius"):
            self.counts["cybe.is_frobenius.det_calls"] += 1

    def _count_frobenius(self, args, result, exc):
        if result is not None and result.status == "yes" and result.witness:
            self._frobenius_hits += 1

    def _count_rejected(self, args, result, exc):
        if exc is not None:
            self.counts["heckecore.from_matrix.rejected"] += 1

    def _count_failed(self, args, result, exc):
        if result is not None and not result.passed:
            self.counts["verifier.checks.failed"] += 1

    def _count_exit(self, args, result, exc):
        if result != 0:
            self.counts["cli.exit_nonzero"] += 1

    # -- results --------------------------------------------------------

    def layer_metrics(self):
        """Per-layer values by metric name, in the BENCHMARK.json order."""
        child = Counter()
        for sid, name, t0, t1, parent, _, _ in self.spans:
            child[parent] += t1 - t0
        calls, total, own = Counter(), Counter(), Counter()
        for sid, name, t0, t1, parent, _, outer in self.spans:
            if name == _INTERNAL:
                continue
            calls[name] += 1
            if outer:
                total[name] += t1 - t0
            own[name] += t1 - t0 - child[sid]
        out = {}
        for name in SELF_SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = own[name]
        for name in TOTAL_SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        det_calls = self.counts["cybe.is_frobenius.det_calls"]
        out["cybe.is_frobenius.hit_ratio"] = (
            self._frobenius_hits / det_calls if det_calls else 0.0)
        return out

    def write(self, path):
        """Write every recorded span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, request, _ in self.spans:
                if name != _INTERNAL:
                    fh.write(json.dumps([sid, name, round(t0, 9), round(t1, 9),
                                         parent, request]))
                    fh.write("\n")


def module_lines(src_dir):
    """Physical lines of each traced module's source file, read without import."""
    out = {}
    for mod in MODULES:
        with open(src_dir / f"{mod}.py", encoding="utf-8") as fh:
            out[f"{mod}.lines"] = sum(1 for _ in fh)
    return out

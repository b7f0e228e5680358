"""hecke3 benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

  python3 bench/run.py --workload fuzz_q --seed 1 --seconds 20 --trace 0
      One run.  The last stdout line is the JSON result; with --trace 0 it
      holds the end-to-end metrics of BENCHMARK.json, with --trace 1 the
      per-layer metrics of a separate traced run.  --out FILE also writes
      a result file with the run's metadata.
  python3 bench/run.py --sweep --seeds 1,2,3 --out base.json
      Every workload on every seed, each run in its own process; prints
      each metric's median and quartiles and writes one result file.
      --seconds defaults to run_seconds of BENCHMARK.json.  bench/baseline.json
      is such a file for seeds 101..110.
  python3 bench/run.py --compare base.json change.json
      Medians, quartiles and ratios per workload and metric, each marked
      better, worse, same or unresolved against the benchmark's bounds.
  python3 bench/run.py --selftest
      Determinism self-test: two traced runs on one seed give identical
      counts, traced and untraced passes give one verdict stream, and a
      held-out seed gives no failures.

A run is one process with one client: it sets up (import, input generation,
warm-up) several times and reports the median as setup_s, then sends a
fixed number of requests one after another: a whole number of periods of
the workload's request mix, sized from --seconds so that the run takes
about 0.7 of it at reference speed.  A seed and --seconds thus fix the
exact work of a run, on every host and commit.  The tail latency is the
highest of p75/p90/p95/p99 with at least 10 samples beyond it.

Times are reported at reference speed.  On a shared host the speed of a
core drifts by tens of percent within seconds, for wall and CPU time
alike, so a fixed pure-Python calibration kernel runs before the first
request and after each one, and every time is multiplied by
CAL_REF_S / (kernel time measured around it).  items_per_s is requests
over the sum of their scaled latencies.  Result files also keep the raw
wall-clock rate and p50 and the median kernel time.

A traced run sends a fixed number of requests twice, untraced and then
traced, compares the two verdict streams, and reports the layer metrics of
the traced pass (span times unscaled); the spans themselves are written to
.bench_out/spans-<workload>-seed<seed>.jsonl.  trace.overhead_frac is the
ratio of the two passes' scaled times minus 1.  The expected effect of each
layer on the end-to-end metrics is written down in bench/layer_map.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import results
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
# Calibration kernel time that defines reference speed: about what the kernel
# takes on an idle core of a 2-core x86-64 host under CPython 3.11.
CAL_REF_S = 0.001
CAL_WINDOW = 2          # calibrations on each side of a request used to scale it
TAIL_PCTS = (75, 90, 95, 99)
MAX_TIMED_S = 120.0     # a run stops here even short of its request count
SELFTEST_SEED = 7
HOLDOUT_SEED = 424242   # used only by --selftest


def load_hecke3():
    """Import hecke3 afresh from the checkout's src/, as a module namespace."""
    if not (SRC / "hecke3" / "__init__.py").is_file():
        raise FileNotFoundError(f"no hecke3 package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "hecke3" or n.startswith("hecke3.")]:
        del sys.modules[name]
    importlib.import_module("hecke3")
    importlib.import_module("hecke3.cli")
    h = SimpleNamespace(**{m: sys.modules[f"hecke3.{m}"] for m in spans.MODULES})
    if Path(h.fields.__file__).resolve().parent != (SRC / "hecke3").resolve():
        raise ImportError(f"hecke3 was imported from {h.fields.__file__}, not {SRC}")
    return h


def attempt(workload, h, request, errors):
    """One request; an exception is a verdict, never a crash of the run."""
    try:
        return workload.execute(h, request.data)
    except (Exception, SystemExit) as exc:
        if not errors:
            traceback.print_exc(file=sys.stderr)
        errors.append(type(exc).__name__)
        return ("exception", type(exc).__name__)


def _calibration_kernel():
    """Fixed pure-Python work of the kind hecke3 does: Fractions and residues."""
    acc = Fraction(0)
    for i in range(1, 155):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    x = 1
    for _ in range(2400):
        x = x * 7 % 1_000_003
    rows = [[Fraction(i * j + 1, j + 2) for j in range(5)] for i in range(5)]
    return acc, x, [sum(a * b for a, b in zip(r, rows[0])) for r in rows]


def calibrate(repeats=1):
    """Seconds the calibration kernel takes now (median of repeats, GC off)."""
    times = []
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            _calibration_kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def set_up(workload, seed, workdir):
    """Import, input generation and warm-up; returns the time at reference speed."""
    cal = calibrate(5)
    t0 = time.perf_counter()
    h = load_hecke3()
    requests = workload.setup(h, seed, workdir)
    for req in requests[:workload.warmup]:
        attempt(workload, h, req, [])
    raw = time.perf_counter() - t0
    cal = (cal + calibrate(5)) / 2
    return h, requests, raw * CAL_REF_S / cal


def tail_percentile(n):
    """The highest of TAIL_PCTS with at least 10 of n samples beyond it (else 50)."""
    return max((p for p in TAIL_PCTS if n * (100 - p) >= 1000), default=50)


def closed_loop(workload, h, requests, count, tracer=None):
    """Send ``count`` requests one at a time (fewer if MAX_TIMED_S runs out).

    The calibration kernel runs before the first request and after each
    one.  A request's latency is scaled to reference speed by the median
    kernel time of the calibrations around it, so that a host whose
    effective speed drifts while the run goes on (shared cores) still
    yields comparable numbers.
    """
    latencies, verdicts, errors = [], [], []
    failed = 0
    gc.collect()
    cals = [calibrate()]
    start = time.perf_counter()
    i = 0
    while True:
        if i >= count or time.perf_counter() - start >= MAX_TIMED_S:
            break
        req = requests[i % len(requests)]
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        verdict = attempt(workload, h, req, errors)
        latencies.append(time.perf_counter() - t0)
        cals.append(calibrate())
        verdicts.append(verdict)
        failed += verdict != req.expected
        i += 1
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.request = -1
    expected = [requests[k % len(requests)].expected for k in range(i)]
    scaled = [
        t * CAL_REF_S / statistics.median(cals[max(0, k - CAL_WINDOW + 1):k + CAL_WINDOW + 1])
        for k, t in enumerate(latencies)]
    return SimpleNamespace(latencies=scaled, raw_latencies=latencies, verdicts=verdicts,
                           expected=expected, failed=failed, wall=wall,
                           cal_median_s=statistics.median(cals))


def with_units(values, declared):
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise KeyError(f"metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_untraced(workload, seed, seconds, workdir):
    setups = []
    for _ in range(SETUP_REPEATS):
        h, requests, t = set_up(workload, seed, workdir)
        setups.append(t)
    loop = closed_loop(workload, h, requests, workload.requests_for(seconds, workload.rate))
    lat_ms = [x * 1000.0 for x in loop.latencies]
    pct = tail_percentile(len(lat_ms))
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(lat_ms) / sum(loop.latencies),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": statistics.quantiles(lat_ms, n=100, method="inclusive")[pct - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"requests": len(lat_ms), "tail_pct": pct,
            "tail_samples_beyond": sum(1 for x in lat_ms if x > values["latency_tail_ms"]),
            "setup_runs_s": setups, "wall_s": loop.wall,
            "raw_items_per_s": len(lat_ms) / loop.wall,
            "raw_latency_p50_ms": statistics.median(loop.raw_latencies) * 1000.0,
            "calibration_median_ms": loop.cal_median_s * 1000.0}
    return values, len(lat_ms), loop.failed, info


def run_traced(workload, seed, seconds, workdir, span_path):
    h, requests, _ = set_up(workload, seed, workdir)
    n = workload.requests_for(seconds, workload.trace_rate)
    plain = closed_loop(workload, h, requests, n)
    tracer = spans.Tracer()
    tracer.install(h)
    traced = closed_loop(workload, h, requests, n, tracer=tracer)
    values = tracer.layer_metrics()
    values.update(spans.module_lines(SRC / "hecke3"))
    values["trace.overhead_frac"] = sum(traced.latencies) / sum(plain.latencies) - 1.0
    failed = sum(1 for e, a, b in zip(plain.expected, plain.verdicts, traced.verdicts)
                 if not (a == b == e))
    tracer.write(span_path)
    info = {"requests": n, "tail_pct": None, "spans": len(tracer.spans),
            "span_file": str(span_path.relative_to(ROOT)),
            "untraced_wall_s": plain.wall, "traced_wall_s": traced.wall}
    return values, n, failed, info


def run_one(args, bench):
    workload = WORKLOADS[args.workload]
    os.environ.pop("HECKE3_FIELD", None)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        if args.trace:
            span_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
            values, attempted, failed, info = run_traced(
                workload, args.seed, args.seconds, workdir, span_path)
            declared = bench["per_layer"]
        else:
            values, attempted, failed, info = run_untraced(
                workload, args.seed, args.seconds, workdir)
            declared = bench["end_to_end"]
    metrics = with_units(values, declared)
    run_meta = results.meta(ROOT)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, **info,
              "metrics": values}
    print(f"{workload.name} seed {args.seed} trace {args.trace}: {attempted} requests, "
          f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    if not args.trace:
        print(f"  tail percentile p{info['tail_pct']}, "
              f"{info['tail_samples_beyond']} samples beyond it")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("  meta " + json.dumps(run_meta))
    if args.out:
        results.save(args.out, {"meta": run_meta, "runs": [record]})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_in_subprocess(workload, seed, seconds, trace):
    """One run in a fresh process; returns its run record."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"run-{workload}-seed{seed}-trace{trace}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    record = results.load(out)["runs"][0]
    out.unlink()
    return record


def sweep(args, bench):
    seeds = [int(s) for s in args.seeds.split(",")]
    names = [w["name"] for w in bench["workloads"]]
    runs = []
    for seed in seeds:
        for name in names:
            rec = run_in_subprocess(name, seed, args.seconds, args.trace)
            print(f"{name} seed {seed}: {rec['requests']} requests, "
                  f"failed {rec['failed']}", flush=True)
            runs.append(rec)
    doc = {"meta": {**results.meta(ROOT), "run_seconds": args.seconds, "seeds": seeds},
           "runs": runs}
    if args.out:
        results.save(args.out, doc)
    if not args.trace:
        results.summarize(doc, bench)
    return 0 if all(r["failed"] == 0 for r in runs) else 1


def selftest(args, bench):
    ok = True
    exact = spans.exact_count_names()
    for w in bench["workloads"]:
        name = w["name"]
        a = run_in_subprocess(name, SELFTEST_SEED, args.seconds, 1)
        b = run_in_subprocess(name, SELFTEST_SEED, args.seconds, 1)
        diff = [k for k in exact if a["metrics"][k] != b["metrics"][k]]
        held = run_in_subprocess(name, HOLDOUT_SEED, args.seconds, 0)
        checks = {
            "counts repeat on one seed": not diff,
            "traced and untraced verdicts agree": a["failed"] == 0 and b["failed"] == 0,
            f"held-out seed {HOLDOUT_SEED} has no failures": held["failed"] == 0,
        }
        for label, passed in checks.items():
            print(f"{name}: {label}: {'ok' if passed else 'FAILED'}")
        if diff:
            print(f"{name}: differing counts {diff}")
        ok = ok and all(checks.values())
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write a result file here")
    parser.add_argument("--sweep", action="store_true",
                        help="run every workload on every seed of --seeds")
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result files")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    try:
        bench = results.load(ROOT / "BENCHMARK.json")
        if not (SRC / "hecke3" / "__init__.py").is_file():
            raise FileNotFoundError(f"no hecke3 package under {SRC}")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        results.compare(results.load(args.compare[0]), results.load(args.compare[1]), bench)
        return 0
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.sweep:
        return sweep(args, bench)
    if args.selftest:
        return selftest(args, bench)
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required for a single run")
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())

"""Result files: run metadata, summaries across seeds, and comparison.

A result file is one JSON object ``{"meta": {...}, "runs": [...]}``.  Each
run record holds the workload, seed, trace flag, request count, tail
percentile, failure counts and every metric value of that run.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys


def git_commit(root):
    """The checked-out commit, read from .git inside root; None when absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def meta(root):
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "commit": git_commit(root),
    }


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def _grouped(runs, trace):
    out = {}
    for run in runs:
        if run["trace"] == trace:
            out.setdefault(run["workload"], []).append(run)
    return out


def summarize(doc, bench):
    """Print each workload's end-to-end metrics as median [q1, q3] across runs."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for workload, runs in _grouped(doc["runs"], 0).items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}, "
              f"requests/run {[r['requests'] for r in runs]}, "
              f"tail percentile p{runs[0]['tail_pct']}")
        print(f"  failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
        for name, unit in units.items():
            vals = [r["metrics"][name] for r in runs]
            q1, med, q3 = quartiles(vals)
            print(f"  {name:16s} = {med:.6g} {unit}  [q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"spread {spread(vals):.3f}]")


def compare(doc_a, doc_b, bench):
    """Print per-workload, per-metric medians, quartiles and the ratio B/A.

    A metric is "better" when B's median beats A's by more than A's own
    spread, "worse" when it loses by more than the metric's bound,
    "unresolved" when either side's spread exceeds the bound (unless every
    B run beats, or loses to, every A run), and "same" otherwise.
    """
    a_runs, b_runs = _grouped(doc_a["runs"], 0), _grouped(doc_b["runs"], 0)
    print(f"A: commit {doc_a['meta'].get('commit')}  B: commit {doc_b['meta'].get('commit')}")
    for workload in a_runs:
        if workload not in b_runs:
            print(f"{workload}: only in A")
            continue
        print(f"{workload}:")
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            va = [r["metrics"][name] for r in a_runs[workload]]
            vb = [r["metrics"][name] for r in b_runs[workload]]
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1]
            gain = -change if lower else change
            b_wins = all((y < x) if lower else (y > x) for x in va for y in vb)
            b_loses = all((y > x) if lower else (y < x) for x in va for y in vb)
            if max(spread(va), spread(vb)) > bound:
                verdict = "better" if b_wins else "worse" if b_loses else "unresolved"
            elif gain > spread(va):
                verdict = "better"
            elif -gain > bound:
                verdict = "worse"
            else:
                verdict = "same"
            print(f"  {name:16s} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']}  "
                  f"B/A {qb[1] / qa[1]:.3f} (base A {qa[1]:.6g})  "
                  f"bound {bound}  {verdict}")
    for workload in b_runs:
        if workload not in a_runs:
            print(f"{workload}: only in B")

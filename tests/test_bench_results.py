"""The committed benchmark result files are complete and record no failed request."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def load_results_module():
    spec = importlib.util.spec_from_file_location("bench_results", ROOT / "bench" / "results.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_file_covers_each_workload_without_failures():
    results = load_results_module()
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert BENCH_FILES
    for path in BENCH_FILES:
        runs = results.load(path)["runs"]
        assert {run["workload"] for run in runs} == workloads, path.name
        assert all(run["failed"] == 0 for run in runs), path.name

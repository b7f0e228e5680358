"""The benchmark's traced run still finds every layer it wraps."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_short_traced_run_is_correct():
    """bench/run.py --trace 1 on a tenth of a second of fuzz_fp exits 0, correct.

    The tracer wraps package functions and methods by name, so deleting or
    renaming one of them fails this run.  No timing is asserted.
    """
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "fuzz_fp",
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True

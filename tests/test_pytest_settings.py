"""The repository's pytest settings report a failing property test as one failure.

``filterwarnings = ["error"]`` turns warnings into errors.  When a ``hypothesis`` test
fails, its pytest plugin imports ``libcst`` to report the example, and that import warns;
as an error inside pytest's report hook it aborted the whole run with INTERNALERROR, so
every later failure went unreported.  The settings ignore that one warning by its message.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n < 0


def test_later_failure():
    assert False
'''


def test_a_failing_property_test_and_a_later_failure_are_both_reported(tmp_path):
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_pair.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "2 failed" in out, out

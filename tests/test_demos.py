"""Every demo script runs to completion against the package and prints the same bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# sha256 of each demo's stdout: a change to a report, witness or printed figure shows here
DEMOS = {
    "01_construct_and_verify": "54e3ebb7658a0418137be38f1ef22aec9080a6eda8139d9523c6a0a093574c88",
    "02_classification": "aa320bad24873b862d6d10302e9a00667f33e8b72b652e649417d9cf124a74dd",
    "03_deformation": "4e0a98ddad4c7a46cfd90c3aea6d5f6a4f85b5542b3b170d099066a2a2bd50e3",
    "04_classical_rmatrices": "f099e5caaed9f6abc93dec769bd22104af1a98a9c6c9944258fe290a0bb1e8fd",
}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS[name]

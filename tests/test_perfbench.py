"""The benchmark's traced smokes, run as subprocesses.

`perfbench/run.py` drives the package through public names and hooks module
attributes (`Bench.instrument`); a traced run fails when a hook point is
missing or a layer it requires is not exercised. Running both gated
workloads here makes a renamed or retyped name that the benchmark calls fail
the tests, not only CI. A RuntimeWarning is an error, as in CI.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sim2d", "xval1d"])
def test_traced_benchmark_smoke_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True

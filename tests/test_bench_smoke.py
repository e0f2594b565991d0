"""Each benchmark workload runs one checked round against this checkout, so
that a name the benchmark imports or reads cannot leave the package
unnoticed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["collections", "hn_ladder", "requests"])
def test_one_checked_round(workload):
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "one_pass.py"), "--workload", workload,
         "--rounds", "1", "--check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    ready, result = run.stdout.splitlines()
    assert ready == "ready"
    out = json.loads(result)
    assert out["correct"] is True, out["problems"]

"""Smoke tests: each demo script runs to its closing line on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, closing", [
    ("shrinking_circle.py", ["--nodes", "64", "--max-time", "0.02", "--snapshot-dt", "0.01"],
     "# terminal status: reached_max_time"),
    ("straighten_demo.py", ["--nodes", "128", "--max-time", "0.04"],
     "# first aligned at t = "),
    ("sandwich_table.py", ["--nodes", "64", "--levels", "2", "--t-end", "0.02"],
     "# verdict after t=0.02: MeasureZeroCurve"),
])
def test_script_runs(script, args, closing):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(closing)

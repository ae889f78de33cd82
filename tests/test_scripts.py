"""Smoke tests: the demo scripts run end to end and exit 0."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["trace_region.py"],
    ["run_verification.py", "--users", "2"],
    ["run_verification.py", "--users", "3"],
])
def test_demo_script_runs(argv):
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert res.returncode == 0, res.stderr

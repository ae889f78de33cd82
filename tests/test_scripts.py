"""Smoke tests: the scripts run end to end and exit 0."""

import json
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


def test_bench_script_writes_its_json(tmp_path):
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"),
         "--label", "smoke", "--repeats", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text(encoding="utf-8"))
    assert doc["label"] == "smoke" and doc["repeats"] == 1
    assert set(doc["median_s"]) == set(doc["relative_to_control"]) == {
        "stage_walk", "label_stage", "fixed_point", "line_integral",
        "walkthrough", "boundary_point", "closed_form_point", "interior_point", "rate_tuple",
        "grid_oracle", "decoupled_point", "control",
    }
    assert all(t > 0.0 for t in doc["median_s"].values())
    assert doc["relative_to_control"]["control"] == 1.0
    assert {"nproc", "python", "numpy", "blas_threads"} <= set(doc["machine"])
    assert doc["grid_nodes"] == {"1": 68, "2": 1200, "3": 10600}

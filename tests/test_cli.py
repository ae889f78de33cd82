import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from mimobc import cli

CLI = [sys.executable, "-m", "mimobc.cli"]

SCALAR_CHANNEL = {
    "channel": {"noise_covs": [[[1.0]], [[2.0]]], "input_cap": [[1.0]]}
}

MIXTURE_INPUT = {
    "channel": {"noise_covs": [[[1.0]], [[2.0]]], "input_cap": [[2.5]]},
    "source": {
        "weights": [0.5, 0.5],
        "means": [[0.0], [0.5]],
        "comp_covs": [[[1.0]], [[3.0]]],
    },
}

# the mixture input on a non-degraded channel: the second noise is smaller
NOT_DEGRADED_INPUT = {
    "channel": {"noise_covs": [[[2.0]], [[1.0]]], "input_cap": [[2.5]]},
    "source": MIXTURE_INPUT["source"],
}

# a four-antenna mixture on a four-antenna channel: beyond the quadrature
FOUR_DIM_INPUT = {
    "channel": {
        "noise_covs": [np.eye(4).tolist(), (2.0 * np.eye(4)).tolist()],
        "input_cap": (10.0 * np.eye(4)).tolist(),
    },
    "source": {
        "weights": [0.5, 0.5],
        "means": [[0.0] * 4, [0.5] * 4],
        "comp_covs": [np.eye(4).tolist(), (2.0 * np.eye(4)).tolist()],
    },
}

# the one-antenna mixture on a two-antenna channel
DIMENSION_MISMATCH_INPUT = {
    "channel": {
        "noise_covs": [np.eye(2).tolist(), (2.0 * np.eye(2)).tolist()],
        "input_cap": (2.5 * np.eye(2)).tolist(),
    },
    "source": MIXTURE_INPUT["source"],
}

# the mixture, a plain source (depth 2), on a three-user channel
DEPTH_MISMATCH_INPUT = {
    "channel": {"noise_covs": [[[1.0]], [[2.0]], [[3.0]]], "input_cap": [[2.5]]},
    "source": MIXTURE_INPUT["source"],
}

# the mixture with a first noise variance far below the de Bruijn check's
# largest finite-difference step
TINY_NOISE_INPUT = {
    "channel": {"noise_covs": [[[1e-5]], [[2.0]]], "input_cap": [[2.5]]},
    "source": MIXTURE_INPUT["source"],
}

# the mixture with no noise at the strongest receiver
ZERO_NOISE_INPUT = {
    "channel": {"noise_covs": [[[0.0]], [[2.0]]], "input_cap": [[2.5]]},
    "source": MIXTURE_INPUT["source"],
}

# the mixture on a channel whose noise grows tenfold between receivers
WIDE_NOISE_INPUT = {
    "channel": {"noise_covs": [[[1.0]], [[10.0]]], "input_cap": [[2.5]]},
    "source": MIXTURE_INPUT["source"],
}

# a channel whose input cap admits no power
ZERO_CAP_CHANNEL = {
    "channel": {"noise_covs": [[[1.0]], [[2.0]]], "input_cap": [[0.0]]}
}

BAD_ORDER_CHANNEL = {
    "channel": {
        # the second noise covariance is not an increment of the first
        "noise_covs": [[[1.0, 0.0], [0.0, 3.0]], [[2.0, 0.0], [0.0, 2.0]]],
        "input_cap": [[1.0, 0.0], [0.0, 1.0]],
    }
}


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=300)


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


class TestRegion:
    def test_scalar_boundary_csv(self, tmp_path):
        path = write(tmp_path, "ch.json", SCALAR_CHANNEL)
        res = run_cli("region", path, "--grid", "5")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "w_1,w_2,R_1,R_2"
        assert len(lines) == 6
        # endpoint weights (1,0) and (0,1) give the single-user capacities
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert first[2] == pytest.approx(0.5 * math.log(2.0), abs=1e-6)
        assert last[3] == pytest.approx(0.5 * math.log(1.5), abs=1e-6)

    def test_bits_flag_scales(self, tmp_path):
        path = write(tmp_path, "ch.json", SCALAR_CHANNEL)
        nats = run_cli("region", path, "--grid", "3").stdout.strip().splitlines()
        bits = run_cli("region", path, "--grid", "3", "--bits").stdout.strip().splitlines()
        rn = float(nats[1].split(",")[2])
        rb = float(bits[1].split(",")[2])
        assert rb == pytest.approx(rn / math.log(2.0), rel=1e-9)

    def test_deterministic_bytes(self, tmp_path):
        path = write(tmp_path, "ch.json", SCALAR_CHANNEL)
        a = run_cli("region", path, "--grid", "4", "--seed", "7")
        b = run_cli("region", path, "--grid", "4", "--seed", "7")
        assert a.stdout == b.stdout

    def test_output_file(self, tmp_path):
        path = write(tmp_path, "ch.json", SCALAR_CHANNEL)
        out = tmp_path / "region.csv"
        res = run_cli("region", path, "--grid", "3", "--output", str(out))
        assert res.returncode == 0
        assert out.read_text().startswith("w_1,w_2,R_1,R_2")

    def test_order_violation_exits_2(self, tmp_path):
        path = write(tmp_path, "bad.json", BAD_ORDER_CHANNEL)
        res = run_cli("region", path, "--grid", "3")
        assert res.returncode == 2
        assert "validation failed" in res.stderr

    def test_twelve_significant_digits(self, tmp_path):
        path = write(tmp_path, "ch.json", SCALAR_CHANNEL)
        res = run_cli("region", path, "--grid", "3")
        cell = res.stdout.strip().splitlines()[1].split(",")[2]
        mantissa = cell.replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa) >= 11  # 12 significant digits modulo trailing zeros


class TestVerify:
    def test_pass_json(self, tmp_path):
        path = write(tmp_path, "src.json", MIXTURE_INPUT)
        res = run_cli("verify", path)
        assert res.returncode == 0, res.stderr
        reports = json.loads(res.stdout)
        assert all(r["passed"] for r in reports)
        names = {r["name"] for r in reports}
        assert "cramer_rao" in names and "f_epsilon" in names

    def test_impossible_tolerance_exits_1(self, tmp_path):
        # equal component covariances with unequal weights: the equality
        # residuals are genuine round-off, not exact zeros, so an impossibly
        # small tolerance must trip them.
        src = {
            "source": {
                "weights": [1 / 3, 2 / 3],
                "means": [[0.0, 0.0], [1.0, 0.5]],
                "comp_covs": [
                    [[1.3, 0.4], [0.4, 0.9]],
                    [[1.3, 0.4], [0.4, 0.9]],
                ],
            }
        }
        path = write(tmp_path, "src.json", src)
        res = run_cli("verify", path, "--tol", "1e-300")
        assert res.returncode == 1
        reports = json.loads(res.stdout)
        assert any(not r["passed"] for r in reports)

    def test_malformed_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        res = run_cli("verify", str(p))
        assert res.returncode == 2
        assert "malformed JSON" in res.stderr

    def test_missing_source_exits_2(self, tmp_path):
        path = write(tmp_path, "ch.json", SCALAR_CHANNEL)
        res = run_cli("verify", path)
        assert res.returncode == 2

    def test_deterministic_bytes(self, tmp_path):
        path = write(tmp_path, "src.json", MIXTURE_INPUT)
        a = run_cli("verify", path)
        b = run_cli("verify", path)
        assert a.stdout == b.stdout


class TestWalkthrough:
    def test_pass(self, tmp_path):
        path = write(tmp_path, "in.json", MIXTURE_INPUT)
        res = run_cli("walkthrough", path)
        assert res.returncode == 0, res.stderr
        rep = json.loads(res.stdout)
        assert rep["passed"]
        assert [r["passed"] for r in rep["reports"] if r["name"] == "domination"] == [True]
        assert len(rep["achieved_rates"]) == 2

    def test_inadmissible_exits_2(self, tmp_path):
        bad = dict(MIXTURE_INPUT)
        bad["channel"] = SCALAR_CHANNEL["channel"]  # cap 1 < Cov(X)
        path = write(tmp_path, "in.json", bad)
        res = run_cli("walkthrough", path)
        assert res.returncode == 2

    def test_seed_determinism(self, tmp_path):
        # the walkthrough is deterministic quadrature: it takes no seed, and
        # two runs on one input give the same bytes
        path = write(tmp_path, "in.json", MIXTURE_INPUT)
        a = run_cli("walkthrough", path)
        b = run_cli("walkthrough", path)
        assert a.returncode == 0 and a.stdout == b.stdout
        assert run_cli("walkthrough", path, "--seed", "3").returncode == 2

    def test_missing_file_exits_2(self, tmp_path):
        res = run_cli("walkthrough", str(tmp_path / "missing.json"))
        assert res.returncode == 2


class TestInputValidation:
    @pytest.mark.parametrize("command", ["verify", "walkthrough"])
    def test_not_degraded_exits_2(self, tmp_path, command):
        path = write(tmp_path, "in.json", NOT_DEGRADED_INPUT)
        res = run_cli(command, path)
        assert res.returncode == 2, res.stderr
        assert "channel validation failed" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command", ["verify", "walkthrough"])
    def test_four_dimensional_source_exits_2(self, tmp_path, command):
        path = write(tmp_path, "in.json", FOUR_DIM_INPUT)
        res = run_cli(command, path)
        assert res.returncode == 2, res.stderr
        assert "quadrature supports dimensions 1..3 only" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command, doc, code", [
        ("verify", DIMENSION_MISMATCH_INPUT, 2),
        ("walkthrough", DIMENSION_MISMATCH_INPUT, 2),
        ("walkthrough", DEPTH_MISMATCH_INPUT, 2),
        ("verify", TINY_NOISE_INPUT, 0),
        ("verify", ZERO_NOISE_INPUT, 2),
        ("walkthrough", ZERO_NOISE_INPUT, 2),
        ("region", ZERO_NOISE_INPUT, 2),
        ("region", ZERO_CAP_CHANNEL, 2),
        ("verify", WIDE_NOISE_INPUT, 0),
        ("walkthrough", WIDE_NOISE_INPUT, 0),
    ], ids=["dimension-verify", "dimension-walkthrough", "depth-walkthrough", "tiny-noise-verify",
            "zero-noise-verify", "zero-noise-walkthrough", "zero-noise-region", "zero-cap-region",
            "wide-noise-verify", "wide-noise-walkthrough"])
    def test_exit_code_contract(self, tmp_path, command, doc, code):
        path = write(tmp_path, "in.json", doc)
        res = run_cli(command, path)
        assert res.returncode == code, res.stderr
        assert "Traceback" not in res.stderr


class TestSelftestAndFlags:
    def test_selftest_passes(self):
        res = run_cli("selftest")
        assert res.returncode == 0, res.stdout + res.stderr
        lines = res.stdout.strip().splitlines()
        assert all(line.endswith("PASS") for line in lines)
        assert lines[-1].startswith("selftest")

    def test_selftest_impossible_tol_fails(self):
        res = run_cli("selftest", "--tol", "1e-30")
        assert res.returncode == 1
        assert "FAIL" in res.stdout

    def test_unknown_command_exits_2(self):
        res = run_cli("nonsense")
        assert res.returncode == 2

    def test_invalid_grid_exits_2(self, tmp_path):
        path = write(tmp_path, "ch.json", SCALAR_CHANNEL)
        res = run_cli("region", path, "--grid", "1")
        assert res.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["region", "in.json", "--grid", "1"],
        ["selftest", "--tol", "-1"],
    ])
    def test_out_of_range_values_exit_2(self, argv):
        assert cli.main(argv) == 2

    def test_removed_samples_flag_exits_2(self):
        # selftest has no Monte Carlo check left, so no sample count
        assert cli.main(["selftest", "--samples", "5"]) == 2

    @pytest.mark.parametrize("command, flags", [
        ("region", {"--seed", "--tol", "--grid", "--bits", "--output"}),
        ("verify", {"--tol", "--output"}),
        ("walkthrough", {"--bits", "--output"}),
        ("selftest", {"--seed", "--tol"}),
    ])
    def test_each_command_takes_only_the_flags_it_reads(self, capsys, command, flags):
        assert cli.main([command, "--help"]) == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z]+", capsys.readouterr().out))
        assert listed == flags | {"--help"}

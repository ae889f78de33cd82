import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mimobc import cli, region
from mimobc.fixtures import admissible_mixture_for, decoupled_channel, random_channel, rng_for
from mimobc.region import decoupled_boundary, trace_boundary

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


# the mixture as the base of a three-user hierarchy whose U_3 is a noisy
# copy of U_2
HIERARCHY_INPUT = {
    "channel": {"noise_covs": [[[1.0]], [[2.0]], [[3.0]]], "input_cap": [[2.5]]},
    "source": {
        **MIXTURE_INPUT["source"],
        "transitions": [[[0.6, 0.4], [0.4, 0.6]]],
        "top_weights": [0.5, 0.5],
    },
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

    def test_csv_matches_exact_boundary_of_rotated_channel(self, tmp_path, trace_bounds):
        # K = 3: --grid 28 is the simplex grid c / 6, whose 28 rows include
        # all three users active at w = (1, 2, 3) / 6
        diag, rotated = decoupled_channel(rng_for(142), 2, 3)
        doc = {"noise_covs": [c.tolist() for c in rotated.noise_covs],
               "input_cap": rotated.input_cap.tolist()}
        out = tmp_path / "out.csv"
        argv = ["region", write(tmp_path, "ch.json", doc), "--grid", "28", "--output", str(out)]
        assert cli.main(argv) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "w_1,w_2,w_3,R_1,R_2,R_3"
        weights = cli._weight_sweep(3, 28)
        assert len(lines) == 1 + len(weights) == 29
        # 12 significant digits round a rate below 1 by at most 5e-13
        # the round-off term of the bounds is taken at the traced splits
        splits = [split for split, _ in trace_boundary(rotated, weights)]
        for w, line, exact, split in zip(weights, lines[1:], decoupled_boundary(diag, weights), splits):
            row = [float(x) for x in line.split(",")]
            assert row[:3] == pytest.approx(w, rel=1e-11)
            rates = row[3:]
            b_wsr, b_rate = trace_bounds(rotated, w, split)
            assert abs(np.dot(w, rates) - np.dot(w, exact)) <= b_wsr + 5e-13
            assert max(abs(a - b) for a, b in zip(rates, exact)) <= b_rate + 5e-13

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

    def test_capped_boundary_point_exits_1(self, tmp_path, capsys, monkeypatch):
        # an ascent stopped by the iteration cap is not a boundary point: the
        # run names the weight vector and exits 1 instead of printing it
        monkeypatch.setattr(region, "_MAX_ITERS", 2)
        ch = random_channel(rng_for(1002, 1), 2, 2)
        doc = {"noise_covs": [s.tolist() for s in ch.noise_covs], "input_cap": ch.input_cap.tolist()}
        out = tmp_path / "out.csv"
        assert cli.main(["region", write(tmp_path, "ch.json", doc), "--grid", "11",
                         "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical error: boundary point at weights [") and "not converged" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_capped_barrier_solve_exits_1(self, tmp_path, capsys, monkeypatch):
        # one Newton step solves no all-active point; the two-user ascents are
        # stubbed out, so that the first of those points is the one named
        monkeypatch.setattr(region, "_MAX_ITERS", 1)
        monkeypatch.setattr(region, "_ascend", lambda chain, Q: (Q, 0.0, False))
        ch = random_channel(rng_for(303, 4), 2, 3)
        doc = {"noise_covs": [s.tolist() for s in ch.noise_covs], "input_cap": ch.input_cap.tolist()}
        assert cli.main(["region", write(tmp_path, "ch.json", doc), "--grid", "28"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical error: boundary point at weights [") and "not converged" in err
        w = json.loads(err[err.index("["):err.index("]") + 1])
        assert region._active_users(np.array(w)) == [0, 1, 2]

    def test_seed_moves_no_three_user_row(self, tmp_path):
        # --seed seeds only the two-user restarts; a longer chain starts at
        # its centre
        ch = random_channel(rng_for(303, 4), 2, 3)
        doc = {"noise_covs": [s.tolist() for s in ch.noise_covs], "input_cap": ch.input_cap.tolist()}
        path = write(tmp_path, "ch.json", doc)
        rows = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}.csv"
            assert cli.main(["region", path, "--seed", seed, "--output", str(out)]) == 0
            rows.append(out.read_text().splitlines()[1:])
        three = [a == b for a, b in zip(*rows)
                 if len(region._active_users(np.array(a.split(",")[:3], dtype=float))) == 3]
        assert len(three) == 8 and all(three)

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

    def test_tiny_component_passes(self, tmp_path):
        # a positive component variance far below the noise is valid input
        path = write(tmp_path, "in.json", {**MIXTURE_INPUT, "source": {
            **MIXTURE_INPUT["source"], "comp_covs": [[[1e-15]], [[3.0]]]}})
        res = run_cli("walkthrough", path)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["passed"]

    @pytest.mark.parametrize("variance", [1e-15, 1e-264])
    def test_tiny_component_verifies(self, tmp_path, variance):
        # verify agrees with the walkthrough on the same valid input; the
        # check at zero noise inverts the component's own covariance
        path = write(tmp_path, "in.json", {**MIXTURE_INPUT, "source": {
            **MIXTURE_INPUT["source"], "comp_covs": [[[variance]], [[3.0]]]}})
        res = run_cli("verify", path)
        assert res.returncode == 0, res.stderr
        assert all(r["passed"] for r in json.loads(res.stdout))

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

    def test_input_too_large_for_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        def too_large(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr("mimobc.verifier.converse_walkthrough", too_large)
        path = write(tmp_path, "in.json", MIXTURE_INPUT)
        assert cli.main(["walkthrough", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "memory" in err
        assert "Traceback" not in err


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


class TestOneChannelRule:
    @staticmethod
    def _run_every_command(path):
        """The results of ``region --grid 3``, ``walkthrough`` and ``verify``,
        each required to exit 0."""
        results = []
        for command, flags in (("region", ["--grid", "3"]), ("walkthrough", []), ("verify", [])):
            res = run_cli(command, path, *flags)
            assert res.returncode == 0, (command, res.stdout, res.stderr)
            results.append(res)
        return results

    def test_small_scale_channel_accepted_by_every_command(self, tmp_path):
        # valid at the noise-scale PSD slack (about 1e-9) but not at 1e-8;
        # verify's de Bruijn check takes its step from the observed
        # covariances and judges its gap relative to J
        doc = {
            "channel": {"noise_covs": [[[5e-9]], [[1e-8]]], "input_cap": [[5e-9]]},
            "source": {
                "weights": [0.5, 0.5],
                "means": [[0.0], [1e-5]],
                "comp_covs": [[[1e-9]], [[2e-9]]],
            },
        }
        self._run_every_command(write(tmp_path, "in.json", doc))

    def test_channel_below_unit_scale_accepted_by_every_command(self, tmp_path):
        # the slack is relative to the largest noise, so a channel at 1e-10
        # is as valid as the same channel at unit scale, and its boundary is
        # the scale-invariant R_1 = ln(2) / 2 at w = (1, 0)
        doc = {
            "channel": {"noise_covs": [[[1e-10]], [[2e-10]]], "input_cap": [[1e-10]]},
            "source": {
                "weights": [0.5, 0.5],
                "means": [[0.0], [2e-6]],
                "comp_covs": [[[2e-11]], [[4e-11]]],
            },
        }
        region = self._run_every_command(write(tmp_path, "in.json", doc))[0]
        assert region.stdout.splitlines()[1] == "1,0,0.34657359028,0"


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
        ["verify", "in.json", "--tol", "nan"],
        ["selftest", "--tol", "inf"],
    ])
    def test_out_of_range_values_exit_2(self, argv, tmp_path):
        # the input is valid, so only the flag can exit 2
        path = write(tmp_path, "in.json", MIXTURE_INPUT)
        assert cli.main([path if a == "in.json" else a for a in argv]) == 2

    def test_removed_samples_flag_exits_2(self):
        # selftest has no Monte Carlo check left, so no sample count
        assert cli.main(["selftest", "--samples", "5"]) == 2

    def test_removed_region_tol_flag_exits_2(self, capsys):
        # the channel rule is the constructor's, so region has no tolerance
        assert cli.main(["region", "in.json", "--tol", "1e-8"]) == 2
        assert "unrecognized arguments: --tol 1e-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("region", {"--seed", "--grid", "--bits", "--output"}),
        ("verify", {"--tol", "--output"}),
        ("walkthrough", {"--bits", "--output"}),
        ("selftest", {"--seed", "--tol"}),
    ])
    def test_each_command_takes_only_the_flags_it_reads(self, capsys, command, flags):
        assert cli.main([command, "--help"]) == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z]+", capsys.readouterr().out))
        assert listed == flags | {"--help"}


# numbers that keep a document well formed, some of them at the edges of
# the float range, and leaves and small trees of arbitrary JSON; the json
# module writes and reads NaN and +-Infinity
_NUMBERS = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -1.0, 1e-300, 1e-12, 1e200, -1e200, 1e308]),
)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 3), st.floats(), _NUMBERS),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=2),
    max_leaves=6,
)


def _paths(node, path=()):
    """Every position in a JSON tree, the root included, as a key path."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# the valid inputs the fuzz edits: a scalar mixture, a two-antenna mixture,
# and the three-user hierarchy under "source" and under "hierarchy"
_FUZZ_SEEDS = [
    MIXTURE_INPUT,
    {
        "channel": {
            "noise_covs": [np.eye(2).tolist(), (2.0 * np.eye(2)).tolist()],
            "input_cap": (2.5 * np.eye(2)).tolist(),
        },
        "source": {
            "weights": [0.5, 0.5],
            "means": [[0.0, 0.0], [0.5, -0.5]],
            "comp_covs": [np.eye(2).tolist(), [[2.0, 0.5], [0.5, 1.0]]],
        },
    },
    HIERARCHY_INPUT,
    {"channel": HIERARCHY_INPUT["channel"], "hierarchy": HIERARCHY_INPUT["source"]},
]


@st.composite
def _malformed_inputs(draw):
    """(command, document): one of the valid inputs with up to two edits.
    An edit sets a number to another number, or it replaces or deletes any
    subtree, the root included, with arbitrary JSON."""
    command = draw(st.sampled_from(["verify", "walkthrough", "region"]))
    doc = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_SEEDS))))
    for _ in range(draw(st.integers(0, 2))):
        paths = list(_paths(doc))
        if draw(st.booleans()):
            numbers = [p for p in paths if p and isinstance(_at(doc, p), float)]
            if numbers:
                path = draw(st.sampled_from(numbers))
                _at(doc, path[:-1])[path[-1]] = draw(_NUMBERS)
                continue
        path = draw(st.sampled_from(paths))
        if not path:
            doc = draw(_JSON_VALUES)
        elif isinstance(_at(doc, path[:-1]), dict) and draw(st.booleans()):
            del _at(doc, path[:-1])[path[-1]]
        else:
            _at(doc, path[:-1])[path[-1]] = draw(_JSON_VALUES)
    return command, doc


def _with_source(**fields):
    return {**MIXTURE_INPUT, "source": {**MIXTURE_INPUT["source"], **fields}}


SINGULAR_OBSERVED_INPUT = {
    "channel": {
        "noise_covs": [[[1e-13, 0], [0, 1e-13]], [[2e-13, 0], [0, 2e-13]]],
        "input_cap": [[300000.0, 0], [0, 300000.0]],
    },
    "source": {
        "weights": [1.0],
        "means": [[0.0, 0.0]],
        "comp_covs": [[[58498.35714501206, 49272.48649942301],
                       [49272.48649942301, 41501.64285498795]]],
    },
}

# inputs that once ended in a traceback; each must exit 2 with an error line
MALFORMED_INPUTS = {
    "nan-weight-verify": ("verify", _with_source(weights=[math.nan, 1.0])),
    "nan-weight-walkthrough": ("walkthrough", _with_source(weights=[math.nan, 1.0])),
    "nan-top-weights": ("verify", _with_source(transitions=[[[0.5], [0.5]]], top_weights=[math.nan])),
    "nan-table": ("verify", _with_source(transitions=[[[math.nan], [math.nan]]], top_weights=[1.0])),
    "nan-table-walkthrough": ("walkthrough", {**HIERARCHY_INPUT, "source": {
        **HIERARCHY_INPUT["source"], "transitions": [[[math.nan, 0.4], [0.4, math.nan]]]}}),
    "string-table": ("verify", _with_source(transitions=[[["x"]]])),
    "number-transitions": ("verify", _with_source(transitions=5)),
    "number-source-verify": ("verify", {**MIXTURE_INPUT, "source": 3}),
    "number-source-walkthrough": ("walkthrough", {**MIXTURE_INPUT, "source": 3}),
    "overflowing-means-verify": ("verify", _with_source(means=[[0.0], [1e200]])),
    "overflowing-means-walkthrough": ("walkthrough", _with_source(means=[[0.0], [1e200]])),
    # a component that is singular at double precision once observed
    # through noise 1e-13 I: its Cholesky factorization fails
    "singular-observed-verify": ("verify", SINGULAR_OBSERVED_INPUT),
    "singular-observed-walkthrough": ("walkthrough", SINGULAR_OBSERVED_INPUT),
    # positive, but check_f_epsilon's inverse of the bare component overflows
    "subnormal-component": ("verify", _with_source(comp_covs=[[[1e-310]], [[3.0]]])),
    # Cov(X) = 4.25e-10 exceeds the cap 2.5e-10: the Loewner verdict is taken
    # at the operands' scale, not against an absolute slack of 1e-9
    "inadmissible-tiny-scale": ("walkthrough", {
        "channel": {"noise_covs": [[[1e-10]], [[2e-10]]], "input_cap": [[2.5e-10]]},
        "source": {"weights": [0.5, 0.5], "means": [[0.0], [1e-5]],
                   "comp_covs": [[[4e-10]], [[4e-10]]]},
    }),
    # finite entries whose symmetrization overflows
    "overflowing-noise": ("region", {"channel": {"noise_covs": [[[1e308]], [[1e308]]], "input_cap": [[1.0]]}}),
}


def _run_in_process(tmp_path, command, doc) -> int:
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path), "--output", str(tmp_path / "out")]
    if command == "region":
        argv += ["--grid", "3"]
    return cli.main(argv)


def _pinned(test):
    """The test with every input of MALFORMED_INPUTS as an explicit example."""
    for case in MALFORMED_INPUTS.values():
        test = example(case=case)(test)
    return test


class TestFuzz:
    @pytest.mark.parametrize("command, doc", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
    def test_malformed_input_exits_2(self, tmp_path, capsys, command, doc):
        # one error line and nothing else; a numpy warning on the way would
        # fail the test by the RuntimeWarning filter of pyproject.toml
        assert _run_in_process(tmp_path, command, doc) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_ill_conditioned_cap_exits_0(self, tmp_path, capsys):
        # a valid cap (eigenvalues 7.5e-7 and 10) over noises 1e-6 I: the
        # tracer once returned a part below the PSD tolerance here
        doc = {
            "noise_covs": [[[1e-6, 0.0], [0.0, 1e-6]]] * 2,
            "input_cap": [[10.0, 0.0015811388300841897], [0.0015811388300841897, 1e-6]],
        }
        assert _run_in_process(tmp_path, "region", doc) == 0
        assert capsys.readouterr().err == ""

    def test_equal_noises_far_below_ill_conditioned_cap_exits_0(self, tmp_path, capsys):
        # equal noises (eigenvalues 4.7e-5 and 1.1e-3) under a cap with
        # eigenvalues 2.0e3 and 3.3e6: the tracer's two-pass Dykstra
        # projection once left a trial chain outside {0 <= Q <= I} by
        # round-off of its norm here, and the run exited 1 with a
        # non-finite objective
        noise = [[0.0010220896420096552, 0.0002786261539000566],
                 [0.0002786261539000566, 0.0001266945070794306]]
        doc = {
            "noise_covs": [noise, noise],
            "input_cap": [[2205799.6028895215, 1581217.674582084],
                          [1581217.674582084, 1136555.9613460833]],
        }
        assert _run_in_process(tmp_path, "region", doc) == 0
        assert capsys.readouterr().err == ""
        header, *rows = (tmp_path / "out").read_text().strip().splitlines()
        assert header == "w_1,w_2,R_1,R_2" and len(rows) == 3
        assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))

    def test_noises_near_singular_against_the_cap_exit_0(self, tmp_path, capsys):
        # noise eigenvalues 1.7e-8 and 2.6e-8 under a cap with eigenvalues
        # 8.0e7 and 1.6e9: the tracer's objective, taken in the cap's
        # coordinates C + Sigma, met round-off of C larger than Sigma and
        # the run exited 1 with a non-finite objective; with the noises
        # whitened once per chain it evaluates Q + N with Q in [0, I]
        doc = {
            "noise_covs": [
                [[2.5945184665204644e-08, -8.081493212322914e-10],
                 [-8.081493212322911e-10, 1.7493770604790035e-08]],
                [[2.5952149139173675e-08, -8.197434072286576e-10],
                 [-8.197434072286573e-10, 1.752436755201745e-08]],
            ],
            "input_cap": [[1532196422.3441863, -385984963.756763],
                          [-385984963.7567629, 182777334.40501267]],
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["region", str(path), "--grid", "5", "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, *rows = out.read_text().strip().splitlines()
        assert header == "w_1,w_2,R_1,R_2" and len(rows) == 5
        assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @_pinned
    @given(case=_malformed_inputs())
    def test_malformed_input_never_raises(self, tmp_path, case):
        """Every input ends in an exit code of the contract, never in an
        exception."""
        assert _run_in_process(tmp_path, *case) in (0, 1, 2)


def _cramer_rao_pair(scale: float) -> dict:
    """Two components 0.6% apart at the scale of their noises, covariances
    times ``scale`` and means times its square root."""
    root = math.sqrt(scale)
    return {
        "channel": {"noise_covs": [[[1.95833321e-12 * scale]], [[2.97464112e-12 * scale]]],
                    "input_cap": [[1.5710825e-12 * scale]]},
        "source": {"weights": [0.50138821, 0.49861179],
                   "means": [[6.96677068e-7 * root], [-4.02781524e-7 * root]],
                   "comp_covs": [[[1.10863346e-12 * scale]], [[1.11493259e-12 * scale]]]},
    }


def _scaled_input(ch, src, scale: float) -> dict:
    """The channel and source as JSON, covariances times ``scale`` and
    means times its square root."""
    return {
        "channel": {"noise_covs": [(scale * S).tolist() for S in ch.noise_covs],
                    "input_cap": (scale * ch.input_cap).tolist()},
        "source": {"weights": src.weights.tolist(),
                   "means": (math.sqrt(scale) * src.means).tolist(),
                   "comp_covs": (scale * src.comp_covs).tolist()},
    }


class TestScale:
    @pytest.mark.parametrize("scale", [1.0, 1e12])
    def test_cramer_rao_verdict_does_not_depend_on_scale(self, tmp_path, capsys, scale):
        # the components do not coincide at either scale; an absolute
        # tolerance once asserted the equality case at the smaller one
        assert _run_in_process(tmp_path, "verify", _cramer_rao_pair(scale)) == 0
        assert capsys.readouterr().err == ""
        report, = [r for r in json.loads((tmp_path / "out").read_text()) if r["name"] == "cramer_rao"]
        assert report["passed"] and report["notes"] == ""
        assert [r["label"] for r in report["residuals"]] == ["min_eig(J - inv(Cov))_rel"]

    def test_component_spectrum_wider_than_1e14_verifies(self, tmp_path, capsys):
        # J at zero noise is diag(1, 5e14): positive definite, because its
        # Cholesky factorization succeeds
        doc = {
            "channel": {"noise_covs": [np.eye(2).tolist(), (2.0 * np.eye(2)).tolist()],
                        "input_cap": (4.0 * np.eye(2)).tolist()},
            "source": {"weights": [0.5, 0.5], "means": [[0.0, 0.0], [0.5, 0.0]],
                       "comp_covs": [[[1.0, 0.0], [0.0, 1e-15]], np.eye(2).tolist()]},
        }
        assert _run_in_process(tmp_path, "verify", doc) == 0
        assert capsys.readouterr().err == ""
        reports = json.loads((tmp_path / "out").read_text())
        assert len(reports) == 8 and all(r["passed"] for r in reports)

    def test_component_far_above_the_noise_exits_1(self, tmp_path, capsys):
        # J(X+N|U) = 1e-30 is a valid positive definite J, but 1e30 + 1e-7
        # rounds to 1e30, so de Bruijn's finite difference is exactly 0:
        # the numerics diverge (exit 1), with no error line
        doc = {
            "channel": {"noise_covs": [[[1e-6]], [[1e-6]]], "input_cap": [[1e-6]]},
            "source": {"weights": [1.0], "means": [[0.0]], "comp_covs": [[[1e30]]]},
        }
        assert _run_in_process(tmp_path, "verify", doc) == 1
        assert capsys.readouterr().err == ""
        reports = json.loads((tmp_path / "out").read_text())
        assert [r["name"] for r in reports if not r["passed"]] == ["de_bruijn"]

    def test_region_near_the_largest_float_exits_0(self, tmp_path, capsys):
        # the split check once took norms of the cap, whose squares overflow
        doc = {"noise_covs": [[[1e300]], [[2e300]]], "input_cap": [[2.5e300]]}
        assert _run_in_process(tmp_path, "region", doc) == 0
        assert capsys.readouterr().err == ""

    def test_scaled_inputs_exit_0(self, tmp_path, capsys):
        """Well-conditioned two-user inputs (n = 1, 2, two components)
        scaled by 10^U(-20, 20): every command exits 0 and prints nothing
        to stderr."""
        for c in range(100):
            rng = rng_for(2024, c)
            scale = 10.0 ** rng.uniform(-20.0, 20.0)
            ch = random_channel(rng, 1 + c % 2, 2)
            src = admissible_mixture_for(ch, rng, 2)
            path = write(tmp_path, "in.json", _scaled_input(ch, src, scale))
            out = str(tmp_path / "out")
            for argv in (["region", path, "--grid", "5"], ["verify", path], ["walkthrough", path]):
                assert cli.main(argv + ["--output", out]) == 0, (c, argv[0])
                assert capsys.readouterr().err == "", (c, argv[0])

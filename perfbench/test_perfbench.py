"""Tests of the benchmark itself: self time, wrapper removal, the op checks
and one short run of run.py.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import NO_PARENT, Tracer, summarize  # noqa: E402

from mimobc import fixtures, report, verifier  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; b [11, 12] is a root
    names = ["a", "b", "c", "d"]
    table = {
        "name": np.array([0, 1, 2, 3, 1], dtype=np.int32),
        "parent": np.array([NO_PARENT, 0, 0, 2, NO_PARENT], dtype=np.int32),
        "start": np.array([0.0, 1.0, 5.0, 6.0, 11.0]),
        "end": np.array([10.0, 4.0, 9.0, 8.0, 12.0]),
    }
    s = summarize(table, names)
    assert s["a"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    assert s["b"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    assert s["c"] == {"calls": 1, "self_s": 2.0, "total_s": 4.0}
    assert s["d"] == {"calls": 1, "self_s": 2.0, "total_s": 2.0}


def test_wrappers_record_parents_and_count_each_error_once_per_layer():
    t = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    w_inner = t.wrap("matrices.inner", inner)
    w_mid = t.wrap("matrices.mid", lambda x: w_inner(x))
    w_outer = t.wrap("verifier.outer", lambda x: w_mid(x))
    assert w_outer(1) == 1
    with pytest.raises(ValueError):
        w_outer(-1)
    assert list(t.parent) == [NO_PARENT, 0, 1, NO_PARENT, 3, 4]
    assert [t.names[i] for i in t.name_of] == ["verifier.outer", "matrices.mid", "matrices.inner"] * 2
    assert all(e >= s for s, e in zip(t.start, t.end))
    assert t.errors == {"matrices": 1, "verifier": 1}


def _snapshot():
    mods = {k: m for k, m in sys.modules.items() if k == "mimobc" or k.startswith("mimobc.")}
    attrs = {(k, a): v for k, m in mods.items() for a, v in vars(m).items()}
    classes = {
        cls: dict(vars(cls))
        for cls in (sys.modules["mimobc.region"].CovarianceSplit,
                    sys.modules["mimobc.model"].MixtureSource)
    }
    return attrs, classes


def test_wrappers_restore_the_original_module_attributes():
    before_attrs, before_classes = _snapshot()
    t = Tracer()
    assert layers.install(t) == []
    # names imported by value are wrapped where the caller looks them up
    assert verifier.mixture_fisher_quad is not before_attrs[("mimobc.verifier", "mixture_fisher_quad")]
    assert sys.modules["mimobc.cli"].trace_boundary is not before_attrs[("mimobc.cli", "trace_boundary")]
    t.remove()
    after_attrs, after_classes = _snapshot()
    assert after_attrs.keys() == before_attrs.keys()
    assert all(after_attrs[k] is v for k, v in before_attrs.items())
    for cls, d in before_classes.items():
        assert all(vars(cls)[k] is v for k, v in d.items())


def test_a_traced_function_that_is_not_found_fails_the_traced_run(monkeypatch):
    class Never:
        pass_len = 1

        def op(self, i):
            raise AssertionError("no op may run when a function is missing")

    before_attrs, _ = _snapshot()
    renamed = ("region.weighted_sum_rate", "region", "weighted_sum_rate_renamed")
    monkeypatch.setattr(layers, "FUNCTIONS", [*layers.FUNCTIONS[:1], renamed])
    with pytest.raises(RuntimeError, match="region.weighted_sum_rate"):
        worker.traced(Never(), 1.0, "never")
    after_attrs, _ = _snapshot()
    assert all(after_attrs[k] is v for k, v in before_attrs.items())


def test_region_check_rejects_scaled_rates(tmp_path):
    wl = workloads.Region(0, tmp_path)
    out = wl.op(0)
    assert wl.check(0, out) is None
    (split, rates), = out
    assert wl.check(0, [(split, tuple(0.9 * r for r in rates))]) is not None


def test_converse_check_rejects_failed_or_unbracketed_reports(tmp_path):
    wl = workloads.Converse(0, tmp_path)
    rep = verifier.converse_walkthrough(
        fixtures.two_component_scalar_source(), fixtures.scalar_channel(S=2.5)
    )
    assert wl.check(0, rep) is None
    assert wl.check(0, dataclasses.replace(rep, passed=False)) is not None
    unbracketed = tuple(
        dataclasses.replace(r, residuals=tuple(
            report.Residual(x.label, -1.0, x.kind) if x.label == "bracketed" else x
            for x in r.residuals))
        for r in rep.reports
    )
    assert wl.check(0, dataclasses.replace(rep, reports=unbracketed)) is not None


def test_verify_check_rejects_bad_exit_code_text_or_report(tmp_path):
    wl = workloads.Verify(0, tmp_path)
    rc, text = wl.op(0)
    assert wl.check(0, (rc, text)) is None
    assert wl.check(0, (1, text)) is not None
    assert wl.check(0, (0, "not json")) is not None
    assert wl.check(0, (0, None)) is not None
    reports = json.loads(text)
    reports[0]["passed"] = False
    assert wl.check(0, (0, json.dumps(reports))) is not None


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([0.1] * 10) is None
    t = run.tail([float(i) for i in range(20)])
    assert t == {"value": 9.0, "percentile": 50.0, "samples": 20}


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_every_listed_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "verify",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    listed = spec["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in listed]
    if trace:
        m = {k: v["value"] for k, v in last["metrics"].items()}
        assert m["region.trace_boundary.calls"] == 0
        # the replay is one pass over the inputs, one cli.main call per op
        assert m["cli.main.calls"] == workloads.Verify.pass_len

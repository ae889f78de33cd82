"""Benchmark runner for mimobc.

    python3 perfbench/run.py --workload {region,converse,verify} --seed N \
        --seconds S --trace {0,1}

Runs the workload in a child process (``worker.py``) with the BLAS thread
pools pinned to one thread, prints the metrics by name and unit with the
machine they were measured on, writes the full result to
``.bench_out/<workload>-seed<N>-trace<T>.json``, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.

Set-up (``setup_s``) is measured in three fresh processes and reported as
their median. The program is imported from ``src/`` of the checkout this
file sits in; without it, it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("region", "converse", "verify")
SETUPS = 3
TIME_LIMIT_S = 170.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED})
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` to completion and parse its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - time.monotonic()), text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker {' '.join(args)} printed no result") from None


def metric_specs(key: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[key]


def end_to_end(res: dict, setups: list[float]) -> dict:
    times = res["op_times"]
    attempted = len(times)
    failed = len(res["failures"])
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": (attempted - failed) / res["wall_s"],
        "op_p50_s": statistics.median(times),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return None
    return {"value": sorted(times)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "mimobc" / "__init__.py").is_file():
        print(f"error: no mimobc package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(run_worker([*common, "--setup-only"], deadline)["setup_s"])
        res = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        setups.append(res["setup_s"])
        if args.trace:
            values = res["layers"]["metrics"]
            failures = {**res["failures"], **{
                f"traced {i}": r for i, r in res["layers"]["failures"].items()}}
            attempted = len(res["op_times"]) + len(res["layers"]["op_times"])
            specs = metric_specs("per_layer")
        else:
            values = end_to_end(res, setups)
            failures = res["failures"]
            attempted = len(res["op_times"])
            specs = metric_specs("end_to_end")
        missing = [s["name"] for s in specs if s["name"] not in values]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    op_tail = tail(res["op_times"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": res["machine"],
        "setups_s": setups,
        "op_tail_s": op_tail,
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "metrics": metrics,
        "op_times": res["op_times"],
    }
    if args.trace:
        report["trace"] = {k: v for k, v in res["layers"].items() if k != "metrics"}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"machine: {json.dumps({**res['machine'], 'seed': args.seed})}")
    print(f"workload: {args.workload}  ops: {len(res['op_times'])}  "
          f"error_rate: {report['error_rate']:.4g} ({len(failures)}/{attempted})")
    if op_tail:
        print(f"op_tail_s: {op_tail['value']:.6g} s (p{op_tail['percentile']:.1f} of "
              f"{op_tail['samples']} ops)")
    else:
        print(f"op_tail_s: not defined ({len(res['op_times'])} ops, fewer than 11)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for i, reason in list(failures.items())[:5]:
        print(f"failed op {i}: {reason}")
    print(f"result: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

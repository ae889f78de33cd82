"""Runs one workload in this process and prints one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts it with the BLAS thread pools pinned to one thread. Set-up
is the import of the package, input generation and one warm-up op that is
not counted. The timed run is a closed loop of ops until ``--seconds`` have
passed, and it stops only between whole passes over the workload's inputs;
every op's output is checked after the loop. With ``--trace 1`` the first
pass is then run again with the program's functions wrapped, which gives
the per-layer figures and the tracing overhead. The replay is always one
pass, however fast the program is, so the per-layer figures are totals over
a fixed amount of work.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"


def timed_loop(wl, seconds: float | None, count: int | None = None):
    """Run ops from index 0, for ``seconds`` or for exactly ``count`` ops.

    An op that raises is recorded and the loop goes on.
    """
    times, outputs, errors = [], [], []
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        t0 = clock()
        try:
            out, err = wl.op(i), None
        except Exception as exc:  # one failed op must not end the run
            out, err = None, f"{type(exc).__name__}: {exc}"
        times.append(clock() - t0)
        outputs.append(out)
        errors.append(err)
        i += 1
        if count is not None:
            if i >= count:
                break
        elif i % wl.pass_len == 0 and clock() - start >= seconds:
            break
    return times, outputs, errors, clock() - start


def check_all(wl, outputs, errors) -> list[str | None]:
    """Failure reason per op, ``None`` where the op passed its check."""
    reasons = []
    for i, (out, err) in enumerate(zip(outputs, errors)):
        if err is None:
            try:
                err = wl.check(i, out)
            except Exception as exc:  # a malformed output fails its op
                err = f"check raised {type(exc).__name__}: {exc}"
        reasons.append(err)
    return reasons


def machine() -> dict:
    import numpy as np

    blas = {}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload](args.seed, workdir)
        try:
            wl.op(0)  # warm-up, not counted
        except Exception as exc:  # the timed loop counts it when it recurs
            print(f"warm-up op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = run(wl, args)
        result["setup_s"] = setup_s
        result["machine"] = machine()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(wl, args) -> dict:
    times, outputs, errors, wall = timed_loop(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reasons = check_all(wl, outputs, errors)
    result = {
        "op_times": times,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "failures": {i: r for i, r in enumerate(reasons) if r is not None},
    }
    if args.trace:
        result["layers"] = traced(wl, sum(times[:wl.pass_len]), args.workload)
    return result


def traced(wl, untraced_s: float, workload: str) -> dict:
    """Replay the first pass (``wl.pass_len`` ops) with wrappers installed.

    ``untraced_s`` is the untraced time of the same ops. Raises when a
    traced function is not found, so that a renamed function fails the run
    instead of reading as zero calls.
    """
    import layers
    from spans import Tracer

    count = wl.pass_len
    tracer = Tracer()
    try:
        missing = layers.install(tracer)
        if missing:
            raise RuntimeError(f"traced functions not found: {missing}")
        times, outputs, errors, wall = timed_loop(wl, None, count)
    finally:
        tracer.remove()
    reasons = check_all(wl, outputs, errors)
    out = layers.metrics(tracer)
    brackets = getattr(wl, "stage_brackets", lambda output: [])
    stages = [b for o in outputs if o is not None for b in brackets(o)]
    out["verifier.fixed_point.stages"] = len(stages)
    out["verifier.fixed_point.bracketed_ratio"] = (sum(stages) / len(stages)) if stages else 1.0
    out["trace.traced_ops_per_s"] = count / wall
    out["trace.untraced_ops_per_s"] = count / untraced_s
    out["trace.slowdown"] = wall / untraced_s
    out["trace.op_time_s"] = wall
    spans_path = OUT_DIR / f"{workload}-spans.npz"
    tracer.save(spans_path)
    return {
        "metrics": out,
        "op_times": times,
        "failures": {i: r for i, r in enumerate(reasons) if r is not None},
        "span_count": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time the package's layers on fixed seeded inputs and write BENCH_<label>.json.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/bench.py --label NAME [--repeats N] [--out DIR]

Each item is timed ``--repeats`` times with ``time.perf_counter`` after one
untimed warm-up call (which builds the cached quadrature grids), and its
median is reported in seconds:

- ``stage_walk``: the top converse stage's one walk, ``mixture_level_quad``
  with J at its noise and the 15 nodes of the line integral's first G7/K15
  rule, and the entropies, h(Y) included, at its two noises;
- ``label_stage``: the label stage's one level, the same call on the
  diagonal table of U_2 at the lower stage's 17 noises, without h(Y): closed
  forms that walk no grid;
- ``fixed_point``: one ``solve_fixed_point``;
- ``line_integral``: one ``matrix_line_integral`` of the field;
- ``walkthrough``: one full ``converse_walkthrough``;
- ``boundary_point``: one ``trace_boundary`` weight vector, w = (0.6, 0.8),
  where both users get power and the ascent runs;
- ``closed_form_point``: one ``trace_boundary`` weight vector, w = (0.8, 0.6),
  where user 1 takes the whole cap and no ascent runs;
- ``interior_point``: one ``trace_boundary`` weight vector on the second
  channel of the ``region`` workload, w = (cos 54 deg, sin 54 deg), whose
  maximum is interior, so the ascent takes Newton steps there;
- ``rate_tuple``: one ``rate_tuple`` of the split traced at w = (0.6, 0.8);
- ``grid_oracle``: ``grid_oracle`` at resolution 21;
- ``decoupled_point``: one ``trace_boundary`` weight vector with all three
  users getting power, w = (0.25, 0.33, 0.42), on the rotated 2x2 channel of
  ``decoupled_channel(rng_for(11, 3, 5), 2, 3)``, whose exact boundary
  ``decoupled_boundary`` gives: a two-link chain, solved by one log-barrier
  Newton solve, which no ``region`` workload point runs;
- ``control``: fixed NumPy work that does not use the package (a 256 x 256
  matmul, an elementwise exponential and a Cholesky factorization).

The speed of one process drifts on a shared machine: an unchanged item has
read 1.7x faster in one process than in the next. So the output also gives
each median divided by the control's (``relative_to_control``), and two
files are compared by those ratios, not by their raw medians.

The converse inputs are the first instance of the ``converse`` benchmark
workload at seed 11 (K = 3, n = 3, two-value auxiliaries); the region inputs
are the first 2-user 2x2 channel of the ``region`` workload (the second for
``interior_point``), with its optimizer seed 42. The output also records the machine:
nproc, Python, NumPy and the BLAS thread settings of the environment, which
the timings depend on, and ``grid_nodes``: the nodes of the pruned
quadrature grid at the default order for n = 1, 2, 3, which the quadrature
items' times scale with. To compare two checkouts, run this script from each
with ``PYTHONPATH`` at that checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from mimobc import estimators, matrices, verifier
from mimobc.estimators import mixture_fisher_quad, mixture_level_quad
from mimobc.fixtures import (
    admissible_channel_for,
    decoupled_channel,
    random_channel,
    random_hierarchy,
    rng_for,
)
from mimobc.model import aggregate_covariance, coarsen
from mimobc.region import OptimizerConfig, grid_oracle, rate_tuple, trace_boundary

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def items() -> dict:
    """The timed calls, by name, each a function of no arguments."""
    rng = rng_for(11, 2, 0)
    h = random_hierarchy(rng, 3, (2, 2))
    ch = admissible_channel_for(aggregate_covariance(h.base), rng, 3)
    joint, label = coarsen(h, 3), coarsen(h, 2)
    nodes = matrices._kronrod_rule()[0][:, None, None]
    sigma_prev, sigma = ch.noise_covs[1], ch.noise_covs[2]
    stages = np.stack([sigma, sigma_prev])
    field_stack = sigma_prev + nodes * (sigma - sigma_prev)
    fisher_stack = np.concatenate([sigma[None], field_stack])
    label_stages = np.stack([sigma_prev, ch.noise_covs[0]])
    label_fisher = np.concatenate(
        [sigma_prev[None], ch.noise_covs[0] + nodes * (sigma_prev - ch.noise_covs[0])])

    def field(sigmas):
        return mixture_fisher_quad(h.base, sigmas, joint=joint)

    region_ch = random_channel(rng_for(1002, 0), 2, 2)
    opt = OptimizerConfig(seed=42)
    weights = [np.array([0.6, 0.8])]
    closed_form = [np.array([0.8, 0.6])]
    interior_ch = random_channel(rng_for(1002, 1), 2, 2)
    interior = [np.array([math.cos(math.radians(54.0)), math.sin(math.radians(54.0))])]
    _, decoupled_ch = decoupled_channel(rng_for(11, 3, 5), 2, 3)
    all_active = [np.array([0.25, 0.33, 0.42])]
    (split, _), = trace_boundary(region_ch, weights, opt)
    return {
        "stage_walk": lambda: mixture_level_quad(h.base, fisher_stack, stages, joint),
        "label_stage": lambda: mixture_level_quad(
            h.base, label_fisher, label_stages, label, unconditional=False),
        "fixed_point": lambda: verifier.solve_fixed_point(h.base, ch, 3, ch.input_cap),
        "line_integral": lambda: matrices.matrix_line_integral(
            field, sigma_prev, sigma, verifier._INTEGRAL_TOL),
        "walkthrough": lambda: verifier.converse_walkthrough(h, ch),
        "boundary_point": lambda: trace_boundary(region_ch, weights, opt),
        "closed_form_point": lambda: trace_boundary(region_ch, closed_form, opt),
        "interior_point": lambda: trace_boundary(interior_ch, interior, opt),
        "rate_tuple": lambda: rate_tuple(region_ch, split),
        "grid_oracle": lambda: grid_oracle(region_ch, 21),
        "decoupled_point": lambda: trace_boundary(decoupled_ch, all_active, opt),
        "control": control,
    }


_CONTROL = np.random.default_rng(0).standard_normal((256, 256))


def control() -> np.ndarray:
    """Fixed NumPy work of the kinds the package spends its time on."""
    x = _CONTROL @ _CONTROL.T
    np.exp(x / 256.0, out=x)
    return np.linalg.cholesky(x @ x.T + 256.0 * np.eye(256))


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
    }


def grid_nodes() -> dict:
    """n -> nodes of the pruned grid at the default quadrature order."""
    return {n: len(estimators._gh_grid(n, order)[1]) for n, order in estimators._DEFAULT_QUAD_ORDER.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--repeats", type=int, default=20, help="timed calls per item (default 20)")
    ap.add_argument("--out", type=Path, default=Path("."), help="output directory (default .)")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    medians = {}
    for name, call in items().items():
        call()
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        medians[name] = statistics.median(times)
        print(f"{name:18s} {medians[name] * 1e3:10.3f} ms")

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    doc = {"label": args.label, "repeats": args.repeats, "machine": machine(),
           "grid_nodes": grid_nodes(), "median_s": medians,
           "relative_to_control": {k: t / medians["control"] for k, t in medians.items()}}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

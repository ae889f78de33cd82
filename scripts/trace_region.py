#!/usr/bin/env python3
"""Trace the rate-region boundary of a small example channel.

Runs the projected-gradient boundary tracer against the brute-force grid
oracle on a two-user, two-antenna channel and prints both, so the optimizer
quality is visible at a glance. Intended as a runnable starting point for
experiments; edit the channel below or pass --grid/--seed.
"""

import argparse

import numpy as np

from mimobc.fixtures import random_channel, rng_for
from mimobc.region import OptimizerConfig, grid_oracle, trace_boundary


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=9, help="number of weight vectors")
    ap.add_argument("--seed", type=int, default=0, help="channel and optimizer seed")
    ap.add_argument("--oracle-resolution", type=int, default=31)
    args = ap.parse_args()

    ch = random_channel(rng_for(args.seed), 2, 2)
    print("noise covariance 1:\n", ch.noise_covs[0])
    print("noise covariance 2:\n", ch.noise_covs[1])
    print("input cap:\n", ch.input_cap)

    thetas = np.linspace(0.0, np.pi / 2.0, args.grid)
    weights = [(float(np.cos(t)), float(np.sin(t))) for t in thetas]
    results = trace_boundary(ch, weights, OptimizerConfig(seed=args.seed))
    oracle = grid_oracle(ch, args.oracle_resolution)

    print(f"\n{'w_1':>8} {'w_2':>8} {'R_1':>12} {'R_2':>12} {'oracle gap':>12}")
    for w, (_, rates) in zip(weights, results):
        best = max(float(np.dot(w, r)) for _, r in oracle)
        gap = float(np.dot(w, rates)) - best
        print(f"{w[0]:8.4f} {w[1]:8.4f} {rates[0]:12.8f} {rates[1]:12.8f} {gap:12.2e}")


if __name__ == "__main__":
    main()

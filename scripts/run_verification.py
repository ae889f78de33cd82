#!/usr/bin/env python3
"""Run the full inequality suite and a converse walkthrough on one fixture.

Uses the hand-checked two-component scalar source on a 2-user channel by
default; --users 3 switches to a randomly drawn three-level hierarchy. Every
report is printed with its residuals, so this doubles as a quick smoke test
and as a template for verifying custom sources.
"""

import argparse

from mimobc import fixtures
from mimobc.model import aggregate_covariance
from mimobc.verifier import converse_walkthrough, run_inequality_suite


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--users", type=int, default=2, choices=(2, 3))
    ap.add_argument("--seed", type=int, default=42, help="seed of the --users 3 hierarchy")
    args = ap.parse_args()

    if args.users == 2:
        thing = fixtures.two_component_scalar_source()
        ch = fixtures.scalar_channel(S=2.5)
        src, hierarchy = thing, None
    else:
        rng = fixtures.rng_for(args.seed)
        thing = fixtures.random_hierarchy(rng, 1, (3, 2))
        ch = fixtures.admissible_channel_for(aggregate_covariance(thing.base), rng, 3)
        src, hierarchy = thing.base, thing

    print("== inequality suite ==")
    for rep in run_inequality_suite(src, ch=ch, hierarchy=hierarchy):
        flag = "PASS" if rep.passed else "FAIL"
        print(f"{rep.name:24s} {flag}")
        for r in rep.residuals:
            print(f"    {r.label:40s} {r.value: .3e} [{r.kind}]")

    print("\n== converse walkthrough ==")
    rep = converse_walkthrough(thing, ch)
    for stage in rep.stages:
        print(
            f"stage user {stage.user_index}: t*={stage.t_star:.6f}  "
            f"entropy match {stage.entropy_match_residual: .2e}  "
            f"sandwich ({stage.sandwich_lower_residual: .2e}, "
            f"{stage.sandwich_upper_residual: .2e})"
        )
    print("achieved rates:", [f"{r:.8f}" for r in rep.achieved_rates])
    print("region rates:  ", [f"{r:.8f}" for r in rep.region_rates])
    domination = next(r for r in rep.reports if r.name == "domination")
    print("domination:", "PASS" if domination.passed else "FAIL")
    for r in domination.residuals:
        print(f"    {r.label:40s} {r.value: .3e} [{r.kind}]")
    print("overall:", "PASS" if rep.passed else "FAIL")


if __name__ == "__main__":
    main()

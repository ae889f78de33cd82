"""Command-line front end.

Subcommands and the flags each one reads:
  region INPUT       boundary CSV of the superposition rate region for a
                     channel, one row per weight vector (a quarter circle for
                     two users); --seed --grid --bits --output
  verify INPUT       run the full inequality suite on a source, emit JSON
                     reports; --tol --output
  walkthrough INPUT  replay the converse chain on a channel + source/hierarchy
                     by quadrature, emit a JSON report; --bits --output
  selftest           run the built-in acceptance checks on bundled fixtures,
                     the tracer against an exact boundary among them; --seed --tol

Every command reads its channel through ``model.channel_from_dict``, so a
channel that is not degraded, or whose first noise or cap is not positive
definite, exits 2 by the one rule of ``model.BroadcastChannel``.
``verify`` and ``walkthrough`` also reject a source of a dimension the
quadrature does not support (n > 3) or other than the channel's, and
``walkthrough`` one whose hierarchy depth is not the channel's user count
(a plain source has depth 2; ``verifier.converse_walkthrough`` checks it).

Exit codes: 0 all checks pass, 1 a mathematical check failed or the
numerics diverged (``region`` when the tracer's kept ascent was capped at
its iteration cap, or its barrier solve was capped or stalled), 2 invalid
input or configuration, which includes every ``errors.DomainError`` an
input leads to (a singular or indefinite matrix, a dimension mismatch, a
broken Loewner order) and a ``MemoryError``: an input too large for the
machine's memory. Outputs are byte-identical for identical inputs, seeds
and flags.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import fixtures, verifier
from .errors import DomainError, InputFormatError, NumericalError
from .estimators import _quad_order, mixture_entropy_quad
from .model import (
    MarkovHierarchy,
    MixtureSource,
    aggregate_covariance,
    channel_from_dict,
    gaussian_entropy,
    hierarchy_from_dict,
    source_from_dict,
)
from .region import (
    CovarianceSplit,
    OptimizerConfig,
    decoupled_boundary,
    rate_tuple,
    trace_boundary,
)

LN2 = math.log(2.0)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read input: {exc}")
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"malformed JSON: {exc}")
    if not isinstance(obj, dict):
        raise InputFormatError("top-level JSON value must be an object")
    return obj


def _write(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _weight_sweep(num_users: int, grid: int) -> list[tuple[float, ...]]:
    """Quarter-circle sweep of ``grid`` points for two users; for more, the
    smallest simplex grid {c / g : c_1 + ... + c_K = g} with at least
    ``grid`` points, c in lexicographic order (the bars of stars and bars)."""
    if num_users == 2:
        thetas = np.linspace(0.0, math.pi / 2.0, grid)
        return [(math.cos(t), math.sin(t)) for t in thetas]
    g = 1
    while math.comb(g + num_users - 1, num_users - 1) < grid:
        g += 1
    top = g + num_users - 1
    return [
        tuple((b - a - 1) / g for a, b in zip((-1, *bars), (*bars, top)))
        for bars in itertools.combinations(range(top), num_users - 1)
    ]


def _rates_csv(weight_list, results, bits: bool) -> str:
    K = len(weight_list[0])
    header = ",".join([f"w_{k + 1}" for k in range(K)] + [f"R_{k + 1}" for k in range(K)])
    lines = [header]
    scale = 1.0 / LN2 if bits else 1.0
    for w, (_, rates) in zip(weight_list, results):
        row = [f"{x:.12g}" for x in w] + [f"{r * scale:.12g}" for r in rates]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _extract_channel(obj: dict):
    """The channel, top level or under "channel"."""
    return channel_from_dict(obj["channel"] if "channel" in obj else obj)


def _extract_source_or_hierarchy(obj: dict, ch=None):
    """The source or hierarchy, rejected unless the quadrature supports its
    dimension and, given a channel, the dimensions agree."""
    if "hierarchy" in obj:
        thing = hierarchy_from_dict(obj["hierarchy"])
    elif "source" in obj:
        d = obj["source"]
        has_tables = isinstance(d, dict) and "transitions" in d
        thing = hierarchy_from_dict(d) if has_tables else source_from_dict(d)
    else:
        raise InputFormatError("input must contain a 'source' or 'hierarchy' object")
    try:  # both commands that read a source need its quadrature
        _quad_order(thing.dim, None)
    except ValueError as exc:
        raise InputFormatError(str(exc))
    if ch is not None and thing.dim != ch.dim:
        raise InputFormatError(
            f"source dimension {thing.dim} does not match channel dimension {ch.dim}"
        )
    return thing


def cmd_region(cfg) -> int:
    obj = _load_json(cfg.input)
    ch = _extract_channel(obj)
    weights = _weight_sweep(ch.num_users, cfg.grid)
    opt = OptimizerConfig(seed=cfg.seed)
    results = trace_boundary(ch, weights, opt)
    _write(_rates_csv(weights, results, cfg.bits), cfg.output)
    return 0


def cmd_verify(cfg) -> int:
    obj = _load_json(cfg.input)
    ch = _extract_channel(obj) if "channel" in obj else None
    thing = _extract_source_or_hierarchy(obj, ch)
    if isinstance(thing, MarkovHierarchy):
        src, hierarchy = thing.base, thing
    else:
        src, hierarchy = thing, None
    reports = verifier.run_inequality_suite(src, ch=ch, hierarchy=hierarchy, tol=cfg.tol)
    payload = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
    _write(payload, cfg.output)
    return 0 if all(r.passed for r in reports) else 1


def cmd_walkthrough(cfg) -> int:
    obj = _load_json(cfg.input)
    ch = _extract_channel(obj)
    thing = _extract_source_or_hierarchy(obj, ch)
    report = verifier.converse_walkthrough(thing, ch)
    d = report.to_dict()
    if cfg.bits:
        d["achieved_rates_bits"] = [r / LN2 for r in report.achieved_rates]
        d["region_rates_bits"] = [r / LN2 for r in report.region_rates]
    payload = json.dumps(d, indent=2, sort_keys=True) + "\n"
    _write(payload, cfg.output)
    return 0 if report.passed else 1


def _selftest_checks(cfg):
    """Curated fixture checks; yields (name, passed) pairs."""
    tol = cfg.tol
    ch = fixtures.scalar_channel()
    split = CovarianceSplit(parts=(np.array([[0.5]]), np.array([[0.5]])))
    r = rate_tuple(ch, split)
    yield (
        "scalar_rate_exactness",
        abs(r[0] - 0.5 * math.log(1.5)) < 1e-12 and abs(r[1] - 0.5 * math.log(1.2)) < 1e-12,
    )
    diag, rotated = fixtures.decoupled_channel(fixtures.rng_for(cfg.seed, 78), 2, 3)
    weights = [(0.25, 0.33, 0.42), (0.3, 0.5, 0.2)]
    traced = trace_boundary(rotated, weights, OptimizerConfig(seed=cfg.seed))
    oracle = decoupled_boundary(diag, weights)
    gaps = [np.dot(w, r) - np.dot(w, e) for w, (_, r), e in zip(weights, traced, oracle)]
    # the tracer's stop rules (tests/conftest.py derives both bounds), with
    # n = 2, w_max <= 0.5 and kappa <= 2.0 / 0.5 on this fixture: the
    # two-user point's ascent leaves w.R within 1e-8 sqrt(c n) (1 + w_max
    # kappa / 2) of the maximum, c = 1; the three-user point's barrier within
    # 2e-12, far less
    yield ("decoupled_boundary_agreement", max(map(abs, gaps)) <= 1e-8 * math.sqrt(2.0) * 2.0)

    gsrc = fixtures.gaussian_source(np.array([[0.8]]))
    msrc = fixtures.two_component_scalar_source()
    for name, src in [("gaussian_fixture", gsrc), ("mixture_fixture", msrc)]:
        reports = verifier.run_inequality_suite(src, ch=ch, tol=tol)
        yield (f"inequality_suite_{name}", all(rep.passed for rep in reports))

    fp = verifier.solve_fixed_point(gsrc, ch, 2, ch.input_cap)
    yield ("fixed_point_gaussian_t0", fp.t_star == 0.0 and abs(fp.A[0, 0] - 0.8) < 1e-8)

    wt = verifier.converse_walkthrough(msrc, fixtures.scalar_channel(S=2.5))
    yield ("walkthrough_two_user", wt.passed)
    wt_g = verifier.converse_walkthrough(fixtures.gaussian_source(np.array([[1.0]])), ch)
    tight = max(abs(a - r) for a, r in zip(wt_g.achieved_rates, wt_g.region_rates)) < 1e-6
    yield ("walkthrough_gaussian_tight", wt_g.passed and tight)

    rng = fixtures.rng_for(cfg.seed, 77)
    h3 = fixtures.random_hierarchy(rng, 1, (3, 2))
    ch3 = fixtures.admissible_channel_for(aggregate_covariance(h3.base), rng, 3)
    wt3 = verifier.converse_walkthrough(h3, ch3)
    yield ("walkthrough_three_user", wt3.passed)

    h_quad = mixture_entropy_quad(gsrc, np.array([[0.2]]))
    exact = gaussian_entropy(np.array([[1.0]]))
    yield ("quad_entropy_gaussian", abs(h_quad - exact) <= 1e-10)

    # equality case with genuine round-off: exercises the tolerance plumbing
    eq_src = MixtureSource(
        weights=np.array([1.0 / 3.0, 2.0 / 3.0]),
        means=np.array([[0.0, 0.0], [1.0, 0.5]]),
        comp_covs=np.stack([np.array([[1.3, 0.4], [0.4, 0.9]])] * 2),
    )
    yield (
        "equality_case_tolerance",
        verifier.check_cramer_rao(eq_src, np.eye(2), tol=tol).passed,
    )


def cmd_selftest(cfg) -> int:
    failures = 0
    for name, ok in _selftest_checks(cfg):
        print(f"{name:32s} {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures += 1
    print(f"{'selftest':32s} {'PASS' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 1


def _at_least_two(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {value}")
    return value


def _nonnegative(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


_FLAGS = {
    "--seed": dict(type=int, default=42, help="random seed (default 42)"),
    "--tol": dict(type=_nonnegative, default=1e-8, help="check tolerance (default 1e-8)"),
    "--grid": dict(type=_at_least_two, default=101,
                   help="number of weight vectors for two users; for more, the "
                   "smallest simplex grid with at least that many (default 101)"),
    "--bits": dict(action="store_true", help="report rates in bits"),
    "--output": dict(default=None, help="output path (default stdout)"),
}

_COMMANDS = [
    ("region", cmd_region, True, ("--seed", "--grid", "--bits", "--output")),
    ("verify", cmd_verify, True, ("--tol", "--output")),
    ("walkthrough", cmd_walkthrough, True, ("--bits", "--output")),
    ("selftest", cmd_selftest, False, ("--seed", "--tol")),
]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mimobc",
        description="Degraded Gaussian vector broadcast channel: rate region "
        "computation and numerical verification of the Fisher-information converse.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, needs_input, flags in _COMMANDS:
        sp = sub.add_parser(name)
        if needs_input:
            sp.add_argument("input", help="path to the input JSON file")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return cfg.fn(cfg)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: the input is too large for this machine",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

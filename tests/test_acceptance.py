"""Acceptance suite: ten criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; under plain pytest the lines appear in the captured output of any
failing criterion. Total runtime is kept well under five minutes.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mimobc import matrices as mat
from mimobc.estimators import (
    entropy_conditional,
    mixture_entropy_quad,
    mixture_fisher_quad,
)
from mimobc.fixtures import (
    admissible_channel_for,
    admissible_mixture_for,
    gaussian_source,
    random_channel,
    random_hierarchy,
    random_mixture,
    random_spd,
    rng_for,
    scalar_channel,
    two_component_scalar_source,
)
from mimobc.model import (
    LOG_2PI_E,
    MarkovHierarchy,
    aggregate_covariance,
    gaussian_entropy,
)
from mimobc.region import (
    CovarianceSplit,
    OptimizerConfig,
    grid_oracle,
    rate_tuple,
    trace_boundary,
)
from mimobc.verifier import (
    check_cramer_rao,
    check_debruijn,
    check_dembo,
    check_f_epsilon,
    check_fisher_convolution,
    check_fisher_dpi,
    check_fisher_shift,
    check_line_integral_entropy,
    converse_walkthrough,
    solve_fixed_point,
)

EPS_GRID = (1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {name:38s} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_scalar_exactness():
    ch = scalar_channel()
    r = rate_tuple(ch, CovarianceSplit((np.array([[0.5]]), np.array([[0.5]]))))
    err_pinned = max(abs(r[0] - 0.2027325541), abs(r[1] - 0.0911607784))
    err_sweep = 0.0
    for a in np.linspace(0.0, 1.0, 101):
        # user 1 takes power a over noise 1, user 2 the rest over a + noise 2
        p = (0.5 * math.log((a + 1.0) / 1.0), 0.5 * math.log((1.0 + 2.0) / (a + 2.0)))
        q = rate_tuple(ch, CovarianceSplit((np.array([[a]]), np.array([[1.0 - a]]))))
        err_sweep = max(err_sweep, max(abs(x - y) for x, y in zip(p, q)))
    ok = err_pinned <= 1e-9 and err_sweep <= 1e-12
    _report(1, "scalar region exactness", ok,
            f"pinned err {err_pinned:.2e}, sweep err {err_sweep:.2e}")


def test_criterion_02_oracle_optimizer_agreement():
    worst = np.inf
    thetas = np.linspace(0.0, math.pi / 2.0, 11)
    weights = [(math.cos(t), math.sin(t)) for t in thetas]
    for trial in range(5):
        rng = rng_for(1002, trial)
        ch = random_channel(rng, 2, 2)
        oracle = np.array([r for _, r in grid_oracle(ch, 41)])
        results = trace_boundary(ch, weights, OptimizerConfig(seed=trial))
        for w, (_, rates) in zip(weights, results):
            best = float(np.max(oracle @ np.asarray(w)))
            worst = min(worst, float(np.dot(w, rates)) - best)
    ok = worst >= -1e-3
    _report(2, "oracle-optimizer agreement", ok, f"worst margin {worst:.2e}")


def test_criterion_03_entropy_gradient_identity():
    worst = 0.0
    count = 0
    for n in (1, 2, 3):
        for trial in range(7):
            rng = rng_for(1003, n, trial)
            src = random_mixture(rng, n, 2)
            sigma = random_spd(rng, n, 0.8, 1.5)
            rep = check_debruijn(src, sigma, tol=1e-6)
            worst = max(worst, max(abs(r.value) for r in rep.residuals))
            count += 1
            if count >= 20:
                break
    ok = worst <= 1e-6
    _report(3, "entropy gradient vs Fisher matrix", ok, f"max residual {worst:.2e}")


def test_criterion_04_inequality_suite():
    worst_ineq = np.inf
    for n in (1, 2, 3):
        for trial in range(100):
            rng = rng_for(1004, n, trial)
            src = random_mixture(rng, n, 2)
            a = random_spd(rng, n, 0.6, 1.4)
            b = a + random_spd(rng, n, 0.2, 1.0)
            reps = [
                check_cramer_rao(src, a, tol=1e-8),
                check_fisher_shift(src, a, b, tol=1e-8),
                check_dembo(src, a, tol=1e-8),
                check_fisher_convolution(src, a, b, tol=1e-8),
            ]
            # data processing on a genuine two-table hierarchy
            h = random_hierarchy(rng, n, (3, 2))
            reps.append(check_fisher_dpi(h, 2, 3, a, tol=1e-8))
            for rep in reps:
                assert rep.passed, rep.to_dict()
                worst_ineq = min(
                    worst_ineq,
                    min(r.value for r in rep.residuals if r.kind == "ineq"),
                )
    # Gaussian equality cases
    worst_eq = 0.0
    for n in (1, 2, 3):
        rng = rng_for(1014, n)
        C = random_spd(rng, n, 0.8, 1.5)
        g = gaussian_source(C)
        a = random_spd(rng, n, 0.8, 1.5)
        b = a + random_spd(rng, n, 0.2, 1.0)
        gaps = [
            check_cramer_rao(g, a).residual("equality_gap_rel"),
            check_fisher_shift(g, a, b).residuals[0].value,
            check_dembo(g, a).residual("equality_gap"),
            check_fisher_convolution(g, a, b).residuals[0].value,
        ]
        # relabeling the auxiliary through a permutation table keeps the
        # conditional Fisher matrix unchanged
        src = random_mixture(rng, n, 2)
        perm = MarkovHierarchy(
            base=src,
            tables=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
            top_weights=src.weights[::-1].copy(),
        )
        gaps.append(check_fisher_dpi(perm, 2, 3, a).residuals[0].value)
        worst_eq = max(worst_eq, max(abs(v) for v in gaps))
    ok = worst_ineq >= -1e-8 and worst_eq <= 1e-8
    _report(4, "inequality suite (300 instances)", ok,
            f"worst min-eig {worst_ineq:.2e}, worst equality gap {worst_eq:.2e}")


def test_criterion_05_matrix_integral_identity():
    worst = 0.0
    for trial in range(20):
        rng = rng_for(1005, trial)
        n = int(rng.integers(1, 4))
        src = random_mixture(rng, n, 2)
        a = random_spd(rng, n, 0.6, 1.4)
        b = a + random_spd(rng, n, 0.2, 1.0)
        rep = check_line_integral_entropy(src, a, b, tol=1e-6)
        assert rep.passed, rep.to_dict()
        worst = max(worst, abs(rep.residual("integral_minus_entropy_gap")))
    ok = worst <= 1e-6
    _report(5, "matrix integral entropy identity", ok, f"max gap {worst:.2e}")


def test_criterion_06_fixed_point():
    worst_match, worst_sand = 0.0, np.inf
    for trial in range(50):
        rng = rng_for(1006, trial)
        n = int(rng.integers(1, 3))
        ch = random_channel(rng, n, 2)
        src = admissible_mixture_for(ch, rng, 2)
        res = solve_fixed_point(src, ch, 2, ch.input_cap)
        assert res.bracketed
        worst_match = max(worst_match, abs(res.entropy_match_residual))
        worst_sand = min(worst_sand, res.sandwich_lower_residual,
                         res.sandwich_upper_residual)
    for trial in range(20):
        rng = rng_for(1016, trial)
        h = random_hierarchy(rng, 1, (3, 2))
        ch = admissible_channel_for(aggregate_covariance(h.base), rng, 3)
        for k in (2, 3):
            res = solve_fixed_point(h.base, ch, k, ch.input_cap)
            worst_match = max(worst_match, abs(res.entropy_match_residual))
            worst_sand = min(worst_sand, res.sandwich_lower_residual,
                             res.sandwich_upper_residual)
    # single-component sources: t* = 0 and A recovers the source covariance
    worst_single = 0.0
    for trial in range(10):
        rng = rng_for(1026, trial)
        n = int(rng.integers(1, 4))
        C = random_spd(rng, n, 0.5, 1.2)
        ch = admissible_channel_for(C, rng, 2)
        res = solve_fixed_point(gaussian_source(C), ch, 2, ch.input_cap)
        worst_single = max(
            worst_single, res.t_star, float(np.max(np.abs(res.A - C)))
        )
    ok = worst_match <= 1e-10 and worst_sand >= -1e-8 and worst_single <= 1e-8
    _report(6, "fixed point solver", ok,
            f"match {worst_match:.2e}, sandwich {worst_sand:.2e}, "
            f"single-component {worst_single:.2e}")


def test_criterion_07_converse_domination():
    worst_gap = np.inf
    for trial in range(100):
        rng = rng_for(1007, trial)
        n = int(rng.integers(1, 3))
        ch = random_channel(rng, n, 2)
        src = admissible_mixture_for(ch, rng, 2)
        rep = converse_walkthrough(src, ch)
        assert rep.passed, [r.to_dict() for r in rep.reports]
        domination = next(r for r in rep.reports if r.name == "domination")
        worst_gap = min(worst_gap, min(r.value for r in domination.residuals))
    for trial in range(20):
        rng = rng_for(1017, trial)
        h = random_hierarchy(rng, 1, (3, 2))
        ch = admissible_channel_for(aggregate_covariance(h.base), rng, 3)
        rep = converse_walkthrough(h, ch)
        assert rep.passed, [r.to_dict() for r in rep.reports]
    # Gaussian instances saturate the cap: domination is tight
    worst_tight = 0.0
    for trial in range(10):
        rng = rng_for(1027, trial)
        n = int(rng.integers(1, 3))
        ch = random_channel(rng, n, 2)
        rep = converse_walkthrough(gaussian_source(ch.input_cap.copy()), ch)
        assert rep.passed
        worst_tight = max(
            worst_tight,
            max(abs(a - r) for a, r in zip(rep.achieved_rates, rep.region_rates)),
        )
    ok = worst_gap >= 0.0 and worst_tight <= 1e-6
    _report(7, "converse walkthrough domination", ok,
            f"min slack margin {worst_gap:.2e}, tight gap {worst_tight:.2e}")


def test_criterion_08_deficit_function():
    ok = True
    detail = []
    for trial in range(20):
        rng = rng_for(1008, trial)
        n = int(rng.integers(1, 4))
        src = random_mixture(rng, n, 2)
        sigma = random_spd(rng, n, 0.8, 1.5)
        rep = check_f_epsilon(src, sigma, EPS_GRID, tol=1e-9)
        assert rep.passed, rep.to_dict()
        # explicit tail magnitude
        J0inv = mat.inv_pd(
            np.einsum("u,uij->ij", src.weights,
                      np.stack([mat.inv_pd(C) for C in src.comp_covs]))
        )
        tail = entropy_conditional(src, 1000.0 * sigma) - 0.5 * (
            n * LOG_2PI_E + mat.logdet(J0inv + 1000.0 * sigma)
        )
        if abs(tail) > 5e-3:
            ok = False
            detail.append(f"tail {tail:.2e}")
    # single-component: the deficit vanishes identically
    worst_g = 0.0
    for trial in range(5):
        rng = rng_for(1018, trial)
        n = int(rng.integers(1, 4))
        C = random_spd(rng, n, 0.5, 1.5)
        sigma = random_spd(rng, n, 0.8, 1.5)
        for e in EPS_GRID:
            f = gaussian_entropy(C + e * sigma) - 0.5 * (
                n * LOG_2PI_E + mat.logdet(C + e * sigma)
            )
            worst_g = max(worst_g, abs(f))
    if worst_g > 1e-10:
        ok = False
    _report(8, "entropy deficit f(eps)", ok,
            f"single-component max {worst_g:.2e}" + ("; " + "; ".join(detail) if detail else ""))


def _monte_carlo(src, noise, samples, seed):
    """Independent Monte Carlo reference for Y = X + N: (h, se_h, J, se_J),
    with entrywise standard errors. Draws come from a plain NumPy generator;
    density and score use each component's precision matrix directly."""
    rng = np.random.default_rng(seed)
    n = src.dim
    covs = [C + noise for C in src.comp_covs]
    precs = [np.linalg.inv(C) for C in covs]
    labels = rng.choice(len(src.weights), size=samples, p=src.weights)
    z = rng.standard_normal((samples, n))
    y = np.empty((samples, n))
    for u, C in enumerate(covs):
        at = labels == u
        y[at] = src.means[u] + z[at] @ np.linalg.cholesky(C).T
    diffs = [y - mu for mu in src.means]
    logs = np.stack([
        math.log(p) - 0.5 * (n * math.log(2 * math.pi) + np.linalg.slogdet(C)[1])
        - 0.5 * np.einsum("Ni,ij,Nj->N", d, P, d)
        for p, C, d, P in zip(src.weights, covs, diffs, precs)
    ], axis=1)
    top = logs.max(axis=1, keepdims=True)
    post = np.exp(logs - top)
    total = post.sum(axis=1, keepdims=True)
    post /= total
    neg_logf = -(top + np.log(total))[:, 0]
    s = -sum(post[:, [v]] * (d @ P) for v, (d, P) in enumerate(zip(diffs, precs)))
    outer = np.einsum("Ni,Nj->Nij", s, s)
    root = math.sqrt(samples)
    return (float(neg_logf.mean()), float(neg_logf.std(ddof=1)) / root,
            outer.mean(axis=0), outer.std(axis=0, ddof=1) / root)


def test_criterion_09_quadrature_vs_monte_carlo():
    # the scalar fixture and three 3-component mixtures per dimension,
    # each compared at 200,000 draws: |quad - MC| <= 4 standard errors for h
    # and for every entry of J
    cases = [(two_component_scalar_source(), np.eye(1))]
    for n in (1, 2, 3):
        for trial in range(3):
            rng = rng_for(1009, n, trial)
            cases.append((random_mixture(rng, n, 3), random_spd(rng, n, 0.5, 1.5)))
    worst = 0.0
    for seed, (src, noise) in enumerate(cases):
        h, se_h, J, se_J = _monte_carlo(src, noise, 200_000, seed)
        z_h = abs(mixture_entropy_quad(src, noise) - h) / se_h
        z_J = np.max(np.abs(mixture_fisher_quad(src, noise) - J) / se_J)
        worst = max(worst, z_h, float(z_J))
    ok = worst <= 4.0
    _report(9, "quadrature vs Monte Carlo reference", ok,
            f"worst |z| {worst:.2f} over {len(cases)} mixtures")


def test_criterion_10_determinism_and_interface(tmp_path):
    cli = [sys.executable, "-m", "mimobc.cli"]

    def run(*args):
        return subprocess.run(cli + list(args), capture_output=True, text=True,
                              timeout=300)

    good = {
        "channel": {"noise_covs": [[[1.0]], [[2.0]]], "input_cap": [[2.5]]},
        "source": {
            "weights": [0.5, 0.5],
            "means": [[0.0], [0.5]],
            "comp_covs": [[[1.0]], [[3.0]]],
        },
    }
    bad_order = {
        "channel": {
            "noise_covs": [[[1.0, 0.0], [0.0, 3.0]], [[2.0, 0.0], [0.0, 2.0]]],
            "input_cap": [[1.0, 0.0], [0.0, 1.0]],
        }
    }
    strict = {
        "source": {
            "weights": [1 / 3, 2 / 3],
            "means": [[0.0, 0.0], [1.0, 0.5]],
            "comp_covs": [[[1.3, 0.4], [0.4, 0.9]], [[1.3, 0.4], [0.4, 0.9]]],
        }
    }
    p_good = tmp_path / "good.json"
    p_good.write_text(json.dumps(good))
    p_bad = tmp_path / "bad.json"
    p_bad.write_text(json.dumps(bad_order))
    p_strict = tmp_path / "strict.json"
    p_strict.write_text(json.dumps(strict))
    p_malformed = tmp_path / "malformed.json"
    p_malformed.write_text("{not json")

    checks = []
    v1 = run("verify", str(p_good))
    v2 = run("verify", str(p_good))
    checks.append(("verify byte-identical", v1.stdout == v2.stdout))
    checks.append(("verify exit 0", v1.returncode == 0))
    w1 = run("walkthrough", str(p_good))
    w2 = run("walkthrough", str(p_good))
    checks.append(("walkthrough byte-identical", w1.stdout == w2.stdout))
    checks.append(("walkthrough exit 0", w1.returncode == 0))
    checks.append(
        ("math failure exit 1",
         run("verify", str(p_strict), "--tol", "1e-300").returncode == 1)
    )
    checks.append(
        ("order violation exit 2", run("region", str(p_bad)).returncode == 2)
    )
    checks.append(
        ("malformed JSON exit 2", run("verify", str(p_malformed)).returncode == 2)
    )
    bad = [name for name, passed in checks if not passed]
    ok = not bad
    _report(10, "determinism and exit codes", ok,
            "all interface checks" if ok else "failed: " + ", ".join(bad))

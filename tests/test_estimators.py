import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mimobc.estimators import (
    entropy_conditional,
    fisher_conditional,
    mixture_entropy_quad,
    mixture_fisher_quad,
)
from mimobc import estimators
from mimobc.fixtures import (
    admissible_channel_for,
    gaussian_source,
    random_hierarchy,
    random_mixture,
    random_spd,
    rng_for,
    two_component_scalar_source,
)
from mimobc.model import (
    LOG_2PI_E,
    MarkovHierarchy,
    MixtureSource,
    aggregate_covariance,
    coarsen,
    gaussian_entropy,
)

# frozen oracle: J(X+N) for p=(1/2,1/2), component variances (1,3), unit noise,
# equal means — given the label the output is Gaussian, so J = E[1/(C_u+1)].
FISHER_COND_SCALAR = 0.375


def _kernel_log_densities(src, noise_cov, y):
    """(m, N) ln N(y; mu_w, C_w) of Y = X + N at the points y (rows), by the
    kernel's quadratic form on component 0's grid: y = mu_0 + L_0 z."""
    obs = estimators._ObservedLevel(src, noise_cov)
    y = np.atleast_2d(np.asarray(y, dtype=float))
    z = np.linalg.solve(obs.chols[0, 0], (y - src.means[0]).T).T
    F = estimators._features(z, *np.triu_indices(src.dim))
    return (obs.coefs(np.array([0])) @ F).reshape(src.num_components, -1)


def mixture_logpdf(src, noise_cov, y):
    """ln f(y) of Y = X + N at the points y (rows), by the kernel."""
    logs = _kernel_log_densities(src, noise_cov, y) + np.log(src.weights)[:, None]
    top = logs.max(axis=0)
    return top + np.log(np.exp(logs - top).sum(axis=0))


def _closed_form_reference(src, noise_cov):
    """(J, h) of Y = X + N given the label, one component at a time:
    sum_u p_u C_u^{-1} and sum_u p_u ln((2 pi e)^n |C_u|) / 2."""
    covs = src.comp_covs + noise_cov[None]
    J = sum(p * np.linalg.inv(C) for p, C in zip(src.weights, covs))
    h = sum(p * 0.5 * (src.dim * LOG_2PI_E + np.linalg.slogdet(C)[1])
            for p, C in zip(src.weights, covs))
    return J, h


class TestExactConditionals:
    def test_fisher_conditional_scalar(self):
        src = two_component_scalar_source()
        J = fisher_conditional(src, np.eye(1))
        assert J[0, 0] == pytest.approx(FISHER_COND_SCALAR, abs=1e-12)

    def test_fisher_conditional_gaussian(self):
        C = np.array([[2.0, 0.3], [0.3, 1.0]])
        src = gaussian_source(C)
        J = fisher_conditional(src, np.eye(2))
        assert np.allclose(J, np.linalg.inv(C + np.eye(2)), atol=1e-12)

    def test_entropy_conditional_gaussian(self):
        C = np.array([[2.0, 0.3], [0.3, 1.0]])
        src = gaussian_source(C)
        assert entropy_conditional(src, np.eye(2)) == pytest.approx(
            gaussian_entropy(C + np.eye(2)), abs=1e-12
        )

    def test_entropy_conditional_mixture_average(self):
        src = two_component_scalar_source()
        h = entropy_conditional(src, np.eye(1))
        expect = 0.5 * (
            0.5 * (LOG_2PI_E + math.log(2.0)) + 0.5 * (LOG_2PI_E + math.log(4.0))
        )
        assert h == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_is_one_call_per_noise(self, n):
        rng = rng_for(309, n)
        src = random_mixture(rng, n, 3)
        noises = np.stack([random_spd(rng, n, 0.5, 1.5) for _ in range(4)])
        J = fisher_conditional(src, noises)
        h = entropy_conditional(src, noises)
        assert J.shape == noises.shape and h.shape == noises.shape[:1]
        # the stack sums in another order than a single call: round-off apart
        for t, S in enumerate(noises):
            assert np.max(np.abs(J[t] - fisher_conditional(src, S))) <= 1e-13
            assert abs(h[t] - entropy_conditional(src, S)) <= 1e-13
            J_ref, h_ref = _closed_form_reference(src, S)
            assert np.max(np.abs(J[t] - J_ref)) <= 1e-13
            assert abs(h[t] - h_ref) <= 1e-13


class TestDensityAndScore:
    def test_logpdf_single_gaussian(self):
        src = gaussian_source(np.array([[1.0]]))
        # Y ~ N(0, 2): ln f(0) = -0.5 ln(4 pi)
        assert mixture_logpdf(src, np.eye(1), [0.0])[0] == pytest.approx(
            -0.5 * math.log(4 * math.pi), abs=1e-12
        )

    def test_logpdf_integrates_to_one(self):
        src = two_component_scalar_source()
        ys = np.linspace(-15, 15, 20001)
        vals = np.exp(mixture_logpdf(src, np.eye(1), ys[:, None]))
        assert np.trapezoid(vals, ys) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_quadratic_log_densities_match_direct_density(self, n):
        # every component, on every component's grid, at a stack of noises
        rng = rng_for(304, n)
        src = random_mixture(rng, n, 3)
        noises = np.stack([random_spd(rng, n, 0.5, 1.5) for _ in range(2)])
        obs = estimators._ObservedLevel(src, noises)
        z = rng.standard_normal((7, n))
        F = estimators._features(z, *np.triu_indices(n))
        logs = (obs.coefs(np.arange(3)) @ F).reshape(3, 2, 3, -1)
        for u in range(3):
            for t, S in enumerate(noises):
                y = src.means[u] + z @ np.linalg.cholesky(src.comp_covs[u] + S).T
                for w in range(3):
                    C = src.comp_covs[w] + S
                    r = y - src.means[w]
                    direct = -0.5 * (
                        n * math.log(2 * math.pi) + np.linalg.slogdet(C)[1]
                        + np.einsum("Ni,ij,Nj->N", r, np.linalg.inv(C), r)
                    )
                    assert np.allclose(logs[u, t, w], direct, rtol=0.0, atol=1e-12)


class TestQuadrature:
    def test_entropy_exact_on_gaussian(self):
        C = np.array([[1.5, 0.2], [0.2, 0.8]])
        src = gaussian_source(C)
        h = mixture_entropy_quad(src, np.eye(2))
        assert h == pytest.approx(gaussian_entropy(C + np.eye(2)), abs=1e-12)

    def test_fisher_exact_on_gaussian(self):
        C = np.array([[1.5, 0.2], [0.2, 0.8]])
        src = gaussian_source(C)
        J = mixture_fisher_quad(src, np.eye(2))
        assert np.allclose(J, np.linalg.inv(C + np.eye(2)), atol=1e-10)

    def test_order_stability(self):
        src = two_component_scalar_source()
        h1 = mixture_entropy_quad(src, np.eye(1), order=120)
        h2 = mixture_entropy_quad(src, np.eye(1), order=200)
        assert h1 == pytest.approx(h2, abs=1e-11)

    def test_entropy_bracketed_by_theory(self):
        # conditional entropy <= mixture entropy <= Gaussian with same covariance
        for seed in range(5):
            rng = rng_for(201, seed)
            src = random_mixture(rng, 2, 3)
            sig = np.eye(2)
            h = mixture_entropy_quad(src, sig)
            lo = entropy_conditional(src, sig)
            from mimobc.model import aggregate_covariance

            hi = gaussian_entropy(aggregate_covariance(src) + sig)
            assert lo - 1e-10 <= h <= hi + 1e-10

    def test_fisher_cramer_rao_bound(self):
        for seed in range(5):
            rng = rng_for(202, seed)
            src = random_mixture(rng, 2, 3)
            J = mixture_fisher_quad(src, np.eye(2))
            from mimobc.model import aggregate_covariance

            bound = np.linalg.inv(aggregate_covariance(src) + np.eye(2))
            evals = np.linalg.eigvalsh((J - bound + (J - bound).T) / 2)
            assert evals.min() >= -1e-9


def _full_grid(n, order):
    """Unpruned tensor Gauss-Hermite grid for a standard normal."""
    x, w = np.polynomial.hermite.hermgauss(order)
    z1 = math.sqrt(2.0) * x
    w1 = w / math.sqrt(math.pi)
    z = np.array(list(itertools.product(z1, repeat=n)))
    wt = np.array([math.prod(c) for c in itertools.product(w1, repeat=n)])
    return z, wt


def _plain_log_joint(src, noise, y):
    """(N, m) ln p_v + ln N(y; mu_v, C_v + noise) at the points y (rows),
    with the plain precision-matrix density of every component."""
    n = src.dim
    covs = [C + noise for C in src.comp_covs]
    precs = [np.linalg.inv(C) for C in covs]
    log_norms = [-0.5 * (n * math.log(2 * math.pi) + np.linalg.slogdet(C)[1]) for C in covs]
    diffs = [y - mv for mv in src.means]
    return np.stack([
        math.log(pv) + c - 0.5 * np.einsum("Ni,ij,Nj->N", d, P, d)
        for pv, c, d, P in zip(src.weights, log_norms, diffs, precs)
    ], axis=1)


def _plain_logpdf_and_score(src, noise, y):
    """(ln f, score) of X + N at the points y (rows), with the plain
    precision-matrix density of every component."""
    covs = [C + noise for C in src.comp_covs]
    precs = [np.linalg.inv(C) for C in covs]
    diffs = [y - mv for mv in src.means]
    logs = _plain_log_joint(src, noise, y)
    top = logs.max(axis=1, keepdims=True)
    post = np.exp(logs - top)
    total = post.sum(axis=1, keepdims=True)
    post /= total
    s = -sum(post[:, [v]] * (d @ P) for v, (d, P) in enumerate(zip(diffs, precs)))
    return (top + np.log(total))[:, 0], s


def _reference_quad(src, noise, order):
    """(h, J) of X + N on the full tensor grid of every component, by the
    direct rule: -ln f and s s^T integrated against each component."""
    n = src.dim
    z, wt = _full_grid(n, order)
    h, J = 0.0, np.zeros((n, n))
    for pu, mu, C in zip(src.weights, src.means, src.comp_covs):
        y = mu + z @ np.linalg.cholesky(C + noise).T
        logf, s = _plain_logpdf_and_score(src, noise, y)
        h -= pu * float(wt @ logf)
        J += pu * np.einsum("N,Ni,Nj->ij", wt, s, s)
    return h, J


def _monte_carlo_fisher(src, noise, samples, seed, chunk=250_000):
    """Monte Carlo J(X + N) = E[s s^T] with entrywise standard errors,
    drawn in chunks from a plain NumPy generator."""
    rng = np.random.default_rng(seed)
    n = src.dim
    chols = [np.linalg.cholesky(C + noise) for C in src.comp_covs]
    total, total_sq = np.zeros((n, n)), np.zeros((n, n))
    for start in range(0, samples, chunk):
        size = min(chunk, samples - start)
        labels = rng.choice(len(src.weights), size=size, p=src.weights)
        y = rng.standard_normal((size, n))
        for u, L in enumerate(chols):
            at = labels == u
            y[at] = src.means[u] + y[at] @ L.T
        _, s = _plain_logpdf_and_score(src, noise, y)
        outer = np.einsum("Ni,Nj->Nij", s, s)
        total += outer.sum(axis=0)
        total_sq += np.square(outer).sum(axis=0)
    mean = total / samples
    var = (total_sq / samples - np.square(mean)) * samples / (samples - 1)
    return mean, np.sqrt(var / samples)


# weights (0.3, 0.7): a narrow component inside a wide, correlated one
BADLY_CONDITIONED = (
    MixtureSource(
        weights=[0.3, 0.7],
        means=[[0.0, 0.0], [1.0, 0.5]],
        comp_covs=[0.05 * np.eye(2), [[2.0, 0.9], [0.9, 1.0]]],
    ),
    0.05 * np.eye(2),
)


# orders at which the direct rule has converged on the random mixtures
# below (raising them to 340, 140 and 60 moves J by at most 2.4e-13), all
# under the 360 past which ``hermgauss`` overflows
CONVERGED_ORDER = {1: 300, 2: 112, 3: 48}


class TestWhitenedKernel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pruned_grid_drops_negligible_weight(self, n):
        order = estimators._DEFAULT_QUAD_ORDER[n]
        z, wt = estimators._gh_grid(n, order)
        full_z, full_wt = _full_grid(n, order)
        keep = full_wt > estimators._PRUNE_REL * full_wt.max()
        assert np.array_equal(z, full_z[keep])
        assert np.allclose(wt, full_wt[keep], rtol=1e-14, atol=0.0)
        assert full_wt[~keep].sum() < 1e-18
        assert abs(wt.sum() - 1.0) <= 1e-14

    def test_pruning_shrinks_the_three_dimensional_grid(self):
        z, _ = estimators._gh_grid(3, estimators._DEFAULT_QUAD_ORDER[3])
        assert z.shape == (13824, 3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3])
    def test_quadrature_matches_full_grid_reference(self, n, m):
        # entropy runs the direct rule, so it matches it at the same order;
        # the Fisher split is compared with the direct rule at an order where
        # that rule has converged (at m = 2, n = 3 the direct rule at the
        # default order is itself 1.2e-10 off its order-48 value)
        rng = rng_for(303, n, m)
        src = random_mixture(rng, n, m)
        noise = random_spd(rng, n, 0.5, 1.5)
        h_ref, _ = _reference_quad(src, noise, estimators._DEFAULT_QUAD_ORDER[n])
        _, J_ref = _reference_quad(src, noise, CONVERGED_ORDER[n])
        assert mixture_entropy_quad(src, noise) == pytest.approx(h_ref, abs=1e-12)
        assert np.max(np.abs(mixture_fisher_quad(src, noise) - J_ref)) <= 1e-12

    def test_quadrature_matches_reference_on_badly_conditioned_mixture(self):
        src, noise = BADLY_CONDITIONED
        h_ref, _ = _reference_quad(src, noise, estimators._DEFAULT_QUAD_ORDER[2])
        assert mixture_entropy_quad(src, noise) == pytest.approx(h_ref, abs=1e-12)

    def test_fisher_converged_on_badly_conditioned_mixture(self):
        # the direct rule has not converged here by order 224 (its default
        # order is 1.1e-2 off in J_00); the split has
        src, noise = BADLY_CONDITIONED
        J = mixture_fisher_quad(src, noise)
        assert np.max(np.abs(J - mixture_fisher_quad(src, noise, order=224))) <= 1e-8
        J_mc, se = _monte_carlo_fisher(src, noise, 2_000_000, seed=0)
        assert np.max(np.abs(J - J_mc) / se) <= 3.0

    @pytest.mark.parametrize("quad", [mixture_fisher_quad, mixture_entropy_quad])
    def test_blocked_walk_caps_transient_memory(self, quad):
        rng = rng_for(305, 3)
        src = random_mixture(rng, 3, 3)
        noise = random_spd(rng, 3, 0.5, 1.5)
        quad(src, noise)  # build the cached grid outside the measurement
        tracemalloc.start()
        try:
            quad(src, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

    def test_cached_grid_is_shared_and_read_only(self):
        z, wt = estimators._gh_grid(2, 56)
        assert estimators._gh_grid(2, 56)[0] is z
        with pytest.raises(ValueError):
            z[0, 0] = 0.0
        with pytest.raises(ValueError):
            wt[0] = 0.0


def _per_symbol_reference(src, joint, noise, order):
    """(J, h) of Y = X + N given U_k, one symbol at a time: each column of
    ``joint`` as its own mixture, a one-component law by its closed forms,
    and otherwise -ln f on every component's pruned grid and the Fisher
    correction p_u E_u[pi_v d_uv d_uv^T] on the narrower member u of every
    pair, with the plain precision-matrix densities."""
    n = src.dim
    z, wt = estimators._gh_grid(n, order)
    J, h = np.zeros((n, n)), 0.0
    for col in np.asarray(joint).T:
        idx = np.flatnonzero(col > 0.0)
        pg = col[idx].sum()
        sub = MixtureSource(col[idx] / pg, src.means[idx], src.comp_covs[idx])
        covs = sub.comp_covs + noise
        precs = np.linalg.inv(covs)
        Jg = np.einsum("u,uij->ij", sub.weights, precs)
        if idx.size == 1:
            J += pg * Jg
            h += pg * gaussian_entropy(covs[0])
            continue
        hg = 0.0
        rank = np.argsort([np.linalg.slogdet(C)[1] for C in covs], kind="stable")
        for i, u in enumerate(rank):
            y = sub.means[u] + z @ np.linalg.cholesky(covs[u]).T
            logs = _plain_log_joint(sub, noise, y)
            top = logs.max(axis=1, keepdims=True)
            post = np.exp(logs - top)
            hg -= sub.weights[u] * float(wt @ (top[:, 0] + np.log(post.sum(axis=1))))
            post /= post.sum(axis=1, keepdims=True)
            g_u = -(y - sub.means[u]) @ precs[u]
            for v in rank[i + 1:]:
                d = g_u + (y - sub.means[v]) @ precs[v]
                Jg -= sub.weights[u] * np.einsum("N,Ni,Nj->ij", wt * post[:, v], d, d)
        J += pg * Jg
        h += pg * hg
    return J, h


def _converse_levels(seed, c):
    """The base, joint tables of levels 2 and 3, and noise covariances of
    the c-th ``converse`` benchmark instance of ``seed``."""
    rng = rng_for(seed, 2, c)
    h = random_hierarchy(rng, 3, (2, 2))
    ch = admissible_channel_for(aggregate_covariance(h.base), rng, 3)
    return h.base, [coarsen(h, 2), coarsen(h, 3)], np.stack(ch.noise_covs)


class TestLevelKernel:
    """One stacked call per auxiliary level against the per-symbol rule."""

    @staticmethod
    def _assert_matches(src, joint, noises, order=None):
        order = estimators._DEFAULT_QUAD_ORDER[src.dim] if order is None else order
        J = mixture_fisher_quad(src, noises, order, joint=joint)
        h = mixture_entropy_quad(src, noises, order, joint=joint)
        assert J.shape == noises.shape and h.shape == noises.shape[:1]
        for t, S in enumerate(noises):
            J_ref, h_ref = _per_symbol_reference(src, joint, S, order)
            assert np.max(np.abs(J[t] - J_ref)) <= 1e-12
            assert abs(h[t] - h_ref) <= 1e-12

    @pytest.mark.parametrize("seed", [11, 12, 907])
    @pytest.mark.parametrize("c", [0, 1, 2])
    def test_converse_instances(self, seed, c):
        src, tables, noises = _converse_levels(seed, c)
        for joint in tables:
            self._assert_matches(src, joint, noises)

    def test_badly_conditioned_mixture(self):
        src, noise = BADLY_CONDITIONED
        # one symbol mixing both components, then two symbols mixing them
        noises = np.stack([noise, 2.0 * noise])
        self._assert_matches(src, src.weights[:, None], noises)
        self._assert_matches(src, np.array([[0.2, 0.1], [0.3, 0.4]]), noises)

    def test_three_components_and_one(self):
        rng = rng_for(306)
        base = random_mixture(rng, 2, 4)
        # symbol 0 mixes components 0, 1 and 2; symbol 1 is component 3 alone
        joint = np.array([[0.1, 0.0], [0.25, 0.0], [0.3, 0.0], [0.0, 0.35]])
        noises = np.stack([random_spd(rng, 2, 0.5, 1.5) for _ in range(3)])
        self._assert_matches(base, joint, noises)

    def test_no_table_is_one_symbol_of_the_weights(self):
        rng = rng_for(307)
        src = random_mixture(rng, 2, 3)
        noise = random_spd(rng, 2, 0.5, 1.5)
        J = mixture_fisher_quad(src, noise, joint=src.weights[:, None])
        assert np.array_equal(mixture_fisher_quad(src, noise), J)
        assert mixture_entropy_quad(src, noise) == mixture_entropy_quad(
            src, noise, joint=src.weights[:, None])

    def test_diagonal_table_is_the_closed_form_and_walks_no_grid(self, monkeypatch):
        rng = rng_for(308)
        src = random_mixture(rng, 3, 3)
        noises = np.stack([random_spd(rng, 3, 0.5, 1.5) for _ in range(2)])

        def no_grid(*args):
            raise AssertionError("a diagonal table walked a grid")

        monkeypatch.setattr(estimators, "_gh_grid", no_grid)
        joint = np.diag(src.weights)
        J = mixture_fisher_quad(src, noises, joint=joint)
        h = mixture_entropy_quad(src, noises, joint=joint)
        for t, S in enumerate(noises):
            J_ref, h_ref = _closed_form_reference(src, S)
            assert np.max(np.abs(J[t] - J_ref)) <= 1e-13
            assert abs(h[t] - h_ref) <= 1e-13


def _log_space_reference(src, joint, noise, order):
    """(J, h) of Y = X + N given U_k at one noise covariance, with the
    kernel's log-densities but every symbol's posterior taken as a softmax
    in log space over that symbol's own components: -ln f_g on the grid of
    each of its components, and the correction P[u, g] E_u[pi^g_v d d^T] on
    the narrower member u of every pair it mixes, with the score gap
    d = g_u - g_v summed node by node instead of from weighted moments."""
    obs = estimators._ObservedLevel(src, noise)
    n, m = src.dim, src.num_components
    z, wt = estimators._gh_grid(n, order)
    # logs[u, w] = ln N(y; mu_w, C_w) at the nodes y = mu_u + L_u z of u's grid
    logs = obs.coefs(np.arange(m)) @ estimators._features(z, *np.triu_indices(n))
    logs = logs.reshape(m, m, -1)
    precs = np.swapaxes(obs.inv_chols[0], 1, 2) @ obs.inv_chols[0]
    hl = obs.half_logdet[0]
    J = np.einsum("u,uij->ij", joint.sum(axis=1), precs)
    h = 0.0
    for col in joint.T:
        idx = np.flatnonzero(col > 0.0)
        if idx.size == 1:
            h += col[idx[0]] * (0.5 * n * LOG_2PI_E + hl[idx[0]])
            continue
        for u in idx:
            lp = logs[u, idx] + np.log(col[idx] / col.sum())[:, None]
            top = lp.max(axis=0)
            post = np.exp(lp - top)
            total = post.sum(axis=0)
            h -= col[u] * float(wt @ (top + np.log(total)))
            post /= total
            for k, v in enumerate(idx):
                if hl[u] < hl[v] or (hl[u] == hl[v] and u < v):
                    # at y = mu_u + L_u z, d = M z + c with the kernel's M and c
                    M = precs[v] @ obs.chols[0, u] - obs.inv_chols[0, u].T
                    d = z @ M.T + precs[v] @ (src.means[u] - src.means[v])
                    J -= col[u] * np.einsum("N,Ni,Nj->ij", wt * post[k], d, d)
    return (J + J.T) / 2.0, h


def _three_component_hierarchy(n, gap):
    """Three components ``gap`` apart on the first axis under a coarse
    auxiliary whose two symbols mix {0, 1} and {1, 2}, so that each symbol
    leaves out the component with the largest density at the far end of
    component 1's grid. At gap 8 the densities of the symbol without
    component 0 (or 2) also underflow to zero on that component's grid."""
    means = np.zeros((3, n))
    means[:, 0] = [0.0, gap, 2.0 * gap]
    covs = np.stack([s * np.eye(n) for s in (0.01, 0.02, 0.015)])
    table = np.array([[0.5, 0.0], [0.5, 0.4], [0.0, 0.6]])
    top = np.array([0.5, 0.5])
    base = MixtureSource(weights=table @ top, means=means, comp_covs=covs)
    return MarkovHierarchy(base=base, tables=(table,), top_weights=top)


def _wide_scale_mixture(rng, n):
    """Three components whose covariance eigenvalues span 1e-8 to 1e4, seen
    through a noise of about 1e-9. Components 0 and 1 share their axes and
    lie about one standard deviation apart along each, so their posteriors
    stay uncertain in every direction; component 2 is rotated."""
    covs, means = [], []
    for k in range(3):
        if k != 1:
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eig = np.exp(rng.uniform(np.log(1e-8), np.log(1e4), size=n))
            eig[0], eig[-1] = 1e-8, 1e4
        scale = eig * rng.uniform(0.5, 2.0, size=n)
        covs.append((Q * scale) @ Q.T)
        means.append(Q @ (np.sqrt(scale) * rng.uniform(-1.0, 1.0, size=n)))
    return MixtureSource(weights=[0.3, 0.3, 0.4], means=np.stack(means), comp_covs=np.stack(covs))


class TestKernelPosterior:
    """The kernel's posterior (one exponential per component, shifted by the
    node's largest log-density) against the per-symbol softmax in log
    space."""

    @staticmethod
    def _assert_matches(src, joint, noises):
        order = estimators._DEFAULT_QUAD_ORDER[src.dim]
        J = mixture_fisher_quad(src, noises, joint=joint)
        h = mixture_entropy_quad(src, noises, joint=joint)
        assert np.all(np.isfinite(J)) and np.all(np.isfinite(h))
        for t, S in enumerate(noises):
            J_ref, h_ref = _log_space_reference(src, joint, S, order)
            assert np.max(np.abs(J[t] - J_ref)) <= 1e-12 * np.max(np.abs(J_ref))
            assert abs(h[t] - h_ref) <= 1e-12 * abs(h_ref)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("gap", [0.2, 8.0])
    def test_symbols_leaving_out_the_largest_density(self, n, gap):
        hierarchy = _three_component_hierarchy(n, gap)
        noises = np.stack([0.01 * np.eye(n), 0.02 * np.eye(n)])
        self._assert_matches(hierarchy.base, coarsen(hierarchy, 3), noises)

    @pytest.mark.parametrize("n", [2, 3])
    def test_covariances_spanning_twelve_decades(self, n):
        rng = rng_for(309, n)
        src = _wide_scale_mixture(rng, n)
        noises = np.stack([1e-9 * random_spd(rng, n, 0.5, 1.5) for _ in range(2)])
        self._assert_matches(src, src.weights[:, None], noises)
        self._assert_matches(src, np.array([[0.2, 0.1], [0.1, 0.2], [0.3, 0.1]]), noises)

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
    gaussian_source,
    random_mixture,
    random_spd,
    rng_for,
    two_component_scalar_source,
)
from mimobc.model import LOG_2PI_E, MixtureSource, gaussian_entropy

# frozen oracle: J(X+N) for p=(1/2,1/2), component variances (1,3), unit noise,
# equal means — given the label the output is Gaussian, so J = E[1/(C_u+1)].
FISHER_COND_SCALAR = 0.375


def _residuals(dens, y):
    """(m*n, N) whitened residuals of the points y (rows) under every
    component of ``dens``."""
    return dens.whiten @ np.atleast_2d(y).T - dens.shift[:, None]


def mixture_logpdf(src, noise_cov, y):
    """ln f(y) of Y = X + N at the points y (rows), by the whitened kernel."""
    dens = estimators._MixtureDensity(src, noise_cov)
    return dens.logpdf(_residuals(dens, np.asarray(y, dtype=float)))


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


def _plain_logpdf_and_score(src, noise, y):
    """(ln f, score) of X + N at the points y (rows), with the plain
    precision-matrix density of every component."""
    n = src.dim
    covs = [C + noise for C in src.comp_covs]
    precs = [np.linalg.inv(C) for C in covs]
    log_norms = [-0.5 * (n * math.log(2 * math.pi) + np.linalg.slogdet(C)[1]) for C in covs]
    diffs = [y - mv for mv in src.means]
    logs = np.stack([
        math.log(pv) + c - 0.5 * np.einsum("Ni,ij,Nj->N", d, P, d)
        for pv, c, d, P in zip(src.weights, log_norms, diffs, precs)
    ], axis=1)
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

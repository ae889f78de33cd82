import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mimobc.estimators import (
    entropy_conditional,
    fisher_conditional,
    given_label,
    mixture_entropy_quad,
    mixture_fisher_quad,
    mixture_fisher_tables,
    mixture_level_quad,
)
from mimobc import estimators, matrices
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
    return (obs.coefs(np.array([0]), np.array([0])) @ F).reshape(src.num_components, -1)


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("T", [1, 2, 17])
    def test_given_label_is_both_conditionals_bit_for_bit(self, n, T):
        # T = 1 is one (n, n) noise covariance, not a stack
        for seed in range(4):
            rng = rng_for(318, n, T, seed)
            src = random_mixture(rng, n, 1 + seed)
            noises = np.stack([random_spd(rng, n, 0.1, 2.0) for _ in range(T)])
            if T == 1:
                noises = noises[0]
            J, h = given_label(src, noises)
            assert np.array_equal(J, fisher_conditional(src, noises))
            assert np.array_equal(h, entropy_conditional(src, noises))
            assert type(h) is type(entropy_conditional(src, noises))
            # J at one stack and h at another, one of whose noises is also
            # in the first: each as its own wrapper call on its own stack
            others = np.stack([random_spd(rng, n, 0.1, 2.0) for _ in range(2)])
            others[1] = noises if T == 1 else noises[-1]
            J2, h2 = given_label(src, noises, others)
            assert np.array_equal(J2, fisher_conditional(src, noises))
            assert np.array_equal(h2, entropy_conditional(src, others))
            J3, h3 = given_label(src, others, noises)
            assert np.array_equal(J3, fisher_conditional(src, others))
            assert np.array_equal(h3, entropy_conditional(src, noises))

    def test_shared_noise_is_factorized_once(self, monkeypatch):
        rng = rng_for(319)
        src = random_mixture(rng, 2, 3)
        fisher = np.stack([random_spd(rng, 2, 0.5, 1.5) for _ in range(4)])
        entropy = np.stack([fisher[2], random_spd(rng, 2, 0.5, 1.5)])
        levels = []
        init = estimators._ObservedLevel.__init__

        def counting(obs, src, noise_cov):
            levels.append(np.array(noise_cov))
            init(obs, src, noise_cov)

        monkeypatch.setattr(estimators._ObservedLevel, "__init__", counting)
        J, h = given_label(src, fisher, entropy)
        # the entropy noises, then the Fisher noises not among them
        (level,) = levels
        assert np.array_equal(level, np.concatenate([entropy, fisher[[0, 1, 3]]]))
        assert J.shape == fisher.shape and h.shape == (2,)


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
        # rows (u, t): every grid at both noises
        rows = np.repeat(np.arange(3), 2), np.tile(np.arange(2), 3)
        logs = (obs.coefs(*rows) @ F).reshape(3, 3, 2, -1)
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
                    assert np.allclose(logs[w, u, t], direct, rtol=0.0, atol=1e-12)


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

    @pytest.mark.parametrize("order", [361, 400])
    def test_order_past_the_cap_is_rejected_before_the_rule_is_built(self, order):
        # ``hermgauss`` overflows from order 371 on; an order past the cap
        # is refused with the range, without a warning from the rule
        src = two_component_scalar_source()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"1\.\.360"):
                mixture_entropy_quad(src, np.eye(1), order=order)

    def test_order_at_the_cap_still_works(self):
        src = two_component_scalar_source()
        h = mixture_entropy_quad(src, np.eye(1), order=360)
        assert h == pytest.approx(mixture_entropy_quad(src, np.eye(1), order=200), abs=1e-11)

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


def _walk_memory_bound(m, n, T, G):
    """Bytes a walk of m components at T noises with G symbols holds at
    once, from the block budget ``_BLOCK_BYTES``.

    A block's densities (m, R, B) take at most the budget, so each row of
    R B float64 takes at most budget / m. At once a block holds the
    densities, a copy of the slice of them one part reads, and the pair
    weights (V <= m rows): three budgets; plus the top, the table sums (G
    rows) or the entropy's mixture densities (S <= G + 1 rows): G + 2 rows;
    and the features times the weights, F rows of B nodes, B <= budget /
    (8 m) since R >= 1. Apart from the blocks, the walk holds one value per
    component, (grid, noise) row and feature or matrix entry, with at most
    R = m T rows: at most four (m, R, F) arrays (the coefficients, the
    moments and their update) and eight (m, R, n, n) arrays in the Fisher
    correction."""
    F = 1 + n + n * (n + 1) // 2
    blocks = (3 + (G + 2 + F) / m) * estimators._BLOCK_BYTES
    rows = m * (m * T) * (4 * F + 8 * n * n) * 8
    return blocks + rows


class TestWhitenedKernel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pruned_grid_drops_negligible_weight(self, n):
        # the grid keeps the full grid's nodes of weight above a threshold
        # tau, the largest at which the dropped mass sum w (1 + |z|^2) stays
        # within the rule's summation round-off sqrt(N) eps
        for order in (estimators._DEFAULT_QUAD_ORDER[n], CONVERGED_ORDER[n]):
            F, wt, _ = estimators._gh_grid(n, order)
            z = F[1:1 + n].T
            full_z, full_wt = _full_grid(n, order)
            budget = math.sqrt(full_wt.size) * np.finfo(float).eps
            tau = full_wt[full_wt < wt.min()].max()
            keep = full_wt > tau
            assert np.array_equal(z, full_z[keep])
            assert np.allclose(wt, full_wt[keep], rtol=1e-14, atol=0.0)
            mass = full_wt * (1.0 + np.square(full_z).sum(axis=1))
            assert mass[~keep].sum() <= budget
            # tau is the largest such weight: dropping the lightest kept
            # nodes too would exceed the budget
            assert mass[full_wt <= wt.min()].sum() > budget
            assert abs(wt.sum() - 1.0) <= 1e-14
            # mirror nodes have equal weights, so pruning keeps them together
            kept = {tuple(node) for node in z}
            for i in range(n):
                mirrored = z.copy()
                mirrored[:, i] = -mirrored[:, i]
                assert {tuple(node) for node in mirrored} == kept

    def test_pruning_shrinks_the_three_dimensional_grid(self):
        F, _, _ = estimators._gh_grid(3, estimators._DEFAULT_QUAD_ORDER[3])
        assert F[1:4].T.shape == (10600, 3)

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
        assert peak <= _walk_memory_bound(m=3, n=3, T=1, G=1)

    @pytest.mark.parametrize("quad", [mixture_fisher_quad, mixture_entropy_quad, mixture_level_quad])
    def test_blocked_walk_caps_transient_memory_on_a_noise_stack(self, quad):
        # the line integral's field at 15 noises: n = m = 3 and two symbols,
        # mixing components {0, 1} and {1, 2}, so up to U = m grids at once
        rng = rng_for(305, 3, 15)
        src = random_mixture(rng, 3, 3)
        noises = np.stack([random_spd(rng, 3, 0.5, 1.5) for _ in range(15)])
        joint = np.column_stack([src.weights * [1.0, 0.5, 0.0], src.weights * [0.0, 0.5, 1.0]])
        # the level's J and entropies both at the 15 noises
        stacks = (noises, noises) if quad is mixture_level_quad else (noises,)
        quad(src, *stacks, joint=joint)  # build the cached grid outside the measurement
        tracemalloc.start()
        try:
            quad(src, *stacks, joint=joint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _walk_memory_bound(m=3, n=3, T=15, G=2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_level_walk_memory_does_not_grow_with_the_block_at_many_components(self, n):
        # a converse stage's two noises, m = 64 components and two symbols
        # mixing half of them each: blocks of a fixed 512 nodes, whose
        # densities take up to m^2 T 512 8 bytes, peaked at 10.3 MB (n = 1)
        # and 68.4 MB (n = 2) here; blocks sized by bytes stay in the bound
        m = 64
        rng = rng_for(306, n, m)
        src = random_mixture(rng, n, m)
        noises = np.stack([random_spd(rng, n, 0.5, 1.5) for _ in range(2)])
        half = np.arange(m) < m // 2
        joint = np.column_stack([src.weights * half, src.weights * ~half])
        # build the cached grid outside the measurement
        mixture_level_quad(src, noises, noises, joint)
        tracemalloc.start()
        try:
            mixture_level_quad(src, noises, noises, joint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _walk_memory_bound(m=m, n=n, T=2, G=2)

    def test_cached_grid_is_shared_and_read_only(self):
        F, wt, FW = estimators._gh_grid(2, 56)
        assert all(a is b for a, b in zip(estimators._gh_grid(2, 56), (F, wt, FW)))
        for a in (F, wt, FW):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0.0
        # the features [1; z; z_i z_j], whose rows 1..n are the nodes
        z = F[1:3].T
        i, j = np.triu_indices(2)
        assert np.array_equal(F, np.vstack([np.ones((1, len(wt))), z.T, (z[:, i] * z[:, j]).T]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weighted_features_are_cached_read_only_and_exact(self, n):
        F, wt, FW = estimators._gh_grid(n, estimators._DEFAULT_QUAD_ORDER[n])
        # bit for bit the product a block would form from its own slice
        assert np.array_equal(FW[:, 5:17], F[:, 5:17] * wt[5:17])


def _per_symbol_reference(src, joint, noise, order):
    """(J, h) of Y = X + N given U_k, one symbol at a time: each column of
    ``joint`` as its own mixture, a one-component law by its closed forms,
    and otherwise -ln f on every component's pruned grid and the Fisher
    correction p_u E_u[pi_v d_uv d_uv^T] on the narrower member u of every
    pair, with the plain precision-matrix densities."""
    n = src.dim
    F, wt, _ = estimators._gh_grid(n, order)
    z = F[1:1 + n].T
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

    @pytest.mark.parametrize("seed", [11, 907])
    def test_tables_on_one_level_are_each_tables_call(self, monkeypatch, seed):
        src, tables, noises = _converse_levels(seed, 0)
        tables = tables + [None]
        refs = [mixture_fisher_quad(src, noises, joint=P) for P in tables]
        single = [mixture_fisher_quad(src, noises[0], joint=P) for P in tables]
        levels = []
        init = estimators._ObservedLevel.__init__

        def counting(obs, *args):
            levels.append(1)
            init(obs, *args)

        monkeypatch.setattr(estimators._ObservedLevel, "__init__", counting)
        for J, ref in zip(mixture_fisher_tables(src, noises, tables), refs):
            assert np.array_equal(J, ref)
        for J, ref in zip(mixture_fisher_tables(src, noises[0], tables), single):
            assert np.array_equal(J, ref)
        assert len(levels) == 2

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


class TestLevelQuad:
    """``mixture_level_quad``'s one walk against separate Fisher and entropy
    calls on the same stack of noise covariances."""

    @staticmethod
    def _assert_matches_separate_calls(src, joint, fisher, entropy):
        # J at the Fisher stack and the entropies at the entropy stack, with
        # h(Y) or without it
        J_ref = mixture_fisher_quad(src, fisher, joint=joint)
        h_cond_ref = mixture_entropy_quad(src, entropy, joint=joint)
        h_ref = mixture_entropy_quad(src, entropy)
        J, h_cond, h = mixture_level_quad(src, fisher, entropy, joint)
        J_c, h_cond_c, none = mixture_level_quad(src, fisher, entropy, joint, unconditional=False)
        assert none is None
        assert J.shape == J_c.shape == J_ref.shape
        assert h_cond.shape == h_cond_c.shape == h.shape == entropy.shape[:1]
        for J_, h_cond_ in ((J, h_cond), (J_c, h_cond_c)):
            for t in range(len(J_ref)):
                assert np.max(np.abs(J_[t] - J_ref[t])) <= 1e-12 * np.max(np.abs(J_ref[t]))
            assert np.all(np.abs(h_cond_ - h_cond_ref) <= 1e-12 * np.abs(h_cond_ref))
        assert np.all(np.abs(h - h_ref) <= 1e-12 * np.abs(h_ref))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alphabet", [(2, 2), (3, 2)])
    def test_three_user_hierarchy(self, n, alphabet):
        rng = rng_for(310, n, *alphabet)
        h = random_hierarchy(rng, n, alphabet)
        assert h.num_users == 3
        ch = admissible_channel_for(aggregate_covariance(h.base), rng, 3)
        noises = np.stack(ch.noise_covs)
        # level 3 mixes the components; level 2's table is diagonal
        assert np.any(np.count_nonzero(coarsen(h, 3) > 0.0, axis=0) > 1)
        assert np.count_nonzero(coarsen(h, 2)) == h.base.num_components
        for level in (3, 2):
            self._assert_matches_separate_calls(h.base, coarsen(h, level), noises, noises)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_user_hierarchy(self, n):
        rng = rng_for(311, n)
        h = random_hierarchy(rng, n, (3,))
        assert h.num_users == 2
        ch = admissible_channel_for(aggregate_covariance(h.base), rng, 2)
        noises = np.stack(ch.noise_covs)
        self._assert_matches_separate_calls(h.base, coarsen(h, 2), noises, noises)


    @staticmethod
    def _field(stages):
        """A walkthrough stage's Fisher stack: the first stage noise, then
        the 15 nodes of the line integral's first G7/K15 rule from the
        second stage noise to the first."""
        t = matrices._kronrod_rule()[0][:, None, None]
        return np.concatenate([stages[:1], stages[1] + t * (stages[0] - stages[1])])

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3])
    def test_folded_field(self, n, m):
        rng = rng_for(312, n, m)
        src = random_mixture(rng, n, m)
        # m = 2: one symbol mixes both components; m = 3: two symbols mix
        # {0, 1} and {1, 2}
        joint = (src.weights[:, None] if m == 2 else
                 np.column_stack([src.weights * [1.0, 0.5, 0.0], src.weights * [0.0, 0.5, 1.0]]))
        low = random_spd(rng, n, 0.5, 1.5)
        stages = np.stack([low + random_spd(rng, n, 0.5, 1.5), low])
        self._assert_matches_separate_calls(src, joint, self._field(stages), stages)

    def test_narrower_member_flips_along_the_field(self):
        # |C_0 + s I| < |C_1 + s I| at s = 0.01 and > at s = 1, so the pair's
        # grid is component 0's at some noises and component 1's at others
        src = MixtureSource(weights=[0.4, 0.6], means=[[0.0, 0.0], [0.3, -0.2]],
                            comp_covs=[np.diag([4.0, 0.01]), np.diag([1.0, 0.1])])
        stages = np.stack([np.eye(2), 0.01 * np.eye(2)])
        field = self._field(stages)
        hl = estimators._ObservedLevel(src, np.concatenate([stages, field[1:]])).half_logdet
        assert np.any(hl[:, 0] < hl[:, 1]) and np.any(hl[:, 0] > hl[:, 1])
        joint = src.weights[:, None]
        self._assert_matches_separate_calls(src, joint, field, stages)
        TestLevelKernel._assert_matches(src, joint, np.concatenate([stages, field[1:]]))

    def test_component_that_is_no_pairs_broad_member(self):
        # symbol 0 mixes components 0 and 1, symbol 1 is component 2 alone:
        # component 2 is in no pair, and the narrower of 0 and 1 is the
        # pair's grid at every noise, so only the other forms pair weights
        rng = rng_for(313)
        src = random_mixture(rng, 2, 3)
        joint = np.array([[0.2, 0.0], [0.3, 0.0], [0.0, 0.5]])
        low = random_spd(rng, 2, 0.5, 1.5)
        stages = np.stack([low + random_spd(rng, 2, 0.5, 1.5), low])
        field = self._field(stages)
        hl = estimators._ObservedLevel(src, np.concatenate([stages, field[1:]])).half_logdet
        assert np.all(hl[:, 0] < hl[:, 1]) or np.all(hl[:, 0] > hl[:, 1])
        self._assert_matches_separate_calls(src, joint, field, stages)
        TestLevelKernel._assert_matches(src, joint, np.concatenate([stages, field[1:]]))


def _log_space_reference(src, joint, noise, order):
    """(J, h) of Y = X + N given U_k at one noise covariance, with the
    kernel's log-densities but every symbol's posterior taken as a softmax
    in log space over that symbol's own components: -ln f_g on the grid of
    each of its components, and the correction P[u, g] E_u[pi^g_v d d^T] on
    the narrower member u of every pair it mixes, with the score gap
    d = g_u - g_v summed node by node instead of from weighted moments."""
    obs = estimators._ObservedLevel(src, noise)
    n, m = src.dim, src.num_components
    F, wt, _ = estimators._gh_grid(n, order)
    z = F[1:1 + n].T
    # logs[w, u] = ln N(y; mu_w, C_w) at the nodes y = mu_u + L_u z of u's grid
    logs = obs.coefs(np.arange(m), np.zeros(m, dtype=int)) @ F
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
            lp = logs[idx, u] + np.log(col[idx] / col.sum())[:, None]
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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimobc.errors import DimensionMismatchError, NotPsdError, NumericalError
from mimobc import cli, region
from mimobc import matrices as mat
from mimobc.fixtures import (
    admissible_mixture_for,
    decoupled_channel,
    random_channel,
    rng_for,
    scalar_channel,
)
from mimobc.model import BroadcastChannel
from mimobc.region import (
    CovarianceSplit,
    OptimizerConfig,
    decoupled_boundary,
    grid_oracle,
    rate_tuple,
    trace_boundary,
    weighted_sum_rate,
)
from mimobc.verifier import converse_walkthrough

# frozen oracle value: scalar S=1, noise variances (1, 2), equal power split.
SCALAR_SPLIT_RATES = (0.2027325541, 0.0911607784)


def _split(*parts):
    return CovarianceSplit(tuple(np.atleast_2d(p) for p in parts))


class TestRateTuple:
    def test_scalar_half_split(self):
        ch = scalar_channel()
        r = rate_tuple(ch, _split(0.5, 0.5))
        assert r[0] == pytest.approx(SCALAR_SPLIT_RATES[0], abs=1e-9)
        assert r[1] == pytest.approx(SCALAR_SPLIT_RATES[1], abs=1e-9)

    def test_all_power_to_weakest(self):
        ch = scalar_channel()
        r = rate_tuple(ch, _split(0.0, 1.0))
        assert r[0] == 0.0
        assert r[1] == pytest.approx(0.5 * math.log(1.5), abs=1e-12)

    def test_all_power_to_strongest(self):
        ch = scalar_channel()
        r = rate_tuple(ch, _split(1.0, 0.0))
        assert r[0] == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        assert r[1] == 0.0

    def test_sum_not_cap_rejected(self):
        ch = scalar_channel()
        with pytest.raises(ValueError):
            rate_tuple(ch, _split(0.5, 0.6))

    def test_non_psd_part_rejected(self):
        ch = scalar_channel()
        with pytest.raises(ValueError):
            rate_tuple(ch, _split(-0.5, 1.5))

    def test_wrong_user_count(self):
        ch = scalar_channel()
        with pytest.raises(DimensionMismatchError):
            rate_tuple(ch, _split(0.3, 0.3, 0.4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_rates_nonnegative_random(self, seed):
        rng = rng_for(101, seed)
        ch = random_channel(rng, 2, 2)
        root = np.linalg.cholesky(ch.input_cap)
        lam = rng.random(2)
        K1 = root @ np.diag(lam) @ root.T
        r = rate_tuple(ch, CovarianceSplit((K1, ch.input_cap - K1)))
        assert all(x >= 0 for x in r)

    def test_sum_rate_collapses_to_point_to_point(self):
        # Total throughput with all power at user 1 equals the single-user
        # capacity of the best channel.
        ch = scalar_channel(S=3.0, sigmas=(1.0, 1.0))
        for a in (0.0, 1.0, 2.0, 3.0):
            r = rate_tuple(ch, _split(a, 3.0 - a))
            assert sum(r) == pytest.approx(0.5 * math.log(4.0), abs=1e-12)


class TestCovarianceSplit:
    def test_parts_match_per_part_symmetrize_bit_for_bit(self):
        rng = rng_for(107)
        for n in (1, 2, 3):
            for k in (1, 2, 4):
                parts = [rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8, 8)
                         for _ in range(k)]
                got = CovarianceSplit(parts).parts
                for a, b in zip(got, parts):
                    assert a.tobytes() == mat.symmetrize(b).tobytes()

    @pytest.mark.parametrize("parts", [
        (),
        (np.eye(2), np.eye(3)),
        (np.ones((2, 3)),),
        (np.zeros((0, 0)),),
        (np.array([1.0, 2.0]),),
    ], ids=["empty", "ragged", "non-square", "zero-dimension", "vector"])
    def test_bad_shapes_rejected(self, parts):
        with pytest.raises(DimensionMismatchError):
            CovarianceSplit(parts)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            CovarianceSplit((np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]])))

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_part_slack_is_relative_to_the_cap(self, scale):
        # parts (S + D, -D) sum to S; -D may fall 1e-9 max|S| below 0. An
        # absolute slack of 1e-9 accepted D = 2e-9 S below unit scale
        S = scale * np.eye(2)
        CovarianceSplit((S + 4e-10 * S, -4e-10 * S)).validate(S)
        with pytest.raises(ValueError, match="not PSD"):
            CovarianceSplit((S + 2e-9 * S, -2e-9 * S)).validate(S)


class TestWeightedSumRate:
    def test_matches_manual_dot(self):
        ch = scalar_channel()
        r = rate_tuple(ch, _split(0.5, 0.5))
        v = weighted_sum_rate(ch, _split(0.5, 0.5), (2.0, 1.0))
        assert v == pytest.approx(2 * r[0] + r[1], abs=1e-14)

    def test_negative_weight_rejected(self):
        # the weight rule of trace_boundary and decoupled_boundary
        ch = scalar_channel()
        for w in [(-1.0, 1.0), (0.0, 0.0), (math.nan, 1.0), (1.0, math.inf)]:
            with pytest.raises(ValueError, match="nonnegative and not all zero"):
                weighted_sum_rate(ch, _split(0.5, 0.5), w)
        with pytest.raises(DimensionMismatchError):
            weighted_sum_rate(ch, _split(0.5, 0.5), (0.2, 0.3, 0.5))


class TestTraceBoundary:
    def test_scalar_matches_exhaustive(self, trace_bounds):
        # against the exact boundary, which replaced a 4,001-split sweep
        ch = scalar_channel()
        weights = [(1.0, 0.0), (0.7, 0.3), (0.5, 0.5), (0.3, 0.7), (0.0, 1.0)]
        results = trace_boundary(ch, weights)
        for w, (split, rates), exact in zip(weights, results, decoupled_boundary(ch, weights)):
            b_wsr, b_rate = trace_bounds(ch, w, split)
            assert abs(np.dot(w, rates) - np.dot(w, exact)) <= b_wsr
            assert max(abs(a - b) for a, b in zip(rates, exact)) <= b_rate

    def test_deterministic(self):
        ch = scalar_channel()
        opt = OptimizerConfig(seed=7)
        a = trace_boundary(ch, [(0.6, 0.4)], opt)[0][1]
        b = trace_boundary(ch, [(0.6, 0.4)], opt)[0][1]
        assert a == b

    def test_split_is_valid(self):
        rng = rng_for(55)
        ch = random_channel(rng, 2, 2)
        split, rates = trace_boundary(ch, [(0.5, 0.5)])[0]
        split.validate(ch.input_cap)
        assert rate_tuple(ch, split) == rates

    def test_capped_point_raises_naming_its_weights(self, monkeypatch):
        # every restart at the interior point of channel (1002, 1) needs more
        # than two iterations, so the kept one stops at the cap
        monkeypatch.setattr(region, "_MAX_ITERS", 2)
        ch = random_channel(rng_for(1002, 1), 2, 2)
        t = math.radians(54.0)
        with pytest.raises(NumericalError, match=r"weights \[0\.58778.*, 0\.80901.*\] not converged"):
            trace_boundary(ch, [(1.0, 0.0), (math.cos(t), math.sin(t))], OptimizerConfig(seed=42))
        # the closed-form point runs no ascent and is not affected
        (_, rates), = trace_boundary(ch, [(1.0, 0.0)], OptimizerConfig(seed=42))
        assert rates[1] == 0.0

    def test_stalled_barrier_solve_raises_its_own_error(self, monkeypatch):
        # no step gains a billion times the decrement, so the first barrier
        # step backtracks to t <= 1e-14: a stall, not the iteration cap
        monkeypatch.setattr(region, "_ARMIJO", 1e9)
        ch = random_channel(rng_for(123, 3), 2, 3)
        with pytest.raises(NumericalError, match=r"weights \[0\.25, 0\.35, 0\.4\] stalled at mu = "):
            trace_boundary(ch, [(0.25, 0.35, 0.4)])

    @pytest.mark.parametrize("n", [2, 3])
    def test_users_before_the_first_positive_weight_get_no_power(self, monkeypatch, n):
        # the five weights with w_1 = 0 of ``mimobc region --grid 15`` for
        # three users; user 1's power would only interfere with the others
        ch = random_channel(rng_for(303, 0), n, 3)
        weights = [w for w in cli._weight_sweep(3, 15) if w[0] == 0.0]
        assert len(weights) == 5
        chains = []
        init = region._ActiveChain.__init__

        def counting(chain, ch, w, active):
            chains.append(tuple(w))
            init(chain, ch, w, active)

        monkeypatch.setattr(region._ActiveChain, "__init__", counting)
        opt = OptimizerConfig(seed=42)
        results = trace_boundary(ch, weights, opt)
        # only (0, 1/4, 3/4) has two users of increasing positive weight
        assert chains == [(0.0, 0.25, 0.75)]
        for split, rates in results:
            assert rates[0] == 0.0
            assert np.array_equal(split.parts[0], np.zeros((n, n)))

        def with_user_one(w):
            # the active set that also kept user 1 at w_1 = 0
            active = [0]
            for k in range(1, w.size):
                if w[k] > w[active[-1]]:
                    active.append(k)
            return active

        monkeypatch.setattr(region, "_active_users", with_user_one)
        for w, (_, rates), (_, ascended) in zip(weights, results, trace_boundary(ch, weights, opt)):
            assert np.dot(w, rates) >= np.dot(w, ascended) - 1e-12

    def test_rejects_non_degraded_channel(self):
        # a non-degraded channel cannot be built, so the tracer never sees one
        with pytest.raises(NotPsdError, match="channel validation failed"):
            BroadcastChannel(
                noise_covs=(np.diag([1.0, 3.0]), np.diag([2.0, 2.0])), input_cap=np.eye(2)
            )

    def test_rejects_wrong_weight_length(self):
        with pytest.raises(DimensionMismatchError):
            trace_boundary(scalar_channel(), [(0.2, 0.3, 0.5)])

    def test_rejects_non_finite_weights(self):
        # unchecked, a NaN weight gives a point, and an infinite one an
        # AttributeError once every restart's objective is NaN
        for w in [(math.nan, 1.0), (1.0, math.inf)]:
            with pytest.raises(ValueError, match="nonnegative and not all zero"):
                trace_boundary(scalar_channel(), [w])


def _sqrt_and_inv_sqrt(S):
    lam, V = np.linalg.eigh(S)
    return (V * np.sqrt(lam)) @ V.T, (V / np.sqrt(lam)) @ V.T


class TestClosedFormGradientTracer:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_heavier_strong_user_takes_all_power(self, n):
        # w_1 >= w_2 makes df/dC PSD, so the split is (S, 0) in closed form
        ch = random_channel(rng_for(60, n), n, 2)
        S, sig1 = ch.input_cap, ch.noise_covs[0]
        r1 = 0.5 * (np.linalg.slogdet(S + sig1)[1] - np.linalg.slogdet(sig1)[1])
        weights = [(1.0, 0.0), (0.7, 0.7), (0.8, 0.3)]
        for split, rates in trace_boundary(ch, weights):
            np.testing.assert_allclose(split.parts[0], S, rtol=0, atol=1e-15)
            np.testing.assert_array_equal(split.parts[1], np.zeros((n, n)))
            assert rates[0] == pytest.approx(r1, abs=1e-12)
            assert rates[1] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_returned_point_is_kkt(self, n):
        # projected-gradient residual |P(Q + grad) - Q| in whitened
        # coordinates K_1 = S^1/2 Q S^1/2, 0 <= Q <= I; P clips eigenvalues
        # to [0, 1]. The gradient is taken straight from the closed form.
        ch = random_channel(rng_for(61, n), n, 2)
        opt = OptimizerConfig(seed=3)
        root, inv_root = _sqrt_and_inv_sqrt(ch.input_cap)
        sig1, sig2 = ch.noise_covs
        thetas = np.linspace(math.pi / 4 + 0.02, math.pi / 2, 7)
        weights = [(math.cos(t), math.sin(t)) for t in thetas]
        for w, (split, _) in zip(weights, trace_boundary(ch, weights, opt)):
            K1 = split.parts[0]
            Q = inv_root @ K1 @ inv_root
            grad = 0.5 * root @ (
                w[0] * np.linalg.inv(K1 + sig1) - w[1] * np.linalg.inv(K1 + sig2)
            ) @ root
            lam, V = np.linalg.eigh(Q + grad)
            projected = (V * np.clip(lam, 0.0, 1.0)) @ V.T
            assert np.linalg.norm(projected - Q) <= 10 * region._GRAD_TOL

    def test_gradient_matches_finite_differences(self):
        # the closed form df/dC = 1/2 [w_1 (C + S_1)^-1 - w_2 (C + S_2)^-1]
        # against central differences of weighted_sum_rate with K_2 = S - C
        ch = random_channel(rng_for(62), 2, 2)
        w = np.array([0.4, 0.9])
        C = 0.5 * ch.input_cap
        sig1, sig2 = ch.noise_covs
        grad = 0.5 * (w[0] * np.linalg.inv(C + sig1) - w[1] * np.linalg.inv(C + sig2))
        h = 1e-6
        for E in (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])):
            def f(t):
                K1 = C + t * E
                return weighted_sum_rate(ch, CovarianceSplit((K1, ch.input_cap - K1)), w)

            fd = (f(h) - f(-h)) / (2 * h)
            assert fd == pytest.approx(float(np.sum(grad * E)), abs=1e-8)

    def test_three_users_not_beaten_by_random_chains(self):
        # K = 3, n = 2, weights at which all three users get power
        ch = random_channel(rng_for(303, 4), 2, 3)
        w = np.array([0.25, 0.35, 0.4])
        (split, rates), = trace_boundary(ch, [w], OptimizerConfig(seed=1))
        split.validate(ch.input_cap)
        assert all(np.trace(K) > 0.1 for K in split.parts)
        traced = float(w @ rates)
        # random feasible chains 0 <= C_1 <= C_2 <= S: three Wishart
        # increments rescaled so that they sum to S
        rng = rng_for(304)
        root, _ = _sqrt_and_inv_sqrt(ch.input_cap)
        best = -np.inf
        for _ in range(2000):
            G = rng.standard_normal((3, 2, 2))
            X = G @ np.swapaxes(G, -1, -2)
            _, inv_total = _sqrt_and_inv_sqrt(X.sum(axis=0))
            parts = tuple(root @ inv_total @ Xi @ inv_total @ root for Xi in X)
            best = max(best, float(w @ rate_tuple(ch, CovarianceSplit(parts))))
        assert traced >= best


class TestWhitenedChain:
    """The ascent's objective in whitened coordinates Q = S^-1/2 C S^-1/2,
    with the noises whitened once per chain."""

    @staticmethod
    def _chain(c, n):
        # K = c + 1 users with strictly increasing weights, all active
        ch = random_channel(rng_for(130, c, n), n, c + 1)
        w = np.linspace(0.3, 1.0, c + 1)
        return ch, w, region._ActiveChain(ch, w, list(range(c + 1)))

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gradient_matches_central_differences(self, c, n):
        _, _, chain = self._chain(c, n)
        rng = rng_for(131, c, n)
        Q = region._random_chain(rng, c, n)
        _, G, _ = chain.value_and_grad(Q)
        h = 1e-6
        for _ in range(3):
            E = rng.standard_normal((c, n, n))
            E = E + np.swapaxes(E, -1, -2)
            up, down = chain.value_and_grad(Q + h * E)[0], chain.value_and_grad(Q - h * E)[0]
            fd = (up - down) / (2 * h)
            assert fd == pytest.approx(float(np.sum(G * E)), abs=1e-8)

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_objective_is_the_cap_coordinate_one_up_to_a_constant(self, c, n):
        # ln|C + Sigma| = ln|S| + ln|Q + N|, so the whitened objective is
        # 1/2 sum_i [w_lo ln|C_i + Sigma_lo| - w_hi ln|C_i + Sigma_hi|] minus
        # 1/2 ln|S| sum_i (w_lo - w_hi), whatever the chain
        ch, w, chain = self._chain(c, n)
        root = mat.sqrt_psd(ch.input_cap)
        sig = ch.noise_covs
        constant = -0.5 * mat.logdet(ch.input_cap) * float(np.sum(w[:-1] - w[1:]))
        rng = rng_for(132, c, n)
        for _ in range(5):
            Q = region._random_chain(rng, c, n)
            C = root @ Q @ root
            cap_coordinates = 0.5 * sum(
                w[i] * np.linalg.slogdet(C[i] + sig[i])[1]
                - w[i + 1] * np.linalg.slogdet(C[i] + sig[i + 1])[1]
                for i in range(c)
            )
            f, _, _ = chain.value_and_grad(Q)
            assert f - cap_coordinates == pytest.approx(constant, abs=1e-11)

    @pytest.mark.parametrize("K", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacked_rates_match_per_user_logdets_bit_for_bit(self, K, n):
        rng = rng_for(133, K, n)
        ch = random_channel(rng, n, K)
        root, _ = _sqrt_and_inv_sqrt(ch.input_cap)
        for _ in range(5):
            G = rng.standard_normal((K, n, n))
            X = G @ np.swapaxes(G, -1, -2)
            _, inv_total = _sqrt_and_inv_sqrt(X.sum(axis=0))
            split = CovarianceSplit(tuple(root @ inv_total @ Xi @ inv_total @ root for Xi in X))
            cum, expected = np.zeros((n, n)), []
            for k in range(K):
                below = cum
                cum = cum + split.parts[k]
                sig = ch.noise_covs[k]
                r = 0.5 * (mat.logdet(cum + sig) - mat.logdet(below + sig))
                expected.append(max(r, 0.0))
            assert np.array(rate_tuple(ch, split)).tobytes() == np.array(expected).tobytes()

    @staticmethod
    def _hessian_fd(chain, Q, h=1e-5):
        # central differences of the gradient along the symmetric basis
        # E_kl = e_k e_l^T + e_l e_k^T (k < l) and e_k e_k^T of each link,
        # the basis in which vech coordinates pair with D^T vec
        c, n = Q.shape[0], Q.shape[-1]
        rows, cols = np.triu_indices(n)
        basis = []
        for i in range(c):
            for k, l in zip(rows, cols):
                E = np.zeros((c, n, n))
                E[i, k, l] = E[i, l, k] = 1.0
                basis.append(E)
        H = np.empty((len(basis), len(basis)))
        for b, E in enumerate(basis):
            dG = (chain.value_and_grad(Q + h * E)[1] - chain.value_and_grad(Q - h * E)[1]) / (2 * h)
            H[:, b] = [float(np.sum(dG * F)) for F in basis]
        return H, basis

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_newton_direction_solves_the_central_difference_hessian(self, c, n):
        # weights within 5% of each other make -Hessian = 1/2 [w_lo A (x) A
        # - w_hi B (x) B] positive definite, because A > B; there the Newton
        # direction solves H x = -grad on the symmetric unknowns
        ch = random_channel(rng_for(130, c, n), n, c + 1)
        chain = region._ActiveChain(ch, np.linspace(1.0, 1.05, c + 1), list(range(c + 1)))
        rng = rng_for(134, c, n)
        for _ in range(3):
            Q = region._random_chain(rng, c, n)
            _, G, inv = chain.value_and_grad(Q)
            H, basis = self._hessian_fd(chain, Q)
            assert np.linalg.eigvalsh((H + H.T) / 2).max() < 0.0  # locally concave
            grad = np.array([float(np.sum(G * E)) for E in basis])
            expected = sum(x * E for x, E in zip(np.linalg.solve(-H, grad), basis))
            step = chain.newton(inv, G)
            assert step.shape == Q.shape
            np.testing.assert_allclose(step, np.swapaxes(step, -1, -2), rtol=0, atol=0)
            np.testing.assert_allclose(step, expected, rtol=0, atol=1e-6 * np.abs(expected).max())
            assert float(np.sum(G * step)) > 0.0

    def test_no_newton_direction_where_the_chain_is_not_concave(self):
        # with the weights 0.3 and 1 the Hessian has a positive eigenvalue at
        # these chains, and the ascent keeps its gradient step
        ch = random_channel(rng_for(130, 1, 2), 2, 2)
        chain = region._ActiveChain(ch, np.array([0.3, 1.0]), [0, 1])
        rng = rng_for(134, 1, 2)
        for _ in range(5):
            Q = region._random_chain(rng, 1, 2)
            _, G, inv = chain.value_and_grad(Q)
            H, _ = self._hessian_fd(chain, Q)
            assert np.linalg.eigvalsh((H + H.T) / 2).max() > 0.0
            assert chain.newton(inv, G) is None

    def test_interior_point_converges_in_a_few_newton_steps(self, monkeypatch):
        # channel (1002, 1) of the region benchmark at w = (cos 54, sin 54):
        # its maximum is interior (whitened eigenvalues 0.061 and 0.951),
        # where gradient steps alone took 26-40 evaluations per restart
        evals = []
        value_and_grad, ascend = region._ActiveChain.value_and_grad, region._ascend
        kept = []

        def counted_eval(self, Q):
            evals[-1] += 1
            return value_and_grad(self, Q)

        def counted_ascent(chain, Q):
            evals.append(0)
            kept.append(ascend(chain, Q))
            return kept[-1]

        monkeypatch.setattr(region._ActiveChain, "value_and_grad", counted_eval)
        monkeypatch.setattr(region, "_ascend", counted_ascent)
        ch = random_channel(rng_for(1002, 1), 2, 2)
        t = math.radians(54.0)
        w = (math.cos(t), math.sin(t))
        (split, _), = trace_boundary(ch, [w], OptimizerConfig(seed=42))
        assert len(evals) == region._RESTARTS
        assert max(evals) <= 12, evals
        # the projected-gradient residual |P(Q + grad) - Q| of the kept chain
        Q, _, capped = max(kept, key=lambda out: out[1])
        assert not capped
        lam = np.linalg.eigvalsh(Q[0])
        assert 0.05 < lam[0] and lam[1] < 0.96
        chain = region._ActiveChain(ch, np.array(w), [0, 1])
        _, G, _ = value_and_grad(chain, Q)
        assert np.linalg.norm(region._project_chain(Q + G) - Q) <= region._GRAD_TOL
        split.validate(ch.input_cap)

    def test_newton_trial_that_does_not_ascend_gives_way_to_the_gradient_trial(self, monkeypatch):
        # a direction d with <grad, d> <= 0 (here -grad itself) is never
        # evaluated: the ascent takes the gradient trial at once, so it runs
        # the evaluations and reaches the bytes of gradient steps alone
        ch = random_channel(rng_for(1002, 1), 2, 2)
        t = math.radians(54.0)
        w = [(math.cos(t), math.sin(t))]
        value_and_grad = region._ActiveChain.value_and_grad
        evals = [0]

        def counted_eval(self, Q):
            evals[0] += 1
            return value_and_grad(self, Q)

        monkeypatch.setattr(region._ActiveChain, "value_and_grad", counted_eval)
        runs = []
        for newton in (lambda self, inv, G: None, lambda self, inv, G: -G):
            monkeypatch.setattr(region._ActiveChain, "newton", newton)
            evals[0] = 0
            (split, rates), = trace_boundary(ch, w, OptimizerConfig(seed=42))
            runs.append((evals[0], np.array(split.parts).tobytes(), rates))
        assert runs[0] == runs[1]


def _random_symmetric(rng, n, lam):
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (V * lam) @ V.T


def _clip_reference(Q):
    lam, V = np.linalg.eigh(Q)
    return (V * np.clip(lam, 0.0, 1.0)) @ V.T


class TestProjectChain:
    # eigenvalues below 0, inside [0, 1] and above 1, alone and mixed
    SPECTRA = [(-1.5, -0.2, -3.0), (0.1, 0.5, 0.9), (1.2, 4.0, 1.0001), (-0.7, 0.4, 2.5)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_matrix_is_eigenvalue_clip(self, n):
        rng = rng_for(120, n)
        for spectrum in self.SPECTRA:
            Q = _random_symmetric(rng, n, np.array(spectrum[:n]))[None]
            P = region._project_chain(Q)
            np.testing.assert_allclose(P[0], _clip_reference(Q[0]), rtol=0, atol=1e-12)
            lam = np.linalg.eigvalsh(P[0])
            assert lam.min() >= -1e-14 and lam.max() <= 1.0 + 1e-14
            np.testing.assert_allclose(region._project_chain(P), P, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_matrix_far_point_needs_no_second_pass(self, n):
        # The clip's output V clip(lam) V^T is within round-off of the set at
        # any input norm, so a second pass would not move it.
        rng = rng_for(121, n)
        for spectrum in self.SPECTRA:
            for scale in (1e7, 1e12):
                A = _random_symmetric(rng, n, np.array(spectrum[:n]))[None]
                Q = scale * A / np.linalg.norm(A)
                P = region._project_chain(Q)
                np.testing.assert_allclose(P[0], _clip_reference(Q[0]), rtol=0, atol=1e-12)
                lam = np.linalg.eigvalsh(P[0])
                assert lam.min() >= -1e-14 and lam.max() <= 1.0 + 1e-14
                np.testing.assert_allclose(region._project_chain(P), P, rtol=0, atol=1e-14)

    def test_two_user_points_never_run_the_barrier(self, monkeypatch):
        calls = []
        barrier, ascend = region._barrier, region._ascend
        monkeypatch.setattr(region, "_barrier", lambda chain: calls.append("barrier") or barrier(chain))
        monkeypatch.setattr(region, "_ascend", lambda chain, Q: calls.append("ascend") or ascend(chain, Q))
        ch = random_channel(rng_for(123), 2, 2)
        trace_boundary(ch, [(0.6, 0.8), (0.3, 0.95), (0.0, 1.0)])
        assert calls == ["ascend"] * (2 * region._RESTARTS)
        # a three-user weight vector with every user active is one barrier
        # solve, and runs no ascent
        calls.clear()
        trace_boundary(random_channel(rng_for(123, 3), 2, 3), [(0.25, 0.35, 0.4)])
        assert calls == ["barrier"]


def _family_f(s):
    """Ill-conditioned channel s and its sorted weights: noises and caps
    whose eigenvalues span up to five decades, and for s divisible by 3
    noises that are equal in one direction. The projected ascent that the
    barrier solve replaced took 8 to 272 s per point on them."""
    rng = rng_for(777, s)
    n, K = (2 if s % 2 else 3), (4 if s % 4 >= 2 else 3)

    def spd(lo, hi):
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return (V * 10 ** rng.uniform(lo, hi, n)) @ V.T

    sig = [spd(-2, 1)]
    for _ in range(K - 1):
        inc = spd(-3, 1)
        if s % 3 == 0:
            lam, V = np.linalg.eigh(inc)
            lam[0] = 0.0
            inc = (V * lam) @ V.T
        sig.append(sig[-1] + inc)
    ch = BroadcastChannel(tuple(sig), spd(-1, 4))
    return ch, np.sort(rng.uniform(0.1, 1.0, K))


class TestIllConditionedChains:
    # w.R of the projected ascent with Dykstra projections that the barrier
    # solve replaced (default seed; 103, 7.8 and 20 s), with its last part
    # set to S minus the others: its parts missed the cap by up to 2.5e-8 in
    # an entry, inside the split rule's slack, which raised w.R on s = 35 by
    # 1.9e-12, about the barrier's bound
    ASCENT = {34: 6.732566695940839, 35: 1.879861818535902, 90: 5.732613153968264}

    @pytest.mark.parametrize("s", [34, 35, 90])
    def test_not_below_the_projected_ascent(self, s, trace_bounds):
        ch, w = _family_f(s)
        (split, rates), = trace_boundary(ch, [w])
        split.validate(ch.input_cap)
        assert float(w @ rates) >= self.ASCENT[s] - trace_bounds(ch, w, split)[0]

    def test_every_point_converges_to_a_valid_split(self):
        # s = 46 capped the projected ascent after 272 s; a RuntimeWarning
        # is an error here (pyproject), and a capped or stalled solve
        # raises NumericalError
        for s in [*range(40), 46]:
            ch, w = _family_f(s)
            (split, _), = trace_boundary(ch, [w])
            split.validate(ch.input_cap)


# Slack of the theorem check below. The walkthrough's achieved rates for
# K = 2 use one quadrature value, h(Y_2) from mixture_entropy_quad at its
# default order (160 nodes at n = 1, 56 x 56 at n = 2); against the doubled
# order it moved by at most 9e-14 over 300 fixture mixtures of this kind
# (and by 1.2e-9 at half the order). The traced point stops at a projected-
# gradient residual below region._GRAD_TOL = 1e-8 in whitened coordinates,
# which can leave w.R below the maximum by about that times the diameter of
# {0 <= Q <= I}, sqrt(n) <= 1.5. Both together stay below 1e-7.
THEOREM_SLACK = 1e-7


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 2]), st.sampled_from([2, 3]))
def test_achieved_rates_never_beat_traced_boundary(seed, n, m):
    """The paper's theorem end to end: no input distribution's achieved rates
    lie outside the superposition region, so for every weight vector w the
    walkthrough's w . R_achieved is at most w . R of the traced boundary."""
    rng = rng_for(1100, seed)
    ch = random_channel(rng, n, 2)
    src = admissible_mixture_for(ch, rng, m)
    achieved = np.array(converse_walkthrough(src, ch).achieved_rates)
    thetas = np.linspace(0.0, math.pi / 2.0, 11)
    weights = [(math.cos(t), math.sin(t)) for t in thetas]
    for w, (_, rates) in zip(weights, trace_boundary(ch, weights, OptimizerConfig(seed=seed))):
        assert np.dot(w, achieved) <= np.dot(w, rates) + THEOREM_SLACK


class TestGridOracle:
    def test_matrix_points_match_rate_tuple(self):
        # both take their rates from region._rates, so they agree exactly
        rng = rng_for(56)
        ch = random_channel(rng, 2, 2)
        results = grid_oracle(ch, 5)
        for split, rates in results[:: max(1, len(results) // 7)]:
            assert rate_tuple(ch, CovarianceSplit(split)) == rates

    @pytest.mark.parametrize("n", [2])
    def test_splits_are_read_only_views_of_valid_parts(self, n):
        ch = random_channel(rng_for(59, n), n, 2)
        results = grid_oracle(ch, 5)
        assert len(results) == 125
        for split, rates in results:
            assert isinstance(split, np.ndarray) and split.shape == (2, n, n)
            assert not split.flags.writeable
            assert all(mat.is_psd(part) for part in split)
            CovarianceSplit(split).validate(ch.input_cap)
            assert len(rates) == 2 and min(rates) >= 0.0

    def test_rejects_three_users(self):
        rng = rng_for(57)
        with pytest.raises(ValueError):
            grid_oracle(random_channel(rng, 1, 3), 5)

    @pytest.mark.parametrize("n", [1, 3])
    def test_rejects_other_dimensions(self, n):
        # decoupled_boundary is the exact oracle at n = 1
        with pytest.raises(ValueError, match="n=2 only"):
            grid_oracle(random_channel(rng_for(57, n), n, 2), 5)

    def test_optimizer_not_beaten_by_oracle(self):
        # local ascent with restarts should match the brute-force grid
        rng = rng_for(58)
        ch = random_channel(rng, 2, 2)
        weights = [(0.5, 0.5), (0.8, 0.2)]
        results = trace_boundary(ch, weights)
        oracle = grid_oracle(ch, 31)
        for w, (_, rates) in zip(weights, results):
            best = max(np.dot(w, r) for _, r in oracle)
            assert np.dot(w, rates) >= best - 1e-3


def _diagonal_channel(sigmas, cap):
    """Channel with noises diag(sigmas[k]) and cap diag(cap)."""
    return BroadcastChannel(
        noise_covs=tuple(np.diag(np.asarray(sg, dtype=float)) for sg in sigmas),
        input_cap=np.diag(np.asarray(cap, dtype=float)),
    )


class TestDecoupledBoundary:
    @pytest.mark.parametrize("w", [(0.38, 0.62), (0.35, 0.65)])
    def test_two_users_scalar_hand_formula(self, w):
        # S = 1, noises (1, 2): user 1 takes [0, z] where its marginal
        # utility w_1 / (z + 1) meets w_2 / (z + 2), user 2 the rest
        w1, w2 = w
        z = (2.0 * w1 - w2) / (w2 - w1)
        (rates,) = decoupled_boundary(scalar_channel(), [w])
        assert rates == pytest.approx(
            (0.5 * math.log(1.0 + z), 0.5 * math.log(3.0 / (2.0 + z))), rel=1e-14)

    @pytest.mark.parametrize("w, expected", [
        ((1.0, 0.0), (0.5 * math.log(2.0), 0.0)),
        ((0.0, 1.0), (0.0, 0.5 * math.log(1.5))),
        ((0.45, 0.55), (0.5 * math.log(2.0), 0.0)),  # they would meet at z = 3.5 > S
        ((0.3, 0.7), (0.0, 0.5 * math.log(1.5))),  # user 2 leads from z = 0
    ])
    def test_two_users_scalar_endpoints(self, w, expected):
        (rates,) = decoupled_boundary(scalar_channel(), [w])
        assert rates == pytest.approx(expected, rel=1e-15)
        assert 0.0 in rates

    @pytest.mark.parametrize("w", [(0.0, 0.5, 0.3, 0.8), (0.6, 0.2, 0.9, 0.4)])
    def test_unsorted_and_zero_weights(self, w, trace_bounds):
        # a user of zero weight, or of weight below an earlier user's, gets
        # no rate; the tracer agrees on the rotated channel
        diag, rotated = decoupled_channel(rng_for(140), 2, 4)
        (exact,) = decoupled_boundary(diag, [w])
        assert [k for k, r in enumerate(exact) if r == 0.0] == [
            k for k in range(4) if w[k] == 0.0 or w[k] <= max(w[:k], default=0.0)]
        (split, rates), = trace_boundary(rotated, [w])
        b_wsr, b_rate = trace_bounds(rotated, w, split)
        assert abs(np.dot(w, rates) - np.dot(w, exact)) <= b_wsr
        assert max(abs(a - b) for a, b in zip(rates, exact)) <= b_rate

    def test_equal_weights_go_to_the_earlier_user(self):
        # user 1's noise is smaller in direction 1 and equal in direction 2,
        # so at equal weights its utility is never below user 2's
        ch = _diagonal_channel([(1.0, 1.0), (2.0, 1.0)], (1.0, 2.0))
        (rates,) = decoupled_boundary(ch, [(0.5, 0.5)])
        assert rates == pytest.approx((0.5 * math.log(2.0) + 0.5 * math.log(3.0), 0.0), rel=1e-15)
        assert rates[1] == 0.0

    def test_equal_noises_in_one_direction_go_to_the_larger_weight(self):
        # direction 1: equal noises, so user 2 owns it all; direction 2:
        # user 1 takes [0, 1], where 0.4 / (z + 1) = 0.6 / (z + 2)
        ch = _diagonal_channel([(1.0, 1.0), (1.0, 2.0)], (2.0, 3.0))
        (rates,) = decoupled_boundary(ch, [(0.4, 0.6)])
        expected = (0.5 * math.log(2.0), 0.5 * math.log(3.0) + 0.5 * math.log(5.0 / 3.0))
        assert rates == pytest.approx(expected, rel=1e-15)
        (_, traced), = trace_boundary(ch, [(0.4, 0.6)])
        assert traced == pytest.approx(expected, abs=1e-7)

    def test_three_utilities_meeting_at_one_point_go_to_the_largest_weight(self):
        # w_k / (z + sigma_k) is 1/2 for all three users at z = 1; past it
        # user 3's falls slowest, so user 2 gets nothing
        ch = _diagonal_channel([(1.0,), (2.0,), (3.0,)], (3.0,))
        (rates,) = decoupled_boundary(ch, [(1.0, 1.5, 2.0)])
        assert rates == pytest.approx((0.5 * math.log(2.0), 0.0, 0.5 * math.log(1.5)), rel=1e-15)
        assert rates[1] == 0.0

    def test_rejects_channels_that_do_not_decouple(self):
        _, rotated = decoupled_channel(rng_for(143), 2, 3)
        with pytest.raises(ValueError, match="diagonal"):
            decoupled_boundary(rotated, [(0.2, 0.3, 0.5)])
        # the channel rule lets an increment fall 1e-9 below 0; the layer
        # order does not
        ch = _diagonal_channel([(1.0, 1.0), (1.0 - 1e-12, 2.0)], (1.0, 1.0))
        with pytest.raises(ValueError, match="nondecreasing"):
            decoupled_boundary(ch, [(0.5, 0.5)])

    def test_rejects_bad_weights(self):
        ch = scalar_channel()
        with pytest.raises(DimensionMismatchError):
            decoupled_boundary(ch, [(0.2, 0.3, 0.5)])
        for w in [(-0.1, 1.0), (0.0, 0.0), (math.nan, 1.0), (1.0, math.inf)]:
            with pytest.raises(ValueError):
                decoupled_boundary(ch, [w])

    @pytest.mark.parametrize("n, K", [
        (1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5),
    ])
    def test_tracer_matches_on_rotated_channels(self, n, K, trace_bounds):
        # one weight vector with every user active, one in random order
        rng = rng_for(141, n, K)
        diag, rotated = decoupled_channel(rng, n, K)
        weights = [np.sort(rng.uniform(0.05, 1.0, K)), rng.uniform(0.0, 1.0, K)]
        exact = decoupled_boundary(diag, weights)
        for w, (split, rates), e in zip(weights, trace_boundary(rotated, weights), exact):
            b_wsr, b_rate = trace_bounds(rotated, w, split)
            assert abs(np.dot(w, rates) - np.dot(w, e)) <= b_wsr
            assert max(abs(a - b) for a, b in zip(rates, e)) <= b_rate

    @pytest.mark.parametrize("n, K", [(1, 3), (2, 3), (3, 3), (2, 4)])
    @pytest.mark.parametrize("snr", [1e8, 1e12])
    def test_tracer_matches_at_high_snr(self, n, K, snr, trace_bounds):
        # a cap 1e8 to 1e12 times the noises: the barrier's duality gap is
        # in nats, so its bound does not grow with the cap's scale
        rng = rng_for(144, n, K)
        diag, rotated = decoupled_channel(rng, n, K)
        diag, rotated = (BroadcastChannel(c.noise_covs, snr * c.input_cap) for c in (diag, rotated))
        weights = [np.sort(rng.uniform(0.05, 1.0, K)) for _ in range(2)]
        exact = decoupled_boundary(diag, weights)
        for w, (split, rates), e in zip(weights, trace_boundary(rotated, weights), exact):
            assert region._active_users(w) == list(range(K))
            b_wsr, b_rate = trace_bounds(rotated, w, split)
            # the gap, and a round-off term that the cap's scale leaves small
            assert b_wsr <= 2.0 * region._GAP_TOL + 1e-14
            assert abs(np.dot(w, rates) - np.dot(w, e)) <= b_wsr
            assert max(abs(a - b) for a, b in zip(rates, e)) <= b_rate

import functools
import inspect
import json
import math

import numpy as np
import pytest

from mimobc import cli, estimators, matrices, verifier
from mimobc.errors import (
    DimensionMismatchError,
    InadmissibleSourceError,
    LoewnerOrderError,
    SingularMatrixError,
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
from mimobc.estimators import mixture_entropy_quad, mixture_fisher_quad
from mimobc.model import LOG_2PI_E, MixtureSource, aggregate_covariance, coarsen, gaussian_entropy
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
    run_inequality_suite,
    solve_fixed_point,
)

# frozen oracle values for the hand-checked scalar fixture
# p=(1/2,1/2), component variances (1,3), unit perturbations.
CRAMER_RAO_GAP = 0.375 - 1.0 / 3.0          # 0.0416667 with equal means
CRAMER_RAO_J = 0.375                        # J(Y|U) = (1/2)/2 + (1/2)/4
FISHER_SHIFT_GAP = 1.75 - 5.0 / 3.0         # 0.0833333 for sigma 1 -> 2


def _scalar_equal_means():
    return MixtureSource(
        weights=np.array([0.5, 0.5]),
        means=np.zeros((2, 1)),
        comp_covs=np.array([[[1.0]], [[3.0]]]),
    )


class TestCramerRao:
    def test_scalar_gap(self):
        rep = check_cramer_rao(_scalar_equal_means(), np.eye(1))
        assert rep.passed
        # relative to the largest entry of J
        assert rep.residual("min_eig(J - inv(Cov))_rel") == pytest.approx(
            CRAMER_RAO_GAP / CRAMER_RAO_J, abs=1e-10
        )

    def test_gaussian_equality(self):
        rep = check_cramer_rao(gaussian_source(np.array([[2.0]])), np.eye(1))
        assert rep.passed
        assert abs(rep.residual("equality_gap_rel")) <= 1e-12

    def test_random_mixtures(self):
        for seed in range(20):
            src = random_mixture(rng_for(301, seed), 2, 3)
            assert check_cramer_rao(src, np.eye(2)).passed

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_equality_case_decided_at_every_scale(self, scale):
        C = scale * np.array([[1.3, 0.4], [0.4, 0.9]])
        means = math.sqrt(scale) * np.array([[0.0, 0.0], [1.0, 0.5]])
        same = MixtureSource(np.array([1.0 / 3.0, 2.0 / 3.0]), means, np.stack([C, C]))
        rep = check_cramer_rao(same, scale * np.eye(2))
        assert rep.passed and rep.notes == "equality case asserted"
        assert abs(rep.residual("equality_gap_rel")) <= 1e-12
        # components 0.6% apart do not coincide, whatever their scale
        apart = MixtureSource(same.weights, means, np.stack([C, 1.006 * C]))
        rep = check_cramer_rao(apart, scale * np.eye(2))
        assert rep.passed and rep.notes == ""


class TestFisherShift:
    def test_scalar_gap(self):
        rep = check_fisher_shift(_scalar_equal_means(), np.eye(1), 2 * np.eye(1))
        assert rep.passed
        assert rep.residual("min_eig(big_side - small_side)") == pytest.approx(
            FISHER_SHIFT_GAP, abs=1e-10
        )

    def test_gaussian_equality(self):
        rep = check_fisher_shift(
            gaussian_source(np.array([[2.0]])), np.eye(1), 3 * np.eye(1)
        )
        assert rep.passed
        assert abs(rep.residual("min_eig(big_side - small_side)")) <= 1e-12

    def test_order_violation_raises(self):
        with pytest.raises(LoewnerOrderError):
            check_fisher_shift(_scalar_equal_means(), 2 * np.eye(1), np.eye(1))

    def test_random_matrix_cases(self):
        for seed in range(10):
            rng = rng_for(302, seed)
            src = random_mixture(rng, 2, 2)
            from mimobc.fixtures import random_spd

            a = random_spd(rng, 2, 0.5, 1.5)
            b = a + random_spd(rng, 2, 0.1, 1.0)
            assert check_fisher_shift(src, a, b, tol=1e-8).passed


class TestDeBruijn:
    def test_scalar(self):
        rep = check_debruijn(two_component_scalar_source(), np.eye(1))
        assert rep.passed

    def test_matrix_mixtures(self):
        for seed in range(5):
            src = random_mixture(rng_for(303, seed), 2, 3)
            rep = check_debruijn(src, np.eye(2), tol=1e-6)
            assert rep.passed, rep.to_dict()
        src = random_mixture(rng_for(303, 3, 0), 3, 3)
        rep = check_debruijn(src, np.eye(3), tol=1e-6)
        assert rep.passed, rep.to_dict()

    @pytest.mark.parametrize("noise", [1e-5, 1e-6])
    def test_tiny_noise_passes(self, noise):
        # the step shrinks with the noise, so the difference stays inside
        # the positive definite cone and the identity still holds
        rep = check_debruijn(two_component_scalar_source(), noise * np.eye(1))
        assert rep.passed, rep.to_dict()

    @pytest.mark.parametrize("scale", [1e-10, 5e-9, 1.0, 1e6])
    def test_scaled_input_passes(self, scale):
        # the step follows the observed covariances and the gap is relative
        # to J, so scaling every covariance by one factor changes neither
        base = random_mixture(rng_for(314), 2, 2)
        src = MixtureSource(base.weights, math.sqrt(scale) * base.means, scale * base.comp_covs)
        rep = check_debruijn(src, scale * np.eye(2))
        assert rep.passed, rep.to_dict()
        assert rep.residuals[0].label == "max_entry_gradient_gap_rel"


class TestDembo:
    def test_mixture_strict(self):
        rep = check_dembo(two_component_scalar_source(), np.eye(1))
        assert rep.passed
        assert rep.residual("entropy_minus_bound") > 1e-4

    def test_gaussian_equality(self):
        rep = check_dembo(gaussian_source(np.array([[1.3]])), np.eye(1))
        assert rep.passed
        assert abs(rep.residual("equality_gap")) <= 1e-12

    def test_random(self):
        for seed in range(20):
            src = random_mixture(rng_for(304, seed), 3, 2)
            assert check_dembo(src, np.eye(3)).passed


class TestFisherDpi:
    def test_three_level(self):
        h = random_hierarchy(rng_for(305), 1, (4, 2))
        rep = check_fisher_dpi(h, 2, 3, np.eye(1))
        assert rep.passed

    def test_same_level_equality(self):
        h = random_hierarchy(rng_for(306), 1, (3, 2))
        rep = check_fisher_dpi(h, 2, 2, np.eye(1))
        assert rep.passed
        assert abs(rep.residuals[0].value) <= 1e-10

    def test_level_order_enforced(self):
        h = random_hierarchy(rng_for(307), 1, (3, 2))
        with pytest.raises(ValueError):
            check_fisher_dpi(h, 3, 2, np.eye(1))

    def test_two_dimensional(self):
        h = random_hierarchy(rng_for(308), 2, (3, 2))
        rep = check_fisher_dpi(h, 2, 3, np.eye(2))
        assert rep.passed, rep.to_dict()

    @pytest.mark.parametrize("seed, n", [(309, 1), (310, 2), (311, 3)])
    def test_finest_level_is_the_closed_form(self, seed, n):
        # given U_2 every conditional law is one Gaussian component
        h = random_hierarchy(rng_for(seed), n, (3, 2))
        noise = 0.5 * np.eye(n)
        joint = coarsen(h, 2)
        J = mixture_fisher_quad(h.base, noise, joint=joint)
        h2 = mixture_entropy_quad(h.base, noise, joint=joint)
        # the closed forms one component at a time
        covs = h.base.comp_covs + noise[None]
        J_ref = np.einsum("u,uij->ij", h.base.weights, np.linalg.inv(covs))
        h_ref = h.base.weights @ (0.5 * (n * LOG_2PI_E + np.linalg.slogdet(covs)[1]))
        assert np.max(np.abs(J - J_ref)) <= 1e-13
        assert abs(h2 - h_ref) <= 1e-13


class TestFisherConvolution:
    def test_scalar(self):
        rep = check_fisher_convolution(
            two_component_scalar_source(), np.eye(1), np.eye(1)
        )
        assert rep.passed

    def test_gaussian_equality(self):
        rep = check_fisher_convolution(
            gaussian_source(np.array([[1.0]])), np.eye(1), 2 * np.eye(1)
        )
        assert rep.passed
        assert abs(rep.residuals[0].value) <= 1e-12

    def test_random_matrix(self):
        for seed in range(10):
            rng = rng_for(309, seed)
            src = random_mixture(rng, 2, 3)
            from mimobc.fixtures import random_spd

            a = random_spd(rng, 2, 0.5, 1.5)
            b = random_spd(rng, 2, 0.5, 1.5)
            assert check_fisher_convolution(src, a, b).passed


class TestLineIntegralEntropy:
    def test_scalar_closed_form(self):
        # Gaussian X with variance 1: h difference 0.5 ln((1+2)/(1+1)) along
        # the noise path 1 -> 2.
        g = gaussian_source(np.array([[1.0]]))
        rep = check_line_integral_entropy(g, np.eye(1), 2 * np.eye(1))
        assert rep.passed
        assert abs(rep.residual("integral_minus_entropy_gap")) <= 1e-10

    def test_mixture(self):
        rep = check_line_integral_entropy(
            two_component_scalar_source(), np.eye(1), 2 * np.eye(1)
        )
        assert rep.passed

    def test_matrix_random(self):
        for seed in range(5):
            rng = rng_for(310, seed)
            src = random_mixture(rng, 2, 2)
            from mimobc.fixtures import random_spd

            a = random_spd(rng, 2, 0.5, 1.5)
            b = a + random_spd(rng, 2, 0.1, 1.0)
            rep = check_line_integral_entropy(src, a, b)
            assert rep.passed, rep.to_dict()

    def test_bisects_a_sharp_field(self):
        # Gaussian X with variance 0.1 on the noise path 0.1 -> 1: the field
        # 0.5 / (0.1 + sigma) falls fivefold along the path, so on one
        # interval G7 and K15 disagree by 3.5e-6, above the tolerance
        g = gaussian_source(np.array([[0.1]]))
        rep = check_line_integral_entropy(g, 0.1 * np.eye(1), np.eye(1))
        assert rep.passed, rep.to_dict()
        assert abs(rep.residual("integral_minus_entropy_gap")) <= 1e-12

    def test_is_the_walkthrough_label_stage_bit_for_bit(self):
        # a plain source on a two-user channel: the check and the
        # walkthrough's one stage run the same level and line integral
        for c in range(30):
            rng = rng_for(91, c)
            ch = random_channel(rng, 1 + c % 3, 2)
            src = admissible_mixture_for(ch, rng, 2 + c % 2)
            rep = check_line_integral_entropy(src, *ch.noise_covs, 1e-6)
            stage = converse_walkthrough(src, ch).reports[1]
            assert stage.name == "stage_2_integral_identity"
            gap = rep.residual("integral_minus_entropy_gap")
            assert gap == stage.residual("integral_identity_gap")

    def test_four_dimensional_mixture(self):
        # closed forms only: no quadrature grid, so no dimension limit
        rng = rng_for(318)
        src = random_mixture(rng, 4, 3)
        a = random_spd(rng, 4, 0.5, 1.5)
        rep = check_line_integral_entropy(src, a, a + random_spd(rng, 4, 0.1, 1.0))
        assert rep.passed, rep.to_dict()

    def test_fails_on_kronrod_error_when_the_field_is_sharp(self, monkeypatch):
        # the same field with bisection disabled
        monkeypatch.setattr(matrices, "_MAX_INTERVALS", 1)
        g = gaussian_source(np.array([[0.1]]))
        rep = check_line_integral_entropy(g, 0.1 * np.eye(1), np.eye(1))
        assert not rep.passed
        assert abs(rep.residual("integral_minus_entropy_gap")) <= 1e-10
        assert rep.residual("kronrod_error") > rep.tolerance_used


class TestFEpsilon:
    EPS = (1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)

    def test_gaussian_identically_zero(self):
        rep = check_f_epsilon(gaussian_source(np.array([[1.5]])), np.eye(1), self.EPS)
        assert rep.passed
        for r in rep.residuals:
            if r.kind == "eq":
                assert abs(r.value) <= 1e-10

    def test_mixture(self):
        rep = check_f_epsilon(two_component_scalar_source(), np.eye(1), self.EPS)
        assert rep.passed, rep.to_dict()

    def test_matrix(self):
        src = random_mixture(rng_for(311), 2, 2)
        rep = check_f_epsilon(src, np.eye(2), self.EPS)
        assert rep.passed, rep.to_dict()
        src = random_mixture(rng_for(311, 3), 3, 2)
        rep = check_f_epsilon(src, np.eye(3), self.EPS)
        assert rep.passed, rep.to_dict()


class TestFixedPoint:
    def test_gaussian_t_zero(self):
        # Matched Gaussian: the lower endpoint already satisfies the entropy
        # match, so t* = 0 and A equals the source covariance.
        C = np.array([[0.6]])
        src = gaussian_source(C)
        ch = scalar_channel()
        res = solve_fixed_point(src, ch, 1, ch.input_cap)
        assert res.t_star == 0.0
        assert abs(res.A[0, 0] - 0.6) <= 1e-8
        assert res.entropy_match_residual <= 1e-10

    def test_mixture_bracketed(self):
        ch = scalar_channel(S=2.5)
        src = two_component_scalar_source()
        res = solve_fixed_point(src, ch, 2, ch.input_cap)
        assert res.bracketed
        assert 0.0 <= res.t_star <= 1.0
        assert abs(res.entropy_match_residual) <= 1e-8
        assert res.sandwich_lower_residual >= -1e-8
        assert res.sandwich_upper_residual >= -1e-8

    def test_random_two_user(self):
        for seed in range(10):
            rng = rng_for(312, seed)
            ch = random_channel(rng, 2, 2)
            src = admissible_mixture_for(ch, rng, 2)
            res = solve_fixed_point(src, ch, 2, ch.input_cap)
            assert abs(res.entropy_match_residual) <= 1e-8
            assert res.sandwich_lower_residual >= -1e-8
            assert res.sandwich_upper_residual >= -1e-8

    def test_bad_user_index(self):
        ch = scalar_channel()
        with pytest.raises(ValueError):
            solve_fixed_point(gaussian_source(np.array([[0.5]])), ch, 3, ch.input_cap)

    # 11, 12, 907, 5, 7 and 2211 are the seeds of the benchmark's converse
    # instances, every stage bracketed and passed; the bisection that the
    # Newton solve replaced stopped up to 1e-10 nats short on them
    @pytest.mark.parametrize("seed", [3, 7, 11, 12, 907, 5, 2211])
    def test_same_t_star_as_the_logdet_bisection(self, seed):
        # within the reference's own tolerance over the smallest slope of
        # the entropy on the segment; the walkthrough's J and h come from
        # its stage level and differ from these in the last bits
        for c in range(3):
            for stage, match, J, target, sigma, cap in _converse_solves(seed, c):
                assert abs(match) <= _round_off(target)
                t_ref = _logdet_bisection(J, target, sigma, cap)
                bound = _reference_t_bound(J, target, sigma, cap)
                res = verifier._solve_fixed_point_core(J, target, sigma, cap)
                assert abs(res.t_star - t_ref) <= bound
                assert abs(stage.t_star - t_ref) <= bound

    def test_indefinite_pencil_reaches_its_target(self):
        # D = L diag(-0.4, 2.5) L^T: one pencil eigenvalue in (-1, 0), and
        # still a concave entropy that rises through each target
        rng = rng_for(314)
        sigma = random_spd(rng, 2, 0.5, 1.5)
        B0 = random_spd(rng, 2, 0.5, 2.0)
        L = np.linalg.cholesky(B0)
        lower = B0 - sigma
        cap = lower + L @ np.diag([-0.4, 2.5]) @ L.T
        J = np.linalg.inv(B0)
        for t in (0.1, 0.5, 0.9):
            target = gaussian_entropy((1.0 - t) * lower + t * cap + sigma)
            res = verifier._solve_fixed_point_core(J, target, sigma, cap)
            assert res.bracketed
            assert abs(res.entropy_match_residual) <= _round_off(target)
            assert abs(res.t_star - t) <= _round_off(target) / _slope_at_one(J, sigma, cap)

    def test_degenerate_pencil_takes_an_end(self):
        # upper_cap = J^{-1} - sigma: D = 0, so the entropy is flat and no
        # target inside the segment needs a solve; a RuntimeWarning would
        # be an error here (pyproject)
        rng = rng_for(315)
        sigma = random_spd(rng, 2, 0.5, 1.5)
        J = np.linalg.inv(sigma + random_spd(rng, 2, 0.1, 1.0))
        cap = matrices.inv_pd(J) - sigma
        h = gaussian_entropy(cap + sigma)
        res = verifier._solve_fixed_point_core(J, h, sigma, cap)
        assert res.t_star == 0.0 and res.bracketed
        for target in (h - 0.1, h + 0.1):
            res = verifier._solve_fixed_point_core(J, target, sigma, cap)
            assert res.t_star == 0.0 and not res.bracketed

    def test_non_positive_definite_cap_raises(self):
        ch = scalar_channel(S=2.5)
        with pytest.raises(SingularMatrixError):
            solve_fixed_point(two_component_scalar_source(), ch, 2, -2.0 * ch.noise_covs[1])


def _round_off(h):
    """Round-off allowance of an entropy h in nats."""
    return 64.0 * np.finfo(float).eps * max(1.0, abs(h))


def _slope_at_one(J, sigma, upper_cap):
    """r'(1) = sum_i lambda_i / (1 + lambda_i) / 2 for the pencil eigenvalues
    lambda: the smallest slope of the concave entropy r(t) on [0, 1]."""
    L = np.linalg.cholesky(np.linalg.inv(J))
    D = upper_cap - (matrices.inv_pd(J) - sigma)
    lam = np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, D).T))
    return 0.5 * float(np.sum(lam / (1.0 + lam)))


def _reference_t_bound(J, h_target, sigma, upper_cap):
    """How far the reference bisection's t may lie from the root: it stops
    within ``_FIXED_POINT_TOL`` of the target, the solve within round-off,
    and r rises at least r'(1) per unit t."""
    return (verifier._FIXED_POINT_TOL + _round_off(h_target)) / _slope_at_one(J, sigma, upper_cap)


def _converse_solves(seed, c):
    """(stage, entropy match of its report, J, target, sigma, cap) of each
    fixed point of the c-th instance of seed, built as the ``converse``
    benchmark workload builds its instances, after checking that its
    walkthrough passes with every stage bracketed."""
    rng = rng_for(seed, 2, c)
    h = random_hierarchy(rng, 3, (2, 2))
    ch = admissible_channel_for(aggregate_covariance(h.base), rng, 3)
    report = converse_walkthrough(h, ch)
    assert report.passed
    stage_reports = [r for r in report.reports if r.name.startswith("stage_") and r.name[6:].isdigit()]
    assert len(stage_reports) == 2
    assert all(r.residual("bracketed") == 0.0 for r in stage_reports)
    solves = []
    cap = ch.input_cap
    for stage, stage_report in zip(report.stages, stage_reports):
        k = stage.user_index
        assert stage_report.name == f"stage_{k}"
        sigma, sigma_prev = ch.noise_covs[k - 1], ch.noise_covs[k - 2]
        joint = coarsen(h, k)
        J = mixture_fisher_quad(h.base, sigma, joint=joint)
        target = mixture_entropy_quad(h.base, np.stack([sigma, sigma_prev]), joint=joint)[0]
        solves.append((stage, stage_report.residual("entropy_match"), J, target, sigma, cap))
        cap = stage.A
    return solves


def _logdet_bisection(J, h_target, sigma, upper_cap):
    """t_star of the fixed-point bisection with every step's entropy a
    Cholesky log-determinant of A(t) + sigma."""
    tol = verifier._FIXED_POINT_TOL
    lower = matrices.symmetrize(matrices.inv_pd(J) - sigma)

    def r(t):
        return gaussian_entropy(matrices.symmetrize((1.0 - t) * lower + t * upper_cap) + sigma)

    r0, r1 = r(0.0), r(1.0)
    if abs(r0 - h_target) <= tol:
        return 0.0
    if abs(r1 - h_target) <= tol:
        return 1.0
    if not (r0 <= h_target + tol and r1 >= h_target - tol):
        return 0.0 if abs(r0 - h_target) <= abs(r1 - h_target) else 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        t = 0.5 * (lo + hi)
        rt = r(t)
        if abs(rt - h_target) <= tol:
            break
        if rt < h_target:
            lo = t
        else:
            hi = t
    return t


class TestConverseWalkthrough:
    def test_two_user_mixture(self):
        ch = scalar_channel(S=2.5)
        rep = converse_walkthrough(two_component_scalar_source(), ch)
        assert rep.passed
        assert rep.reports[-1].name == "domination" and rep.reports[-1].passed
        assert len(rep.stages) == 1
        assert len(rep.achieved_rates) == 2
        # split recovered from the stage covariances adds up to the cap
        total = sum(rep.split)
        assert np.allclose(total, ch.input_cap, atol=1e-8)

    def test_gaussian_tight(self):
        # X Gaussian with Cov(X) = S: achieved rates should sit on the
        # boundary, matching the region point of the recovered split.
        ch = scalar_channel()
        rep = converse_walkthrough(gaussian_source(np.array([[1.0]])), ch)
        assert rep.passed
        assert np.allclose(rep.achieved_rates, rep.region_rates, atol=1e-6)

    def test_inadmissible_raises(self):
        ch = scalar_channel()  # cap 1 < Cov(X) = 2.0625
        with pytest.raises(InadmissibleSourceError):
            converse_walkthrough(two_component_scalar_source(), ch)

    def test_depth_mismatch_raises(self):
        ch = scalar_channel(S=2.5, sigmas=(1.0, 2.0, 3.0))
        with pytest.raises(
            DimensionMismatchError,
            match=r"^hierarchy depth 2 does not match the channel's 3 users$",
        ):
            converse_walkthrough(two_component_scalar_source(), ch)

    def test_three_user_hierarchy(self):
        rng = rng_for(313)
        h = random_hierarchy(rng, 1, (3, 2))
        ch = admissible_channel_for(aggregate_covariance(h.base), rng, 3)
        rep = converse_walkthrough(h, ch)
        assert rep.passed, [r.to_dict() for r in rep.reports]
        assert len(rep.stages) == 2
        assert len(rep.achieved_rates) == 3

    def test_one_grid_walk_per_mixed_stage(self, monkeypatch):
        # a mixed stage walks the grids once in total: J(Y_k | U_k),
        # h(Y_k | U_k), h(Y_{k-1} | U_k), at the top h(Y_K), and J at the 15
        # nodes of the line integral's first G7/K15 rule come from one
        # ``mixture_level_quad`` walk, made by the field's first call, with
        # J at Sigma_k and the nodes and the entropies at Sigma_k and
        # Sigma_{k-1}; no quantity is walked twice at one noise covariance
        # with the same table, and no Fisher row is walked at Sigma_{k-1}
        rng = rng_for(11, 2, 0)
        h = random_hierarchy(rng, 3, (2, 2))
        ch = admissible_channel_for(aggregate_covariance(h.base), rng, 3)
        context = []  # the calls in progress, innermost last
        rules, walks = [], []

        def tracking(name, quad):
            def call(src, noise_cov, *args, **kwargs):
                bound = inspect.signature(quad).bind(src, noise_cov, *args, **kwargs)
                args_ = bound.arguments
                joint = args_.get("joint")
                table = src.weights[:, None] if joint is None else np.asarray(joint)
                shape = (-1,) + src.comp_covs.shape[1:]
                noises = list(np.reshape(noise_cov, shape))
                # the (quantity, noise covariance, table) triples the call evaluates
                if name == "mixture_level_quad":
                    entropy = list(np.reshape(args_["entropy_cov"], shape))
                    pairs = [("J", S, table) for S in noises] + [("h", S, table) for S in entropy]
                    if args_.get("unconditional", True):
                        pairs += [("h", S, src.weights[:, None]) for S in entropy]
                else:
                    pairs = [("J", S, table) for S in noises]
                context.append((name, args_, pairs))
                try:
                    return quad(src, noise_cov, *args, **kwargs)
                finally:
                    context.pop()
            return call

        line_integral = matrices.matrix_line_integral

        def integrating(field, a, b, tol):
            def traced(sigmas):
                rules.append((a, b, sigmas))
                context.append(("field", len(rules) - 1, None))
                try:
                    return field(sigmas)
                finally:
                    context.pop()
            return line_integral(traced, a, b, tol)

        blocks = estimators._ObservedLevel.blocks
        correction = estimators._fisher_correction
        fisher_rows = []  # the noise indices of each walk's Fisher rows

        def walking(obs, *args):
            walks.append(list(context))
            return blocks(obs, *args)

        def correcting(obs, grids, noises, *args):
            fisher_rows.append(noises)
            return correction(obs, grids, noises, *args)

        for name in ("mixture_level_quad", "mixture_fisher_quad"):
            monkeypatch.setattr(verifier, name, tracking(name, getattr(verifier, name)))
        monkeypatch.setattr(matrices, "matrix_line_integral", integrating)
        monkeypatch.setattr(estimators._ObservedLevel, "blocks", walking)
        monkeypatch.setattr(estimators, "_fisher_correction", correcting)
        assert converse_walkthrough(h, ch).passed

        mixed_stages = [
            k for k in range(3, 1, -1)
            if np.any(np.count_nonzero(coarsen(h, k) > 0.0, axis=0) > 1)
        ]
        assert mixed_stages == [3]
        # one rule per stage: neither line integral bisects on this input
        assert len(rules) == 2
        assert len(walks) == len(fisher_rows) == len(mixed_stages)
        t = matrices._kronrod_rule()[0][:, None, None]
        for k, walk, rows in zip(mixed_stages, walks, fisher_rows):
            (outer, rule, _), (name, args_, _) = walk
            assert (outer, name) == ("field", "mixture_level_quad")
            sigma, sigma_prev = ch.noise_covs[k - 1], ch.noise_covs[k - 2]
            a, b, nodes = rules[rule]
            # the field's first call is the rule on [0, 1] of its integral
            assert a is sigma_prev and b is sigma
            assert np.array_equal(nodes, sigma_prev + t * (sigma - sigma_prev))
            assert np.array_equal(args_["fisher_cov"], np.concatenate([sigma[None], nodes]))
            assert np.array_equal(args_["entropy_cov"], np.stack([sigma, sigma_prev]))
            assert args_["unconditional"] == (k == 3)
            # the level holds [Sigma_k, Sigma_{k-1}, nodes]: Fisher rows at
            # Sigma_k and at nodes, none at Sigma_{k-1}
            assert 1 not in rows and 0 in rows and set(rows.tolist()) - {0}
        pairs = [
            (q, S.tobytes(), P.tobytes()) for walk in walks for q, S, P in walk[-1][2]
        ]
        assert len(set(pairs)) == len(pairs)

    @pytest.mark.parametrize("K", [2, 3])
    def test_one_observed_level_per_stage(self, monkeypatch, K):
        # each stage's field builds the stage's one ``_ObservedLevel`` on its
        # first call, the label stage's included; no line integral bisects
        # on these inputs, so a K = 3 walkthrough builds 2 levels and K = 2 one
        rng = rng_for(11, 2, 0)
        h = random_hierarchy(rng, 3, (2, 2) if K == 3 else (2,))
        ch = admissible_channel_for(aggregate_covariance(h.base), rng, K)
        levels, fields = [], []
        init = estimators._ObservedLevel.__init__

        def counting(obs, *args):
            levels.append(len(fields))
            init(obs, *args)

        line_integral = matrices.matrix_line_integral

        def integrating(field, a, b, tol):
            def counted(sigmas):
                fields.append(sigmas)
                return field(sigmas)
            return line_integral(counted, a, b, tol)

        monkeypatch.setattr(estimators._ObservedLevel, "__init__", counting)
        monkeypatch.setattr(matrices, "matrix_line_integral", integrating)
        assert converse_walkthrough(h, ch).passed
        assert len(fields) == K - 1
        # each level is built inside a stage's one field call
        assert levels == list(range(1, K))

    @pytest.mark.parametrize("bits", [False, True])
    def test_cli_report_keys(self, tmp_path, bits):
        doc = {
            "channel": {"noise_covs": [[[1.0]], [[2.0]]], "input_cap": [[2.5]]},
            "source": {"weights": [0.5, 0.5], "means": [[0.0], [0.5]],
                       "comp_covs": [[[1.0]], [[3.0]]]},
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        argv = ["walkthrough", str(path), "--output", str(out)] + (["--bits"] if bits else [])
        assert cli.main(argv) == 0
        keys = {"stages", "achieved_rates", "region_rates", "split", "passed", "reports"}
        if bits:
            keys |= {"achieved_rates_bits", "region_rates_bits"}
        doc = json.loads(out.read_text())
        assert set(doc) == keys
        # a stage holds its t_star and A; its residuals are in the reports
        assert [set(stage) for stage in doc["stages"]] == [{"user_index", "t_star", "A"}]


class TestInequalitySuite:
    def test_scalar_fixture_all_pass(self):
        reports = run_inequality_suite(two_component_scalar_source())
        assert reports, "suite must not be empty"
        names = {r.name for r in reports}
        assert {
            "cramer_rao",
            "fisher_shift",
            "de_bruijn",
            "dembo",
            "fisher_dpi",
            "fisher_convolution",
            "line_integral_entropy",
            "f_epsilon",
        } <= names
        for r in reports:
            assert r.passed, r.to_dict()

    def test_gaussian_all_pass(self):
        for r in run_inequality_suite(gaussian_source(np.array([[1.0, 0.2], [0.2, 2.0]]))):
            assert r.passed, r.to_dict()

    def test_random_matrix_mixtures(self):
        for seed in range(5):
            src = random_mixture(rng_for(314, seed), 2, 3)
            for r in run_inequality_suite(src):
                assert r.passed, r.to_dict()


class TestStackedNoises:
    """Each check evaluates each closed form once, on the stack of every
    noise covariance it needs."""

    # _ObservedLevel constructions per check, J and h from one level;
    # line_integral_entropy's field builds one per call, and its first also
    # gives h at both ends, so a suite run whose line integral does not
    # bisect builds 8
    CONSTRUCTIONS = {
        "cramer_rao": 1, "fisher_shift": 1, "debruijn": 1, "dembo": 1,
        "fisher_dpi": 1, "fisher_convolution": 1, "line_integral_entropy": 0,
        "f_epsilon": 1,
    }

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_construction_per_closed_form(self, monkeypatch, n):
        rng = rng_for(316, n)
        ch = random_channel(rng, n, 2)
        src = admissible_mixture_for(ch, rng, 3)
        current, counts, field_calls = [], {}, []

        def checking(name, check):
            def call(*args, **kwargs):
                current.append(name)
                try:
                    return check(*args, **kwargs)
                finally:
                    current.pop()
            return call

        init = estimators._ObservedLevel.__init__

        def counting(obs, *args, **kwargs):
            counts[current[-1]] = counts.get(current[-1], 0) + 1
            init(obs, *args, **kwargs)

        line_integral = matrices.matrix_line_integral

        def integrating(field, a, b, tol):
            def counted(sigmas):
                field_calls.append(current[-1])
                return field(sigmas)
            return line_integral(counted, a, b, tol)

        for name in self.CONSTRUCTIONS:
            check = getattr(verifier, f"check_{name}")
            monkeypatch.setattr(verifier, f"check_{name}", checking(name, check))
        monkeypatch.setattr(estimators._ObservedLevel, "__init__", counting)
        monkeypatch.setattr(matrices, "matrix_line_integral", integrating)
        assert all(r.passed for r in run_inequality_suite(src, ch=ch))

        assert field_calls and set(field_calls) == {"line_integral_entropy"}
        counts["line_integral_entropy"] -= len(field_calls)
        assert counts == self.CONSTRUCTIONS

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_per_noise_loops(self, n):
        for seed in range(3):
            rng = rng_for(317, n, seed)
            src = random_mixture(rng, n, 3)
            a = random_spd(rng, n, 0.5, 1.5)
            b = a + random_spd(rng, n, 0.1, 1.0)
            fisher = functools.partial(estimators.fisher_conditional, src)
            entropy = functools.partial(estimators.entropy_conditional, src)

            rep = check_debruijn(src, a)
            observed = np.linalg.eigvalsh(src.comp_covs + a[None])[:, 0]
            step = min(0.1 * matrices.min_eig(a), 1e-4 * float(observed.min()))
            half_J = 0.5 * fisher(a)
            gaps = []
            for i in range(n):
                for j in range(i, n):
                    E = np.zeros((n, n))
                    E[i, j] = E[j, i] = step
                    grad = (entropy(a + E) - entropy(a - E)) / (2.0 * step)
                    gaps.append(abs(grad - (1.0 if i == j else 2.0) * half_J[i, j]))
            ref = max(gaps) / np.max(np.abs(half_J))
            assert abs(rep.residual("max_entry_gradient_gap_rel") - ref) <= 1e-10

            eps = TestFEpsilon.EPS
            rep = check_f_epsilon(src, a, eps)
            J0inv = np.linalg.inv(fisher(0.0 * a))
            root_inv = matrices.inv_pd(matrices.sqrt_psd(a))
            lam = np.linalg.eigvalsh(root_inv @ J0inv @ root_inv)
            lam_t = np.linalg.eigvalsh(root_inv @ aggregate_covariance(src) @ root_inv)
            f = [entropy(e * a) - gaussian_entropy(J0inv + e * a) for e in eps]
            lo = [0.5 * np.sum(np.log(e / (lam + e))) for e in eps]
            hi = [0.5 * np.sum(np.log((lam_t + e) / (lam + e))) for e in eps]
            ref = [f[0]] + [f[k] - f[k + 1] for k in range(len(eps) - 1)]
            for k in range(len(eps)):
                ref += [f[k] - lo[k], hi[k] - f[k]]
            ref.append(10.0 * rep.tolerance_used + max(abs(lo[-1]), abs(hi[-1])) - abs(f[-1]))
            assert len(rep.residuals) == len(ref)
            for r, v in zip(rep.residuals, ref):
                assert abs(r.value - v) <= 1e-12, r.label

            rep = check_fisher_shift(src, a, b)
            lhs = matrices.inv_pd(fisher(b)) - b
            rhs = matrices.inv_pd(fisher(a)) - a
            assert abs(rep.residuals[0].value - matrices.min_eig(lhs - rhs)) <= 1e-12

            rep = check_fisher_convolution(src, a, b)
            bound = matrices.inv_pd(matrices.inv_pd(fisher(a)) + b)
            assert abs(rep.residuals[0].value - matrices.min_eig(bound - fisher(a + b))) <= 1e-12

            rep = check_line_integral_entropy(src, a, b)
            integral, _ = matrices.matrix_line_integral(fisher, a, b, rep.tolerance_used)
            ref = 0.5 * integral - (entropy(b) - entropy(a))
            assert abs(rep.residual("integral_minus_entropy_gap") - ref) <= 1e-12

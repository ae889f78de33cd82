import json
import math

import numpy as np
import pytest

from mimobc import cli, matrices, verifier
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
        J = verifier.mixture_fisher_quad(h.base, noise, joint=joint)
        h2 = verifier.mixture_entropy_quad(h.base, noise, joint=joint)
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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pencil_entropy_matches_gaussian_entropy(self, n):
        for seed in range(5):
            rng = rng_for(313, n, seed)
            sigma = random_spd(rng, n, 0.5, 1.5)
            lower = random_spd(rng, n, 0.1, 1.0)
            cap = lower + random_spd(rng, n, 0.01, 3.0)
            r = verifier._pencil_entropy(lower, sigma, cap)
            for t in np.linspace(0.0, 1.0, 11):
                exact = gaussian_entropy((1.0 - t) * lower + t * cap + sigma)
                assert abs(r(t) - exact) <= 1e-12

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_same_t_star_as_the_logdet_bisection(self, seed):
        for c in range(3):
            rng = rng_for(seed, 2, c)
            h = random_hierarchy(rng, 3, (2, 2))
            ch = admissible_channel_for(aggregate_covariance(h.base), rng, 3)
            report = converse_walkthrough(h, ch)
            cap = ch.input_cap
            for stage in report.stages:
                k = stage.user_index
                sigma, sigma_prev = ch.noise_covs[k - 1], ch.noise_covs[k - 2]
                joint = coarsen(h, k)
                J = mixture_fisher_quad(h.base, sigma, joint=joint)
                target = mixture_entropy_quad(
                    h.base, np.stack([sigma, sigma_prev]), joint=joint)[0]
                t_star = _logdet_bisection(J, target, sigma, cap)
                assert verifier._solve_fixed_point_core(J, target, sigma, cap).t_star == t_star
                assert stage.t_star == t_star
                cap = stage.A

    def test_non_positive_definite_cap_raises(self):
        ch = scalar_channel(S=2.5)
        with pytest.raises(SingularMatrixError):
            solve_fixed_point(two_component_scalar_source(), ch, 2, -2.0 * ch.noise_covs[1])


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

    def test_no_entropy_quadrature_repeats(self, monkeypatch):
        # every stage entropy is computed once, h(Y_k | U_k) and
        # h(Y_{k-1} | U_k) in one call per stage; the achieved rates reuse them
        rng = rng_for(11, 2, 0)
        h = random_hierarchy(rng, 3, (2, 2))
        ch = admissible_channel_for(aggregate_covariance(h.base), rng, 3)
        seen = []
        quad = verifier.mixture_entropy_quad

        def recording(src, noise_cov, order=None, joint=None):
            seen.append(tuple(np.asarray(a).tobytes() for a in (
                src.weights, src.means, src.comp_covs, noise_cov, joint)) + (order,))
            return quad(src, noise_cov, order, joint)

        monkeypatch.setattr(verifier, "mixture_entropy_quad", recording)
        assert converse_walkthrough(h, ch).passed
        assert len(seen) == 3
        assert len(set(seen)) == len(seen)

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
        assert set(json.loads(out.read_text())) == keys


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

"""Executable checks for every information inequality the converse relies
on, the intermediate-value fixed-point construction, and the full converse
walkthrough that replays the proof chain on a concrete input distribution.

The law of X given one symbol of an auxiliary U_k is a Gaussian mixture of
the base components. ``model.coarsen`` gives a whole level as one joint
table P(u_2 = u, U_k = g), and ``estimators.mixture_fisher_quad`` and
``mixture_entropy_quad`` turn it into J(Y | U_k) and h(Y | U_k) in one call,
at one noise covariance or a stack of them. Given the mixture label X + N is
Gaussian, and ``fisher_conditional`` and ``entropy_conditional`` give its
closed forms, also at a stack of noise covariances; the kernels share that
code for the finest auxiliary (a diagonal table), whose every symbol has one
component. Given a coarser auxiliary the kernels use the deterministic
Gauss-Hermite quadrature: a pruned tensor grid whose dropped nodes carry
under 1e-19 of the weight at the default orders. The error of the
quadrature order itself is not estimated and does not enter any tolerance.
On a badly conditioned mixture it is about 1e-9 in Fisher information but
reaches about 5e-4 in entropy at the default order (see
``estimators.mixture_entropy_quad``), more than the 1e-6 to 1e-10 the
walkthrough's identities are judged at, so a pass does not bound it.

The matrix line integrals of the Fisher field use the adaptive
Gauss-Kronrod G7/K15 rule of ``matrices.matrix_line_integral``, which
bisects the path until its summed error estimate |K15 - G7| is within the
report's tolerance. Half that estimate (the integral enters halved) is
reported as a ``kronrod_error`` residual and judged at the tolerance, so a
field the rule cannot resolve within its interval cap does not pass.

Every evaluation is deterministic. The settings no caller varies are module
constants: the fixed-point bisection tolerance and the walkthrough's
sandwich tolerance. The de Bruijn check takes its finite-difference step
from its noise and observed covariances and judges its gap relative to J.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matrices as mat
from .errors import (
    DimensionMismatchError,
    InadmissibleSourceError,
    LoewnerOrderError,
    SingularMatrixError,
)
from .estimators import (
    entropy_conditional,
    fisher_conditional,
    mixture_entropy_quad,
    mixture_fisher_quad,
)
from .model import (
    LOG_2PI_E,
    BroadcastChannel,
    MarkovHierarchy,
    MixtureSource,
    aggregate_covariance,
    coarsen,
    gaussian_entropy,
)
from .region import CovarianceSplit, rate_tuple
from .report import Residual, VerificationReport, WalkthroughReport, WalkthroughStage

__all__ = [
    "FixedPointResult",
    "check_cramer_rao",
    "check_fisher_shift",
    "check_debruijn",
    "check_dembo",
    "check_fisher_dpi",
    "check_fisher_convolution",
    "check_line_integral_entropy",
    "check_f_epsilon",
    "solve_fixed_point",
    "converse_walkthrough",
    "run_inequality_suite",
]

# bisection tolerance on the entropy match of every fixed point
_FIXED_POINT_TOL = 1e-10
# tolerance of the walkthrough's per-stage sandwich and entropy-bound report
_SANDWICH_TOL = 1e-8
# tolerance of the walkthrough's integral identity, and the error budget of
# its line integral
_INTEGRAL_TOL = 1e-6


# --- inequality checks -------------------------------------------------------------

def check_cramer_rao(src: MixtureSource, noise_cov, tol: float = 1e-8) -> VerificationReport:
    """Conditional Cramer-Rao bound: J(Y|U) >= Cov(Y|U)^{-1}, with equality
    when every component covariance coincides.

    The components coincide when they differ by at most 1e-12 times their
    largest entry, and the residuals are relative to the largest entry of
    J, so the check reads the same at every scale.
    """
    J = fisher_conditional(src, noise_cov)
    cov = np.einsum("u,uij->ij", src.weights, src.comp_covs + noise_cov[None])
    diff = J - mat.inv_pd(cov)
    scale = float(np.max(np.abs(J)))
    residuals = [Residual("min_eig(J - inv(Cov))_rel", mat.min_eig(diff) / scale, "ineq")]
    covs = src.comp_covs
    equal_covs = float(np.max(np.abs(covs - covs[0]))) <= 1e-12 * float(np.max(np.abs(covs)))
    if equal_covs:
        residuals.append(
            Residual("equality_gap_rel", float(np.max(np.abs(diff))) / scale, "eq")
        )
    return VerificationReport.from_residuals(
        "cramer_rao", residuals, tol,
        notes="equality case asserted" if equal_covs else "",
    )


def check_fisher_shift(src: MixtureSource, sigma_a, sigma_b, tol: float = 1e-8) -> VerificationReport:
    """Growth of J^{-1}(X+V|U) - Cov(V) as the Gaussian perturbation grows."""
    if not (mat.min_eig(sigma_a) > 0 and mat.loewner_leq(sigma_a, sigma_b)):
        raise LoewnerOrderError("need 0 < sigma_a <= sigma_b")
    lhs = mat.inv_pd(fisher_conditional(src, sigma_b)) - sigma_b
    rhs = mat.inv_pd(fisher_conditional(src, sigma_a)) - sigma_a
    return VerificationReport.from_residuals(
        "fisher_shift",
        [Residual("min_eig(big_side - small_side)", mat.min_eig(lhs - rhs), "ineq")],
        tol,
    )


def _sym_basis(n: int):
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            E[j, i] = 1.0
            yield i, j, E


def check_debruijn(src: MixtureSource, noise_cov, tol: float = 1e-6) -> VerificationReport:
    """Gradient of h(X+N|U) w.r.t. the noise covariance vs half the Fisher
    matrix, by central differences over the symmetric basis.

    An off-diagonal basis direction perturbs both (i,j) and (j,i), so the
    directional derivative along it equals twice the gradient entry. The
    step is min(0.1 * min_eig(noise_cov), 1e-4 * min_v min_eig(C_v +
    noise_cov)): both sides of every difference stay positive definite, and
    the step follows the observed covariances C_v + noise_cov, which set the
    curvature of h. The largest gap is reported relative to the largest
    entry of J / 2, so the check reads the same at every scale.
    """
    lam = mat.min_eig(noise_cov)
    if lam <= 0:
        raise ValueError("noise covariance must be positive definite")
    observed = np.linalg.eigvalsh(src.comp_covs + noise_cov[None])[:, 0]
    fd_step = min(0.1 * lam, 1e-4 * float(observed.min()))
    n = src.dim
    half_J = 0.5 * fisher_conditional(src, noise_cov)
    max_err = 0.0
    for i, j, E in _sym_basis(n):
        hp = entropy_conditional(src, noise_cov + fd_step * E)
        hm = entropy_conditional(src, noise_cov - fd_step * E)
        d = (hp - hm) / (2.0 * fd_step)
        expect = (2.0 if i != j else 1.0) * half_J[i, j]
        max_err = max(max_err, abs(d - expect))
    return VerificationReport.from_residuals(
        "de_bruijn",
        [Residual("max_entry_gradient_gap_rel", max_err / float(np.max(np.abs(half_J))), "eq")],
        tol,
        notes=f"central differences, step {fd_step}",
    )


def check_dembo(src: MixtureSource, noise_cov, tol: float = 1e-8) -> VerificationReport:
    """Entropy lower bound h(Y|U) >= 0.5 ln((2 pi e)^n |J^{-1}(Y|U)|)."""
    n = src.dim
    h = entropy_conditional(src, noise_cov)
    J = fisher_conditional(src, noise_cov)
    bound = 0.5 * (n * LOG_2PI_E - mat.logdet(J))
    residuals = [Residual("entropy_minus_bound", h - bound, "ineq")]
    if src.num_components == 1:
        residuals.append(Residual("equality_gap", h - bound, "eq"))
    return VerificationReport.from_residuals(
        "dembo", residuals, tol,
        notes="equality case asserted" if src.num_components == 1 else "",
    )


def check_fisher_dpi(
    h: MarkovHierarchy,
    level_fine: int,
    level_coarse: int,
    noise_cov,
    tol: float = 1e-8,
) -> VerificationReport:
    """Fisher data-processing: conditioning on the finer auxiliary gives a
    larger Fisher matrix."""
    if not 2 <= level_fine <= level_coarse <= h.num_users:
        raise ValueError("need 2 <= level_fine <= level_coarse <= K")
    J_fine = mixture_fisher_quad(h.base, noise_cov, joint=coarsen(h, level_fine))
    J_coarse = mixture_fisher_quad(h.base, noise_cov, joint=coarsen(h, level_coarse))
    return VerificationReport.from_residuals(
        "fisher_dpi",
        [Residual("min_eig(J_fine - J_coarse)", mat.min_eig(J_fine - J_coarse), "ineq")],
        tol,
    )


def check_fisher_convolution(src: MixtureSource, sigma_a, sigma_b, tol: float = 1e-8) -> VerificationReport:
    """Fisher information of a sum of conditionally independent vectors:
    J(X' + Y'|U) <= [J(X'|U)^{-1} + J(Y')^{-1}]^{-1} with X' = X + N_a and
    Y' = N_b Gaussian."""
    if mat.min_eig(sigma_a) <= 0 or mat.min_eig(sigma_b) <= 0:
        raise ValueError("both noise covariances must be positive definite")
    lhs = fisher_conditional(src, sigma_a + sigma_b)
    Jx = fisher_conditional(src, sigma_a)
    rhs = mat.inv_pd(mat.inv_pd(Jx) + sigma_b)
    residuals = [Residual("min_eig(bound - J_sum)", mat.min_eig(rhs - lhs), "ineq")]
    if src.num_components == 1:
        residuals.append(Residual("equality_gap", float(np.max(np.abs(rhs - lhs))), "eq"))
    return VerificationReport.from_residuals(
        "fisher_convolution", residuals, tol,
        notes="equality case asserted" if src.num_components == 1 else "",
    )


def check_line_integral_entropy(
    src: MixtureSource, sigma_a, sigma_b, tol: float = 1e-6
) -> VerificationReport:
    """Entropy difference as a matrix line integral of the conditional
    Fisher field: h(Y_b|U) - h(Y_a|U) = 0.5 * int_{sigma_a}^{sigma_b} J."""
    # the closed form, evaluated at all of an interval's nodes in one call
    def field(sigmas):
        return fisher_conditional(src, sigmas)

    # the rule's error budget is tol on the integral, so tol / 2 on the gap
    integral, err = mat.matrix_line_integral(field, sigma_a, sigma_b, tol)
    exact = entropy_conditional(src, sigma_b) - entropy_conditional(src, sigma_a)
    return VerificationReport.from_residuals(
        "line_integral_entropy",
        [
            Residual("integral_minus_entropy_gap", 0.5 * integral - exact, "eq"),
            Residual("kronrod_error", 0.5 * err, "eq"),
        ],
        tol,
        notes="adaptive Gauss-Kronrod G7/K15",
    )


def check_f_epsilon(
    src: MixtureSource,
    sigma,
    eps_grid,
    tol: float = 1e-9,
) -> VerificationReport:
    """Deficit f(eps) = h(X + sqrt(eps) N|U) - Gaussian entropy at matched
    Fisher information: nonincreasing in eps, nonnegative at the small end,
    vanishing at the large end, and inside its eigenvalue envelope.

    All quantities are conditional on the finest auxiliary, hence exact.
    J at zero noise is positive definite when its Cholesky factorization
    succeeds, however widely its eigenvalues spread (``inv_pd``'s relative
    floor rejects a component variance of 1e-15 next to one of 1).
    """
    if mat.min_eig(sigma) <= 0:
        raise ValueError("sigma must be positive definite")
    eps = [float(e) for e in eps_grid]
    if any(e <= 0 for e in eps) or any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps_grid must be strictly increasing and positive")
    J0 = fisher_conditional(src, 0.0 * sigma)
    try:
        np.linalg.cholesky(J0)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("J at zero noise is not positive definite") from None
    J0inv = np.linalg.inv(J0)
    J0inv = (J0inv + J0inv.T) / 2.0
    root_inv = mat.inv_pd(mat.sqrt_psd(sigma))
    lam = np.linalg.eigvalsh(root_inv @ J0inv @ root_inv)
    lam_t = np.linalg.eigvalsh(root_inv @ aggregate_covariance(src) @ root_inv)

    def f(e: float) -> float:
        return entropy_conditional(src, e * sigma) - gaussian_entropy(J0inv + e * sigma)

    def env_lo(e: float) -> float:
        return 0.5 * float(np.sum(np.log(e / (lam + e))))

    def env_hi(e: float) -> float:
        return 0.5 * float(np.sum(np.log((lam_t + e) / (lam + e))))

    vals = [f(e) for e in eps]
    residuals = [Residual(f"f({eps[0]:g})_nonneg", vals[0], "ineq")]
    for (e1, v1), (e2, v2) in zip(zip(eps, vals), zip(eps[1:], vals[1:])):
        residuals.append(Residual(f"monotone_{e1:g}_to_{e2:g}", v1 - v2, "ineq"))
    for e, v in zip(eps, vals):
        residuals.append(Residual(f"envelope_lower_{e:g}", v - env_lo(e), "ineq"))
        residuals.append(Residual(f"envelope_upper_{e:g}", env_hi(e) - v, "ineq"))
    tail_cap = 10.0 * tol + max(abs(env_lo(eps[-1])), abs(env_hi(eps[-1])))
    residuals.append(Residual("tail_within_cap", tail_cap - abs(vals[-1]), "ineq"))
    return VerificationReport.from_residuals(
        "f_epsilon", residuals, tol,
        notes=f"grid {eps[0]:g}..{eps[-1]:g}, f values {[float(f'{v:.6g}') for v in vals]}",
    )


# --- fixed point and converse walkthrough --------------------------------------

@dataclass(frozen=True, eq=False)
class FixedPointResult:
    t_star: float
    A: np.ndarray
    entropy_match_residual: float
    sandwich_lower_residual: float
    sandwich_upper_residual: float
    bracketed: bool


def _pencil_entropy(
    lower: np.ndarray, sigma: np.ndarray, upper_cap: np.ndarray
) -> Callable[[float], float]:
    """The function r(t) = ``gaussian_entropy``(A(t) + sigma) of t in
    [0, 1], for A(t) = (1 - t) lower + t upper_cap.

    A(t) + sigma is the pencil B_0 + t D, with B_0 = lower + sigma and
    D = upper_cap - lower. One Cholesky B_0 = L L^T and the eigenvalues
    lambda of L^{-1} D L^{-T} give r(t) = r(0) + sum_i ln(1 + t lambda_i) / 2,
    a sum over n numbers per t. B(t) is a convex combination of B_0 and
    upper_cap + sigma, so every 1 + t lambda_i is positive on [0, 1] when
    both are positive definite; otherwise ``SingularMatrixError``, as
    ``logdet`` raises.
    """
    try:
        L = np.linalg.cholesky(lower + sigma)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("lower + sigma is not positive definite") from None
    X = np.linalg.solve(L, upper_cap - lower)
    lam = np.linalg.eigvalsh(np.linalg.solve(L, X.T))
    if 1.0 + lam[0] <= 0.0:
        raise SingularMatrixError(
            f"upper_cap + sigma is not positive definite (pencil eigenvalue {1.0 + lam[0]:.3e})"
        )
    r0 = 0.5 * (sigma.shape[0] * LOG_2PI_E + 2.0 * float(np.sum(np.log(np.diag(L)))))

    def r(t: float) -> float:
        return r0 + 0.5 * float(np.sum(np.log1p(t * lam)))

    return r


def _solve_fixed_point_core(
    J: np.ndarray, h_target: float, sigma: np.ndarray, upper_cap: np.ndarray
) -> FixedPointResult:
    """Bisection for t with Gaussian entropy of A(t) + sigma matching the
    target within ``_FIXED_POINT_TOL``; A(t) interpolates from
    J^{-1} - sigma to the cap and is Loewner nondecreasing, so the objective
    is monotone. Each step evaluates the entropy on the pencil's
    eigenvalues (``_pencil_entropy``, whose B_0 is J^{-1}); the reported
    entropy match is ``gaussian_entropy`` of the returned A + sigma.
    """
    tol = _FIXED_POINT_TOL
    lower = mat.inv_pd(J) - sigma
    r = _pencil_entropy(lower, sigma, upper_cap)
    r0, r1 = r(0.0), r(1.0)
    bracketed = (r0 <= h_target + tol) and (r1 >= h_target - tol)
    if abs(r0 - h_target) <= tol:
        t = 0.0
    elif abs(r1 - h_target) <= tol:
        t = 1.0
    elif not bracketed:
        t = 0.0 if abs(r0 - h_target) <= abs(r1 - h_target) else 1.0
    else:
        lo, hi = 0.0, 1.0
        t = 0.5
        for _ in range(200):
            t = 0.5 * (lo + hi)
            rt = r(t)
            if abs(rt - h_target) <= tol:
                break
            if rt < h_target:
                lo = t
            else:
                hi = t
    A = (1.0 - t) * lower + t * upper_cap
    return FixedPointResult(
        t_star=t,
        A=A,
        entropy_match_residual=gaussian_entropy(A + sigma) - h_target,
        sandwich_lower_residual=mat.min_eig(A - lower),
        sandwich_upper_residual=mat.min_eig(upper_cap - A),
        bracketed=bracketed,
    )


def solve_fixed_point(
    src: MixtureSource,
    ch: BroadcastChannel,
    user_index: int,
    upper_cap,
) -> FixedPointResult:
    """Fixed point for one converse stage, conditioning on the source's own
    auxiliary (the mixture label)."""
    if not 1 <= user_index <= ch.num_users:
        raise ValueError("user_index out of range")
    sigma = ch.noise_covs[user_index - 1]
    J = fisher_conditional(src, sigma)
    h = entropy_conditional(src, sigma)
    return _solve_fixed_point_core(J, h, sigma, upper_cap)


def converse_walkthrough(source, ch: BroadcastChannel) -> WalkthroughReport:
    """Replay the converse chain on a concrete input distribution.

    Builds the anchored covariances A_K ... A_2 by repeated fixed points,
    verifies the sandwich and the integral entropy bound at every stage,
    computes the achieved rates I(U_k; Y_k | U_{k+1}), and checks that they
    are dominated by the superposition rates of the recovered split
    K_k = A_{k+1} - A_k, within 1e-6 per user (the ``domination`` report).

    Every entropy is deterministic: closed form given the finest auxiliary,
    Gauss-Hermite quadrature given a coarser one and for the unconditional
    h(Y_K). Each conditional entropy is computed once, at the stage that
    needs it, and the achieved rates are differences of the stored values.
    """
    if isinstance(source, MixtureSource):
        hierarchy = MarkovHierarchy(base=source)
    else:
        hierarchy = source
    K = ch.num_users
    if hierarchy.num_users != K:
        raise DimensionMismatchError(
            f"hierarchy depth {hierarchy.num_users} does not match the channel's {K} users"
        )
    if not mat.loewner_leq(aggregate_covariance(hierarchy.base), ch.input_cap):
        raise InadmissibleSourceError(
            "source covariance exceeds the channel input cap"
        )
    n = ch.dim
    S = ch.input_cap

    base = hierarchy.base
    stages: list[WalkthroughStage] = []
    reports: list[VerificationReport] = []
    A = {K + 1: S.copy()}
    h_cond = {}  # h(Y_k | U_k)
    h_prev = {}  # h(Y_{k-1} | U_k)
    for k in range(K, 1, -1):
        sigma = ch.noise_covs[k - 1]
        sigma_prev = ch.noise_covs[k - 2]
        joint = coarsen(hierarchy, k)
        J = mixture_fisher_quad(base, sigma, joint=joint)
        # h(Y_k | U_k) and h(Y_{k-1} | U_k) from one call
        h, h_prev[k] = mixture_entropy_quad(
            base, np.stack([sigma, sigma_prev]), joint=joint
        ).tolist()
        h_cond[k] = h
        fp = _solve_fixed_point_core(J, h, sigma, A[k + 1])
        A[k] = fp.A

        def field(sigmas):
            return mixture_fisher_quad(base, sigmas, joint=joint)

        # integral identity: h(Y_{k-1}|U_k) - h(Y_k|U_k) = -0.5 int J dSigma
        integral, integral_err = mat.matrix_line_integral(field, sigma_prev, sigma, _INTEGRAL_TOL)
        integral_residual = (h_prev[k] - h) - (-0.5 * integral)
        entropy_bound_residual = (
            0.5 * (n * LOG_2PI_E + mat.logdet(fp.A + sigma_prev)) - h_prev[k]
        )
        stages.append(
            WalkthroughStage(
                user_index=k,
                t_star=fp.t_star,
                A=fp.A,
                entropy_match_residual=fp.entropy_match_residual,
                sandwich_lower_residual=fp.sandwich_lower_residual,
                sandwich_upper_residual=fp.sandwich_upper_residual,
                integral_entropy_residual=integral_residual,
            )
        )
        # the report names and labels recur in every walkthrough: interned,
        # all the reports a caller keeps share one copy of each
        reports.append(
            VerificationReport.from_residuals(
                sys.intern(f"stage_{k}"),
                [
                    Residual("entropy_match", fp.entropy_match_residual, "eq"),
                    Residual("sandwich_lower", fp.sandwich_lower_residual, "ineq"),
                    Residual("sandwich_upper", fp.sandwich_upper_residual, "ineq"),
                    Residual("bracketed", 0.0 if fp.bracketed else -1.0, "ineq"),
                    Residual("entropy_bound", entropy_bound_residual, "ineq"),
                ],
                _SANDWICH_TOL,
                notes=f"t_star={fp.t_star}",
            )
        )
        reports.append(
            VerificationReport.from_residuals(
                sys.intern(f"stage_{k}_integral_identity"),
                [
                    Residual("integral_identity_gap", integral_residual, "eq"),
                    Residual("kronrod_error", 0.5 * integral_err, "eq"),
                ],
                _INTEGRAL_TOL,
            )
        )

    # achieved rates, finest to coarsest: R_k = h(Y_k|U_{k+1}) - h(Y_k|U_k),
    # with U_1 = X (so h(Y_1|X) = h(N_1)) and U_{K+1} constant
    h_cond[1] = gaussian_entropy(ch.noise_covs[0])
    h_prev[K + 1] = mixture_entropy_quad(base, ch.noise_covs[K - 1])
    achieved = [h_prev[k + 1] - h_cond[k] for k in range(1, K + 1)]

    # recovered split and its superposition rates
    A[1] = np.zeros((n, n))
    parts = []
    for k in range(1, K + 1):
        w, U = np.linalg.eigh(A[k + 1] - A[k])
        parts.append((U * np.clip(w, 0.0, None)) @ U.T)
    # the split averages each part with its transpose
    split = CovarianceSplit(parts=parts)
    region_rates = rate_tuple(ch, split)

    reports.append(
        VerificationReport.from_residuals(
            "domination",
            [
                Residual(sys.intern(f"rate_{k + 1}_gap"), r + 1e-6 - a, "ineq")
                for k, (a, r) in enumerate(zip(achieved, region_rates))
            ],
            0.0,
            notes="region rate + slack - achieved rate, per user",
        )
    )
    return WalkthroughReport(
        stages=tuple(stages),
        achieved_rates=tuple(achieved),
        region_rates=tuple(region_rates),
        split=split.parts,
        passed=all(rep.passed for rep in reports),
        reports=tuple(reports),
    )


# --- suite runner ---------------------------------------------------------------

def run_inequality_suite(
    src: MixtureSource,
    ch: BroadcastChannel | None = None,
    hierarchy: MarkovHierarchy | None = None,
    tol: float = 1e-8,
) -> list[VerificationReport]:
    """All inequality checks on one source; noise covariances come from the
    channel when given, otherwise identity-based defaults."""
    n = src.dim
    if ch is not None:
        sigma_a, sigma_b = ch.noise_covs[0], ch.noise_covs[1]
    else:
        sigma_a, sigma_b = np.eye(n), 2.0 * np.eye(n)
    if hierarchy is None:
        # coarsest auxiliary that forgets everything: DPI against J(X+N)
        m = src.num_components
        hierarchy = MarkovHierarchy(
            base=src,
            tables=(src.weights.reshape(m, 1),),
            top_weights=np.array([1.0]),
        )
    reports = [
        check_cramer_rao(src, sigma_a, tol),
        check_fisher_shift(src, sigma_a, sigma_b, tol),
        check_debruijn(src, sigma_a, max(tol, 1e-6)),
        check_dembo(src, sigma_a, tol),
        check_fisher_dpi(hierarchy, 2, hierarchy.num_users, sigma_a, max(tol, 1e-8)),
        check_fisher_convolution(src, sigma_a, sigma_b, tol),
        check_line_integral_entropy(src, sigma_a, sigma_b, max(tol, 1e-6)),
        check_f_epsilon(src, sigma_a, [1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0], tol=max(tol, 1e-9)),
    ]
    return reports

"""Information quantities for Gaussian-mixture sources observed through
additive Gaussian noise: Fisher information matrices and differential
entropies.

Quantities conditional on the mixture label are exact closed forms. The
unconditional ones come from deterministic Gauss-Hermite quadrature for the
small dimensions (n <= 3) this package targets, evaluating the mixture
through the Cholesky factors of its observed components, in whitened
coordinates (see ``_MixtureDensity``).

The quadrature integrates over each component on a tensor Gauss-Hermite
grid, pruned of the nodes whose weight is at most ``_PRUNE_REL`` times the
largest; at the default orders the dropped nodes carry under 1e-19 of the
weight. The error of the order itself is not estimated: it is negligible
on mildly separated mixtures but reaches about 5e-4 in entropy and 3e-3 in
Fisher information at the default order on a badly conditioned one (see
``mixture_entropy_quad``).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import matrices as mat
from .errors import DimensionMismatchError
from .model import LOG_2PI_E, MixtureSource

__all__ = [
    "fisher_conditional",
    "entropy_conditional",
    "mixture_entropy_quad",
    "mixture_fisher_quad",
]


# --- observed-mixture plumbing ---------------------------------------------

def _observed(src: MixtureSource, noise_cov) -> tuple[np.ndarray, np.ndarray]:
    """Means and covariances of the mixture law of X + N.

    The components are symmetric and finite from the ``MixtureSource``
    constructor, so only the noise is symmetrized here.
    """
    S = mat.symmetrize(noise_cov)
    if S.shape[0] != src.dim:
        raise DimensionMismatchError("noise covariance dimension mismatch")
    return src.means, src.comp_covs + S[None]


class _MixtureDensity:
    """Density and score of one observed mixture, in whitened coordinates.

    With C_v = L_v L_v^T, component v sees y through its whitened residual
    r_v = L_v^{-1} (y - mu_v), so ln p_v N(y; mu_v, C_v) = c_v - |r_v|^2 / 2
    and the score of the mixture is -sum_v post_v(y) L_v^{-T} r_v. Points
    are columns: the residuals of N points under all m components form one
    (m*n, N) array, made by one matmul with the stacked factors
    ``whiten`` = [L_1^{-1}; ...; L_m^{-1}], and the score is one more,
    against ``whiten.T``. Reductions over components then run over rows.
    """

    def __init__(self, src: MixtureSource, noise_cov):
        self.weights = src.weights
        self.means, covs = _observed(src, noise_cov)
        self.m, self.n = self.means.shape
        self.chols = np.linalg.cholesky(covs)
        inv_chols = np.linalg.inv(self.chols)
        self.whiten = inv_chols.reshape(self.m * self.n, self.n)
        self.shift = (inv_chols @ self.means[:, :, None]).ravel()
        log_diag = np.log(np.diagonal(self.chols, axis1=1, axis2=2)).sum(axis=1)
        self.log_c = (
            np.log(np.clip(self.weights, 1e-300, None))
            - 0.5 * self.n * math.log(2.0 * math.pi)
            - log_diag
        )[:, None]

    def grid_residuals(self, u: int, z: np.ndarray) -> np.ndarray:
        """Residuals at y = mu_u + L_u z for the standard-normal nodes (rows
        of z), formed from z directly:
        r_v = (L_v^{-1} L_u) z + L_v^{-1} (mu_u - mu_v)."""
        offset = self.whiten @ self.means[u] - self.shift
        return (self.whiten @ self.chols[u]) @ z.T + offset[:, None]

    def _log_joint(self, R: np.ndarray) -> np.ndarray:
        """(m, N) array of ln p_v + ln N(y; mu_v, C_v)."""
        q = np.square(R).reshape(self.m, self.n, -1).sum(axis=1)
        return self.log_c - 0.5 * q

    def logpdf(self, R: np.ndarray) -> np.ndarray:
        lp = self._log_joint(R)
        top = lp.max(axis=0)
        return top + np.log(np.exp(lp - top).sum(axis=0))

    def score(self, R: np.ndarray) -> np.ndarray:
        """(n, N) scores, one column per point."""
        lp = self._log_joint(R)
        post = np.exp(lp - lp.max(axis=0))
        post /= post.sum(axis=0)
        weighted = R.reshape(self.m, self.n, -1) * post[:, None, :]
        return -self.whiten.T @ weighted.reshape(self.m * self.n, -1)


# --- exact conditional quantities -------------------------------------------

def fisher_conditional(src: MixtureSource, noise_cov) -> np.ndarray:
    """J(X+N | U): the weighted sum of inverse observed component covariances.

    Given the label, X + N is Gaussian, whose Fisher matrix is the inverse
    of its covariance.
    """
    _, covs = _observed(src, noise_cov)
    J = np.einsum("u,uij->ij", src.weights, np.stack([mat.inv_pd(C) for C in covs]))
    return mat.symmetrize(J)


def entropy_conditional(src: MixtureSource, noise_cov) -> float:
    """h(X+N | U) = sum_u p_u * Gaussian entropy of component u."""
    _, covs = _observed(src, noise_cov)
    n = src.dim
    vals = np.array([0.5 * (n * LOG_2PI_E + mat.logdet(C)) for C in covs])
    return float(src.weights @ vals)


# --- deterministic quadrature -----------------------------------------------

_DEFAULT_QUAD_ORDER = {1: 160, 2: 56, 3: 28}

# Tensor nodes whose weight is at most this fraction of the largest are
# dropped; at the default orders the dropped weight is 3.3e-22 (n = 1),
# 6.4e-21 (n = 2) and 4.0e-20 (n = 3), and n = 3 keeps 13,824 of 21,952.
_PRUNE_REL = 1e-20


@functools.lru_cache(maxsize=16)
def _gh_grid(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Pruned tensor Gauss-Hermite grid for a standard normal in n
    dimensions: (nodes (N, n), weights (N,)), both read-only because every
    caller shares them."""
    x, w = hermgauss(order)
    z1 = math.sqrt(2.0) * x
    w1 = w / math.sqrt(math.pi)
    grids = np.meshgrid(*([z1] * n), indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.meshgrid(*([w1] * n), indexing="ij")
    wt = np.prod(np.stack([g.ravel() for g in wts], axis=1), axis=1)
    keep = wt > _PRUNE_REL * wt.max()
    z, wt = np.ascontiguousarray(z[keep]), wt[keep]
    z.flags.writeable = False
    wt.flags.writeable = False
    return z, wt


def _quad_order(n: int, order: int | None) -> int:
    if order is not None:
        return order
    if n not in _DEFAULT_QUAD_ORDER:
        raise ValueError("quadrature supports dimensions 1..3 only")
    return _DEFAULT_QUAD_ORDER[n]


def mixture_entropy_quad(src: MixtureSource, noise_cov, order: int | None = None) -> float:
    """h(X+N) by per-component Gauss-Hermite quadrature (n <= 3).

    Each component's expectation of -ln f is taken on the pruned tensor grid
    of ``_gh_grid``, whose dropped nodes carry under 1e-19 of the weight at
    the default orders. The error of the order itself is not estimated: it
    is negligible on well separated mixtures but reaches about 5e-4 at the
    default order on a badly conditioned one (weights (0.3, 0.7),
    covariances 0.05 I and [[2, .9], [.9, 1]], noise 0.05 I).
    """
    dens = _MixtureDensity(src, noise_cov)
    n = src.dim
    z, wt = _gh_grid(n, _quad_order(n, order))
    total = 0.0
    for u, pu in enumerate(src.weights):
        total += pu * float(wt @ dens.logpdf(dens.grid_residuals(u, z)))
    return -total


def mixture_fisher_quad(src: MixtureSource, noise_cov, order: int | None = None) -> np.ndarray:
    """J(X+N) by per-component Gauss-Hermite quadrature (n <= 3), on the
    same grid as ``mixture_entropy_quad``; on the badly conditioned mixture
    described there the default order is off by about 3e-3."""
    dens = _MixtureDensity(src, noise_cov)
    n = src.dim
    z, wt = _gh_grid(n, _quad_order(n, order))
    J = np.zeros((n, n))
    for u, pu in enumerate(src.weights):
        s = dens.score(dens.grid_residuals(u, z))
        J += pu * ((s * wt) @ s.T)
    return mat.symmetrize(J)

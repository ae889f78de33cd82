"""Information quantities for Gaussian-mixture sources observed through
additive Gaussian noise: Fisher information matrices and differential
entropies.

Quantities conditional on the mixture label are exact closed forms. The
unconditional ones come from deterministic Gauss-Hermite quadrature for the
small dimensions (n <= 3) this package targets, evaluating the mixture
through the Cholesky factors of its observed components, in whitened
coordinates (see ``_MixtureDensity``).

The quadrature integrates over components on a tensor Gauss-Hermite grid,
pruned of the nodes whose weight is at most ``_PRUNE_REL`` times the
largest (at the default orders the dropped nodes carry under 1e-19 of the
weight) and walked in blocks of at most ``_BLOCK`` nodes. The entropy
integrates -ln f over every component's grid. The Fisher matrix is the
closed form J(X+N|U) minus a posterior correction that is integrated on
the narrower component of each pair only (see ``mixture_fisher_quad``).
The error of the order itself is not estimated: it is negligible on mildly
separated mixtures, but on a badly conditioned one (see
``mixture_entropy_quad``) it reaches about 5e-4 in entropy at the default
order, against about 1e-9 in Fisher information.
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
    """Density and posterior of one observed mixture, in whitened
    coordinates.

    With C_v = L_v L_v^T, component v sees y through its whitened residual
    r_v = L_v^{-1} (y - mu_v), so ln p_v N(y; mu_v, C_v) = c_v - |r_v|^2 / 2.
    Points are columns: the residuals of N points under all m components
    form one (m*n, N) array, made by one matmul with the stacked factors
    ``whiten`` = [L_1^{-1}; ...; L_m^{-1}]. Reductions over components then
    run over rows.
    """

    def __init__(self, src: MixtureSource, noise_cov):
        self.weights = src.weights
        self.means, covs = _observed(src, noise_cov)
        self.m, self.n = self.means.shape
        self.chols = np.linalg.cholesky(covs)
        self.inv_chols = np.linalg.inv(self.chols)
        self.whiten = self.inv_chols.reshape(self.m * self.n, self.n)
        self.shift = (self.inv_chols @ self.means[:, :, None]).ravel()
        # ln |C_v| / 2
        self.half_logdet = np.log(np.diagonal(self.chols, axis1=1, axis2=2)).sum(axis=1)
        self.log_c = (
            np.log(np.clip(self.weights, 1e-300, None))
            - 0.5 * self.n * math.log(2.0 * math.pi)
            - self.half_logdet
        )[:, None]

    def grid_blocks(self, u: int, order: int):
        """Walk component u's pruned grid (``_gh_grid``) in blocks of at
        most ``_BLOCK`` nodes, yielding (nodes z, weights, residuals) with
        the residuals taken at y = mu_u + L_u z from z directly:
        r_v = (L_v^{-1} L_u) z + L_v^{-1} (mu_u - mu_v)."""
        A = self.whiten @ self.chols[u]
        offset = (self.whiten @ self.means[u] - self.shift)[:, None]
        z, wt = _gh_grid(self.n, order)
        for start in range(0, len(wt), _BLOCK):
            zb = z[start:start + _BLOCK]
            R = A @ zb.T
            R += offset
            yield zb, wt[start:start + _BLOCK], R

    def _log_joint(self, R: np.ndarray) -> np.ndarray:
        """(m, N) array of ln p_v + ln N(y; mu_v, C_v)."""
        lp = np.square(R).reshape(self.m, self.n, -1).sum(axis=1)
        lp *= -0.5
        lp += self.log_c
        return lp

    def logpdf(self, R: np.ndarray) -> np.ndarray:
        lp = self._log_joint(R)
        top = lp.max(axis=0)
        lp -= top
        return top + np.log(np.exp(lp, out=lp).sum(axis=0))

    def posterior(self, R: np.ndarray) -> np.ndarray:
        """(m, N) posterior probabilities of the components, one column per
        point."""
        lp = self._log_joint(R)
        lp -= lp.max(axis=0)
        post = np.exp(lp, out=lp)
        post /= post.sum(axis=0)
        return post


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

# Grids are walked in blocks of at most this many nodes, which caps the
# per-node arrays of a quadrature call (about 0.15 MB at m = 3, n = 3).
_BLOCK = 2048


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
    covariances 0.05 I and [[2, .9], [.9, 1]], noise 0.05 I), where a broad
    component's grid sees the narrow one as a sharp feature.
    """
    dens = _MixtureDensity(src, noise_cov)
    order = _quad_order(src.dim, order)
    total = 0.0
    for u, pu in enumerate(src.weights):
        for _, wt, R in dens.grid_blocks(u, order):
            total += pu * float(wt @ dens.logpdf(R))
    return -total


def mixture_fisher_quad(src: MixtureSource, noise_cov, order: int | None = None) -> np.ndarray:
    """J(X+N) as the closed form J(X+N|U) minus the expected posterior
    covariance of the component scores (n <= 3).

    With g_v(y) = -C_v^{-1} (y - mu_v) the score of component v and
    d_uv = g_u - g_v, the correction is sum_{u<v} E[pi_u pi_v d_uv d_uv^T]
    over the posterior pi. Since f pi_u = p_u f_u, each pair term is
    p_n E_n[pi_b d_nb d_nb^T], one Gaussian expectation on the grid of the
    pair's narrower member n (smaller |C|), where d is affine in the nodes.
    The integrand vanishes wherever the posterior is certain, so the broad
    member's grid never has to resolve the narrow one: on the badly
    conditioned mixture of ``mixture_entropy_quad`` the default order is
    about 1e-9 off, and an m-component mixture walks at most m - 1 grids.
    """
    dens = _MixtureDensity(src, noise_cov)
    n = src.dim
    order = _quad_order(n, order)
    L_inv = dens.inv_chols
    precs = np.swapaxes(L_inv, 1, 2) @ L_inv
    J = np.einsum("v,vij->ij", src.weights, precs)
    rank = np.argsort(dens.half_logdet, kind="stable")
    for i, u in enumerate(rank[:-1]):
        wider = rank[i + 1:]
        # d_ub at y = mu_u + L_u z is M_b z + c_b
        M = precs[wider] @ dens.chols[u] - L_inv[u].T
        c = precs[wider] @ (dens.means[u] - dens.means[wider])[:, :, None]
        corr = np.zeros((len(wider), n, n))
        for z, wt, R in dens.grid_blocks(u, order):
            w = dens.posterior(R)[wider] * wt
            d = M @ z.T + c
            corr += (d * w[:, None, :]) @ np.swapaxes(d, 1, 2)
        J -= src.weights[u] * corr.sum(axis=0)
    return mat.symmetrize(J)

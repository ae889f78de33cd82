"""Information quantities for Gaussian-mixture sources observed through
additive Gaussian noise: Fisher information matrices and differential
entropies.

Quantities conditional on the mixture label are exact closed forms
(``fisher_conditional``, ``entropy_conditional``), at one noise covariance
or a stack of them. They come from the Cholesky factors of the observed
components that the quadrature kernels use (``_ObservedLevel.given_label``),
which also give the kernels' one-component symbols and the closed-form part
of their Fisher matrix.

The quadrature kernels ``mixture_fisher_quad`` and ``mixture_entropy_quad``
cover a whole auxiliary level at a whole stack of noise covariances in one
pass. Given a joint table P(u_2 = u, U_k = g) over the source's components
(``model.coarsen``), they return J(Y | U_k) and h(Y | U_k); with no table,
the unconditional J(Y) and h(Y). Every symbol's law mixes the same base
components, so one walk of a component's grid serves every symbol and every
noise covariance: only the posterior differs between symbols.

The grids are tensor Gauss-Hermite grids for the small dimensions (n <= 3)
this package targets, pruned of the nodes whose weight is at most
``_PRUNE_REL`` times the largest (at the default orders the dropped nodes
carry under 1e-19 of the weight) and walked in blocks of at most ``_BLOCK``
nodes. On component u's grid, y = mu_u + L_u z, every component's
log-density is a quadratic in the standard node z, so the log-densities of
all components at all noise covariances are one matmul of their
coefficients with the per-node features [1, z, z_i z_j] (see
``_ObservedLevel``). Each node's m log-densities are shifted by their
largest and exponentiated once per component; every symbol's mixture
density is then one matmul of these with the joint table, so no
per-symbol log-posterior is formed and the posterior costs m exponentials
per node, not G m.

The entropy of a symbol with one component is its exact Gaussian entropy;
for the others -ln f is integrated over every component's grid. The Fisher
matrix is the closed form J(Y | U_2) minus a posterior correction that is
integrated on the narrower component of each pair some symbol mixes (see
``mixture_fisher_quad``). The error of the order itself is not estimated:
it is negligible on mildly separated mixtures, but on a badly conditioned
one (see ``mixture_entropy_quad``) it reaches about 5e-4 in entropy at the
default order, against about 1e-9 in Fisher information.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DimensionMismatchError, SingularMatrixError
from .model import LOG_2PI_E, MixtureSource

__all__ = [
    "fisher_conditional",
    "entropy_conditional",
    "mixture_entropy_quad",
    "mixture_fisher_quad",
]

_LOG_2PI = math.log(2.0 * math.pi)


# --- observed-mixture plumbing ---------------------------------------------

def _joint_table(src: MixtureSource, joint) -> np.ndarray:
    """The (m, G) table P(u_2 = u, U_k = g); with none, the source's weights
    as the one symbol of a constant auxiliary."""
    if joint is None:
        return src.weights[:, None]
    P = np.asarray(joint, dtype=float)
    if P.ndim != 2 or P.shape[0] != src.num_components:
        raise DimensionMismatchError("the joint table must be (components, symbols)")
    return P


def _features(z: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """(1 + n + n(n+1)/2, N) features [1; z; z_i z_j for (i, j) in
    ``np.triu_indices(n)``] of the nodes z (N, n), one column per node."""
    N, n = z.shape
    F = np.empty((1 + n + i.size, N))
    F[0] = 1.0
    F[1:1 + n] = z.T
    np.multiply(F[1 + i], F[1 + j], out=F[1 + n:])
    return F


class _ObservedLevel:
    """The components of a source observed through a stack of T noise
    covariances S_t: C_tw = Cov(X | w) + S_t = L_tw L_tw^T.

    On component u's grid at noise t, the point y = mu_u + L_tu z has
    ln N(y; mu_w, C_tw) = -(n ln 2 pi)/2 - ln|L_tw| - |A z + o|^2 / 2, with
    A = L_tw^{-1} L_tu and o = L_tw^{-1} (mu_u - mu_w): a quadratic in z,
    whose coefficients ``coefs`` gives against ``_features``. The noise
    covariances are taken as given, symmetric and finite. A C_tw whose
    Cholesky factorization fails, or whose inverse overflows, raises
    ``SingularMatrixError``.
    """

    def __init__(self, src: MixtureSource, noise_cov):
        S = np.asarray(noise_cov, dtype=float)
        self.stacked = S.ndim == 3
        if not self.stacked:
            S = S[None]
        if S.ndim != 3 or S.shape[1:] != (src.dim, src.dim):
            raise DimensionMismatchError("noise covariance dimension mismatch")
        self.means = src.means
        self.T = S.shape[0]
        self.m, self.n = src.means.shape
        C = src.comp_covs[None] + S[:, None]
        try:
            self.chols = np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            w = float(np.linalg.eigvalsh(C)[..., 0].min())
            raise SingularMatrixError(
                "an observed component covariance is not positive definite"
                f" (min eigenvalue {w:.3e})"
            ) from None
        self.inv_chols = np.linalg.inv(self.chols)
        # C_tw^{-1}, (T, m, n, n); an overflow is caught by the check below
        with np.errstate(over="ignore"):
            self.precs = np.swapaxes(self.inv_chols, 2, 3) @ self.inv_chols
        if not np.all(np.isfinite(self.precs)):
            raise SingularMatrixError(
                "an observed component covariance is too small to invert"
            )
        # ln |C_tw| / 2, (T, m)
        self.half_logdet = np.log(np.diagonal(self.chols, axis1=2, axis2=3)).sum(axis=2)

    def given_label(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(J (T, n, n), h (T,)) given the label, with weight w_u on component
        u: J = sum_u w_u C_tu^{-1} and h = sum_u w_u ln((2 pi e)^n |C_tu|) / 2,
        since given the label Y is Gaussian."""
        J = np.einsum("u,tuij->tij", weights, self.precs)
        h = (0.5 * self.n * LOG_2PI_E + self.half_logdet) @ weights
        return (J + np.swapaxes(J, 1, 2)) / 2.0, h

    def coefs(self, grids: np.ndarray) -> np.ndarray:
        """(U*T*m, F) coefficients: row (u, t, w) times ``_features(z)`` is
        ln N(mu_u + L_tu z; mu_w, C_tw), for the components u of ``grids``."""
        n = self.n
        A = self.inv_chols[None] @ np.swapaxes(self.chols[:, grids], 0, 1)[:, :, None]
        gaps = self.means[grids, None] - self.means[None]
        o = (self.inv_chols[None] @ gaps[:, None, :, :, None])[..., 0]
        i, j = np.triu_indices(n)
        coef = np.empty(A.shape[:3] + (1 + n + i.size,))
        coef[..., 0] = -0.5 * n * _LOG_2PI - self.half_logdet - 0.5 * np.square(o).sum(axis=-1)
        coef[..., 1:1 + n] = -np.einsum("utwji,utwj->utwi", A, o)
        Q = np.swapaxes(A, 3, 4) @ A
        coef[..., 1 + n:] = np.where(i == j, -0.5, -1.0) * Q[..., i, j]
        return coef.reshape(-1, coef.shape[-1])

    def blocks(self, grids: np.ndarray, order: int):
        """Walk the pruned grid (``_gh_grid``) in blocks of at most
        ``_BLOCK`` nodes for the components ``grids`` at once, yielding
        (features (F, B), weights (B,), top (U, T, 1, B), densities
        (U, T, m, B)). At y = mu_u + L_tu z, entry (u, t, w) of the
        densities is N(y; mu_w, C_tw) e^{-top}, with top the largest of the
        m log-densities: one exponential per component, none of them
        overflowing."""
        coef = self.coefs(grids)
        z, wt = _gh_grid(self.n, order)
        i, j = np.triu_indices(self.n)
        shape = (len(grids), self.T, self.m, -1)
        for start in range(0, len(wt), _BLOCK):
            F = _features(z[start:start + _BLOCK], i, j)
            e = (coef @ F).reshape(shape)
            top = e.max(axis=2, keepdims=True)
            e -= top
            np.exp(e, out=e)
            yield F, wt[start:start + _BLOCK], top, e


def _pair_weights(e: np.ndarray, P: np.ndarray, P_grids: np.ndarray) -> np.ndarray:
    """(U, T, m, B) node weights w_uv = sum_g P[u, g] pi^g_v(y) on the grids
    of ``_ObservedLevel.blocks``, from its scaled densities ``e``, the
    symbols' joint table P (m, G) and its rows ``P_grids`` (U, G) of the
    grids' components.

    With s_g = sum_w P[w, g] e_w, the posterior is pi^g_v = P[v, g] e_v / s_g,
    so w_uv = e_v sum_g P[v, g] P[u, g] / s_g: two batched matmuls with the
    table. The ratio is formed only where P[u, g] > 0, where s_g is at least
    P[u, g] e_u; a symbol without u may have every density underflow at
    some nodes, and its 0 / 0 must not enter."""
    s = P.T @ e
    mine = P_grids[:, None, :, None]
    R = np.divide(mine, s, out=np.zeros_like(s), where=mine > 0.0)
    return e * (P @ R)


# --- exact conditional quantities -------------------------------------------

def fisher_conditional(src: MixtureSource, noise_cov) -> np.ndarray:
    """J(X+N | U): the weighted sum of inverse observed component covariances.

    Given the label, X + N is Gaussian, whose Fisher matrix is the inverse
    of its covariance. ``noise_cov`` is one (n, n) covariance, giving
    (n, n), or a (T, n, n) stack, giving (T, n, n).
    """
    obs = _ObservedLevel(src, noise_cov)
    J, _ = obs.given_label(src.weights)
    return J if obs.stacked else J[0]


def entropy_conditional(src: MixtureSource, noise_cov) -> float | np.ndarray:
    """h(X+N | U) = sum_u p_u * Gaussian entropy of component u, a float
    for one (n, n) noise covariance or T values for a (T, n, n) stack."""
    obs = _ObservedLevel(src, noise_cov)
    _, h = obs.given_label(src.weights)
    return h if obs.stacked else float(h[0])


# --- deterministic quadrature -----------------------------------------------

_DEFAULT_QUAD_ORDER = {1: 160, 2: 56, 3: 28}

# Tensor nodes whose weight is at most this fraction of the largest are
# dropped; at the default orders the dropped weight is 3.3e-22 (n = 1),
# 6.4e-21 (n = 2) and 4.0e-20 (n = 3), and n = 3 keeps 13,824 of 21,952.
_PRUNE_REL = 1e-20

# Grids are walked in blocks of at most this many nodes, which caps the
# per-node arrays of a quadrature call: each holds one value per grid,
# noise covariance, symbol and component of a node (about 0.25 MB at 15
# noise covariances, two symbols and two components).
_BLOCK = 512


@functools.lru_cache(maxsize=16)
def _gh_grid(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Pruned tensor Gauss-Hermite grid for a standard normal in n
    dimensions: (nodes (N, n), weights (N,)), both read-only because every
    caller shares them."""
    x, w = hermgauss(order)
    z1 = math.sqrt(2.0) * x
    w1 = w / math.sqrt(math.pi)
    # the tensor weights first, then only the kept nodes, so the full
    # tensor of nodes is never built
    wt = w1
    for _ in range(n - 1):
        wt = np.multiply.outer(wt, w1)
    keep = np.nonzero(wt > _PRUNE_REL * wt.max())
    wt = wt[keep]
    z = np.empty((wt.size, n))
    for d, idx in enumerate(keep):
        z[:, d] = z1[idx]
    z.flags.writeable = False
    wt.flags.writeable = False
    return z, wt


def _quad_order(n: int, order: int | None) -> int:
    if order is not None:
        return order
    if n not in _DEFAULT_QUAD_ORDER:
        raise ValueError("quadrature supports dimensions 1..3 only")
    return _DEFAULT_QUAD_ORDER[n]


def mixture_entropy_quad(
    src: MixtureSource, noise_cov, order: int | None = None, joint=None
) -> float | np.ndarray:
    """h(Y | U_k) for Y = X + N by per-component Gauss-Hermite quadrature
    (n <= 3).

    ``joint`` is the (m, G) table P(u_2 = u, U_k = g) over the components
    of ``src``, whose weights it then replaces; with none, U_k is constant
    and this is h(Y). ``noise_cov`` is one (n, n) covariance, giving a
    float, or a (T, n, n) stack, giving T values.

    A symbol with one component has its exact Gaussian entropy. For the
    others, h(Y | U_k = g) = -sum_u p(u | g) E_u[ln f_g] with
    f_g = sum_w p(w | g) N_w, and each component's grid serves every
    symbol that mixes it. The grids are pruned (``_gh_grid``); their
    dropped nodes carry under 1e-19 of the weight at the default orders.
    The error of the order itself is not estimated: it is negligible on
    well separated mixtures but reaches about 5e-4 at the default order on
    a badly conditioned one (weights (0.3, 0.7), covariances 0.05 I and
    [[2, .9], [.9, 1]], noise 0.05 I), where a broad component's grid sees
    the narrow one as a sharp feature.
    """
    P = _joint_table(src, joint)
    obs = _ObservedLevel(src, noise_cov)
    order = _quad_order(src.dim, order)
    size = np.count_nonzero(P > 0.0, axis=0)
    _, h = obs.given_label(P[:, size == 1].sum(axis=1))
    mixed = np.flatnonzero(size > 1)
    if mixed.size:
        Pm = P[:, mixed]
        cond_T = (Pm / Pm.sum(axis=0)).T
        grids = np.flatnonzero(np.any(Pm > 0.0, axis=1))
        # ln f_g is needed on u's grid only where u is in g, and there
        # f_g e^{-top} is at least p(u | g) e_u > 0
        mine = (Pm[grids] > 0.0)[:, None, :, None]
        # acc[u, t, g] = E_u[ln f_g] at noise t
        acc = np.zeros((len(grids), obs.T, mixed.size))
        for _, wt, top, e in obs.blocks(grids, order):
            # ln f_g = top + ln sum_w p(w | g) e_w
            s = cond_T @ e
            acc += np.log(s, out=np.zeros_like(s), where=mine) @ wt + top @ wt
        h -= np.einsum("ug,utg->t", Pm[grids], acc)
    return h if obs.stacked else float(h[0])


def mixture_fisher_quad(
    src: MixtureSource, noise_cov, order: int | None = None, joint=None
) -> np.ndarray:
    """J(Y | U_k) for Y = X + N as the closed form J(Y | U_2) minus the
    expected posterior covariance of the component scores (n <= 3).

    ``joint`` and ``noise_cov`` are as in ``mixture_entropy_quad``; the
    result is (n, n), or (T, n, n) for a stack.

    With g_v(y) = -C_v^{-1} (y - mu_v) the score of component v and
    d_uv = g_u - g_v, the correction of symbol g is
    sum_{u<v} E_g[pi^g_u pi^g_v d_uv d_uv^T] over its posterior pi^g.
    Since f_g pi^g_u = p(u | g) N_u, the pair's term summed over the
    symbols is E_u[w_uv d_uv d_uv^T] with the node weight
    w_uv = sum_g P(u, g) pi^g_v: one Gaussian expectation on the grid of
    the pair's narrower member u (smaller |C|, at each noise covariance),
    where d is affine in the nodes, so it is assembled from the weighted
    moments sum w [1, z, z z^T]. Pairs no symbol mixes are skipped, so a
    diagonal table (given U_2) is the closed form and walks no grid. The
    integrand vanishes wherever the posterior is certain, so the broad
    member's grid never has to resolve the narrow one: on the badly
    conditioned mixture of ``mixture_entropy_quad`` the default order is
    about 1e-9 off.
    """
    P = _joint_table(src, joint)
    obs = _ObservedLevel(src, noise_cov)
    n, m = obs.n, obs.m
    order = _quad_order(n, order)
    J, _ = obs.given_label(P.sum(axis=1))
    mixed = np.flatnonzero(np.count_nonzero(P > 0.0, axis=0) > 1)
    Pm = P[:, mixed]
    support = (Pm > 0.0).astype(float)
    paired = support @ support.T > 0.0
    np.fill_diagonal(paired, False)
    # narrow[t, u, v]: u is the pair's grid at noise t (ties to the lower index)
    hl = obs.half_logdet
    lower = np.arange(m)[:, None] < np.arange(m)[None, :]
    narrow = (hl[:, :, None] < hl[:, None, :]) | ((hl[:, :, None] == hl[:, None, :]) & lower)
    use = narrow & paired[None]
    grids = np.flatnonzero(use.any(axis=(0, 2)))
    if grids.size:
        P_grids = Pm[grids]
        # moments[u, t, v] = sum_nodes w_uv [1, z, z_i z_j] on u's grid at noise t
        moments = 0.0
        for F, wt, _, e in obs.blocks(grids, order):
            moments = moments + (_pair_weights(e, Pm, P_grids) * wt) @ F.T
        moments *= np.swapaxes(use[:, grids], 0, 1)[..., None]
        # d_uv at y = mu_u + L_tu z is M z + c
        L = np.swapaxes(obs.chols[:, grids], 0, 1)[:, :, None]
        L_inv_T = np.swapaxes(np.swapaxes(obs.inv_chols[:, grids], 0, 1), 2, 3)[:, :, None]
        M = obs.precs[None] @ L - L_inv_T
        gaps = obs.means[grids, None] - obs.means[None]
        c = (obs.precs[None] @ gaps[:, None, :, :, None])[..., 0]
        i, j = np.triu_indices(n)
        S2 = np.empty(moments.shape[:3] + (n, n))
        S2[..., i, j] = moments[..., 1 + n:]
        S2[..., j, i] = moments[..., 1 + n:]
        Ms1 = (M @ moments[..., 1:1 + n, None])[..., 0]
        corr = (
            M @ S2 @ np.swapaxes(M, 3, 4)
            + Ms1[..., :, None] * c[..., None, :]
            + c[..., :, None] * Ms1[..., None, :]
            + moments[..., 0, None, None] * c[..., :, None] * c[..., None, :]
        )
        J -= corr.sum(axis=(0, 2))
        J = (J + np.swapaxes(J, 1, 2)) / 2.0
    return J if obs.stacked else J[0]

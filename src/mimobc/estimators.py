"""Information quantities for Gaussian-mixture sources observed through
additive Gaussian noise: Fisher information matrices and differential
entropies.

Quantities conditional on the mixture label are exact closed forms, at one
noise covariance or a stack of them. ``given_label`` returns J and h
together from one factorization of the observed components, J at one stack
and h at another, so a caller that needs both builds one ``_ObservedLevel``;
``fisher_conditional`` and ``entropy_conditional`` are its two halves. The
same Cholesky factors serve the quadrature kernels, and give their
one-component symbols and the closed-form part of their Fisher matrix.

The quadrature kernels ``mixture_fisher_quad`` and ``mixture_entropy_quad``
cover a whole auxiliary level at a whole stack of noise covariances in one
pass. Given a joint table P(u_2 = u, U_k = g) over the source's components
(``model.coarsen``), they return J(Y | U_k) and h(Y | U_k); with no table,
the unconditional J(Y) and h(Y). ``mixture_fisher_tables`` gives J for
several tables from one factorization. ``mixture_level_quad`` returns
J(Y | U_k), h(Y | U_k) and, if asked, h(Y) together, from one level and one
walk of the grids: J at one stack of noise covariances (a stage's noise and
a line integral's nodes) and the entropies at another (the stage's two
noises), a noise in both being factorized and walked once.
Every symbol's law mixes the same base components, so one walk of a
component's grid serves every symbol, every noise covariance and both
quantities: only the posterior differs between symbols, and the Fisher
correction and the entropies read the same scaled densities. All three are
calls of one walker (``_walk``), whose rows are (grid, noise) pairs: each
quantity walks only the grids it needs, at the noises it is asked for, so
J at many noises and the entropies at a few share one walk without the
entropies' grids being walked at every noise. The unconditional h(Y) is one
more symbol, the source's weights.

The grids are tensor Gauss-Hermite grids for the small dimensions (n <= 3)
this package targets, of order at most ``_MAX_ORDER``. Each is pruned at its
own summation round-off: the nodes of the smallest weights are dropped as
long as their second-moment mass sum w (1 + |z|^2) stays within sqrt(N) eps
(N the tensor nodes, eps the double-precision epsilon), which keeps 68,
1,200 and 10,600 nodes at the default orders (n = 1, 2, 3). On component
u's grid, y = mu_u + L_u z, every component's log-density is a quadratic in
the standard node z, so the log-densities of all components at all noise
covariances are one matmul of their coefficients with the per-node
features [1, z, z_i z_j] (see ``_ObservedLevel``). The features are built
once per grid and cached with it, and the nodes are a view of their rows
(``_gh_grid``); at the default orders they take 1.6 KB (n = 1), 58 KB
(n = 2) and 848 KB (n = 3). The features times the node weights, which
the Fisher moments are sums against, are cached as well and take as much
(``_weighted_features``). Each node's m log-densities are shifted by their largest and exponentiated
once per component. A block's scaled densities are laid out (m, R, B),
component first, then (grid, noise) row and node, so every symbol's
mixture density, the Fisher pair weights and their moments are each one
2-D matmul per block: no per-symbol log-posterior is formed and the
posterior costs m exponentials per node, not G m. The block's node count
B is chosen per call so that its densities take at most ``_BLOCK_BYTES``,
so a block's memory does not grow with the component count m until one
node's densities exceed the budget; the time still grows as m^2.

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

from . import matrices as mat
from .errors import DimensionMismatchError, SingularMatrixError
from .model import LOG_2PI_E, MixtureSource

__all__ = [
    "given_label",
    "fisher_conditional",
    "entropy_conditional",
    "mixture_entropy_quad",
    "mixture_fisher_quad",
    "mixture_fisher_tables",
    "mixture_level_quad",
]

_LOG_2PI = math.log(2.0 * math.pi)
# the smallest positive float; a density sum raised to it stays as it is
# unless it underflowed to zero
_TINY = np.finfo(float).smallest_subnormal


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


def _noise_stack(src: MixtureSource, noise_cov) -> tuple[np.ndarray, bool]:
    """(the (T, n, n) stack, whether one was given): one (n, n) noise
    covariance is a stack of one."""
    S = np.asarray(noise_cov, dtype=float)
    stacked = S.ndim == 3
    if not stacked:
        S = S[None]
    if S.ndim != 3 or S.shape[1:] != (src.dim, src.dim):
        raise DimensionMismatchError("noise covariance dimension mismatch")
    return S, stacked


class _ObservedLevel:
    """The components of a source observed through a stack of T noise
    covariances S_t: C_tw = Cov(X | w) + S_t = L_tw L_tw^T.

    On component u's grid at noise t, the point y = mu_u + L_tu z has
    ln N(y; mu_w, C_tw) = -(n ln 2 pi)/2 - ln|L_tw| - |A z + o|^2 / 2, with
    A = L_tw^{-1} L_tu and o = L_tw^{-1} (mu_u - mu_w): a quadratic in z,
    whose coefficients ``coefs`` gives against ``_features``. The noise
    covariances are taken as given, symmetric and finite. A C_tw that
    ``matrices.cholesky`` rejects, or whose inverse overflows, raises
    ``SingularMatrixError``.
    """

    def __init__(self, src: MixtureSource, noise_cov):
        S, self.stacked = _noise_stack(src, noise_cov)
        self.means = src.means
        self.T = S.shape[0]
        self.m, self.n = src.means.shape
        C = src.comp_covs[None] + S[:, None]
        self.chols = mat.cholesky(C)
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

    def fisher(self, weights: np.ndarray) -> np.ndarray:
        """J = sum_u w_u C_tu^{-1} (T, n, n), with weight w_u on component u:
        the Fisher matrix given the label, where Y is Gaussian."""
        J = np.einsum("u,tuij->tij", weights, self.precs)
        return (J + np.swapaxes(J, 1, 2)) / 2.0

    def entropies(self, weights: np.ndarray, T_h: int) -> np.ndarray:
        """h = sum_u w_u ln((2 pi e)^n |C_tu|) / 2 at the first ``T_h``
        noises: (T_h,) for weights (m,), or (T_h, S) for weights (m, S) with
        one column per symbol. The product's round-off depends on its row
        count, so the rows are taken before it: h is bit for bit that of a
        level on those T_h noises alone."""
        return (0.5 * self.n * LOG_2PI_E + self.half_logdet[:T_h]) @ weights

    def coefs(self, grids: np.ndarray, noises: np.ndarray) -> np.ndarray:
        """(m*R, F) coefficients of the R (grid, noise) rows (u_r, t_r) =
        (``grids[r]``, ``noises[r]``): row (w, r) times the features of z
        (``_features``) is ln N(mu_u + L_tu z; mu_w, C_tw) at (u, t) = (u_r, t_r)."""
        n = self.n
        # (m, R, n, n): L_tw^{-1} at each row's noise, component axis first
        inv_chols = np.swapaxes(self.inv_chols[noises], 0, 1)
        A = inv_chols @ self.chols[noises, grids]
        gaps = self.means[grids] - self.means[:, None]
        o = (inv_chols @ gaps[..., None])[..., 0]
        i, j = mat.triu_indices(n)
        coef = np.empty(A.shape[:2] + (1 + n + i.size,))
        coef[..., 0] = (
            -0.5 * n * _LOG_2PI - self.half_logdet[noises].T - 0.5 * np.square(o).sum(axis=-1)
        )
        coef[..., 1:1 + n] = -np.einsum("wrji,wrj->wri", A, o)
        Q = np.swapaxes(A, 2, 3) @ A
        coef[..., 1 + n:] = np.where(i == j, -0.5, -1.0) * Q[..., i, j]
        return coef.reshape(-1, coef.shape[-1])

    def blocks(self, grids: np.ndarray, noises: np.ndarray, order: int):
        """Walk the pruned grid (``_gh_grid``) in blocks of B nodes for the R
        (grid, noise) rows (``grids[r]``, ``noises[r]``) at once, yielding
        (weighted features (F, B), weights (B,), top (R, B), densities
        (m, R, B)), the weighted features being w [1; z; z_i z_j]. At
        y = mu_u + L_tu z of row r = (u, t), entry (w, r) of the densities is
        N(y; mu_w, C_tw) e^{-top}, with top the largest of the m
        log-densities: one exponential per component, none of them
        overflowing. The component axis comes first, so every product with
        the (m, G) joint table is one 2-D matmul over the block. B =
        max(1, ``_BLOCK_BYTES`` // (m R 8)), so the densities take at most
        ``_BLOCK_BYTES`` whatever m and R are (unless one node's exceed
        it). The features and weighted features are slices of those cached
        with the grid (``_gh_grid``, ``_weighted_features``), not rebuilt
        per block or per walk. A block's arrays are dropped
        before the next block is computed, so the caller drops them too."""
        coef = self.coefs(grids, noises)
        z, wt = _gh_grid(self.n, order)
        # the features cached with the grid, whose rows 1..n the nodes view
        F = z.base
        FW = _weighted_features(self.n, order)
        shape = (self.m, len(grids), -1)
        size = max(1, _BLOCK_BYTES // (self.m * len(grids) * 8))
        for start in range(0, len(wt), size):
            block = slice(start, start + size)
            e = (coef @ F[:, block]).reshape(shape)
            top = e.max(axis=0)
            e -= top
            np.exp(e, out=e)
            yield FW[:, block], wt[block], top, e
            del e, top


def _pair_weights(e: np.ndarray, P: np.ndarray, P_rows: np.ndarray, broad: slice) -> np.ndarray:
    """(V R, B) node weights, row (v, r) w_uv = sum_g P[u, g] pi^g_v(y) for
    the V components v of ``broad`` on row r's grid u, from the scaled
    densities ``e`` (m, R, B) of ``_ObservedLevel.blocks``, the symbols'
    joint table P (m, G) and its rows ``P_rows`` (R, G) of the rows' grids.
    ``broad`` spans the components that are the broad member of some pair,
    so the others' weights, which no pair uses, are not formed.

    With s_g = sum_w P[w, g] e_w, the posterior is pi^g_v = P[v, g] e_v / s_g,
    so w_uv = e_v sum_g P[v, g] P[u, g] / s_g. The component axis of ``e``
    comes first, so each product with the table is one 2-D matmul over the
    block. Where P[u, g] > 0, s_g is at least P[u, g] e_u. A symbol without
    u may have every density underflow at some nodes; raising s_g to the
    smallest subnormal turns its 0 / 0 into 0 / tiny = 0 and leaves every
    positive s_g, hence every ratio the pair weights use, as it is."""
    m, G = P.shape
    flat = e.reshape(m, -1)
    s = (P.T @ flat).reshape((G,) + e.shape[1:])
    np.maximum(s, _TINY, out=s)
    np.divide(P_rows.T[:, :, None], s, out=s)
    w = P[broad] @ s.reshape(G, -1)
    w *= flat[broad]
    return w.reshape(-1, e.shape[-1])


def _joined(
    src: MixtureSource, fisher_cov, entropy_cov
) -> tuple[_ObservedLevel, np.ndarray, int]:
    """(level, at, T_h): one ``_ObservedLevel`` on the T_h noise
    covariances of ``entropy_cov`` followed by those of ``fisher_cov`` that
    are not among them, and the index ``at`` of each of ``fisher_cov``'s in
    that level. A noise equal to an entropy noise is factorized once; the
    same object as both stacks is one stack."""
    E, _ = _noise_stack(src, entropy_cov)
    if fisher_cov is entropy_cov:
        return _ObservedLevel(src, E), np.arange(len(E)), len(E)
    F, _ = _noise_stack(src, fisher_cov)
    same = np.all(F[:, None] == E[None], axis=(2, 3))
    new = ~same.any(axis=1)
    at = same.argmax(axis=1)
    at[new] = len(E) + np.arange(np.count_nonzero(new))
    return _ObservedLevel(src, np.concatenate([E, F[new]])), at, len(E)


# --- exact conditional quantities -------------------------------------------

def given_label(
    src: MixtureSource, noise_cov, entropy_cov=None
) -> tuple[np.ndarray, float | np.ndarray]:
    """(J(X+N | U), h(X+N | U)) given the mixture label U, from one
    factorization of the observed components: J at ``noise_cov`` and h at
    ``entropy_cov``, or at ``noise_cov`` when that is None.

    Given the label, X + N is Gaussian: J = sum_u p_u (C_u + N)^{-1}, the
    weighted sum of inverse observed component covariances, and
    h = sum_u p_u * Gaussian entropy of component u. Each stack is one
    (n, n) covariance, giving (n, n) and a float, or a (T, n, n) stack,
    giving (T, n, n) and T values. Each value is bit for bit that of a call
    on its own noise covariances alone (``_ObservedLevel.entropies``).
    """
    if entropy_cov is None:
        entropy_cov = noise_cov
    obs, at, T_h = _joined(src, noise_cov, entropy_cov)
    J = obs.fisher(src.weights)[at]
    h = obs.entropies(src.weights, T_h)
    if np.ndim(noise_cov) == 2:
        J = J[0]
    return J, (h if np.ndim(entropy_cov) == 3 else float(h[0]))


def fisher_conditional(src: MixtureSource, noise_cov) -> np.ndarray:
    """J(X+N | U), the Fisher matrix of ``given_label``: (n, n) for one
    (n, n) noise covariance, (T, n, n) for a (T, n, n) stack."""
    return given_label(src, noise_cov)[0]


def entropy_conditional(src: MixtureSource, noise_cov) -> float | np.ndarray:
    """h(X+N | U), the entropy of ``given_label``: a float for one (n, n)
    noise covariance, T values for a (T, n, n) stack."""
    return given_label(src, noise_cov)[1]


# --- deterministic quadrature -----------------------------------------------

_DEFAULT_QUAD_ORDER = {1: 160, 2: 56, 3: 28}

# ``hermgauss`` overflows past order 370, so orders are capped below that
_MAX_ORDER = 360

# Grids are walked in blocks of as many nodes as keep a block's (m, R, B)
# scaled densities within this many bytes. On a 2-core Xeon with 2 MiB of
# L2 cache per core, the top converse stage's walk ran within 7% of one
# speed at 192-512 KiB per such array, 26% slower at 64 KiB and twice as
# slow at 1 MiB.
_BLOCK_BYTES = 256 * 1024


@functools.lru_cache(maxsize=16)
def _gh_grid(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Pruned tensor Gauss-Hermite grid for a standard normal in n
    dimensions: (nodes (N, n), weights (N,)), both read-only because every
    caller shares them.

    Every node of weight at most tau is dropped, with tau the largest weight
    at which the dropped second-moment mass sum w (1 + |z|^2) stays within
    sqrt(N_full) eps, N_full = order^n tensor nodes: the rule's own
    summation round-off. Mirror nodes have equal weights, so the pruned grid
    stays symmetric under z_i -> -z_i. At the default orders it keeps 68,
    1,200 and 10,600 nodes (n = 1, 2, 3).

    The grid's features [1; z; z_i z_j] (``_features``, (1 + n + n(n+1)/2,
    N)) are built here, once per grid, and the nodes are the view of their
    rows 1..n (``nodes.base`` is the features), so nothing is stored twice.
    At the default orders the features take 1.6 KB (n = 1), 58 KB (n = 2)
    and 848 KB (n = 3)."""
    x, w = hermgauss(order)
    z1 = math.sqrt(2.0) * x
    w1 = w / math.sqrt(math.pi)
    # the tensor weights and |z|^2 first, then only the kept nodes, so the
    # full tensor of nodes is never built
    wt, r2 = w1, np.square(z1)
    for _ in range(n - 1):
        wt = np.multiply.outer(wt, w1)
        r2 = np.add.outer(r2, np.square(z1))
    # the cumulative mass of the nodes from the lightest up: the first
    # ``dropped`` fit the budget, and every node as light as the next one
    # is kept with it
    rank = np.argsort(wt, axis=None, kind="stable")
    mass = np.cumsum((wt * (1.0 + r2)).ravel()[rank])
    dropped = np.searchsorted(mass, math.sqrt(wt.size) * np.finfo(float).eps, side="right")
    keep = np.nonzero(wt >= wt.ravel()[rank[dropped]])
    wt = wt[keep]
    z = np.empty((wt.size, n))
    for d, idx in enumerate(keep):
        z[:, d] = z1[idx]
    F = _features(z, *mat.triu_indices(n))
    F.flags.writeable = False
    wt.flags.writeable = False
    return F[1:1 + n].T, wt


@functools.lru_cache(maxsize=16)
def _weighted_features(n: int, order: int) -> np.ndarray:
    """The features of ``_gh_grid``'s nodes times their weights, (F, N) and
    read-only: every walk's Fisher moments are sums against them, so they
    are formed once per grid, not once per walk. They take as much as the
    features: 848 KB at the default n = 3 grid."""
    z, wt = _gh_grid(n, order)
    FW = z.base * wt
    FW.flags.writeable = False
    return FW


def _quad_order(n: int, order: int | None) -> int:
    if order is not None:
        if not 1 <= order <= _MAX_ORDER:
            raise ValueError(f"quadrature order must be in 1..{_MAX_ORDER}, got {order}")
        return order
    if n not in _DEFAULT_QUAD_ORDER:
        raise ValueError("quadrature supports dimensions 1..3 only")
    return _DEFAULT_QUAD_ORDER[n]


def _walk(
    obs: _ObservedLevel, order: int, P: np.ndarray | None, Q: np.ndarray | None,
    fisher_at: np.ndarray | None, T_h: int,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """J(Y | U) of the joint table P (m, G) at the noise covariances
    ``fisher_at`` (indices into those of ``obs``) and the entropy terms
    h_s = -sum_u Q[u, s] E_u[ln f_s] of the symbol columns Q (m, S) at its
    first ``T_h``, with f_s = sum_w Q[w, s] N_w / sum_w Q[w, s], from one
    walk of the grids (``_ObservedLevel.blocks``): (J (T_f, n, n),
    H (T_h, S)), each None when its table is.

    The walk's rows are (grid, noise) pairs, and each part walks only the
    rows it needs: the Fisher correction the grid of the narrower member of
    each pair some symbol of P mixes, at each noise of ``fisher_at`` where
    it is the narrower (see ``mixture_fisher_quad``); the entropy the grids of the
    components of every symbol of Q that mixes several, at the first T_h
    noises. A symbol with one component has its exact Gaussian entropy.
    The rows are ordered Fisher only, both, entropy only, so each part
    reads a contiguous slice of the same scaled densities (m, R, B) of each
    block. With the component axis first, the pair weights
    (``_pair_weights``, formed only for the span of the components that are
    the broad member of some pair), their moments against the block's slice
    of the grid's cached weighted features and the entropy's mixture
    densities are each one 2-D matmul per block. A call in which no symbol
    mixes components returns the closed forms and walks nothing."""
    m, T = obs.m, obs.T
    J = H = None
    if P is not None:
        J = obs.fisher(P.sum(axis=1))[fisher_at]
        Pm = P[:, np.count_nonzero(P > 0.0, axis=0) > 1]
    if Q is not None:
        size = np.count_nonzero(Q > 0.0, axis=0)
        H = obs.entropies(Q * (size == 1), T_h)
        mixed = np.flatnonzero(size > 1)
    # no symbol mixes components: the closed forms are all, and no grid is walked
    if (P is None or not Pm.size) and (Q is None or not mixed.size):
        return J, H
    fisher = np.zeros((m, T), dtype=bool)  # [u, t]: u's grid at noise t serves J
    entropy = np.zeros((m, T), dtype=bool)  # [u, t]: u's grid at noise t serves H
    if P is not None:
        support = (Pm > 0.0).astype(float)
        paired = support @ support.T > 0.0
        np.fill_diagonal(paired, False)
        # narrow[t, u, v]: u is the pair's grid at noise t (ties to the lower index)
        hl = obs.half_logdet
        lower = np.arange(m)[:, None] < np.arange(m)[None, :]
        narrow = (hl[:, :, None] < hl[:, None, :]) | ((hl[:, :, None] == hl[:, None, :]) & lower)
        asked = np.zeros(T, dtype=bool)
        asked[fisher_at] = True
        use = narrow & paired[None] & asked[:, None, None]
        fisher = use.any(axis=2).T
        # the span of the components that are the broad member of some
        # pair: the pair weights of those below or above it are never used
        v = np.flatnonzero(use.any(axis=(0, 1)))
        broad = slice(v[0], v[-1] + 1) if v.size else None
    if Q is not None:
        Qm = Q[:, mixed]
        cond_T = (Qm / Qm.sum(axis=0)).T
        entropy[np.any(Qm > 0.0, axis=1), :T_h] = True
    kinds = (fisher & ~entropy, fisher & entropy, entropy & ~fisher)
    grids, noises = np.concatenate([np.nonzero(kind) for kind in kinds], axis=1)
    if not grids.size:
        return J, H
    # rows [0, R_f) serve J and rows [R_0, R) serve H
    R_0 = np.count_nonzero(kinds[0])
    R_f = R_0 + np.count_nonzero(kinds[1])
    P_rows = Pm[grids[:R_f]] if R_f else None
    # moments[v, r] = sum_nodes w_uv [1, z, z_i z_j] for v in broad, on row r
    moments = 0.0
    # acc[s, r] = E_u[ln f_s] on row r
    acc = 0.0
    for FW, wt, top, e in obs.blocks(grids, noises, order):
        if R_f:
            moments = moments + _pair_weights(e[:, :R_f], Pm, P_rows, broad) @ FW.T
        if Q is not None:
            # ln f_s = top + ln sum_w p(w | s) e_w. Where u is in s, the sum
            # is at least p(u | s) e_u > 0 and ``_TINY`` leaves it as it is;
            # elsewhere it may underflow to 0, and its weight Q[u, s] is 0
            f = cond_T @ e[:, R_0:].reshape(m, -1)
            np.maximum(f, _TINY, out=f)
            np.log(f, out=f)
            f += top[R_0:].reshape(-1)
            acc = acc + f.reshape(-1, wt.size) @ wt
            del f
        # freed before the next block's densities are computed
        del top, e
    if Q is not None:
        acc = acc.reshape(mixed.size, -1)
        at_noise = np.arange(T_h)[:, None] == noises[R_0:]
        H[:, mixed] -= at_noise @ (Qm[grids[R_0:]] * acc.T)
    if R_f:
        moments = moments.reshape(broad.stop - broad.start, R_f, -1)
        moments *= use[noises[:R_f], grids[:R_f]][:, broad].T[..., None]
        corr = _fisher_correction(obs, grids[:R_f], noises[:R_f], broad, moments)
        at_noise = fisher_at[:, None] == noises[:R_f]
        J -= (at_noise @ corr.reshape(R_f, -1)).reshape(J.shape)
        J = (J + np.swapaxes(J, 1, 2)) / 2.0
    return J, H


def _fisher_correction(
    obs: _ObservedLevel, grids: np.ndarray, noises: np.ndarray, broad: slice,
    moments: np.ndarray,
) -> np.ndarray:
    """(R, n, n) sum over the components v of ``broad`` of
    E_u[w_uv d_uv d_uv^T] on each (grid u, noise t) row (``grids[r]``,
    ``noises[r]``), u being the pair's narrower member at t, from the
    weighted moments (V, R, F), entry (v, r), with d_uv = g_u - g_v, the
    gap of the component scores, affine in the nodes: at y = mu_u + L_tu z
    it is M z + c."""
    n = obs.n
    L = obs.chols[noises, grids]
    L_inv_T = np.swapaxes(obs.inv_chols[noises, grids], 1, 2)
    # (V, R, n, n): C_tv^{-1} at each row's noise
    precs = np.swapaxes(obs.precs[noises][:, broad], 0, 1)
    M = precs @ L - L_inv_T
    gaps = obs.means[grids] - obs.means[broad][:, None]
    c = (precs @ gaps[..., None])[..., 0]
    i, j = mat.triu_indices(n)
    S2 = np.empty(moments.shape[:2] + (n, n))
    S2[..., i, j] = moments[..., 1 + n:]
    S2[..., j, i] = moments[..., 1 + n:]
    Ms1 = (M @ moments[..., 1:1 + n, None])[..., 0]
    corr = (
        M @ S2 @ np.swapaxes(M, 2, 3)
        + Ms1[..., :, None] * c[..., None, :]
        + c[..., :, None] * Ms1[..., None, :]
        + moments[..., 0, None, None] * c[..., :, None] * c[..., None, :]
    )
    return corr.sum(axis=0)


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
    symbol that mixes it. The grids are pruned at their own summation
    round-off (``_gh_grid``): the dropped nodes' second-moment mass is at
    most sqrt(N) eps for N tensor nodes, 3.3e-14 at the default n = 3 grid.
    ``order`` must be in 1..360.
    The error of the order itself is not estimated: it is negligible on
    well separated mixtures but reaches about 5e-4 at the default order on
    a badly conditioned one (weights (0.3, 0.7), covariances 0.05 I and
    [[2, .9], [.9, 1]], noise 0.05 I), where a broad component's grid sees
    the narrow one as a sharp feature.
    """
    P = _joint_table(src, joint)
    obs = _ObservedLevel(src, noise_cov)
    _, H = _walk(obs, _quad_order(obs.n, order), None, P, None, obs.T)
    h = H.sum(axis=1)
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
    return mixture_fisher_tables(src, noise_cov, [joint], order)[0]


def mixture_fisher_tables(
    src: MixtureSource, noise_cov, joints, order: int | None = None
) -> list[np.ndarray]:
    """``mixture_fisher_quad`` for each joint table of ``joints`` (None for
    the source's own weights), from one factorization of the observed
    components: a list of J(Y | U), one per table, each (n, n) for one
    noise covariance or (T, n, n) for a stack. Each table walks its own
    pairs on the shared level."""
    tables = [_joint_table(src, P) for P in joints]
    obs = _ObservedLevel(src, noise_cov)
    order = _quad_order(obs.n, order)
    Js = [_walk(obs, order, P, None, np.arange(obs.T), 0)[0] for P in tables]
    return Js if obs.stacked else [J[0] for J in Js]


def mixture_level_quad(
    src: MixtureSource, fisher_cov, entropy_cov, joint, unconditional: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(J(Y | U_k), h(Y | U_k), h(Y)) of one auxiliary level from one walk
    of the grids (n <= 3): J at the (T_f, n, n) stack ``fisher_cov``, as
    (T_f, n, n), and the entropies at the (T_h, n, n) stack
    ``entropy_cov``, as (T_h,) each; one (n, n) covariance is a stack of
    one. h(Y) is None unless ``unconditional``.

    Each equals ``mixture_fisher_quad``, ``mixture_entropy_quad`` with the
    same ``joint`` and ``mixture_entropy_quad`` with none (the source's own
    weights) on its own stack, at the default order. The observed
    components are factorized once, on the entropy stack followed by the
    Fisher noises not in it (``_joined``), and all three read the same
    scaled component densities: the Fisher correction on the narrower
    member of each mixed pair, at the Fisher noises only, and the entropies
    with the weights p(u) as one more symbol for h(Y), on the grid of every
    component that a symbol mixes with another, at the entropy noises only.
    A noise in both stacks is walked once for both.
    """
    P = _joint_table(src, joint)
    obs, at, T_h = _joined(src, fisher_cov, entropy_cov)
    Q = np.column_stack([P, src.weights]) if unconditional else P
    J, H = _walk(obs, _quad_order(obs.n, None), P, Q, at, T_h)
    return J, H[:, :P.shape[1]].sum(axis=1), H[:, -1] if unconditional else None

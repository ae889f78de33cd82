"""Capacity region of the degraded Gaussian vector broadcast channel:
exact rate tuples for a covariance split, weighted-sum-rate boundary
tracing (projected ascent for two active users, one log-barrier Newton
solve for more), and two oracles for the tracer: a brute-force grid of
splits for two users at n = 2, and the exact boundary of a channel that
decouples into scalar channels (diagonal noises and cap) at any K and n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrices as mat
from .errors import DimensionMismatchError, NumericalError
from .model import BroadcastChannel

__all__ = [
    "CovarianceSplit",
    "OptimizerConfig",
    "rate_tuple",
    "weighted_sum_rate",
    "trace_boundary",
    "grid_oracle",
    "decoupled_boundary",
]


class CovarianceSplit:
    """PSD matrices K_1 ... K_K summing to the input cap.

    The parts are symmetrized and kept as one read-only (K, n, n) stack,
    which holds a split in about half the memory of K separate arrays;
    ``parts`` hands them out one by one, ``stack`` all at once.
    """

    __slots__ = ("_stack",)

    def __init__(self, parts):
        try:
            stack = np.array(parts, dtype=float)
        except ValueError as exc:  # parts of different shapes
            raise DimensionMismatchError("split parts must share one shape") from exc
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.size == 0:
            raise DimensionMismatchError(
                f"a split needs one or more nonempty square parts, got shape {stack.shape}"
            )
        stack = mat.symmetrize(stack)
        stack.flags.writeable = False
        self._stack = stack

    @property
    def parts(self) -> tuple[np.ndarray, ...]:
        return tuple(self._stack)

    @property
    def stack(self) -> np.ndarray:
        """The parts as one read-only (K, n, n) array."""
        return self._stack

    def __repr__(self) -> str:
        return f"CovarianceSplit(parts={self.parts!r})"

    def validate(self, input_cap: np.ndarray) -> None:
        """Raise unless the parts sum to a channel's cap, taken as given, and
        each is PSD. Both slacks are 1e-9 times the cap's largest |entry|:
        a part's smallest eigenvalue (one stacked eigvalsh) may fall that far
        below 0, and the sum may miss the cap by that much in any entry. The
        rule reads the same at every scale and squares nothing."""
        if self._stack.shape[1:] != input_cap.shape:
            raise DimensionMismatchError("split part dimension mismatch")
        slack = 1e-9 * np.max(np.abs(input_cap))
        if np.any(np.linalg.eigvalsh(self._stack)[:, 0] < -slack):
            raise ValueError("split part is not PSD")
        if np.max(np.abs(self._stack.sum(axis=0) - input_cap)) > slack:
            raise ValueError("split parts do not sum to the input cap")


# An ascent stops at a projected-gradient (KKT) residual below _GRAD_TOL,
# or where round-off hides any further gain (see ``_ascend``); a barrier
# solve stops at a duality gap below about _GAP_TOL nats (``_barrier``).
# Either is capped after _MAX_ITERS steps, which ``trace_boundary`` reports
# as an error; _ARMIJO is their sufficient-increase constant.
_GRAD_TOL = 1e-8
_GAP_TOL = 1e-12
_MAX_ITERS = 5000
_ARMIJO = 1e-4


# Random starts per weight vector. Restart r draws from the sub-seed
# (seed, weight index, r), so a smaller count would try a subset of these.
_RESTARTS = 8


@dataclass(frozen=True)
class OptimizerConfig:
    """Boundary-tracer settings: the seed of the two-user ascent's starts."""

    seed: int = 0


def _rates(noise: np.ndarray, splits: np.ndarray) -> np.ndarray:
    """The rates of ``rate_tuple`` for a (..., K, n, n) stack of splits,
    taken as given, against the (K, n, n) noises: a (..., K) array, from one
    stacked ``matrices.cholesky`` factorization of all 2K matrices of every
    split."""
    cum = np.cumsum(splits, axis=-3)
    below = np.concatenate([np.zeros_like(cum[..., :1, :, :]), cum[..., :-1, :, :]], axis=-3)
    L = mat.cholesky(np.concatenate([cum + noise, below + noise], axis=-3))
    logdets = 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)
    K = noise.shape[0]
    rates = 0.5 * (logdets[..., :K] - logdets[..., K:])
    if np.any(rates < -1e-9):
        raise NumericalError(f"negative rate {rates.min()} beyond round-off")
    return np.maximum(rates, 0.0)


def rate_tuple(ch: BroadcastChannel, split: CovarianceSplit) -> tuple[float, ...]:
    """Superposition-coding rates for one split.

    R_k = 0.5 [ln|sum_{i<=k} K_i + Sigma_k| - ln|sum_{i<k} K_i + Sigma_k|];
    a rate in [-1e-9, 0) is round-off and reads 0, and one below -1e-9
    raises ``NumericalError``. The split is validated against the cap, and
    its rates come from ``_rates``.

    All 2K log-dets are bit-identical to K pairs of ``matrices.logdet``
    calls: the partial sums add the parts in the same order, and each
    log-det sums its factor's log-diagonal in the same order.
    """
    if len(split.stack) != ch.num_users:
        raise DimensionMismatchError("split has wrong number of parts")
    split.validate(ch.input_cap)
    return tuple(_rates(np.stack(ch.noise_covs), split.stack).tolist())


def _weight_vector(weights, K: int) -> np.ndarray:
    """K weights, nonnegative and not all zero, as a float array."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (K,):
        raise DimensionMismatchError("one weight per user required")
    if np.any(w < 0) or not np.any(w > 0):
        raise ValueError("weight vectors must be nonnegative and not all zero")
    return w


def weighted_sum_rate(ch: BroadcastChannel, split: CovarianceSplit, weights) -> float:
    """w . R of one split, for weights as ``trace_boundary`` takes them."""
    w = _weight_vector(weights, ch.num_users)
    return float(w @ np.asarray(rate_tuple(ch, split)))


# --- boundary tracing --------------------------------------------------------
#
# In the cumulative covariances C_k = K_1 + ... + K_k (C_0 = 0, C_K = S) the
# weighted sum rate is, up to a constant, a sum of one term per C_k:
#
#     f = 1/2 sum_{k<K} [w_k ln|C_k + Sigma_k| - w_{k+1} ln|C_k + Sigma_{k+1}|],
#
# and the gradient identity grad_Sigma h = J/2 (Palomar & Verdu 2006) gives
# its gradient in closed form:
#
#     df/dC_k = 1/2 [w_k (C_k + Sigma_k)^-1 - w_{k+1} (C_k + Sigma_{k+1})^-1].
#
# If w_k >= w_{k+1} that gradient is PSD, because Sigma_k <= Sigma_{k+1}, so
# raising C_k to C_{k+1} never lowers f: user k+1 gets no power and drops out.
# If w_k = 0 < w_{k+1} the gradient is -w_{k+1}/2 (C_k + Sigma_{k+1})^-1,
# negative definite, so C_k = 0: users before the first of positive weight
# get no power either. The users left (the "active" ones) have strictly
# increasing weights. Their chain is solved in whitened coordinates
# C_i = S^{1/2} Q_i S^{1/2}, 0 <= Q_1 <= ... <= Q_{m-1} <= I, with the noises
# whitened once, N_k = S^{-1/2} Sigma_k S^{-1/2}: ln|C_i + Sigma_k| = ln|S| +
# ln|Q_i + N_k|, so the objective drops the constant ln|S| terms, and the
# root maps only the final chain back to parts.
#
# Two active users (a one-link chain) take projected ascent (``_ascend``):
# Barzilai-Borwein gradient steps, except after a step whose eigenvalue
# clip left its trial point unchanged. There no constraint binds, and where
# the chain is also locally concave the next step is a Newton step
# (projected Newton, Bertsekas 1982), which converges quadratically where
# the gradient steps crawl. The second derivative of ln|Q + N| along E is
# -tr(A E A E), A = (Q + N)^-1, so the Hessian is -M, one block per link:
#
#     M = 1/2 [w_lo (A_lo (x) A_lo) - w_hi (A_hi (x) A_hi)],
#
# taken on the n(n+1)/2 symmetric unknowns of each link; "locally concave"
# means M positive definite. Where M is indefinite a Newton direction can
# still point uphill, but it overshoots to the boundary and backtracking
# then costs more evaluations than the gradient step saves. Only a gradient
# step stops the ascent: a short Newton step certifies nothing, because |M|
# reaches about 1e12 on ill-conditioned chains. An ascent that reaches the
# iteration cap is not a boundary point.
#
# Longer chains have constraints binding at their maxima in directions no
# clip isolates; one log-barrier Newton solve (``_barrier``) takes them into
# its steps.


def _active_users(w: np.ndarray) -> list[int]:
    """Users that can get power at weights w: the first user of positive
    weight and every later user whose weight exceeds that of all users
    before it. A user of zero weight gains nothing from power, which only
    adds to the interference of the users after it."""
    active = [int(np.flatnonzero(w > 0.0)[0])]
    for k in range(active[0] + 1, w.size):
        if w[k] > w[active[-1]]:
            active.append(k)
    return active


def _with_ends(Q: np.ndarray) -> np.ndarray:
    """The chain Q_1, ..., Q_c with its fixed ends: (0, Q_1, ..., Q_c, I)."""
    n = Q.shape[-1]
    return np.concatenate([np.zeros((1, n, n)), Q, np.eye(n)[None]])


def _project_chain(Q: np.ndarray) -> np.ndarray:
    """Nearest point of {0 <= Q <= I} to the one-link chain Q (1, n, n).

    The two constraints share Q's eigenvectors, so the projection is the
    eigenvalue clip to [0, 1]: one ``eigh``, and a result V clip(lam) V^T
    within round-off of the set whatever the norm of Q. A feasible Q comes
    back as the same array, so the ascent reads "nothing clipped" as
    ``_project_chain(Q) is Q``.
    """
    lam, V = np.linalg.eigh(Q)
    if lam[0, 0] >= 0.0 and lam[0, -1] <= 1.0:
        return Q
    # minimum/maximum, not np.clip: the clip's wrapper costs a large share
    # of a 2 x 2 projection
    lam = np.minimum(np.maximum(lam, 0.0), 1.0)
    return (V * lam[..., None, :]) @ np.swapaxes(V, -1, -2)


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A_i (x) B_i for each pair of matrices of two (m, n, n) stacks."""
    m, n = A.shape[0], A.shape[-1]
    return (A[:, :, None, :, None] * B[:, None, :, None, :]).reshape(m, n * n, n * n)


class _ActiveChain:
    """Weighted sum rate f of the active users, up to a constant, and its
    derivatives in the whitened chain Q of shape (m-1, n, n). ``noise``
    stacks N_lo and N_hi, N = S^{-1/2} Sigma S^{-1/2} (whitened once; the
    channel rule bounds |N| below 1e9), for the lower and the upper user of
    each link; ``h`` holds the weights 1/2 [w_lo; -w_hi] of their log-dets,
    ``dup`` the duplication matrix (vec E = dup vech E for symmetric E), and
    ``root`` = S^{1/2} maps the final chain back to parts.
    """

    def __init__(self, ch: BroadcastChannel, w: np.ndarray, active: list[int]):
        self.root = mat.sqrt_psd(ch.input_cap)
        sig = np.stack([ch.noise_covs[k] for k in active])
        half = np.linalg.solve(self.root, sig)
        white = np.linalg.solve(self.root, np.swapaxes(half, -1, -2))
        white = (white + np.swapaxes(white, -1, -2)) / 2.0
        self.noise = np.concatenate([white[:-1], white[1:]])
        self.h = 0.5 * np.concatenate([w[active[:-1]], -w[active[1:]]])
        n = ch.dim
        rows, cols = mat.triu_indices(n)
        self.dup = np.zeros((n * n, rows.size))
        self.dup[rows * n + cols, np.arange(rows.size)] = 1.0
        self.dup[cols * n + rows, np.arange(rows.size)] = 1.0

    def value_and_grad(self, Q: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """f = sum_b h_b ln|Q_i + N_b|, its gradient G = X_lo + X_hi with
        X = h (Q_i + N_b)^-1 (bit for bit 1/2 [w_lo (Q_i + N_lo)^-1 - w_hi
        (Q_i + N_hi)^-1], as halving is exact), and the inverses, from one
        ``eigh`` of the stack [Q; Q] + noise."""
        c = Q.shape[0]
        lam, V = np.linalg.eigh(np.concatenate([Q, Q]) + self.noise)
        if not lam.min() > 0.0:
            raise NumericalError("objective is non-finite on the feasible set")
        inv = (V / lam[..., None, :]) @ np.swapaxes(V, -1, -2)
        X = self.h[:, None, None] * inv
        return float(self.h @ np.log(lam).sum(axis=-1)), X[:c] + X[c:], inv

    def curvature(self, inv: np.ndarray) -> np.ndarray:
        """M, minus the Hessian of f in vec(Q_i), per link: sum_b h_b (A_b (x)
        A_b) from the inverses A_b = (Q_i + N_b)^-1 of ``value_and_grad``."""
        c = inv.shape[0] // 2
        kron = _kron(self.h[:, None, None] * inv, inv)
        return kron[:c] + kron[c:]

    def newton(self, inv: np.ndarray, G: np.ndarray) -> np.ndarray | None:
        """Newton direction M^-1 G, or None unless M is positive definite
        (the chain is locally concave there): each link's block D^T M D on
        the symmetric unknowns comes from one stacked ``eigh``, which both
        tests and solves it."""
        c, n = G.shape[0], G.shape[-1]
        lam, V = np.linalg.eigh(self.dup.T @ self.curvature(inv) @ self.dup)
        if not lam.min() > 0.0:
            return None
        # vech(step) = (D^T M D)^-1 D^T vec(G), as <G, E> = vec(G)^T D vech(E)
        y = (G.reshape(c, 1, n * n) @ self.dup @ V) / lam[:, None, :]
        step = (y @ np.swapaxes(V, -1, -2) @ self.dup.T).reshape(c, n, n)
        return step if np.isfinite(step).all() else None


def _ascend(chain: _ActiveChain, Q: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Projected ascent from the feasible one-link chain Q, with Armijo
    backtracking along the projection arc P(Q + t p): Barzilai-Borwein
    steps along the gradient, and Newton steps from t = 1 after an accepted
    step whose projection left its trial point unchanged (an interior
    iterate), where the chain is locally concave (``_ActiveChain.newton``).

    Returns the chain, its objective and whether the ascent was capped.
    It stops in one of four ways:

    - at a KKT point: the gradient trial ``P(Q + t grad)`` moved less than
      ``_GRAD_TOL * min(t, 1)``, which bounds the projected-gradient
      residual |P(Q + grad) - Q| by ``_GRAD_TOL``;
    - when the gains have fallen to round-off on three steps in a row;
    - when backtracking the gradient trial to t <= 1e-14 finds no ascent
      step;
    - capped, after ``_MAX_ITERS`` iterations.

    Only the first checks the residual; the next two stop where round-off
    hides any further gain. A Newton trial never stops the ascent: one that
    is too short, clipped to a non-ascent direction (<grad, d> <= 0), or
    backtracked to t <= 1e-14 gives way to the gradient trial.
    """
    f, g, inv = chain.value_and_grad(Q)
    step, stalled, newton = 1.0, 0, None
    for _ in range(_MAX_ITERS):
        p, t = (g, step) if newton is None else (newton, 1.0)
        while True:
            trial = Q + t * p
            P = _project_chain(trial)
            d = P - Q
            dd = float(np.vdot(d, d))
            gain = float(np.vdot(g, d))
            # a gradient trial ascends (<g, d> >= |d|^2 / t); a clipped
            # Newton trial need not, and Armijo alone would accept it
            if math.sqrt(dd) >= _GRAD_TOL * min(t, 1.0) and (p is g or gain > 0.0):
                Qc = Q + d
                fc, gc, inv_c = chain.value_and_grad(Qc)
                if fc >= f + _ARMIJO * gain:
                    break
                t *= 0.5
                if t > 1e-14:
                    continue
            if p is g:
                return Q, f, False
            p, t = g, step
        # the objective is smooth, so once gains fall to round-off the
        # iterate has converged to working precision
        stalled = stalled + 1 if fc - f <= 1e-15 * (1.0 + abs(fc)) else 0
        curvature = -float(np.vdot(d, gc - g))
        Q, f, g, inv = Qc, fc, gc, inv_c
        if stalled >= 3:
            return Q, f, False
        step = dd / curvature if curvature > 0.0 else 2.0 * t
        step = min(max(step, 1e-10), 1e10)
        newton = chain.newton(inv, g) if P is trial else None
    return Q, f, True


def _suffix_sums(X: np.ndarray) -> np.ndarray:
    """X_j + ... + X_last for j = 0, ..., len(X), the last sum zero."""
    return np.cumsum(np.concatenate([X, np.zeros_like(X[:1])])[::-1], axis=0)[::-1]


def _partial_sums(F: np.ndarray) -> np.ndarray:
    """The chain Q_i = Delta_0 + ... + Delta_i, i < c, of Delta_j = F_j F_j^T."""
    return np.cumsum(F[:-1] @ np.swapaxes(F[:-1], -1, -2), axis=0)


def _barrier_step(chain: _ActiveChain, F: np.ndarray, G: np.ndarray, inv: np.ndarray,
                  mu: float) -> tuple[np.ndarray, float]:
    """Newton step U of phi = f + mu sum_j ln|Delta_j| at the increments
    Delta_j = F_j F_j^T, and its decrement g^T H^-1 g. It is taken in each
    increment's own scale, Delta_j -> F_j (I + U_j) F_j^T with sum_j F_j U_j
    F_j^T = 0, where the barrier's curvature is mu I; in Q, mu / delta^2 at
    an eigenvalue delta = 1e-13 reaches 1e22 beside f's 1e-2. f reaches
    Delta_j through each Q_i, i >= j, so its derivatives enter as suffix
    sums. Where f is not concave, the reduced Hessian's eigenvalues are
    taken in absolute value, at least its round-off, so the step ascends.
    """
    c1, n = F.shape[0], F.shape[-1]
    p, dup = chain.dup.shape[1], chain.dup
    T = _kron(F, F) @ dup  # vec(F U F^T) = T vech(U)
    Tt = np.swapaxes(T, -1, -2)
    g = (Tt @ _suffix_sums(G).reshape(c1, n * n, 1))[..., 0] + mu * (np.eye(n).ravel() @ dup)
    r = np.arange(c1)
    H = Tt[:, None] @ _suffix_sums(chain.curvature(inv))[np.maximum.outer(r, r)] @ T[None]
    H[r, r] += mu * (dup.T @ dup)
    H = H.transpose(0, 2, 1, 3).reshape(c1 * p, c1 * p)
    rows, cols = mat.triu_indices(n)
    Z = np.linalg.qr(np.concatenate(T[:, rows * n + cols], axis=1).T, mode="complete")[0][:, p:]
    lam, V = np.linalg.eigh(Z.T @ H @ Z)
    lam = np.maximum(np.abs(lam), lam.size * np.finfo(float).eps * np.abs(lam).max())
    gz = Z.T @ g.ravel()
    y = V @ ((V.T @ gz) / lam)
    return ((Z @ y).reshape(c1, p) @ dup.T).reshape(c1, n, n), float(gz @ y)


def _barrier(chain: _ActiveChain) -> tuple[np.ndarray, str | None]:
    """Maximum of f over the chain 0 <= Q_1 <= ... <= Q_c <= I, c >= 2: the
    factors F_j of its increments Delta_j = F_j F_j^T (factors keep a small
    eigenvalue's relative precision), and None, or why the solve failed.

    From the centre Q_i = i/(c+1) I it maximizes phi = f + mu sum_j
    ln|Delta_j| for mu = 1, 0.1, ... Each step starts at Nesterov's damped
    t = 1/(1 + lambda), lambda^2 = g^T H^-1 g / mu, and is halved until phi
    gains _ARMIJO t g^T H^-1 g; one that cannot by t = 1e-14 fails the
    solve. f's gain is ln|I + A^-1 D| summed over the log-dets, D the step's
    change of each Q_i and A = Q_i + N: a difference of two values of f
    loses it to f's round-off, which the smallest eigenvalues of A raise to
    about 1e-12 on ill-conditioned channels. The solve stops at nu mu =
    _GAP_TOL, nu = (c+1) n, once g^T H^-1 g <= nu mu / 4. Where f is
    concave, a central point is within nu mu of the maximum (the duality
    gap of its multipliers mu Delta_j^-1; Boyd & Vandenberghe ch. 11) and
    this one within nu mu (1 + 1/8 + 1/2) < 2 _GAP_TOL, the decrement
    bounding phi's gap and the barrier's change. The gap is in nats, so no
    scale of the channel moves it.
    """
    c, n = chain.noise.shape[0] // 2, chain.noise.shape[-1]
    nu = (c + 1) * n
    mu, mu_end = 1.0, _GAP_TOL / nu
    F = np.broadcast_to(np.eye(n) / math.sqrt(c + 1), (c + 1, n, n))
    _, G, inv = chain.value_and_grad(_partial_sums(F))
    for _ in range(_MAX_ITERS):
        U, dec = _barrier_step(chain, F, G, inv, mu)
        if dec <= 0.25 * nu * mu:  # centred
            if mu <= mu_end:
                return F, None
            mu = max(0.1 * mu, mu_end)
            continue
        sig, W = np.linalg.eigh(U)
        D = np.cumsum(F[:-1] @ U[:-1] @ np.swapaxes(F[:-1], -1, -2), axis=0)
        AD = inv @ np.concatenate([D, D])
        t = 1.0 / (1.0 + math.sqrt(dec / mu))
        while True:
            if (1.0 + t * sig).min() > 0.0:
                sign, logdet = np.linalg.slogdet(np.eye(n) + t * AD)
                if sign.min() > 0.0 and (float(chain.h @ logdet) + mu * float(
                        np.log1p(t * sig).sum()) >= _ARMIJO * t * dec):
                    break
            t *= 0.5
            if t <= 1e-14:
                return F, f"stalled at mu = {mu:.1e}: backtracking found no ascent step"
        F = (F @ W) * np.sqrt(1.0 + t * sig)[:, None, :]
        _, G, inv = chain.value_and_grad(_partial_sums(F))
    return F, f"not converged within {_MAX_ITERS} iterations"


def _random_chain(rng: np.random.Generator, c: int, n: int) -> np.ndarray:
    """Random feasible chain: partial sums of c+1 Wishart draws, whitened by
    their total so that the last partial sum is I."""
    G = rng.standard_normal((c + 1, n, n))
    X = G @ np.swapaxes(G, -1, -2)
    lam, V = np.linalg.eigh(X.sum(axis=0))
    inv_root = (V / np.sqrt(lam)) @ V.T
    return np.cumsum(inv_root @ X @ inv_root, axis=0)[:c]


def trace_boundary(
    ch: BroadcastChannel,
    weight_list,
    opt: OptimizerConfig | None = None,
) -> list[tuple[CovarianceSplit, tuple[float, ...]]]:
    """Maximal split for each weight vector of the (degraded by
    construction) channel. Users before the first of positive weight, and
    users whose weight does not exceed an earlier user's, get no power. One
    active user takes all of S. Two are ascended (``_ascend``) from
    ``_RESTARTS`` random starts, drawn from sub-seeds of (opt.seed, weight
    index, restart index), and the best stopping point is kept. More are
    solved once, from the chain's centre (``_barrier``). If the kept ascent
    was capped, or the solve was capped or stalled, ``NumericalError`` names
    the weight vector.
    """
    if opt is None:
        opt = OptimizerConfig()
    K, n = ch.num_users, ch.dim
    results = []
    for widx, weights in enumerate(weight_list):
        w = _weight_vector(weights, K)
        active = _active_users(w)
        parts = [np.zeros((n, n)) for _ in range(K)]
        if len(active) == 1:
            parts[active[0]] = ch.input_cap
        else:
            chain = _ActiveChain(ch, w, active)
            if len(active) == 2:
                best_Q, best_f, capped = None, -np.inf, False
                for r in range(_RESTARTS):
                    rng = np.random.Generator(
                        np.random.Philox(np.random.SeedSequence([opt.seed, widx, r]))
                    )
                    Q, f, capped_r = _ascend(chain, _random_chain(rng, 1, n))
                    if f > best_f:
                        best_Q, best_f, capped = Q, f, capped_r
                # each part as B B^T, PSD by construction: a step PSD only to
                # round-off, mapped through the root of a badly conditioned
                # cap, is a rate below zero beyond round-off at a small noise
                lam, V = np.linalg.eigh(np.diff(_with_ends(best_Q), axis=0))
                B = chain.root @ V * np.sqrt(np.clip(lam, 0.0, None))[:, None, :]
                error = f"not converged within {_MAX_ITERS} iterations" if capped else None
            else:
                F, error = _barrier(chain)
                B = chain.root @ F
            if error:
                raise NumericalError(f"boundary point at weights {w.tolist()} {error}")
            for k, Bk in zip(active, B):
                parts[k] = Bk @ Bk.T
        split = CovarianceSplit(parts=tuple(parts))
        results.append((split, rate_tuple(ch, split)))
    return results


# --- brute-force oracle -------------------------------------------------------

def grid_oracle(
    ch: BroadcastChannel, resolution: int
) -> list[tuple[np.ndarray, tuple[float, ...]]]:
    """Exhaustive grid of splits for K=2 at n=2, as (split, rates) pairs.

    K_1 = S^{1/2} Q S^{1/2} with 0 <= Q <= I swept over a grid of its two
    eigenvalues and its rotation angle; every boundary point has a grid
    point within grid spacing. K_2 = S - K_1 with its round-off's negative
    eigenvalues clipped. Each split is a read-only (2, n, n) view of one
    stack of all grid points, which ``CovarianceSplit(split)`` wraps for
    ``rate_tuple``; the rates of every point come from one ``_rates`` call.
    """
    if ch.num_users != 2 or ch.dim != 2:
        raise ValueError("grid_oracle supports K=2 and n=2 only")
    root = mat.sqrt_psd(ch.input_cap)
    qs = np.linspace(0.0, 1.0, resolution)
    thetas = np.linspace(0.0, math.pi, resolution)
    q1, q2, th = [a.ravel() for a in np.meshgrid(qs, qs, thetas, indexing="ij")]
    c, s = np.cos(th), np.sin(th)
    V = np.stack(
        [np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2
    )  # (M, 2, 2)
    Q = np.einsum("mik,mk,mjk->mij", V, np.stack([q1, q2], axis=-1), V)
    K1s = root @ Q @ root
    lam, U = np.linalg.eigh(ch.input_cap - K1s)
    K2s = (U * np.clip(lam, 0.0, None)[:, None, :]) @ np.swapaxes(U, -1, -2)
    # both products are symmetric only to round-off
    splits = np.stack([K1s, K2s], axis=1)
    splits = (splits + np.swapaxes(splits, -1, -2)) / 2.0
    splits.flags.writeable = False
    rates = _rates(np.stack(ch.noise_covs), splits)
    return list(zip(splits, map(tuple, rates.tolist())))


# --- exact boundary where the channel decouples -------------------------------

def decoupled_boundary(ch: BroadcastChannel, weight_list) -> list[tuple[float, ...]]:
    """Exact boundary rate tuple for each weight vector of a channel whose
    noises and cap are diagonal (every channel at n = 1); ``ValueError`` on
    any other, or where a direction's noises decrease in k (which the channel
    rule allows within 1e-9).

    The channel is then a product of scalar channels degraded in one order,
    where diagonal splits are optimal (El Gamal, Probl. Inform. Transm.
    16(1), 1980), and WSR*(w) = sum_i 1/2 int_0^{s_i} max_k w_k /
    (z + sigma_{k,i}) dz: user k's power at level z of direction i is worth
    its marginal utility, and the argmax moves up the user order as z grows
    (Tse, ISIT 1997). Each direction walks that upper envelope in O(K^2):
    user k hands over to the later user l of larger weight whose utility
    crosses its own first, at z = (w_k sigma_l - w_l sigma_k) / (w_l - w_k);
    a tie goes to the larger weight (its utility falls slower), then to the
    earlier user. So users of zero weight, or of weight no larger than an
    earlier user's, get rate 0, as in ``trace_boundary``.
    """
    K, n = ch.num_users, ch.dim
    noise = np.stack(ch.noise_covs)
    off = ~np.eye(n, dtype=bool)
    if np.any(noise[:, off]) or np.any(ch.input_cap[off]):
        raise ValueError("decoupled_boundary needs diagonal noises and cap")
    sig = np.diagonal(noise, axis1=1, axis2=2)
    if np.any(np.diff(sig, axis=0) < 0.0):
        raise ValueError("decoupled_boundary needs each direction's noises nondecreasing")
    results = []
    for weights in weight_list:
        w, rates = _weight_vector(weights, K).tolist(), [0.0] * K
        for s, sg in zip(np.diag(ch.input_cap).tolist(), sig.T.tolist()):
            k, z = max(range(K), key=lambda j: (w[j] / sg[j], w[j], -j)), 0.0
            while z < s:
                # the first crossing; at a tie the larger weight, then the earlier user
                end, _, nxt = min(
                    [((w[k] * sg[l] - w[l] * sg[k]) / (w[l] - w[k]), -w[l], l)
                     for l in range(k + 1, K) if w[l] > w[k]],
                    default=(s, 0.0, k),
                )
                end = min(max(end, z), s)
                rates[k] += 0.5 * math.log1p((end - z) / (z + sg[k]))
                k, z = nxt, end
        results.append(tuple(rates))
    return results

"""Capacity region of the degraded Gaussian vector broadcast channel:
exact rate tuples for a covariance split, weighted-sum-rate boundary
tracing by projected gradient ascent, brute-force grid oracles at small
dimension, and the scalar closed form.
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
    "scalar_region",
]


class CovarianceSplit:
    """PSD matrices K_1 ... K_K summing to the input cap.

    The parts are symmetrized and kept as one read-only (K, n, n) stack,
    which holds a split in about half the memory of K separate arrays;
    ``parts`` hands them out one by one.
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
        with np.errstate(over="ignore"):  # the finiteness check decides
            stack = (stack + np.swapaxes(stack, -1, -2)) / 2.0
        if not np.all(np.isfinite(stack)):
            raise ValueError("matrix entries must be finite")
        stack.flags.writeable = False
        self._stack = stack

    @property
    def parts(self) -> tuple[np.ndarray, ...]:
        return tuple(self._stack)

    def __repr__(self) -> str:
        return f"CovarianceSplit(parts={self.parts!r})"

    def validate(self, input_cap: np.ndarray) -> None:
        """Raise unless the parts sum to a channel's cap, taken as given, and
        each is PSD within ``matrices.is_psd``'s slack (one stacked eigvalsh)."""
        if self._stack.shape[1:] != input_cap.shape:
            raise DimensionMismatchError("split part dimension mismatch")
        lam = np.linalg.eigvalsh(self._stack)
        if np.any(lam[:, 0] < -1e-9 * (1.0 + np.max(np.abs(lam), axis=1))):
            raise ValueError("split part is not PSD")
        denom = 1.0 + float(np.linalg.norm(input_cap))
        if float(np.linalg.norm(self._stack.sum(axis=0) - input_cap)) > 1e-9 * denom:
            raise ValueError("split parts do not sum to the input cap")


# Each ascent stops at a projected-gradient (KKT) residual below _GRAD_TOL,
# or after _MAX_ITERS iterations; _ARMIJO is its sufficient-increase constant.
_GRAD_TOL = 1e-8
_MAX_ITERS = 5000
_ARMIJO = 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    """Boundary-tracer settings: random starts per weight vector and the
    seed of the starts."""

    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


def _clamped_rate(r: float) -> float:
    if r < -1e-9:
        raise NumericalError(f"negative rate {r} beyond round-off")
    return max(r, 0.0)


def rate_tuple(ch: BroadcastChannel, split: CovarianceSplit) -> tuple[float, ...]:
    """Superposition-coding rates for one split.

    R_k = 0.5 [ln|sum_{i<=k} K_i + Sigma_k| - ln|sum_{i<k} K_i + Sigma_k|],
    clamped at -1e-12 to absorb round-off.
    """
    if len(split.parts) != ch.num_users:
        raise DimensionMismatchError("split has wrong number of parts")
    split.validate(ch.input_cap)
    rates = []
    cum = np.zeros((ch.dim, ch.dim))
    for k in range(ch.num_users):
        below = cum
        cum = cum + split.parts[k]
        r = 0.5 * (mat.logdet(cum + ch.noise_covs[k]) - mat.logdet(below + ch.noise_covs[k]))
        rates.append(_clamped_rate(r))
    return tuple(rates)


def weighted_sum_rate(ch: BroadcastChannel, split: CovarianceSplit, weights) -> float:
    w = np.asarray(weights, dtype=float)
    if w.shape != (ch.num_users,):
        raise DimensionMismatchError("one weight per user required")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
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
# The users left (the "active" ones) have strictly increasing weights. The
# ascent runs on their chain in whitened coordinates C_i = S^{1/2} Q_i S^{1/2},
# 0 <= Q_1 <= ... <= Q_{m-1} <= I, where the gradient is S^{1/2} df/dC_i S^{1/2}.


def _active_users(w: np.ndarray) -> list[int]:
    """Users that can get power at weights w: the first user and every user
    whose weight exceeds that of all users before it."""
    active = [0]
    for k in range(1, w.size):
        if w[k] > w[active[-1]]:
            active.append(k)
    return active


def _with_ends(Q: np.ndarray) -> np.ndarray:
    """The chain Q_1, ..., Q_c with its fixed ends: (0, Q_1, ..., Q_c, I)."""
    n = Q.shape[-1]
    return np.concatenate([np.zeros((1, n, n)), Q, np.eye(n)[None]])


def _project_pairs(E: np.ndarray, first: int) -> np.ndarray:
    """Nearest chain (Frobenius norm) to E = (0, Q_1, ..., Q_c, I) that
    satisfies E_j <= E_{j+1} for j = first, first + 2, ...; E_0 and E_{c+1}
    stay fixed.

    The pairs are disjoint, so each is projected on its own: the negative
    part of E_{j+1} - E_j is split evenly between the two matrices, or given
    wholly to the free one when the other is the fixed 0 or I.
    """
    c = E.shape[0] - 2
    j = np.arange(first, c + 1, 2)
    lam, V = np.linalg.eigh(E[j + 1] - E[j])
    neg = (V * np.clip(-lam, 0.0, None)[..., None, :]) @ np.swapaxes(V, -1, -2)
    left = np.where(j == 0, 0.0, np.where(j == c, 1.0, 0.5))[:, None, None]
    out = E.copy()
    out[j] -= left * neg
    out[j + 1] += (1.0 - left) * neg
    return out


_MAX_SWEEPS = 10_000

# A projected point of norm r lands outside the set by round-off of about
# 1e-16 * r. Past this norm (a feasible chain has norm at most sqrt(c n)),
# a Dykstra result is projected once more, from its own unit scale.
_FAR = 10.0


def _project_chain(Q: np.ndarray) -> np.ndarray:
    """Nearest point of {0 <= Q_1 <= ... <= Q_c <= I} to the stack Q.

    For one matrix (two active users) the two constraints share its
    eigenvectors, so the projection is the eigenvalue clip to [0, 1]:
    one ``eigh``, and a result V clip(lam) V^T within round-off of the set
    whatever the norm of Q.

    Longer chains alternate between the even and the odd pairwise
    constraints with Dykstra's corrections (Boyle & Dykstra 1986), which
    converge to the projection. Their result is exact only to round-off of
    the input's norm: on an ill-conditioned cap a trial point of norm 4e7
    came back outside the set by 1.5e-8, the ascent kept that chain (it
    scores higher than any feasible one), and its parts missed the cap by
    more than ``CovarianceSplit.validate`` allows. So a far chain is
    projected twice; the second pass starts within round-off of the set.
    """
    if Q.shape[0] == 1:
        lam, V = np.linalg.eigh(Q)
        return (V * np.clip(lam, 0.0, 1.0)[..., None, :]) @ np.swapaxes(V, -1, -2)
    x = _dykstra(Q)
    if float(np.linalg.norm(Q)) > _FAR:
        x = _dykstra(x)
    return x


def _dykstra(Q: np.ndarray) -> np.ndarray:
    """One run of the alternating projections of ``_project_chain``."""
    x = _with_ends(Q)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(_MAX_SWEEPS):
        y = _project_pairs(x + p, 0)
        p = x + p - y
        x_next = _project_pairs(y + q, 1)
        q = y + q - x_next
        moved = float(np.linalg.norm(x_next - x))
        x = x_next
        if moved <= 1e-13 * (1.0 + float(np.linalg.norm(x))):
            break
    return x[1:-1]


class _ActiveChain:
    """Weighted sum rate of the active users, up to a constant, and its
    gradient, as functions of the whitened chain Q of shape (m-1, n, n)."""

    def __init__(self, ch: BroadcastChannel, w: np.ndarray, active: list[int]):
        self.root = mat.sqrt_psd(ch.input_cap)
        sig = [ch.noise_covs[k] for k in active]
        self.noise = np.stack(sig[:-1] + sig[1:])
        self.w_lo = w[active[:-1]]
        self.w_hi = w[active[1:]]

    def value_and_grad(self, Q: np.ndarray) -> tuple[float, np.ndarray]:
        c = Q.shape[0]
        C = self.root @ Q @ self.root
        lam, V = np.linalg.eigh(np.concatenate([C, C]) + self.noise)
        if not lam.min() > 0.0:
            raise NumericalError("objective is non-finite on the feasible set")
        logdets = np.log(lam).sum(axis=-1)
        inv = (V / lam[..., None, :]) @ np.swapaxes(V, -1, -2)
        f = 0.5 * float(self.w_lo @ logdets[:c] - self.w_hi @ logdets[c:])
        G = 0.5 * (self.w_lo[:, None, None] * inv[:c] - self.w_hi[:, None, None] * inv[c:])
        return f, self.root @ G @ self.root


def _ascend(chain: _ActiveChain, Q: np.ndarray):
    """Projected gradient ascent from the feasible chain Q, with
    Barzilai-Borwein trial steps and Armijo backtracking along the
    projection arc.

    Stops at a KKT point: the trial ``P(Q + t grad)`` moved less than
    ``_GRAD_TOL * min(t, 1)``, which bounds the projected-gradient
    residual |P(Q + grad) - Q| by ``_GRAD_TOL``. Also stops when the gains
    fall to round-off, when backtracking finds no ascent step, or after
    ``_MAX_ITERS`` iterations.
    """
    f, g = chain.value_and_grad(Q)
    step, stalled = 1.0, 0
    for _ in range(_MAX_ITERS):
        t = step
        while True:
            d = _project_chain(Q + t * g) - Q
            if float(np.linalg.norm(d)) < _GRAD_TOL * min(t, 1.0):
                return Q, f
            fc, gc = chain.value_and_grad(Q + d)
            if fc >= f + _ARMIJO * float(np.sum(g * d)):
                break
            t *= 0.5
            if t <= 1e-14:
                return Q, f
        # the objective is smooth, so once gains fall to round-off the
        # iterate has converged to working precision
        stalled = stalled + 1 if fc - f <= 1e-15 * (1.0 + abs(fc)) else 0
        curvature = -float(np.sum(d * (gc - g)))
        Q, f, g = Q + d, fc, gc
        if stalled >= 3:
            break
        step = float(np.sum(d * d)) / curvature if curvature > 0.0 else 2.0 * t
        step = min(max(step, 1e-10), 1e10)
    return Q, f


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
    """Locally maximal split for each weight vector, with multi-start.

    A ``BroadcastChannel`` is degraded (Sigma_1 <= ... <= Sigma_K) by
    construction. Users whose weight does not exceed an earlier user's get
    no power. With one active user the split is closed-form (all of S to
    it); otherwise the chain of active users is ascended from
    ``opt.restarts`` random starts, drawn from sub-seeds of (opt.seed,
    weight index, restart index), and the best KKT point is kept.
    """
    if opt is None:
        opt = OptimizerConfig()
    K, n = ch.num_users, ch.dim
    results = []
    for widx, weights in enumerate(weight_list):
        w = np.asarray(weights, dtype=float)
        if w.shape != (K,):
            raise DimensionMismatchError("one weight per user required")
        if np.any(w < 0) or not np.any(w > 0):
            raise ValueError("weight vectors must be nonnegative and not all zero")
        active = _active_users(w)
        parts = [np.zeros((n, n)) for _ in range(K)]
        if len(active) == 1:
            parts[0] = ch.input_cap
        else:
            chain = _ActiveChain(ch, w, active)
            best_Q, best_f = None, -np.inf
            for r in range(opt.restarts):
                rng = np.random.Generator(
                    np.random.Philox(np.random.SeedSequence([opt.seed, widx, r]))
                )
                Q, f = _ascend(chain, _random_chain(rng, len(active) - 1, n))
                if f > best_f:
                    best_Q, best_f = Q, f
            # each part as B B^T, PSD by construction: the chain's steps
            # are PSD only to round-off, and on a badly conditioned cap
            # that round-off, mapped through the cap's root, is a rate
            # below zero beyond round-off at a small noise
            lam, V = np.linalg.eigh(np.diff(_with_ends(best_Q), axis=0))
            B = chain.root @ V * np.sqrt(np.clip(lam, 0.0, None))[:, None, :]
            for k, Bk in zip(active, B):
                parts[k] = Bk @ Bk.T
        split = CovarianceSplit(parts=tuple(parts))
        results.append((split, rate_tuple(ch, split)))
    return results


# --- brute-force oracle -------------------------------------------------------

def grid_oracle(
    ch: BroadcastChannel, resolution: int
) -> list[tuple[CovarianceSplit, tuple[float, ...]]]:
    """Exhaustive grid of splits for K=2 at n <= 2.

    K_1 = S^{1/2} Q S^{1/2} with 0 <= Q <= I swept over eigenvalue grids
    (and a rotation-angle grid at n=2); every boundary point has a grid
    point within grid spacing.
    """
    if ch.num_users != 2 or ch.dim > 2:
        raise ValueError("grid_oracle supports K=2 and n<=2 only")
    root = mat.sqrt_psd(ch.input_cap)
    qs = np.linspace(0.0, 1.0, resolution)
    S = ch.input_cap
    sig1, sig2 = ch.noise_covs

    if ch.dim == 1:
        K1s = (qs * float(S[0, 0])).reshape(-1, 1, 1)
    else:
        thetas = np.linspace(0.0, math.pi, resolution)
        q1, q2, th = [a.ravel() for a in np.meshgrid(qs, qs, thetas, indexing="ij")]
        c, s = np.cos(th), np.sin(th)
        V = np.stack(
            [np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2
        )  # (M, 2, 2)
        Q = np.einsum("mik,mk,mjk->mij", V, np.stack([q1, q2], axis=-1), V)
        K1s = np.einsum("ik,mkl,lj->mij", root, Q, root)
    K1s = (K1s + np.transpose(K1s, (0, 2, 1))) / 2.0

    def _logdet_batch(A):
        if ch.dim == 1:
            return np.log(A[:, 0, 0])
        return np.log(A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0])

    r1 = 0.5 * (_logdet_batch(K1s + sig1) - mat.logdet(sig1))
    r2 = 0.5 * (mat.logdet(S + sig2) - _logdet_batch(K1s + sig2))
    r1 = np.clip(r1, 0.0, None)
    r2 = np.clip(r2, 0.0, None)
    # K_2 = S - K_1, with round-off's tiny negative eigenvalues clipped
    lam, U = np.linalg.eigh(S - K1s)
    K2s = (U * np.clip(lam, 0.0, None)[:, None, :]) @ np.transpose(U, (0, 2, 1))
    return [
        (CovarianceSplit(parts=(K1, K2)), (a, b))
        for K1, K2, a, b in zip(K1s, K2s, r1.tolist(), r2.tolist())
    ]


# --- scalar closed form --------------------------------------------------------

def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def scalar_region(S: float, sigmas, num_points: int) -> list[tuple[float, ...]]:
    """Rate tuples of the scalar degraded broadcast channel.

    ``sigmas`` are the noise variances in nondecreasing order. Power splits
    sweep the simplex {a_i >= 0, sum a_i = S}: a uniform grid on [0, S] for
    two users, an integer-composition grid for more.
    """
    sig = [float(s) for s in sigmas]
    if any(s <= 0 for s in sig) or any(b < a for a, b in zip(sig, sig[1:])):
        raise ValueError("sigmas must be positive and nondecreasing")
    if S <= 0 or num_points < 2:
        raise ValueError("S must be positive and num_points >= 2")
    K = len(sig)
    if K == 2:
        allocs = [(a, S - a) for a in np.linspace(0.0, S, num_points)]
    else:
        allocs = [
            tuple(S * c / (num_points - 1) for c in comp)
            for comp in _compositions(num_points - 1, K)
        ]
    tuples = []
    for a in allocs:
        rates = []
        below = 0.0
        for k in range(K):
            top = below + a[k]
            rates.append(0.5 * math.log((top + sig[k]) / (below + sig[k])))
            below = top
        tuples.append(tuple(rates))
    return tuples

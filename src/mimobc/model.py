"""Data model for the degraded broadcast channel and finite Gaussian-mixture
input distributions, plus the Markov hierarchies of auxiliaries used by the
multi-user converse machinery.

The constructors validate their fields once, so downstream code takes them
as given: a ``BroadcastChannel`` is degraded, with a positive definite
first noise and input cap, by construction, and its arrays are read-only.
``coarsen`` gives the one representation of the law of X given an
auxiliary U_k: the joint table P(u_2 = u, U_k = g) over the base components.
Column g, divided by its sum p(U_k = g), is the weights of the law of
X | U_k = g, a Gaussian mixture of the base components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matrices as mat
from .errors import DimensionMismatchError, InputFormatError, NotPsdError

LOG_2PI_E = math.log(2.0 * math.pi * math.e)

__all__ = [
    "BroadcastChannel",
    "MixtureSource",
    "MarkovHierarchy",
    "gaussian_entropy",
    "aggregate_covariance",
    "coarsen",
    "channel_from_dict",
    "source_from_dict",
    "hierarchy_from_dict",
]


def _is_stochastic(P: np.ndarray) -> bool:
    """True iff every column of P (a vector is one column) is a finite,
    nonnegative vector summing to 1 within 1e-12."""
    return bool(
        np.all(np.isfinite(P)) and np.all(P >= 0)
        and np.all(np.abs(P.sum(axis=0) - 1.0) <= 1e-12)
    )


@dataclass(frozen=True, eq=False)
class BroadcastChannel:
    """Degraded Gaussian vector broadcast channel.

    ``noise_covs`` are the per-user noise covariances, ordered from the
    strongest receiver to the weakest; ``input_cap`` is the covariance cap
    on the channel input. The constructor enforces the hypotheses of the
    converse, 0 < Sigma_1 <= ... <= Sigma_K and S > 0, at the slack
    1e-9 * (largest noise eigenvalue): the smallest eigenvalue of Sigma_1
    and of S must exceed it, and every increment Sigma_{k+1} - Sigma_k must
    be PSD within it. Otherwise it raises ``NotPsdError`` naming each
    failed check. The slack is relative, so the rule does not depend on the
    scale of the channel.
    """

    noise_covs: tuple[np.ndarray, ...]
    input_cap: np.ndarray

    def __post_init__(self):
        covs = tuple(mat.symmetrize(c) for c in self.noise_covs)
        cap = mat.symmetrize(self.input_cap)
        for a in (*covs, cap):  # symmetrize also takes stacks
            if a.ndim != 2:
                raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
        if len(covs) < 2:
            raise InputFormatError("a broadcast channel needs at least 2 users")
        n = cap.shape[0]
        for c in covs:
            if c.shape[0] != n:
                raise DimensionMismatchError(
                    "noise covariances and input cap must share one dimension"
                )
        # one stacked pass over Sigma_1 ... Sigma_K, S and the K - 1 increments
        K = len(covs)
        noise = np.stack(covs)
        lam = np.linalg.eigvalsh(np.concatenate([noise, cap[None], np.diff(noise, axis=0)]))
        tol = 1e-9 * float(np.max(np.abs(lam[:K])))
        low = lam[:, 0]
        holds = [low[0] > tol, low[K] > tol, *(low[K + 1:] >= -tol)]
        labels = ["min_eig(noise_cov_1)", "min_eig(input_cap)"] + [
            f"min_eig(noise_cov_{k + 1} - noise_cov_{k})" for k in range(1, K)
        ]
        bad = [label for label, ok in zip(labels, holds) if not ok]
        if bad:
            raise NotPsdError(f"channel validation failed: {', '.join(bad)}")
        for a in (*covs, cap):
            a.flags.writeable = False
        object.__setattr__(self, "noise_covs", covs)
        object.__setattr__(self, "input_cap", cap)

    @property
    def dim(self) -> int:
        return self.input_cap.shape[0]

    @property
    def num_users(self) -> int:
        return len(self.noise_covs)


@dataclass(frozen=True, eq=False)
class MixtureSource:
    """Discrete auxiliary U with Gaussian conditionals X|U=u.

    weights: (m,) probability vector over the symbols of U.
    means: (m, n) component means.
    comp_covs: (m, n, n) positive definite component covariances.

    The unconditional law of X is a Gaussian mixture, which is non-Gaussian
    whenever the components differ; that is exactly the regime in which the
    converse machinery is exercised.
    """

    weights: np.ndarray
    means: np.ndarray
    comp_covs: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        C = np.asarray(self.comp_covs, dtype=float)
        if C.ndim == 2:
            C = C[None, :, :]
        m = w.shape[0]
        if w.ndim != 1 or mu.ndim != 2 or mu.shape[0] != m or C.shape[0] != m:
            raise DimensionMismatchError(
                "weights (m,), means (m, n) and comp_covs must agree on the number of symbols"
            )
        n = mu.shape[1]
        if n < 1 or C.shape[1:] != (n, n):
            raise DimensionMismatchError("component covariances must be (m, n, n), n >= 1")
        if not _is_stochastic(w):
            raise InputFormatError("weights must be finite, nonnegative and sum to 1")
        if not np.all(np.isfinite(mu)):
            raise InputFormatError("means must be finite")
        C = mat.symmetrize(C)
        bad = np.flatnonzero(np.linalg.eigvalsh(C)[:, 0] <= 0.0)
        if bad.size:
            raise NotPsdError(f"component covariance {bad[0]} is not positive definite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "comp_covs", C)
        try:
            aggregate_covariance(self)
        except ValueError:
            raise InputFormatError("the covariance of the mixture overflows") from None

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def num_components(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class MarkovHierarchy:
    """Chain of auxiliaries U_K -> ... -> U_2 -> X for a K-user converse.

    ``base`` defines U_2 and the Gaussian conditionals X|U_2. ``tables``
    holds the downward transitions p(u_k | u_{k+1}) for k = 2 ... K-1, each
    a column-stochastic matrix of shape (|U_k|, |U_{k+1}|). ``top_weights``
    is the marginal of the coarsest auxiliary U_K; together with the tables
    it fixes the joint law, and it must reproduce ``base.weights`` when
    pushed down the chain.
    """

    base: MixtureSource
    tables: tuple[np.ndarray, ...] = field(default_factory=tuple)
    top_weights: np.ndarray | None = None

    def __post_init__(self):
        tables = tuple(np.asarray(T, dtype=float) for T in self.tables)
        if self.top_weights is None:
            if tables:
                raise InputFormatError("top_weights required when tables are present")
            top = self.base.weights.copy()
        else:
            top = np.atleast_1d(np.asarray(self.top_weights, dtype=float))
        if top.ndim != 1 or not _is_stochastic(top):
            raise InputFormatError("top_weights must be a probability vector")
        # shape chain: tables[i] maps U_{k+1} -> U_k distributions, k = 2 + i
        size = top.shape[0]
        for T in reversed(tables):
            if T.ndim != 2 or T.shape[1] != size:
                raise DimensionMismatchError("transition table shapes do not chain")
            if not _is_stochastic(T):
                raise InputFormatError("table columns must be probability vectors")
            size = T.shape[0]
        if size != self.base.num_components:
            raise DimensionMismatchError(
                "chain does not terminate on the base alphabet"
            )
        induced = top.copy()
        for T in reversed(tables):
            induced = T @ induced
        if np.max(np.abs(induced - self.base.weights)) > 1e-10:
            raise InputFormatError(
                "chain marginal of U_2 does not match base weights"
            )
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "top_weights", top)

    @property
    def num_users(self) -> int:
        return len(self.tables) + 2

    @property
    def dim(self) -> int:
        return self.base.dim

    def marginal(self, level: int) -> np.ndarray:
        """Marginal distribution of U_level, 2 <= level <= K."""
        K = self.num_users
        if not 2 <= level <= K:
            raise ValueError(f"level must be in [2, {K}]")
        p = self.top_weights.copy()
        # tables[i] is p(u_{2+i} | u_{3+i}); walk down from U_K to U_level
        for i in range(len(self.tables) - 1, level - 3, -1):
            p = self.tables[i] @ p
        return p


def gaussian_entropy(cov) -> float:
    """Differential entropy 0.5 ln((2 pi e)^n |cov|) in nats."""
    return 0.5 * (mat.logdet(cov) + np.shape(cov)[0] * LOG_2PI_E)


def aggregate_covariance(src: MixtureSource) -> np.ndarray:
    """Cov(X) of the mixture: E[Cov(X|U)] + Cov(E[X|U])."""
    p = src.weights
    mu_bar = p @ src.means
    centered = src.means - mu_bar
    spread = np.einsum("u,ui,uj->ij", p, centered, centered)
    within = np.einsum("u,uij->ij", p, src.comp_covs)
    return mat.symmetrize(within + spread)


def coarsen(h: MarkovHierarchy, level: int) -> np.ndarray:
    """Joint table P(u_2 = u, U_level = g), one row per base component and
    one column per symbol g of positive probability.

    Column g sums to p(U_level = g), and divided by that sum it is the
    weights p(u_2 | g) of the law of X | U_level = g over the base
    components. Level 2 gives diag(base weights): one component per symbol.
    """
    K = h.num_users
    if not 2 <= level <= K:
        raise ValueError(f"level must be in [2, {K}]")
    if level == 2:  # the chain marginal of U_2 matches these only within 1e-10
        joint = np.diag(h.base.weights)
    else:
        # p(u_2 | u_level) composed from the tables, times the marginal of U_level
        M = h.tables[0]
        for T in h.tables[1:level - 2]:
            M = M @ T
        joint = M * h.marginal(level)[None, :]
    return joint[:, joint.sum(axis=0) > 0.0]


# --- JSON schema adapters -------------------------------------------------

def _matrix_from_json(obj, what: str) -> np.ndarray:
    try:
        A = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{what}: not a numeric matrix") from exc
    if not np.all(np.isfinite(A)):
        raise InputFormatError(f"{what}: entries must be finite")
    return A


def channel_from_dict(d: dict) -> BroadcastChannel:
    try:
        covs = [_matrix_from_json(c, "noise_covs") for c in d["noise_covs"]]
        cap = _matrix_from_json(d["input_cap"], "input_cap")
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"channel JSON missing field: {exc}") from exc
    try:
        return BroadcastChannel(noise_covs=tuple(covs), input_cap=cap)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def source_from_dict(d: dict) -> MixtureSource:
    try:
        w = np.asarray(d["weights"], dtype=float)
        mu = _matrix_from_json(d["means"], "means")
        covs = [_matrix_from_json(c, "comp_covs") for c in d["comp_covs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"source JSON invalid: {exc}") from exc
    try:
        return MixtureSource(weights=w, means=mu, comp_covs=np.array(covs))
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def hierarchy_from_dict(d: dict) -> MarkovHierarchy:
    base = source_from_dict(d)
    top = d.get("top_weights")
    try:
        return MarkovHierarchy(
            base=base,
            tables=tuple(np.asarray(T, dtype=float) for T in d.get("transitions", [])),
            top_weights=None if top is None else np.asarray(top, dtype=float),
        )
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"hierarchy JSON invalid: {exc}") from exc

"""Symmetric-matrix primitives: PSD tests, Loewner comparison, log-det,
PSD square root, and straight-line matrix integrals with an error estimate.

All functions take and return plain ``numpy`` arrays. ``symmetrize`` is the
constructor for the symmetric-matrix currency used everywhere else: it
averages a matrix with its transpose, so downstream code can assume exact
symmetry.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    LoewnerOrderError,
    NotPsdError,
    SingularMatrixError,
)

__all__ = [
    "symmetrize",
    "min_eig",
    "psd_tol",
    "is_psd",
    "loewner_leq",
    "logdet",
    "sqrt_psd",
    "inv_pd",
    "matrix_line_integral",
]


def symmetrize(M) -> np.ndarray:
    """Return (M + M^T)/2 as a float array, validating squareness."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] < 1:
        raise DimensionMismatchError("matrix dimension must be >= 1")
    S = (A + A.T) / 2.0
    if not np.all(np.isfinite(S)):
        raise ValueError("matrix entries must be finite")
    return S


def min_eig(M) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(symmetrize(M))[0])


def psd_tol(w: np.ndarray) -> float:
    """Scale-invariant PSD slack 1e-9 * (1 + largest |eigenvalue|), from the
    eigenvalues w of one matrix or of a stack of them."""
    return 1e-9 * (1.0 + float(np.max(np.abs(w))))


def _is_psd_symmetric(A: np.ndarray, tol: float | None) -> bool:
    """``is_psd`` of an exactly symmetric A."""
    if tol is not None and tol < 0:
        raise ValueError("tol must be nonnegative")
    w = np.linalg.eigvalsh(A)
    if tol is None:
        tol = psd_tol(w)
    return float(w[0]) >= -tol


def is_psd(M, tol: float | None = None) -> bool:
    """True iff the smallest eigenvalue of M is >= -tol (default
    ``psd_tol`` of the same eigenvalues)."""
    return _is_psd_symmetric(symmetrize(M), tol)


def loewner_leq(A, B, tol: float | None = None) -> bool:
    """True iff A <= B in the Loewner order (B - A is PSD within tol)."""
    A = symmetrize(A)
    B = symmetrize(B)
    if A.shape != B.shape:
        raise DimensionMismatchError(f"shape mismatch: {A.shape} vs {B.shape}")
    return _is_psd_symmetric(B - A, tol)


def logdet(M) -> float:
    """ln|M| for symmetric positive definite M (natural log), from its
    Cholesky factor; a matrix Cholesky rejects raises
    ``SingularMatrixError``."""
    A = symmetrize(M)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(A)
        raise SingularMatrixError(
            f"matrix is not positive definite (min eigenvalue {w[0]:.3e})"
        ) from None
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def inv_pd(M) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, symmetrized."""
    A = symmetrize(M)
    w = np.linalg.eigvalsh(A)
    if w[0] <= 1e-14 * (1.0 + float(np.max(np.abs(w)))):
        raise SingularMatrixError(
            f"matrix is not positive definite (min eigenvalue {w[0]:.3e})"
        )
    return symmetrize(np.linalg.inv(A))


def sqrt_psd(M, tol: float | None = None) -> np.ndarray:
    """Unique PSD square root R with R @ R = M; M may fall short of PSD by
    ``tol`` (default ``psd_tol`` of its eigenvalues)."""
    w, V = np.linalg.eigh(symmetrize(M))
    if tol is None:
        tol = psd_tol(w)
    if w[0] < -tol:
        raise NotPsdError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
    R = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
    return (R + R.T) / 2.0


# Gauss-Kronrod G7/K15 rule on [-1, 1] (the QUADPACK qk15 constants):
# Kronrod abscissae from the outermost to the centre, their K15 weights, and
# the G7 weights of the odd-indexed abscissae (1, 3, 5, 7).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])


# bisection stops at this many intervals (QUADPACK's default limit)
_MAX_INTERVALS = 50


def _kronrod_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 15 nodes of G7/K15 mapped to [0, 1], with their K15 weights and
    their G7 weights (zero off the Gauss nodes), both summing to 1."""
    x = np.concatenate([-_XGK[:-1], _XGK[::-1]])
    wk = np.concatenate([_WGK[:-1], _WGK[::-1]])
    wg_half = np.zeros(8)
    wg_half[1::2] = _WG
    wg = np.concatenate([wg_half[:-1], wg_half[::-1]])
    return (x + 1.0) / 2.0, wk / 2.0, wg / 2.0


def matrix_line_integral(
    field: Callable[[np.ndarray], np.ndarray],
    K1,
    K2,
    tol: float,
) -> tuple[float, float]:
    """Straight-line matrix integral int_0^1 tr(field(K(t)) (K2-K1)) dt.

    K(t) = K1 + t (K2 - K1), evaluated with the adaptive Gauss-Kronrod G7/K15
    rule: each interval costs one call of ``field`` on the (15, n, n) stack
    of K at its 15 nodes, of which the 7 Gauss nodes are a subset, and the
    field returns the (15, n, n) stack of its values; |K15 - G7| is the
    interval's error estimate. Starting from
    [0, 1], the interval with the largest estimate is bisected until the
    summed estimate is at most ``tol`` or ``_MAX_INTERVALS`` intervals are in
    use. Returns (sum of the K15 values, summed estimate); the estimate
    bounds the error of the value whenever G7 is the less accurate of the
    two on every interval. Requires K1 <= K2 in the Loewner order. For
    gradient fields the value is path-independent, so the straight path is
    canonical.
    """
    K1 = symmetrize(K1)
    K2 = symmetrize(K2)
    if K1.shape != K2.shape:
        raise DimensionMismatchError(f"shape mismatch: {K1.shape} vs {K2.shape}")
    D = K2 - K1
    if not _is_psd_symmetric(D, None):
        raise LoewnerOrderError("matrix_line_integral requires K1 <= K2")
    t, wk, wg = _kronrod_rule()

    def rule(a: float, b: float) -> tuple[float, float, float, float]:
        # tr(F D) of every node's field value F; D is symmetric
        vals = np.einsum("tij,ij->t", field(K1 + (a + (b - a) * t)[:, None, None] * D), D)
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        kronrod = (b - a) * float(wk @ vals)
        return -abs(kronrod - (b - a) * float(wg @ vals)), a, b, kronrod

    # a max-heap on the error estimate, as (-err, a, b, value)
    intervals = [rule(0.0, 1.0)]
    while len(intervals) < _MAX_INTERVALS and -sum(i[0] for i in intervals) > tol:
        _, a, b, _ = heapq.heappop(intervals)
        heapq.heappush(intervals, rule(a, 0.5 * (a + b)))
        heapq.heappush(intervals, rule(0.5 * (a + b), b))
    return math.fsum(i[3] for i in intervals), -math.fsum(i[0] for i in intervals)

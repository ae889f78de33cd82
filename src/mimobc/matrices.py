"""Symmetric-matrix primitives: PSD tests, Loewner comparison, log-det,
PSD square root, and straight-line matrix integrals with an error estimate.

All functions take and return plain ``numpy`` arrays. ``symmetrize`` is the
constructor for the symmetric-matrix currency used everywhere else: it
averages a matrix with its transpose and checks that it is square and
finite. A function that produces a matrix by asymmetric arithmetic (an
inverse, a product A B A) averages its own result once; a function that
consumes a matrix takes it as given and neither averages nor checks it
again. Arrays from outside are checked where they enter: by
``symmetrize``, the dataclass constructors and the JSON adapters.
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
    "is_psd",
    "loewner_leq",
    "logdet",
    "sqrt_psd",
    "inv_pd",
    "matrix_line_integral",
]


def symmetrize(M) -> np.ndarray:
    """Return (M + M^T)/2 as a float array, validating squareness and
    finiteness."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] < 1:
        raise DimensionMismatchError("matrix dimension must be >= 1")
    # an overflow of the average is caught by the finiteness check below
    with np.errstate(over="ignore"):
        S = (A + A.T) / 2.0
    if not np.all(np.isfinite(S)):
        raise ValueError("matrix entries must be finite")
    return S


def min_eig(M) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(M)[0])


def psd_tol(w: np.ndarray) -> float:
    """Scale-invariant PSD slack 1e-9 * (1 + largest |eigenvalue|), from the
    eigenvalues w of one matrix."""
    return 1e-9 * (1.0 + float(np.max(np.abs(w))))


def is_psd(M) -> bool:
    """True iff the smallest eigenvalue of the symmetric M is at least
    -``psd_tol`` of its eigenvalues."""
    w = np.linalg.eigvalsh(M)
    return float(w[0]) >= -psd_tol(w)


def loewner_leq(A, B) -> bool:
    """True iff A <= B in the Loewner order (B - A is PSD within
    ``psd_tol``)."""
    if np.shape(A) != np.shape(B):
        raise DimensionMismatchError(f"shape mismatch: {np.shape(A)} vs {np.shape(B)}")
    return is_psd(np.subtract(B, A))


def logdet(M) -> float:
    """ln|M| for symmetric positive definite M (natural log), from its
    Cholesky factor; a matrix Cholesky rejects raises
    ``SingularMatrixError``."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(M)
        raise SingularMatrixError(
            f"matrix is not positive definite (min eigenvalue {w[0]:.3e})"
        ) from None
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def inv_pd(M) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, averaged with its
    transpose."""
    w = np.linalg.eigvalsh(M)
    if w[0] <= 1e-14 * (1.0 + float(np.max(np.abs(w)))):
        raise SingularMatrixError(
            f"matrix is not positive definite (min eigenvalue {w[0]:.3e})"
        )
    X = np.linalg.inv(M)
    return (X + X.T) / 2.0


def sqrt_psd(M) -> np.ndarray:
    """Unique PSD square root R with R @ R = M; M may fall short of PSD by
    ``psd_tol`` of its eigenvalues."""
    w, V = np.linalg.eigh(M)
    if w[0] < -psd_tol(w):
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
    if not loewner_leq(K1, K2):
        raise LoewnerOrderError("matrix_line_integral requires K1 <= K2")
    D = K2 - K1
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

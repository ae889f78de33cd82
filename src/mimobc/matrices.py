"""Symmetric-matrix primitives: PSD tests, Loewner comparison, log-det,
PSD square root, and straight-line matrix integrals.

All functions take and return plain ``numpy`` arrays. ``symmetrize`` is the
constructor for the symmetric-matrix currency used everywhere else: it
averages a matrix with its transpose, so downstream code can assume exact
symmetry.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DimensionMismatchError,
    LoewnerOrderError,
    NotPsdError,
    SingularMatrixError,
)

__all__ = [
    "symmetrize",
    "min_eig",
    "default_psd_tol",
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
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return (A + A.T) / 2.0


def min_eig(M) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(symmetrize(M))[0])


def _psd_tol(w: np.ndarray) -> float:
    """Scale-invariant PSD slack from the eigenvalues w of a matrix."""
    return 1e-9 * (1.0 + float(np.max(np.abs(w))))


def default_psd_tol(M) -> float:
    """Scale-invariant PSD slack: 1e-9 * (1 + largest |eigenvalue|)."""
    return _psd_tol(np.linalg.eigvalsh(symmetrize(M)))


def is_psd(M, tol: float | None = None) -> bool:
    """True iff the smallest eigenvalue of M is >= -tol (default
    ``default_psd_tol(M)``, taken from the same eigenvalues)."""
    A = symmetrize(M)
    if tol is not None and tol < 0:
        raise ValueError("tol must be nonnegative")
    w = np.linalg.eigvalsh(A)
    if tol is None:
        tol = _psd_tol(w)
    return float(w[0]) >= -tol


def loewner_leq(A, B, tol: float | None = None) -> bool:
    """True iff A <= B in the Loewner order (B - A is PSD within tol)."""
    A = symmetrize(A)
    B = symmetrize(B)
    if A.shape != B.shape:
        raise DimensionMismatchError(f"shape mismatch: {A.shape} vs {B.shape}")
    return is_psd(B - A, tol)


def logdet(M) -> float:
    """ln|M| for symmetric positive definite M (natural log).

    Cholesky is attempted first; on failure the eigenvalues decide whether
    the matrix is merely near the PSD boundary or genuinely not positive
    definite.
    """
    A = symmetrize(M)
    try:
        L = np.linalg.cholesky(A)
        return 2.0 * float(np.sum(np.log(np.diag(L))))
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(A)
        floor = 1e-12 * (1.0 + float(np.max(np.abs(w))))
        if w[0] <= floor:
            raise SingularMatrixError(
                f"matrix is not positive definite (min eigenvalue {w[0]:.3e})"
            ) from None
        return float(np.sum(np.log(w)))


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
    """Unique PSD square root R with R @ R = M."""
    A = symmetrize(M)
    if tol is None:
        tol = default_psd_tol(A)
    w, V = np.linalg.eigh(A)
    if w[0] < -tol:
        raise NotPsdError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return symmetrize((V * np.sqrt(w)) @ V.T)


def matrix_line_integral(
    field: Callable[[np.ndarray], np.ndarray],
    K1,
    K2,
    nodes: int = 32,
) -> float:
    """Straight-line matrix integral int_0^1 tr(field(K(t)) (K2-K1)) dt.

    K(t) = K1 + t (K2 - K1), evaluated with Gauss-Legendre quadrature.
    Requires K1 <= K2 in the Loewner order. For gradient fields the value
    is path-independent, so the straight path is canonical.
    """
    K1 = symmetrize(K1)
    K2 = symmetrize(K2)
    if K1.shape != K2.shape:
        raise DimensionMismatchError(f"shape mismatch: {K1.shape} vs {K2.shape}")
    if nodes < 1:
        raise ValueError("nodes must be positive")
    if not loewner_leq(K1, K2):
        raise LoewnerOrderError("matrix_line_integral requires K1 <= K2")
    D = K2 - K1
    x, w = leggauss(nodes)
    t = (x + 1.0) / 2.0
    total = 0.0
    for ti, wi in zip(t, w / 2.0):
        F = symmetrize(field(K1 + ti * D))
        total += wi * float(np.trace(F @ D))
    return total

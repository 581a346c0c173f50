"""Dense matrix primitives shared by every update rule.

Everything here operates on 2-d float64 arrays and is a pure function:
no global state, no in-place mutation of inputs.
"""

from __future__ import annotations

import numpy as np

# Relative threshold below which a singular value marks its problem as
# rank-deficient for the trace maximizers.
DEGENERACY_RTOL = 1e-12

# Condition number of a Gram matrix above which a least-squares refit takes
# the SVD pseudoinverse instead: the normal equations lose about
# log10(condition) digits, where the SVD loses half as many.
GRAM_COND_LIMIT = 1e10


class NumericalError(RuntimeError):
    """A matrix routine failed to converge or produced unusable output."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d float64 array or raise ValueError."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be 2-d with positive shape, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vt) with min(rows, cols) triplets, s descending."""
    a = as_matrix(a)
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge on a {a.shape} matrix") from exc


def pinv(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values <= max(rows, cols) * machine epsilon * largest singular
    value are treated as exact zeros.
    """
    u, s, vt = svd(a)
    tol = max(a.shape) * np.finfo(np.float64).eps * s[0]
    inv = np.zeros_like(s)
    keep = s > tol
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T


def gram_inverse(a: np.ndarray) -> np.ndarray | None:
    """inv(a @ a.T) from one symmetric eigendecomposition, or None.

    None means the Gram is not finite or its condition number exceeds
    GRAM_COND_LIMIT (a zero or repeated row of a gives an exactly singular
    Gram); the caller then solves with pinv(a), which also raises on a
    non-finite a. With a of full row rank, a.T @ gram_inverse(a) == pinv(a).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow only declines
        gram = a @ a.T
    if not np.all(np.isfinite(gram)):
        return None
    w, v = np.linalg.eigh(gram)
    if not w[0] * GRAM_COND_LIMIT > w[-1]:
        return None
    return (v / w) @ v.T


def pos_part(a: np.ndarray) -> np.ndarray:
    """Elementwise (|A| + A) / 2."""
    a = np.asarray(a, dtype=np.float64)
    return (np.abs(a) + a) / 2.0


def neg_part(a: np.ndarray) -> np.ndarray:
    """Elementwise (|A| - A) / 2, so that pos_part(a) - neg_part(a) == a."""
    a = np.asarray(a, dtype=np.float64)
    return (np.abs(a) - a) / 2.0


def procrustes_max(u: np.ndarray) -> tuple[np.ndarray, bool]:
    """Row-orthonormal h (k x n) maximizing tr(h @ u) for an n x k input.

    With the thin SVD u = p @ diag(s) @ qt, the maximizer is h = qt.T @ p.T
    and the attained trace equals s.sum().

    Returns (h, degenerate). When u is rank-deficient (including u == 0) the
    maximizer is not unique; h is still a valid orthonormal maximizer but the
    degenerate flag is set so callers can keep their previous iterate instead.
    """
    u = as_matrix(u, "u")
    n, k = u.shape
    if k > n:
        raise ValueError(f"u needs cols <= rows, got shape {u.shape}")
    p, s, qt = svd(u)
    h = qt.T @ p.T
    degenerate = bool(s[-1] <= DEGENERACY_RTOL * s[0])
    return h, degenerate

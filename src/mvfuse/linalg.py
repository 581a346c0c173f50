"""Dense matrix primitives shared by every update rule.

Everything here is a pure function of 2-d float64 arrays or stacks of them:
no global state, no in-place mutation of inputs, and no coercion or shape
check. The arrays are the fit's own, built from the inputs
pipeline.init_state checked. svd alone tests its input for finiteness,
because LAPACK's SVD may never return on an infinite entry; so pinv and
procrustes_max raise NumericalError on a non-finite input.
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


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vt) with min(rows, cols) triplets, s descending.

    Raises NumericalError on a non-finite a before LAPACK sees it: given
    one infinite entry, the divide-and-conquer SVD (gesdd) returns NaN for a
    2 x 2 matrix but did not return at all for 3 x 3, 12 x 4 or 3 x 300 ones.
    """
    if not np.isfinite(a).all():
        raise NumericalError(f"SVD input of shape {a.shape} has non-finite entries")
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
    Gram); the caller then solves with pinv(a), which raises NumericalError
    on a non-finite a. With a of full row rank,
    a.T @ gram_inverse(a) == pinv(a).
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
    """Elementwise max(A, 0), which is (|A| + A) / 2 without its overflow."""
    return np.maximum(a, 0.0)


def neg_part(a: np.ndarray) -> np.ndarray:
    """Elementwise max(-A, 0), so that pos_part(a) - neg_part(a) == a."""
    return np.maximum(-a, 0.0)


def procrustes_max(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-orthonormal h (k x n) maximizing tr(h @ u) for an n x k input.

    With the thin SVD u = p @ diag(s) @ qt, the maximizer is h = qt.T @ p.T
    and the attained trace equals s.sum(). A (V, n, k) stack takes one
    batched SVD, each member's h and flag bit for bit as its own call's.

    Returns (h, degenerate). When u is rank-deficient (including u == 0) the
    maximizer is not unique; h is still a valid orthonormal maximizer but the
    degenerate flag is set so callers can keep their previous iterate instead.
    The caller keeps k <= n: the consensus step passes n x k with
    k <= dims[0] <= n, and the rotation step a (V, k, k) stack.
    """
    p, s, qt = svd(u)
    h = qt.swapaxes(-1, -2) @ p.swapaxes(-1, -2)
    degenerate = s[..., -1] <= DEGENERACY_RTOL * s[..., 0]
    return h, degenerate

"""Consensus partition, per-view rotations, and the two weight vectors.

The consensus h is a row-orthonormal k x n matrix chasing every view's
partition through a per-view rotation w; alpha weights reconstruction
quality, beta weights alignment quality. Each step is its block's exact
optimum; alpha's holds even when every view reconstructs exactly, and
beta's even when no view aligns positively. Every step is a function of
plain arrays that the fit built from inputs pipeline.init_state checked, and
none checks them again; pipeline.fit holds h, w, alpha and beta between
steps, and its _record check catches a non-finite weight or objective.
"""

from __future__ import annotations

import numpy as np

# Unused here; kept because the benchmark's tracer wraps this module attribute.
from mvfuse.deep import reconstruction_loss  # noqa: F401
from mvfuse.linalg import procrustes_max


def update_consensus(partitions, rotations, beta):
    """Best row-orthonormal h for the weighted alignment sum.

    Maximizes tr(h @ sum_v beta_v partition_v.T @ rotation_v). Returns
    (h, degenerate); callers keep their previous h on a rank-deficient sum.
    """
    k, n = partitions[0].shape
    u = np.zeros((n, k))
    for b, hm, w in zip(beta, partitions, rotations, strict=True):
        u += b * (hm.T @ w)
    return procrustes_max(u)


def update_rotation(partition, consensus, beta_v: float):
    """Best orthonormal rotation aligning one view's partition to the consensus.

    Maximizes tr(w.T @ q) for q = beta_v partition @ consensus.T; by the same
    trace argument as the consensus step, w is p @ qt from the SVD of q.
    Returns (w, degenerate); callers keep their previous w on a degenerate q.
    """
    q = beta_v * (partition @ consensus.T)
    h, degenerate = procrustes_max(q)
    return h.T, degenerate


def update_alpha(losses) -> np.ndarray:
    """Reconstruction weights minimizing sum_v alpha_v^2 loss_v on the simplex.

    The minimizer weights each view by the inverse of its loss. Views with
    exactly zero loss take all the weight, split equally among themselves;
    when every loss is zero that is the uniform alpha, one of the minimizers.
    The losses are a sweep's, finite and >= 0. A non-finite one makes the
    objective NaN (an infinite loss gets weight 0, a NaN one counts as
    exact), so pipeline._record raises.
    """
    losses = np.asarray(losses, dtype=np.float64)
    inv = np.zeros_like(losses)
    positive = losses > 0
    with np.errstate(divide="ignore", over="ignore"):
        inv[positive] = 1.0 / losses[positive]
    exact = ~positive | ~np.isfinite(inv)  # zero (or subnormal) loss: limit case
    if np.any(exact):
        alpha = exact.astype(np.float64)
        return alpha / alpha.sum()
    return inv / inv.sum()


def update_beta(partitions, rotations, consensus):
    """Alignment weights maximizing sum_v beta_v f_v on the non-negative unit sphere.

    f_v = tr(partition_v.T @ rotation_v @ consensus). The maximiser clamps f
    at zero and normalizes; when no trace is positive it is the unit vector
    at argmax f, the first view on ties. Returns (beta, f).
    """
    f = np.array(
        [float(np.sum(hm * (w @ consensus))) for hm, w in zip(partitions, rotations)]
    )
    clamped = np.maximum(f, 0.0)
    norm = np.linalg.norm(clamped)
    if norm == 0.0:
        return np.eye(len(f))[np.argmax(f)], f
    return clamped / norm, f


def objective(losses, traces, alpha, beta, lam: float) -> float:
    """Weighted reconstruction cost minus lam times the weighted alignment trace.

    Takes the per-view losses and traces the alpha and beta steps computed,
    and the weights alpha and beta those steps returned.
    """
    recon = sum(a * a * loss for a, loss in zip(alpha, losses))
    align = sum(b * f for b, f in zip(beta, traces))
    return float(recon - lam * align)

"""Consensus partition, per-view rotations, and the two weight vectors.

The consensus h is a row-orthonormal k x n matrix chasing every view's
partition through a per-view rotation w; alpha weights reconstruction
quality, beta weights alignment quality. The partitions are one (V, k, n)
stack and the rotations one (V, k, k) stack, so each step is one batched
expression over the views. Each is its block's exact optimum; alpha's holds
even when every view reconstructs exactly, and beta's even when no view
aligns positively. No step checks what pipeline.init_state checked;
pipeline.fit holds h, w, alpha and beta, and its _record check catches a
non-finite weight or objective.
"""

from __future__ import annotations

import numpy as np

# Unused here; kept because the benchmark's tracer wraps this module attribute.
from mvfuse.deep import reconstruction_loss  # noqa: F401
from mvfuse.linalg import procrustes_max


def update_consensus(partitions, rotations, beta):
    """Best row-orthonormal h for the weighted alignment sum.

    Maximizes tr(h @ sum_v beta_v partitions[v].T @ rotations[v]), the sum one
    batched matmul; a one-view stack does not broadcast. Returns (h, degenerate);
    callers keep their previous h on a rank-deficient sum.
    """
    if not len(partitions) == len(rotations) == len(beta):
        raise ValueError("partitions, rotations and beta differ in view count")
    u = np.sum(np.reshape(beta, (-1, 1, 1)) * (np.swapaxes(partitions, 1, 2) @ rotations), axis=0)
    return procrustes_max(u)


def update_rotation(partitions, consensus, beta):
    """Best orthonormal rotation aligning each view's partition to the consensus.

    Maximizes tr(w_v.T @ q_v) for q_v = beta_v partitions[v] @ consensus.T;
    by the same trace argument as the consensus step, w_v is p_v @ qt_v from
    the SVD of q_v, one batched SVD for every view. Returns the (V, k, k)
    rotations and (V,) flags; callers keep a view's previous w where it is set.
    """
    q = np.reshape(beta, (-1, 1, 1)) * (partitions @ consensus.T)
    h, degenerate = procrustes_max(q)
    return h.swapaxes(1, 2), degenerate


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

    f_v = tr(partitions[v].T @ rotations[v] @ consensus), one batched sum.
    The maximiser clamps f at zero and normalizes; when no trace is positive
    it is the unit vector at argmax f, the first view on ties. Returns (beta, f).
    """
    f = np.sum(partitions * (rotations @ consensus), axis=(1, 2))
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

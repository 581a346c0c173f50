"""Per-view factorization x ~ phi h_m and its update rules.

Greedy layer-wise pretraining fits x ~ z_1 ... z_m h_m with layer widths
shrinking down to the cluster count k, so the last representation h_m is a
k x n soft partition of the view. Depth acts through pretraining alone:
refitting every basis of the chain in turn would leave z_1 ... z_m equal to
x pinv(h_m), and nothing reads the inner representations, so pretraining
hands on h_m alone. Each fine-tuning sweep derives the one basis
phi = x pinv(h_m) by an exact least-squares refit, then takes a
multiplicative step on h_m that also feels the consensus-alignment pull;
phi lives only until the sweep's reconstruction loss is taken. Every update
is a function of arrays that writes into none of them.
"""

from __future__ import annotations

import numpy as np

from mvfuse.linalg import NumericalError, as_matrix
# Unused here; kept because the benchmark's tracer wraps this module attribute.
from mvfuse.linalg import pinv  # noqa: F401
from mvfuse.seminmf import fit_layer, multiplicative_step, refit_basis


def validate_layer_dims(dims, k: int, feature_dims=(), n: int | None = None) -> list[int]:
    """Check a layer-width scheme: positive, strictly decreasing and ending at k;
    with the view dimensions and the sample count, also fitting every view."""
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("layer dims must be non-empty")
    if dims[-1] != k:
        raise ValueError(f"last layer width must equal k={k}, got {dims[-1]}")
    if any(d < 1 for d in dims):
        raise ValueError(f"layer widths must be positive, got {dims}")
    if any(a <= b for a, b in zip(dims, dims[1:])):
        raise ValueError(f"layer widths must be strictly decreasing, got {dims}")
    if feature_dims and dims[0] > min(feature_dims):
        raise ValueError(
            f"first layer width {dims[0]} exceeds the smallest view dimension {min(feature_dims)}"
        )
    if n is not None and dims[0] > n:
        raise ValueError(f"first layer width {dims[0]} exceeds the sample count {n}")
    return dims


def pretrain_view(x, dims, iters: int, seeds) -> np.ndarray:
    """Greedy layer-wise pretraining: factorize x, then each representation in turn.

    Layer j is seeded by k-means with seed seeds[j]; there is one seed per width.
    Returns the last layer's representation h_m.
    """
    h = as_matrix(x, "x")
    for width, seed in zip(dims, seeds, strict=True):
        h = fit_layer(h, width, iters=iters, seed=seed)
    return h


def update_basis(x, h) -> np.ndarray:
    """Fine-tuning's one basis phi = x pinv(h_m), the exact least-squares refit."""
    return refit_basis(x, h)


def update_hidden(x, basis, h, weight=1.0, pull=None) -> np.ndarray:
    """Multiplicative step on h_m against the basis phi; see multiplicative_step."""
    return multiplicative_step(x, basis, h, weight=weight, pull=pull)


def update_partition(x, basis, h, consensus, rotation, alpha_v: float, beta_v: float, lam: float):
    """Multiplicative step on the last-layer partition h_m.

    Descends alpha_v^2 ||x - phi h_m||^2 - lam beta_v tr(consensus h_m^T rotation):
    the reconstruction pull and the consensus-alignment pull share one rule,
    update_hidden's, with the weight 2 alpha_v^2 and the pull
    lam beta_v rotation @ consensus. With lam == 0 the pull vanishes.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    return update_hidden(
        x, basis, h, weight=2.0 * alpha_v * alpha_v, pull=lam * beta_v * (rotation @ consensus)
    )


def reconstruction_loss(x, basis, h) -> float:
    """||x - phi h_m||_F^2 for a basis and partition."""
    # one d x n buffer: the residual and its square overwrite the rebuild
    residual = basis @ h
    np.subtract(x, residual, out=residual)
    np.square(residual, out=residual)
    return float(np.sum(residual))


def fix_partition_gauge(h) -> np.ndarray:
    """h_m with each row rescaled to unit norm.

    The factorization is invariant to any positive diagonal moved between
    the basis and the partition, but the alignment reward is not: left
    alone it inflates h_m without bound while the basis refit absorbs the
    growth. Pinning the row scales removes the degenerate orbit, keeps
    partitions comparable across views, and bounds the alignment trace.
    The next refit re-derives the basis from h_m alone. Zero rows are left
    untouched; an entirely zero or non-finite partition is unrecoverable
    because multiplicative steps lock zeros in place.
    """
    if not np.all(np.isfinite(h)):
        raise NumericalError("partition matrix diverged during fine-tuning")
    norms = np.linalg.norm(h, axis=1)
    if not norms.any():
        raise NumericalError("partition matrix collapsed during fine-tuning")
    scale = np.where(norms > 0.0, norms, 1.0)
    return h / scale[:, None]


def sweep_view(x, h, consensus, rotation, alpha_v, beta_v, lam):
    """One fine-tuning pass over a view: the basis refit, the partition step,
    then the gauge fix that pins the partition scale.

    Returns (basis, h): the refit basis phi = x pinv(h_m), which the new
    partition was stepped against, and the new partition. A pretrained chain
    of any depth enters only through its h_m.
    """
    basis = update_basis(x, h)
    h = update_partition(x, basis, h, consensus, rotation, alpha_v, beta_v, lam)
    return basis, fix_partition_gauge(h)

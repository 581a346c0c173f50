"""Per-view factorization x ~ phi h_m and its update rules.

Greedy layer-wise pretraining fits x ~ z_1 ... z_m h_m with layer widths
shrinking down to the cluster count k, so the last representation h_m is a
k x n soft partition of the view. Depth acts through pretraining alone:
refitting every basis of the chain in turn would leave z_1 ... z_m equal to
x pinv(h_m), and nothing reads the inner representations, so pretraining
hands on h_m alone. Each fine-tuning sweep derives the one basis
phi = x pinv(h_m) by an exact least-squares refit, then takes a
multiplicative step on h_m that also feels the consensus-alignment pull.
The step's products phi^T x and phi^T phi, all that it reads of x and phi,
also give the sweep's reconstruction loss, so phi lives only inside the
sweep. Every update is a function of arrays that writes into none of them;
pipeline.init_state checks a fit's inputs once, so no update checks them.
"""

from __future__ import annotations

import numpy as np

from mvfuse.linalg import NumericalError
# Unused here; kept because the benchmark's tracer wraps this module attribute.
from mvfuse.linalg import pinv  # noqa: F401
from mvfuse.seminmf import fit_layer, multiplicative_step, refit_basis, step_products

_EPS = np.finfo(np.float64).eps


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
    h = x
    for width, seed in zip(dims, seeds, strict=True):
        h = fit_layer(h, width, iters=iters, seed=seed)
    return h


def update_basis(x, h) -> np.ndarray:
    """Fine-tuning's one basis phi = x pinv(h_m), the exact least-squares refit."""
    return refit_basis(x, h)


def update_hidden(products, h, weight, pull) -> np.ndarray:
    """Multiplicative step on h_m from step_products(x, phi); see multiplicative_step."""
    return multiplicative_step(products, h, weight=weight, pull=pull)


def update_partition(products, h, consensus, rotation, alpha_v: float, beta_v: float, lam: float):
    """Multiplicative step on the last-layer partition h_m.

    Descends alpha_v^2 ||x - phi h_m||^2 - lam beta_v tr(consensus h_m^T rotation)
    from products = step_products(x, phi): the reconstruction pull and the
    consensus-alignment pull share one rule,
    update_hidden's, with the weight 2 alpha_v^2 and the pull
    lam beta_v rotation @ consensus. With lam == 0 the pull vanishes.
    """
    return update_hidden(
        products, h, weight=2.0 * alpha_v * alpha_v, pull=lam * beta_v * (rotation @ consensus)
    )


def reconstruction_loss(x, basis, h) -> float:
    """||x - phi h_m||_F^2 for a basis and partition."""
    # one d x n buffer: the residual and its square overwrite the rebuild
    residual = basis @ h
    np.subtract(x, residual, out=residual)
    np.square(residual, out=residual)
    return float(np.sum(residual))


def expanded_loss(x, x_sq: float, basis, products, h) -> float:
    """||x - phi h_m||_F^2 from a step's products a = phi^T x and G = phi^T phi.

    The semi-NMF algebra of Ding, Li & Jordan (2010),
    ||x - phi h||^2 = ||x||^2 - 2 <a, h> + <G, h h^T> with x_sq = ||x||^2,
    costs O(k^2 n) against reconstruction_loss's d x n rebuild. The three
    terms, and what the rounding of a and G adds to them, are at most
    (||x|| + || |phi| h ||)^2 in size, so bound = 4 (d + k n) eps times that
    bounds the expansion's rounding; |phi| counts because a and G cancel
    inside when h is ill-conditioned. A result not above both bound and
    sqrt(bound x_sq), which caps a kept result's relative error at
    sqrt(bound / x_sq), or not finite, is recomputed directly by
    reconstruction_loss: the loss of a view that phi h fits exactly is never
    negative.
    """
    a, gram = products
    hht = h @ h.T
    # elementwise sums, not BLAS dots: a threaded dot would wake idle BLAS threads
    cross, fit_sq = float(np.sum(a * h)), float(np.sum(gram * hht))
    loss = x_sq - 2.0 * cross + fit_sq
    magnitude = np.abs(basis)
    size = (np.sqrt(x_sq) + np.sqrt(np.sum((magnitude.T @ magnitude) * hht))) ** 2
    bound = 4.0 * (x.shape[0] + h.size) * _EPS * size
    if max(bound, np.sqrt(bound * x_sq)) < loss < np.inf:  # NaN fails both
        return loss
    return reconstruction_loss(x, basis, h)


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


def sweep_view(x, h, consensus, rotation, alpha_v, beta_v, lam, x_sq):
    """One fine-tuning pass over a view: the basis refit, the partition step,
    then the gauge fix that pins the partition scale.

    Returns (loss, h): the view's reconstruction loss ||x - phi h_m||^2 of
    the new partition against the refit basis phi = x pinv(h_m) that it was
    stepped against, and the new partition. The partition step and
    expanded_loss share the one step_products(x, phi); x_sq is ||x||^2, which
    a fit takes once per view. A pretrained chain of any depth enters only
    through its h_m.
    """
    basis = update_basis(x, h)
    products = step_products(x, basis)
    h = update_partition(products, h, consensus, rotation, alpha_v, beta_v, lam)
    h = fix_partition_gauge(h)
    return expanded_loss(x, x_sq, basis, products, h), h

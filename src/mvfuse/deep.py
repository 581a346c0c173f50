"""Per-view layered factorization x ~ z_1 ... z_m h_m and its update rules.

Layer widths shrink down to the cluster count k, so the last representation
h_m is a k x n soft partition of the view. Depth acts through pretraining
alone: greedy layer-wise fits produce h_m. Refitting every basis of the chain
in turn would leave z_1 ... z_m equal to x pinv(h_m), and nothing else reads
the inner representations, so fine-tuning holds that product as one basis
phi. Each sweep alternates its exact least-squares refit with a
multiplicative step on h_m that also feels the consensus-alignment pull.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mvfuse.linalg import NumericalError, as_matrix
# Unused here; kept because the benchmark's tracer wraps this module attribute.
from mvfuse.linalg import pinv  # noqa: F401
from mvfuse.seminmf import fit_layer, multiplicative_step, refit_basis


@dataclass
class ViewFactorization:
    x: np.ndarray             # d x n view matrix
    z: list = field(default_factory=list)  # bases, z[i] maps layer i+1 up to layer i
    h: list = field(default_factory=list)  # representations, all entrywise >= 0


def validate_layer_dims(dims, k: int, feature_dims, n: int) -> list[int]:
    """Check a layer-width scheme: strictly decreasing, ending at k, fitting every view."""
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("layer dims must be non-empty")
    if dims[-1] != k:
        raise ValueError(f"last layer width must equal k={k}, got {dims[-1]}")
    if any(d < 1 for d in dims):
        raise ValueError(f"layer widths must be positive, got {dims}")
    if any(a <= b for a, b in zip(dims, dims[1:])):
        raise ValueError(f"layer widths must be strictly decreasing, got {dims}")
    smallest = min(feature_dims)
    if dims[0] > smallest:
        raise ValueError(
            f"first layer width {dims[0]} exceeds the smallest view dimension {smallest}"
        )
    if dims[0] > n:
        raise ValueError(f"first layer width {dims[0]} exceeds the sample count {n}")
    return dims


def pretrain_view(x, dims, iters: int, seeds) -> ViewFactorization:
    """Greedy layer-wise pretraining: factorize x, then each representation in turn.

    Layer j is seeded by k-means with seed seeds[j]; there is one seed per width.
    """
    x = as_matrix(x, "x")
    vf = ViewFactorization(x=x)
    current = x
    for width, seed in zip(dims, seeds, strict=True):
        factors = fit_layer(current, width, iters=iters, seed=seed)
        vf.z.append(factors.z)
        vf.h.append(factors.h)
        current = factors.h
    return vf


def _product(zs) -> np.ndarray:
    """zs[0] @ ... @ zs[-1], folded left to right."""
    out = zs[0]
    for z in zs[1:]:
        out = out @ z
    return out


def update_basis(vf: ViewFactorization) -> np.ndarray:
    """Fine-tuning's one basis phi = x pinv(h_m), the exact least-squares refit."""
    return refit_basis(vf.x, vf.h[-1])


def update_hidden(vf: ViewFactorization, weight=1.0, pull=None) -> np.ndarray:
    """Multiplicative step on h_m against the basis product; see multiplicative_step."""
    return multiplicative_step(vf.x, _product(vf.z), vf.h[-1], weight=weight, pull=pull)


def update_partition(vf, consensus, rotation, alpha_v: float, beta_v: float, lam: float):
    """Multiplicative step on the last-layer partition h_m.

    Descends alpha_v^2 ||x - phi h_m||^2 - lam beta_v tr(consensus h_m^T rotation):
    the reconstruction pull and the consensus-alignment pull share one rule,
    update_hidden's, with the weight 2 alpha_v^2 and the pull
    lam beta_v rotation @ consensus. With lam == 0 the pull vanishes.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    return update_hidden(
        vf, weight=2.0 * alpha_v * alpha_v, pull=lam * beta_v * (rotation @ consensus)
    )


def reconstruction_loss(vf: ViewFactorization) -> float:
    """||x - z_1 ... z_m h_m||_F^2 for the current factors."""
    # one d x n buffer: the residual and its square overwrite the rebuild
    residual = _product(vf.z) @ vf.h[-1]
    np.subtract(vf.x, residual, out=residual)
    np.square(residual, out=residual)
    return float(np.sum(residual))


def fix_partition_gauge(vf: ViewFactorization) -> None:
    """Rescale each row of h_m to unit norm.

    The factorization is invariant to any positive diagonal moved between
    the basis and the partition, but the alignment reward is not: left
    alone it inflates h_m without bound while the basis refit absorbs the
    growth. Pinning the row scales removes the degenerate orbit, keeps
    partitions comparable across views, and bounds the alignment trace.
    The factor is not folded into the basis, which the next refit
    re-derives from h_m alone. Zero rows are left untouched; an entirely
    zero or non-finite partition is unrecoverable because multiplicative
    steps lock zeros in place.
    """
    hm = vf.h[-1]
    if not np.all(np.isfinite(hm)):
        raise NumericalError("partition matrix diverged during fine-tuning")
    norms = np.linalg.norm(hm, axis=1)
    if not norms.any():
        raise NumericalError("partition matrix collapsed during fine-tuning")
    scale = np.where(norms > 0.0, norms, 1.0)
    vf.h[-1] = hm / scale[:, None]


def sweep_view(vf, consensus, rotation, alpha_v, beta_v, lam):
    """One fine-tuning pass over a view, in place: the basis refit, the
    partition step, then the gauge fix that pins the partition scale.

    The view leaves it holding x, the one basis phi = x pinv(h_m) and h_m:
    a deeper chain from pretraining enters only through its h_m.
    """
    vf.z = [update_basis(vf)]
    vf.h = [update_partition(vf, consensus, rotation, alpha_v, beta_v, lam)]
    fix_partition_gauge(vf)
    return vf

"""Per-view layered factorization x ~ z_1 ... z_m h_m and its update rules.

Layer widths shrink down to the cluster count k, so the last representation
h_m is a k x n soft partition of the view. Fine-tuning alternates, per layer,
the exact least-squares basis refit with multiplicative representation steps;
the last layer additionally feels the consensus-alignment pull.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mvfuse.linalg import NumericalError, as_matrix, gram_inverse, pinv
from mvfuse.seminmf import fit_layer, multiplicative_step, refit_basis


@dataclass
class ViewFactorization:
    x: np.ndarray             # d x n view matrix
    z: list = field(default_factory=list)  # bases, z[i] maps layer i+1 up to layer i
    h: list = field(default_factory=list)  # representations, all entrywise >= 0

    @property
    def depth(self) -> int:
        return len(self.z)


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


def pretrain_view(x, dims, seed: int = 0, iters: int = 50) -> ViewFactorization:
    """Greedy layer-wise pretraining: factorize x, then each representation in turn."""
    x = as_matrix(x, "x")
    vf = ViewFactorization(x=x)
    current = x
    for j, width in enumerate(dims):
        factors = fit_layer(current, width, iters=iters, seed=seed + j)
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


def update_basis(vf: ViewFactorization, i: int) -> np.ndarray:
    """Least-squares refit of basis i against the reconstruction chain.

    Minimizes ||x - L z_i C|| over z_i alone, with L = z_1..z_{i-1} and the
    chain C = A h_m, A = z_{i+1}..z_m, so the full reconstruction loss never
    increases. The exact minimizer is pinv(L) x pinv(C). At the last layer
    C = h_m and x pinv(h_m) comes from refit_basis's k x k Gram. Above it C
    is l x n of rank k, so its own Gram is singular; instead, when A has full
    column rank and h_m full row rank, pinv(C) = pinv(h_m) pinv(A) =
    h_m^T (h_m h_m^T)^-1 (A^T A)^-1 A^T, two small Grams. When either fails
    gram_inverse's check (a zero row that the gauge fix leaves in h_m, or a
    rank-deficient A), C gets its SVD pinv. The tall L, of rank k in
    fine-tuning, always does.
    """
    if not 0 <= i < vf.depth:
        raise ValueError(f"layer index {i} out of range for depth {vf.depth}")
    hm = vf.h[-1]
    if i == vf.depth - 1:
        out = refit_basis(vf.x, hm)
    else:
        a = _product(vf.z[i + 1 :])
        inv_h, inv_a = gram_inverse(hm), gram_inverse(a.T)
        if inv_h is None or inv_a is None:
            out = vf.x @ pinv(a @ hm)
        else:
            out = (vf.x @ hm.T) @ inv_h @ inv_a @ a.T
    if i == 0:
        return out
    return pinv(_product(vf.z[:i])) @ out


def update_hidden(vf: ViewFactorization, i: int) -> np.ndarray:
    """Multiplicative step on an intermediate representation h_i (i < m-1)."""
    if not 0 <= i < vf.depth - 1:
        raise ValueError("update_hidden applies to intermediate layers only")
    phi = _product(vf.z[: i + 1])
    return multiplicative_step(vf.x, phi, vf.h[i])


def update_partition(vf, consensus, rotation, alpha_v: float, beta_v: float, lam: float):
    """Multiplicative step on the last-layer partition h_m.

    Descends alpha_v^2 ||x - phi h_m||^2 - lam beta_v tr(consensus h_m^T rotation):
    the reconstruction pull and the consensus-alignment pull share one rule.
    With lam == 0 this is the plain representation step applied at the last layer.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    phi = _product(vf.z)
    return multiplicative_step(
        vf.x, phi, vf.h[-1], weight=2.0 * alpha_v * alpha_v,
        pull=lam * beta_v * (rotation @ consensus),
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
    the last basis and the partition, but the alignment reward is not: left
    alone it inflates h_m without bound while the basis refit absorbs the
    growth. Pinning the row scales removes the degenerate orbit, keeps
    partitions comparable across views, and bounds the alignment trace.
    The factor is deliberately not folded into z_m: the next basis refit
    re-derives z_m from scratch, so folding would only feed the scale into
    the neutral split between adjacent bases, where it compounds. Zero rows
    are left untouched; an entirely zero or non-finite partition is
    unrecoverable because multiplicative steps lock zeros in place.
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
    """One fine-tuning pass over a view: per layer the basis refit, then the
    representation step; the partition step runs last, followed by the gauge
    fix that pins the partition scale. Factors are updated in place.
    """
    m = vf.depth
    for i in range(m):
        vf.z[i] = update_basis(vf, i)
        if i < m - 1:
            vf.h[i] = update_hidden(vf, i)
    vf.h[-1] = update_partition(vf, consensus, rotation, alpha_v, beta_v, lam)
    fix_partition_gauge(vf)
    return vf

"""Single-layer semi-NMF: x ~ z @ h with h >= 0 and z unconstrained.

The h step is the multiplicative rule of Ding et al. (2010), which never
increases ||x - z h||_F^2; the z step is the exact least-squares refit
z = x pinv(h), computed as Ding et al. write it, x h^T (h h^T)^-1, through
the small l x l Gram. An ill-conditioned or singular Gram (a zero or
repeated row of h) falls back to the SVD pinv. A pretraining layer is h
alone: init_layer seeds it and fit_layer returns it, and every step
re-derives the basis from h, so no layer hands a basis on.
"""

from __future__ import annotations

import numpy as np

from mvfuse.linalg import as_matrix, gram_inverse, neg_part, pinv, pos_part
from mvfuse.metrics import kmeans

# Additive guard for the denominators of all multiplicative updates.
EPS = 1e-10

# Restart count for the k-means seeding of init_layer.
INIT_KMEANS_RESTARTS = 10


def multiplicative_step(x, basis, h, weight=1.0, pull=None):
    """One Ding-style step on h >= 0 descending weight/2 ||x - basis @ h||^2 - tr(h^T pull).

    With pull=None this is the plain semi-NMF step; otherwise the positive and
    negative parts of pull join the weighted numerator and denominator. Entries
    of h that are exactly zero stay zero.
    """
    a = basis.T @ x
    gram = basis.T @ basis
    num = weight * (pos_part(a) + neg_part(gram) @ h)
    den = weight * (neg_part(a) + pos_part(gram) @ h)
    if pull is not None:
        num = num + pos_part(pull)
        den = den + neg_part(pull)
    return h * np.sqrt(num / (den + EPS))


def refit_basis(x, h) -> np.ndarray:
    """The least-squares basis x @ pinv(h): (x @ h.T) @ inv(h @ h.T), or the
    SVD pinv when gram_inverse declines h."""
    inv = gram_inverse(h)
    return x @ pinv(h) if inv is None else (x @ h.T) @ inv


def init_layer(x, width: int, seed: int) -> np.ndarray:
    """Seed one layer's representation h from k-means on the columns of x.

    h is the cluster indicator matrix plus a 0.2 offset (strictly positive,
    so no row is all zero).
    """
    x = as_matrix(x, "x")
    d, n = x.shape
    if not 1 <= width <= min(d, n):
        raise ValueError(f"layer width must satisfy 1 <= width <= min(d, n) = {min(d, n)}, got {width}")
    labels = kmeans(x.T, width, restarts=INIT_KMEANS_RESTARTS, seed=seed)
    h = np.full((width, n), 0.2)
    h[labels, np.arange(n)] += 1.0
    return h


def fit_layer(x, width: int, iters: int, seed: int) -> np.ndarray:
    """Seed h by init_layer, then alternate exact basis refits and h steps; returns h."""
    if iters < 0:
        raise ValueError("iters must be >= 0")
    h = init_layer(x, width, seed=seed)
    for _ in range(iters):
        h = multiplicative_step(x, refit_basis(x, h), h)
    return h

"""Clustering back-end (k-means) and label-agreement metrics."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

# Cap on Lloyd iterations per restart when labels never reach a fixed point.
LLOYD_MAX_ITER = 300


def _sqdist(points, centers):
    # ||x - c||^2 via the expanded form; clamp tiny negatives from cancellation
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        + np.sum(centers**2, axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    return np.maximum(d2, 0.0)


def _plusplus_centers(points, k, rng):
    """k-means++ seeding: first center uniform, the rest D^2-weighted."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # all remaining points coincide with a center
        centers[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _lloyd(points, centers):
    n, k = points.shape[0], centers.shape[0]
    centers = centers.copy()
    prev = None
    for _ in range(LLOYD_MAX_ITER):
        d2 = _sqdist(points, centers)
        labels = np.argmin(d2, axis=1)  # ties break to the lowest center index
        nearest = d2[np.arange(n), labels]
        for c in range(k):
            if not np.any(labels == c):
                # empty cluster: reseed at the point farthest from its center
                far = int(np.argmax(nearest))
                centers[c] = points[far]
                d2[:, c] = np.sum((points - centers[c]) ** 2, axis=1)
                labels = np.argmin(d2, axis=1)
                nearest = d2[np.arange(n), labels]
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    return labels, float(nearest.sum())


def kmeans(points, k: int, restarts: int = 1, seed: int = 0):
    """Lloyd's algorithm with k-means++ seeding.

    Runs `restarts` independent seedings (restart r uses seed + r) and returns
    the labels of the restart with the smallest within-cluster sum of squares;
    ties keep the earliest restart.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError(f"points must be a 2-d array of samples, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain non-finite entries")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best_labels, best_inertia = None, np.inf
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        labels, inertia = _lloyd(points, _plusplus_centers(points, k, rng))
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def hungarian(cost) -> np.ndarray:
    """Permutation perm minimizing sum(cost[i, perm[i]]) for a square cost matrix."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost must be square, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost contains non-finite entries")
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(cost.shape[0], dtype=np.int64)
    perm[rows] = cols
    return perm


def _check_labels(pred, truth):
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.ndim != 1 or truth.ndim != 1:
        raise ValueError("label vectors must be 1-d")
    if pred.shape[0] != truth.shape[0]:
        raise ValueError(f"label vectors differ in length: {pred.shape[0]} vs {truth.shape[0]}")
    if pred.shape[0] == 0:
        raise ValueError("label vectors are empty")
    if pred.min() < 0 or truth.min() < 0:
        raise ValueError("labels must be non-negative integers")
    return pred, truth


def contingency(pred, truth, square: bool = False) -> np.ndarray:
    """Count table with one row per predicted label, one column per true label."""
    pred, truth = _check_labels(pred, truth)
    kp, kt = int(pred.max()) + 1, int(truth.max()) + 1
    if square:
        kp = kt = max(kp, kt)
    table = np.zeros((kp, kt), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    return table


def accuracy(pred, truth) -> float:
    """Clustering accuracy: best one-to-one label mapping, found by assignment.

    The contingency table is zero-padded to square so unmatched labels on
    either side simply score nothing.
    """
    table = contingency(pred, truth, square=True)
    perm = hungarian(-table.astype(np.float64))
    matched = table[np.arange(table.shape[0]), perm].sum()
    return float(matched) / float(table.sum())


def nmi(pred, truth) -> float:
    """Mutual information normalized by sqrt(H(pred) * H(truth)).

    Conventions for degenerate partitions: 1.0 when the partitions are
    identical up to relabeling (including both single-cluster), 0.0 when
    either side has zero entropy but the partitions differ.
    """
    table = contingency(pred, truth).astype(np.float64)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if np.all(np.count_nonzero(table, axis=1) == 1) and np.all(
        np.count_nonzero(table, axis=0) == 1
    ):
        return 1.0
    n = table.sum()
    pi = table.sum(axis=1) / n
    qj = table.sum(axis=0) / n
    h_pred = -float(np.sum(pi * np.log(pi)))
    h_truth = -float(np.sum(qj * np.log(qj)))
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    p = table / n
    nz = p > 0
    mi = float(np.sum(p[nz] * np.log(p[nz] / np.outer(pi, qj)[nz])))
    value = max(mi, 0.0) / np.sqrt(h_pred * h_truth)
    return float(min(value, 1.0))


def purity(pred, truth) -> float:
    """Fraction of samples belonging to the majority true class of their cluster."""
    table = contingency(pred, truth)
    return float(table.max(axis=1).sum()) / float(table.sum())

"""Clustering back-end (k-means) and label-agreement metrics."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csc_array

# Cap on Lloyd iterations per restart when labels never reach a fixed point.
LLOYD_MAX_ITER = 300
# Floats in each of Lloyd's (restarts, n, k) product and distance buffers: a
# call's restarts run in groups that fit, so memory does not grow with their count.
LLOYD_STACK_FLOATS = 1 << 20
# Rows squared at a time for ||p||^2, so no n x d temporary of squares exists.
# A block of two or more rows sums each row in the order the whole array
# would; a lone row of F-ordered points would sum pairwise instead.
SQ_NORM_BLOCK = 256

_EPS, _TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny


def _sqdist_to_points(points, sq_points, idx):
    """Squared distances from every point to each points[idx[r]], one row per r.

    ||p||^2 + ||c||^2 - 2 p.c costs one gemv per row: np.matmul of `points`
    with the (R, d, 1) stack of doubled centers. OpenBLAS's gemv adds in
    another order for a strided vector than for a unit-stride one, so each
    center column is strided exactly when points[i] is; each row is then bit
    for bit (2 points) @ points[i] alone, as doubling is exact unless an
    |entry| > 8.9e307, whose ||p||^2 is inf. An entry not above the rounding
    bound, or not finite, is recomputed directly as sum((p - c)**2), at most
    n entries at a time so the transient stays n x d; a zero stays exactly
    zero and only non-zero distances can differ from the direct form.
    """
    n, d = points.shape
    stack = np.empty((len(idx), d, 1 if points.strides[1] == points.itemsize else 2))
    stack[:, :, 0] = 2.0 * points[idx]
    with np.errstate(over="ignore", invalid="ignore"):  # such entries are redone
        norms = sq_points + sq_points[idx][:, None]
        d2 = norms - np.matmul(points, stack[:, :, :1])[:, :, 0]
        tol = 4.0 * d * (_EPS * norms + _TINY)
    rows, cols = np.nonzero(~((d2 > tol) & (d2 < np.inf)))  # NaN fails both comparisons
    for s in range(0, rows.size, n):  # usually one pass: each center's own zero, few more
        r, c = rows[s:s + n], cols[s:s + n]
        d2[r, c] = np.sum((points[c] - points[idx[r]]) ** 2, axis=1)
    return d2


def _draw(d2, rngs):
    """One D^2-weighted index per row of d2, each from that row's generator.

    A row with a positive total draws searchsorted(cdf, g.random(), "right")
    on the cumulated row / total, scaled so that it ends at exactly 1: the
    draw of g.choice(n, p=row / total), but with the cumulation and scaling
    done for all rows at once. A row of zero total, whose points all coincide
    with a center, draws a uniform index.
    """
    total = d2.sum(axis=1)
    if not np.isfinite(total).all():
        raise ValueError("squared distances between points overflow float64")
    with np.errstate(invalid="ignore"):  # 0/0 in rows of zero total, never read
        cdf = np.cumsum(d2 / total[:, None], axis=1)
        cdf /= cdf[:, -1:]
    n = d2.shape[1]
    return np.array([
        np.searchsorted(cdf[r], g.random(), side="right") if positive else g.integers(n)
        for r, (g, positive) in enumerate(zip(rngs, (total > 0).tolist()))
    ])


def _plusplus_centers(points, k, rngs, sq_points):
    """k-means++ seeding of a group of restarts in lock-step; returns (R, k, d).

    Restart r draws from its own generator rngs[r]: the first center uniform,
    the rest D^2-weighted. `sq_points` is kmeans's ||p||^2 for every point;
    each center step costs one stacked _sqdist_to_points, one minimum
    and one _draw for all R restarts, and every restart draws the centers it
    would draw alone. Exact zeros keep points that coincide with a center at
    weight zero.
    """
    n, d = points.shape
    idx = np.array([g.integers(n) for g in rngs])
    centers = np.empty((len(rngs), k, d))
    centers[:, 0] = points[idx]
    d2 = np.full((len(rngs), n), np.inf)
    for c in range(1, k):
        np.minimum(d2, _sqdist_to_points(points, sq_points, idx), out=d2)
        idx = _draw(d2, rngs)
        centers[:, c] = points[idx]
    return centers


def _reseed_empty(points, d2, labels, centers):
    """Reseed one restart's empty clusters in place; returns its cluster counts.

    Each empty cluster moves to the point farthest from its center, and the
    labels are reassigned after every move.
    """
    n, k = d2.shape
    every = np.arange(n)
    nearest = d2[every, labels]
    for c in range(k):
        if not np.any(labels == c):
            far = int(np.argmax(nearest))
            centers[c] = points[far]
            d2[:, c] = np.sum((points - centers[c]) ** 2, axis=1)
            np.argmin(d2, axis=1, out=labels)
            nearest = d2[every, labels]
    return np.bincount(labels, minlength=k)


def _update_centers(rows, slots, labels, counts, centers):
    """Move each non-empty cluster's center to its members' mean, in place.

    `rows` is the (n, d) points, C-contiguous, and `slots` numbers each
    point's (restart, cluster) pair in the stack. A member mean
    points[labels == c].mean(axis=0) adds the members in row order when
    d >= 2, and so does one product of the (m k) x n CSC indicator of the
    slots with `rows`: scipy walks the indicator column by column, that is
    point by point, and adds each point's row into its m slots' sums. So
    every sum starts at zero and adds its members in ascending order, bit for
    bit the member sum, for all restarts and clusters at once. For d == 1,
    whose mean sums pairwise, the loop runs per cluster. A cluster left empty
    keeps its reseeded center.
    """
    m, k, d = centers.shape
    if d >= 2:
        n = rows.shape[0]
        # column j holds point j's m slots, ascending because restart r's lie in [r k, r k + k)
        indicator = csc_array((np.ones(m * n), slots.T.ravel(), np.arange(0, m * n + 1, m)),
                              shape=(m * k, n))
        np.divide((indicator @ rows).reshape(m, k, d), counts[:, :, None], out=centers,
                  where=counts[:, :, None] > 0)
        return
    for r in range(m):
        for c in np.flatnonzero(counts[r]):
            centers[r, c] = rows[labels[r] == c].mean(axis=0)


def _lloyd(points, sq_points, centers):
    """Lloyd iterations from a stack of starts, advanced in lock-step.

    `centers` is (R, k, d), one start per restart; returns the (R, n) labels
    and the (R,) inertias; `sq_points` is kmeans's ||p||^2. The distances
    are computed on `points` as the caller laid them out, because the
    summation order of a row reduction or a matmul follows the memory
    layout; only the center sums read a C-contiguous copy. np.matmul with the
    stack of doubled centers makes one product per restart with its own
    operands, so every restart computes bit for bit what it would alone with
    the points doubled: doubling is exact unless an |entry| > 8.9e307, whose
    ||p||^2 is inf. A restart leaves the stack once its labels repeat.
    """
    n = points.shape[0]
    R, k, _ = centers.shape
    rows = np.ascontiguousarray(points)
    every, offsets = np.arange(n), k * np.arange(R)[:, None]
    prod, dist = np.empty((R, n, k)), np.empty((R, n, k))
    buf, slot_buf = np.empty((R, n), dtype=np.intp), np.empty((R, n), dtype=np.intp)
    out_labels, out_inertia = np.empty((R, n), dtype=np.intp), np.empty(R)
    alive, prev = np.arange(R), None
    centers = centers.copy()
    for it in range(LLOYD_MAX_ITER):
        m = alive.size
        d2, labels, slots = dist[:m], buf[:m], slot_buf[:m]
        np.add(sq_points[:, None], np.sum(centers**2, axis=2)[:, None, :], out=d2)
        d2 -= np.matmul(points, (2.0 * centers).transpose(0, 2, 1), out=prod[:m])
        np.maximum(d2, 0.0, out=d2)  # clamp tiny negatives from cancellation
        np.argmin(d2, axis=2, out=labels)  # ties break to the lowest center index
        np.add(labels, offsets[:m], out=slots)
        counts = np.bincount(slots.ravel(), minlength=m * k).reshape(m, k)
        for r in np.flatnonzero(~counts.all(axis=1)):
            counts[r] = _reseed_empty(points, d2[r], labels[r], centers[r])
            np.add(labels[r], offsets[r], out=slots[r])
        done = np.full(m, it == LLOYD_MAX_ITER - 1)
        if prev is not None:
            done |= (labels == prev).all(axis=1)
        for r in np.flatnonzero(done):
            out_labels[alive[r]] = labels[r]
            out_inertia[alive[r]] = d2[r][every, labels[r]].sum()
        if done.all():
            break
        if done.any():
            keep = ~done
            alive, centers, labels, counts = alive[keep], centers[keep], labels[keep], counts[keep]
            slots = labels + offsets[:alive.size]
        prev = labels.copy()
        _update_centers(rows, slots, labels, counts, centers)
    return out_labels, out_inertia


def kmeans(points, k: int, restarts: int = 1, seed: int = 0):
    """Lloyd's algorithm with k-means++ seeding.

    Runs `restarts` independent seedings (restart r draws from
    default_rng(seed + r)) and returns the labels of the restart with the
    smallest within-cluster sum of squares; ties keep the earliest restart.
    The restarts run in lock-step, in groups of at most
    LLOYD_STACK_FLOATS // (n * k): one k-means++ loop seeds the whole group,
    and each Lloyd iteration then advances every restart of the group still
    moving with one stacked distance product, one argmin and one sparse
    indicator product for all of their center sums. Each restart's centers
    and labels equal what it draws and reaches alone.
    Seeding and Lloyd both use the expansion
    ||p - c||^2 = ||p||^2 + ||c||^2 - 2 p.c with ||p||^2 computed once per
    call, over blocks of SQ_NORM_BLOCK rows; the products double the k
    centers, not the n points, and round alike, since doubling is exact
    unless an |entry| > 8.9e307, whose ||p||^2 overflows. The seeding
    recomputes directly every entry within the expansion's rounding of
    zero, so points equal to a center keep D^2 weight exactly zero. Raises ValueError when the squared distances, or
    the squared norms that Lloyd's distances expand, overflow float64.
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
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    sq_points = np.empty(n)
    bounds = [*range(0, max(n - 1, 1), SQ_NORM_BLOCK), n]  # a one-row tail joins its block
    for lo, hi in zip(bounds, bounds[1:]):
        np.sum(points[lo:hi] ** 2, axis=1, out=sq_points[lo:hi])
    group = max(1, LLOYD_STACK_FLOATS // (n * k))
    best, best_inertia = None, np.inf
    for first in range(0, restarts, group):
        rngs = [np.random.default_rng(seed + r) for r in range(first, min(first + group, restarts))]
        starts = _plusplus_centers(points, k, rngs, sq_points)
        labels, inertia = _lloyd(points, sq_points, starts)
        inertia[~(inertia < np.inf)] = np.inf  # NaN is never the best
        r = int(np.argmin(inertia))  # the first of equal minima
        if best is None or inertia[r] < best_inertia:
            best, best_inertia = labels[r].copy(), inertia[r]  # owns its memory
    if best_inertia == np.inf:  # no finite inertia: Lloyd's expansion read inf - inf
        raise ValueError(
            "squared norms of the points overflow float64, so Lloyd's distances are not finite"
        )
    return best


def hungarian(cost) -> np.ndarray:
    """Permutation perm minimizing sum(cost[i, perm[i]]) for a square cost matrix.

    The caller passes a finite square cost, as accuracy does with its
    zero-padded contingency table; nothing here checks it again.
    """
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(len(rows), dtype=np.int64)
    perm[rows] = cols
    return perm


def as_labels(labels, name: str) -> np.ndarray:
    """labels as int64; a float that is not a whole number (0.7, NaN) is an error naming name."""
    labels = np.asarray(labels)
    if labels.dtype.kind == "f":
        bad = ~np.isfinite(labels) | (labels != np.trunc(labels))
        if bad.any():
            raise ValueError(f"{name} must be whole numbers, got {labels[bad].flat[0].item()!r}")
    return labels.astype(np.int64)


def _check_labels(pred, truth):
    pred = as_labels(pred, "predicted labels")
    truth = as_labels(truth, "true labels")
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
    """Count table with one row per distinct predicted label, one column per
    distinct true label, each side in ascending label order.

    Labels are indexed by their rank, so the table's size follows the number
    of distinct labels, not the largest one, and no row or column is empty.
    With square=True the smaller side is padded with zeros to a square.
    """
    pred, truth = _check_labels(pred, truth)
    rows, cols = (np.unique(labels, return_inverse=True)[1] for labels in (pred, truth))
    kp, kt = int(rows.max()) + 1, int(cols.max()) + 1
    if square:
        kp = kt = max(kp, kt)
    table = np.zeros((kp, kt), dtype=np.int64)
    np.add.at(table, (rows, cols), 1)
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

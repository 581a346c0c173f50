import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_accuracy, brute_force_assignment, direct_nmi, direct_purity
from mvfuse import metrics
from mvfuse.data import generate_synthetic, normalize_dataset
from mvfuse.metrics import (
    _EPS,
    _TINY,
    _draw,
    _lloyd,
    _plusplus_centers,
    _sqdist_to_points,
    accuracy,
    contingency,
    hungarian,
    kmeans,
    nmi,
    purity,
)

# ---------------------------------------------------------------------------
# independent oracles


def within_cluster_ss(points, labels) -> float:
    """Sum of squared distances to per-cluster means (inertia of a labeling)."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    total = 0.0
    for c in np.unique(labels):
        member = points[labels == c]
        total += float(np.sum((member - member.mean(axis=0)) ** 2))
    return total


# The k-means as it was before the distance terms left the Lloyd loop, kept
# verbatim: kmeans must return its labels bit for bit wherever its centers
# stay finite.


def _reference_sqdist(points, centers):
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        + np.sum(centers**2, axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    return np.maximum(d2, 0.0)


def _reference_plusplus_centers(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _reference_lloyd(points, centers, max_iter=300):
    n, k = points.shape[0], centers.shape[0]
    centers = centers.copy()
    prev = None
    for _ in range(max_iter):
        d2 = _reference_sqdist(points, centers)
        labels = np.argmin(d2, axis=1)
        nearest = d2[np.arange(n), labels]
        for c in range(k):
            if not np.any(labels == c):
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


def reference_kmeans(points, k, restarts=1, seed=0):
    """Labels of the reference, or None when one of its centers became NaN."""
    points = np.asarray(points, dtype=np.float64)
    best_labels, best_inertia = None, np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the mean of an empty cluster
        try:
            for r in range(restarts):
                rng = np.random.default_rng(seed + r)
                labels, inertia = _reference_lloyd(
                    points, _reference_plusplus_centers(points, k, rng)
                )
                if inertia < best_inertia:
                    best_labels, best_inertia = labels, inertia
        except RuntimeWarning:
            return None
    return best_labels


# ---------------------------------------------------------------------------
# k-means


def _blobs(rng, n_per, centers, spread=0.05):
    points, labels = [], []
    for i, c in enumerate(centers):
        points.append(c + spread * rng.standard_normal((n_per, len(c))))
        labels.extend([i] * n_per)
    return np.vstack(points), np.array(labels)


def test_kmeans_single_cluster():
    rng = np.random.default_rng(5)
    points = rng.standard_normal((20, 3))
    labels = kmeans(points, 1, restarts=2, seed=0)
    assert np.array_equal(labels, np.zeros(20, dtype=labels.dtype))


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((8, 2))
    labels = kmeans(points, 8, restarts=3, seed=1)
    assert sorted(labels.tolist()) == list(range(8))  # each point its own cluster
    assert within_cluster_ss(points, labels) <= 1e-9


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(9)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    points, truth = _blobs(rng, 30, centers)
    labels = kmeans(points, 3, restarts=5, seed=3)
    assert accuracy(labels, truth) == 1.0


def test_kmeans_restart_takes_minimum_inertia():
    rng = np.random.default_rng(13)
    points = rng.standard_normal((60, 2))
    points[30:] += 4.0
    seed, restarts = 17, 8
    best = kmeans(points, 4, restarts=restarts, seed=seed)
    best_ss = within_cluster_ss(points, best)
    for r in range(restarts):
        single = kmeans(points, 4, restarts=1, seed=seed + r)
        assert best_ss <= within_cluster_ss(points, single) + 1e-9


def test_kmeans_deterministic():
    rng = np.random.default_rng(15)
    points = rng.standard_normal((40, 3))
    a = kmeans(points, 5, restarts=4, seed=2)
    b = kmeans(points, 5, restarts=4, seed=2)
    assert np.array_equal(a, b)


def test_kmeans_validates():
    with pytest.raises(ValueError):
        kmeans(np.ones((3, 2)), 4)
    with pytest.raises(ValueError):
        kmeans(np.ones((3, 2)), 2, restarts=0)


def _kmeans_cases(rng):
    """Points as fit passes them (F-ordered views) and as a caller may (C-ordered)."""
    for _ in range(60):
        n = int(rng.integers(2, 200))
        d = int(rng.integers(1, 40))
        k = int(rng.choice([1, 2, 3, max(1, n // 4), n - 1, n]))
        kind = rng.integers(3)
        if kind == 0:
            points = rng.standard_normal((d, n)).T
        elif kind == 1:  # duplicated rows
            m = max(1, n // 3)
            points = rng.standard_normal((m, d))[rng.integers(m, size=n)]
        else:  # a coarse grid: exact ties in the distances
            points = rng.integers(0, 3, size=(d, n)).astype(np.float64).T / 10.0
        yield points, k
        yield np.ascontiguousarray(points), k


def test_kmeans_labels_equal_the_reference_bit_for_bit():
    rng = np.random.default_rng(29)
    compared = total = 0
    for points, k in _kmeans_cases(rng):
        seed, restarts = int(rng.integers(1000)), int(rng.integers(1, 4))
        expected = reference_kmeans(points, k, restarts=restarts, seed=seed)
        total += 1
        if expected is None:
            continue
        compared += 1
        assert np.array_equal(kmeans(points, k, restarts=restarts, seed=seed), expected)
    assert compared >= 0.8 * total


def test_lloyd_matches_the_reference_from_far_off_starts():
    # k-means++ starts rarely empty a cluster; starts away from the data empty
    # several at once, so the reseed branch runs
    rng = np.random.default_rng(37)
    compared = reseeded = 0
    for points, k in _kmeans_cases(rng):
        centers = 3.0 + 4.0 * rng.standard_normal((k, points.shape[1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                expected = _reference_lloyd(points, centers)
            except RuntimeWarning:
                continue
        sq_points = np.sum(points**2, axis=1)
        got = [out[0] for out in _lloyd(points, sq_points, centers[None])]
        assert np.array_equal(got[0], expected[0]) and got[1] == expected[1]
        compared += 1
        reseeded += len(np.unique(_reference_sqdist(points, centers).argmin(axis=1))) < k
    assert compared >= 60 and reseeded >= 30


def test_lloyd_stack_matches_the_reference_per_start():
    # far-off starts empty clusters, starts on the data rarely do; a stack mixes
    # both, so its restarts reseed, converge and leave the stack at different times
    rng = np.random.default_rng(43)
    mixed = 0
    for points, k in _kmeans_cases(rng):
        n, d = points.shape
        starts, expected, emptied = [], [], []
        for far in rng.permutation([True, False] * 3):
            if far:
                centers = 3.0 + 4.0 * rng.standard_normal((k, d))
            else:
                centers = points[rng.choice(n, k, replace=False)]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    expected.append(_reference_lloyd(points, centers))
                except RuntimeWarning:
                    continue
            starts.append(centers)
            emptied.append(len(np.unique(_reference_sqdist(points, centers).argmin(axis=1))) < k)
        if not starts:
            continue
        sq_points = np.sum(points**2, axis=1)
        labels, inertia = _lloyd(points, sq_points, np.stack(starts))
        for r, (want_labels, want_inertia) in enumerate(expected):
            assert np.array_equal(labels[r], want_labels) and inertia[r] == want_inertia
        mixed += any(emptied) and not all(emptied)
    assert mixed >= 30


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 60),
    d=st.integers(1, 6),
    k_share=st.floats(0.0, 1.0),
    restarts=st.integers(1, 6),
    coarse=st.booleans(),
    fortran=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeans_returns_the_best_of_its_single_restarts(n, d, k_share, restarts, coarse,
                                                        fortran, seed):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    if coarse:  # a grid of few values: duplicate points and exact distance ties
        points = np.round(points) / 2.0
    points = np.asfortranarray(points) if fortran else np.ascontiguousarray(points)
    k = 1 + round(k_share * (n - 1))
    sq_points = np.sum(points**2, axis=1)
    singles, inertias = [], []
    for r in range(restarts):
        single = kmeans(points, k, restarts=1, seed=seed + r)
        start = _plusplus_centers(points, k, [np.random.default_rng(seed + r)], sq_points)
        labels, inertia = _lloyd(points, sq_points, start)
        assert np.array_equal(single, labels[0])
        singles.append(single)
        inertias.append(inertia[0])
    got = kmeans(points, k, restarts=restarts, seed=seed)
    assert np.array_equal(got, singles[int(np.argmin(inertias))])  # the first of equal minima
    assert got.base is None


def test_kmeans_restart_groups_keep_the_best_restart(monkeypatch):
    # a small buffer budget splits a call's restarts into groups, for the seeding
    # as for Lloyd; the split must not change which restart wins, the earliest of
    # equal minima included
    rng = np.random.default_rng(53)
    tied = 0
    for _ in range(20):
        n, d, k = int(rng.integers(8, 40)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
        points = np.round(rng.standard_normal((n, d))) / 2.0  # coarse: exact ties
        seed, restarts = int(rng.integers(1000)), 7
        whole = kmeans(points, k, restarts=restarts, seed=seed)
        for group in (1, 2, 3):
            seeded = []

            def spy(points, k, rngs, *terms):
                seeded.append(len(rngs))
                return _plusplus_centers(points, k, rngs, *terms)

            monkeypatch.setattr(metrics, "LLOYD_STACK_FLOATS", group * n * k)
            monkeypatch.setattr(metrics, "_plusplus_centers", spy)
            assert np.array_equal(kmeans(points, k, restarts=restarts, seed=seed), whole)
            assert max(seeded) == group and sum(seeded) == restarts
        monkeypatch.undo()
        singles = [kmeans(points, k, seed=seed + r) for r in range(restarts)]
        ss = [within_cluster_ss(points, labels) for labels in singles]
        tied += any(np.isclose(s, min(ss)) and not np.array_equal(labels, whole)
                    for s, labels in zip(ss, singles))
    assert tied >= 5


def _seed_both(points, k, seed):
    """Centers of the norm-expansion seeding and of the reference; None where it raised."""
    seeded = []
    for seeding in (_plusplus_centers, _reference_plusplus_centers):
        try:
            if seeding is _plusplus_centers:
                sq_points = np.sum(points**2, axis=1)
                seeded.append(seeding(points, k, [np.random.default_rng(seed)], sq_points)[0])
            else:
                seeded.append(seeding(points, k, np.random.default_rng(seed)))
        except ValueError:  # a non-finite D^2 total; the reference fails in Generator.choice
            seeded.append(None)
    return seeded


def _assert_seeding_matches_the_reference(points, k, seed):
    got, expected = _seed_both(points, k, seed)
    if expected is None:
        assert got is None
    else:
        assert np.array_equal(got, expected)
        i = int(np.random.default_rng(seed).integers(points.shape[0]))
        d2 = _sqdist_to_points(points, np.sum(points**2, axis=1), np.array([i]))[0]
        assert np.array_equal(d2 == 0, np.sum((points - points[i]) ** 2, axis=1) == 0)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 80),
    d=st.integers(1, 24),
    k_share=st.floats(0.0, 1.0),
    duplicated=st.floats(0.0, 0.9),
    fortran=st.booleans(),
    scale_exp=st.integers(-320, 153),
    offset_exp=st.one_of(st.none(), st.integers(-10, 154)),
    seed=st.integers(0, 2**32 - 1),
)
def test_seeding_matches_the_direct_form(n, d, k_share, duplicated, fortran, scale_exp,
                                         offset_exp, seed):
    rng = np.random.default_rng(seed)
    m = max(1, round(n * (1.0 - duplicated)))
    points = rng.standard_normal((m, d)) * 10.0**scale_exp
    if offset_exp is not None:
        points += 10.0**offset_exp
    points = points[rng.integers(m, size=n)]
    points = np.asfortranarray(points) if fortran else np.ascontiguousarray(points)
    k = 1 + round(k_share * (n - 1))
    _assert_seeding_matches_the_reference(points, k, seed)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_seeding_routes_overflowed_and_underflowed_norms_to_the_direct_form():
    rng = np.random.default_rng(41)
    for case in range(40):
        n, d = int(rng.integers(2, 60)), int(rng.integers(2, 20))
        m = max(1, n // 3)
        if case % 2:  # ||p||^2 overflows, so the expansion reads inf - inf = NaN
            base = 1e150 * rng.standard_normal((m, d)) + 1e154
        else:  # every product underflows, so only the absolute floor catches the zeros
            base = 1e-162 * rng.standard_normal((m, d))
        points = base[rng.integers(m, size=n)]
        for layout in (np.asfortranarray, np.ascontiguousarray):
            _assert_seeding_matches_the_reference(layout(points), int(rng.integers(1, n + 1)), case)
    # finite norms, and a distance that rounds to inf by the expansion but not directly
    edge = np.array([[1.9682135682779567e153, 2.3294848506570416e153],
                     [-5.276539303757837e153, -8.952486134474975e153]])
    for seed in range(4):
        assert _seed_both(edge, 2, seed)[1] is not None
        _assert_seeding_matches_the_reference(edge, 2, seed)


# The scales of test_seeding_routes_overflowed_and_underflowed_norms_to_the_direct_form:
# distances that overflow float64, and squared norms or distances that underflow,
# so that distinct points can lie at D^2 zero.
SEEDING_SCALES = {"unit": (1.0, 0.0), "overflow": (1e154, 0.0),
                  "offset-overflow": (1e150, 1e154), "underflow": (1e-162, 0.0)}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 30),
    d=st.integers(1, 4),
    distinct=st.integers(1, 6),
    grid=st.booleans(),
    k_share=st.floats(0.0, 1.0),
    scale=st.sampled_from(sorted(SEEDING_SCALES)),
    restarts=st.integers(1, 8),
    fortran=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# the stack of test_the_example_stack_mixes_zero_and_positive_totals
@example(n=3, d=1, distinct=3, grid=True, k_share=1.0, scale="underflow", restarts=8,
         fortran=False, seed=0)
def test_stacked_seeding_rows_match_the_reference_per_generator(n, d, distinct, grid, k_share,
                                                                scale, restarts, fortran, seed):
    # at most `distinct` distinct points, so k can exceed their count
    rng = np.random.default_rng(seed)
    spread, offset = SEEDING_SCALES[scale]
    if grid:
        base = (np.arange(n * d) % distinct).reshape(n, d).astype(np.float64)
    else:
        m = min(distinct, n)
        base = rng.standard_normal((m, d))[rng.integers(m, size=n)]
    points = spread * base + offset
    points = np.asfortranarray(points) if fortran else np.ascontiguousarray(points)
    k = 1 + round(k_share * (n - 1))
    sq_points = np.sum(points**2, axis=1)
    rngs = [np.random.default_rng(seed + r) for r in range(restarts)]
    try:
        expected = [_reference_plusplus_centers(points, k, np.random.default_rng(seed + r))
                    for r in range(restarts)]
    except ValueError:  # a non-finite D^2 total in one restart raises for the stack
        with pytest.raises(ValueError, match="squared distances between points overflow"):
            _plusplus_centers(points, k, rngs, sq_points)
        return
    got = _plusplus_centers(points, k, rngs, sq_points)
    assert got.shape == (restarts, k, d)
    for row, want in zip(got, expected):
        assert np.array_equal(row, want)


def test_the_example_stack_mixes_zero_and_positive_totals(monkeypatch):
    # 0 and 2e-162 lie at D^2 5e-324, and both at D^2 zero from 1e-162, so in one
    # centre step the restarts that began at 1e-162 reach a zero total and the
    # others do not
    positive = []

    def spy(d2, rngs):
        positive.append(set((d2.sum(axis=1) > 0).tolist()))
        return _draw(d2, rngs)

    monkeypatch.setattr(metrics, "_draw", spy)
    points = np.array([[0.0], [1e-162], [2e-162]])
    _plusplus_centers(points, 3, [np.random.default_rng(s) for s in range(8)],
                      np.sum(points**2, axis=1))
    assert {True, False} in positive


def test_draw_is_the_draw_of_generator_choice():
    # _draw replicates Generator.choice(n, p=p) so that it can cumulate a stack of
    # rows at once; a numpy release that draws choice another way fails here first
    rng = np.random.default_rng(61)
    rows = []
    for _ in range(400):
        n = int(rng.integers(1, 50))
        w = rng.random(n) ** rng.choice([1, 4, 40]) * 10.0 ** rng.integers(-300, 300)
        w[rng.random(n) < rng.random()] = 0.0  # zero weights, sometimes all of them
        rows.append(w)
        seed = int(rng.integers(2**32))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _draw(w[None], [ours])[0]
        if w.sum() > 0:
            assert got == theirs.choice(n, p=w / w.sum())
        else:
            assert got == theirs.integers(n)
        assert ours.random() == theirs.random()  # each drew as much from its stream
    # a stack of rows of one length draws each row from its own generator
    stack = np.array([np.resize(w, 7) for w in rows[:30]])
    drawn = _draw(stack, [np.random.default_rng(r) for r in range(30)])
    for r, w in enumerate(stack):
        single = _draw(w[None], [np.random.default_rng(r)])[0]
        assert drawn[r] == single


def _one_center_sqdist(points, sq_points, twice, i):
    # the seeding's distances before it was stacked, kept verbatim
    with np.errstate(over="ignore", invalid="ignore"):
        norms = sq_points + sq_points[i]
        d2 = norms - twice @ points[i]
        tol = 4.0 * points.shape[1] * (_EPS * norms + _TINY)
    redo = ~((d2 > tol) & (d2 < np.inf))
    if redo.any():
        d2[redo] = np.sum((points[redo] - points[i]) ** 2, axis=1)
    return d2


def test_stacked_distances_equal_the_one_center_form_bit_for_bit():
    # the gemv sums a strided center (a row of Fortran-ordered points) in another
    # order than a unit-stride one; widths 14, 15, 18, ... showed it on OpenBLAS
    rng = np.random.default_rng(67)
    for d in range(1, 33):
        n = int(rng.integers(1, 120))
        m = max(1, n // 2)
        base = rng.standard_normal((m, d))[rng.integers(m, size=n)]  # duplicates: direct redos
        for points in (np.asfortranarray(base), np.ascontiguousarray(base)):
            sq_points, twice = np.sum(points**2, axis=1), 2.0 * points
            idx = rng.integers(n, size=int(rng.integers(1, 9)))
            got = _sqdist_to_points(points, sq_points, idx)
            for row, i in zip(got, idx):
                assert row.tobytes() == _one_center_sqdist(points, sq_points, twice, i).tobytes()


def test_seeding_matches_the_reference_on_the_fit_large_views():
    ds = generate_synthetic(n=3000, k=5, view_dims=[100, 200, 300], noise_sigma=0.1, seed=0)
    for view in normalize_dataset(ds, "l2-sample").views:
        points = view.T  # F-ordered, as pretraining hands them to kmeans
        for seed in range(3):
            got, expected = _seed_both(points, 20, seed)
            assert np.array_equal(got, expected)


def test_lloyd_matches_the_reference_on_a_fit_large_view():
    # the widest fit-large view at its first pretraining layer's k, from a stack of
    # three k-means++ starts
    ds = generate_synthetic(n=3000, k=5, view_dims=[100, 200, 300], noise_sigma=0.1, seed=0)
    points = normalize_dataset(ds, "l2-sample").views[2].T  # F-ordered, d = 300
    sq_points = np.sum(points**2, axis=1)
    rngs = [np.random.default_rng(seed) for seed in range(3)]
    starts = _plusplus_centers(points, 20, rngs, sq_points)
    labels, inertia = _lloyd(points, sq_points, starts)
    for r, start in enumerate(starts):
        want_labels, want_inertia = _reference_lloyd(points, start)
        assert np.array_equal(labels[r], want_labels) and inertia[r] == want_inertia


def _kmeans_peak_bytes(points):
    tracemalloc.start()
    try:
        kmeans(points, 2, restarts=1, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kmeans_holds_one_working_copy_of_f_ordered_points():
    # the products double the k centers, so no doubled n x d copy of the points
    # exists; the one copy is the C-ordered rows that the center sums read.
    # ||p||^2 is summed over row blocks, so C-ordered points need no copy at all
    n, d = 2000, 200
    points = np.random.default_rng(71).standard_normal((n, d))
    assert _kmeans_peak_bytes(np.asfortranarray(points)) < 1.5 * n * d * points.itemsize
    assert _kmeans_peak_bytes(points) < 0.5 * n * d * points.itemsize


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 258, 513, 769])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_kmeans_row_norms_match_the_unblocked_sum_bit_for_bit(monkeypatch, n, layout):
    # a lone F-ordered row of 8 or more entries sums pairwise, so a one-row
    # tail joins its block
    rng = np.random.default_rng(n)
    base = rng.standard_normal((n, 40)) * rng.uniform(0.01, 100.0, size=40)
    points = {"C": np.ascontiguousarray(base), "F": np.asfortranarray(base),
              "strided": np.repeat(base, 2, axis=1)[:, ::2]}[layout]
    seen = []
    monkeypatch.setattr(metrics, "_lloyd", lambda p, sq, c: seen.append(sq) or _lloyd(p, sq, c))
    kmeans(points, 1, restarts=1, seed=0)
    assert seen[0].tobytes() == np.sum(points**2, axis=1).tobytes()


# (m, k, n, d): m k = 255 and 257 at d of 2, 3 and 300, then 65,535 and 65,537,
# where d = 300 would make a 157 MB stack
@pytest.mark.parametrize("m, k, n, d", [
    *[(m, k, 400, d) for m, k in ((5, 51), (1, 257)) for d in (2, 3, 300)],
    *[(m, k, 300, d) for m, k in ((5, 13107), (1, 65537)) for d in (2, 3)],
])
@pytest.mark.parametrize("fortran", [False, True])
def test_update_centers_equals_the_member_mean_bit_for_bit(m, k, n, d, fortran):
    rng = np.random.default_rng(m * k + d)
    points = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, size=d)
    points = np.asfortranarray(points) if fortran else np.ascontiguousarray(points)
    # a few clusters take most points, so sums run long and many clusters stay empty
    labels = np.minimum(rng.geometric(0.3, size=(m, n)) - 1, k - 1)
    slots = labels + k * np.arange(m)[:, None]
    counts = np.bincount(slots.ravel(), minlength=m * k).reshape(m, k)
    assert not counts.all()
    centers = rng.standard_normal((m, k, d))
    kept = centers.copy()
    metrics._update_centers(np.ascontiguousarray(points), slots, labels, counts, centers)
    for r in range(m):
        for c in range(k):
            want = points[labels[r] == c].mean(axis=0) if counts[r, c] else kept[r, c]
            assert centers[r, c].tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_kmeans_names_a_distance_overflow():
    points = np.random.default_rng(3).standard_normal((200, 30)) * 1e154
    with pytest.raises(ValueError, match="squared distances between points overflow float64"):
        kmeans(points, 8)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_kmeans_names_a_squared_norm_overflow():
    # Pairwise distances stay finite, so the seeding succeeds; Lloyd's
    # expansion ||p||^2 + ||c||^2 - 2 p.c then reads inf - inf on every restart.
    rng = np.random.default_rng(5)
    centers = 10.0 * rng.standard_normal((3, 4))
    points, _ = _blobs(rng, 50, centers)
    with pytest.raises(ValueError, match="squared norms of the points overflow float64"):
        kmeans(points * 1e140 + 1e154, 3, restarts=3)


def test_kmeans_names_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        kmeans(np.random.default_rng(0).standard_normal((10, 2)), 2, restarts=3, seed=-1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kmeans_all_equal_points():
    labels = kmeans(np.full((20, 3), 0.5), 4, restarts=3, seed=0)
    assert labels is not None
    assert np.all((0 <= labels) & (labels < 4))
    assert np.all(labels == labels[0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kmeans_fewer_distinct_points_than_clusters():
    distinct = np.random.default_rng(31).standard_normal((5, 3))
    points = np.repeat(distinct, 4, axis=0)
    for seed in range(4):
        labels = kmeans(points, 8, restarts=3, seed=seed)
        assert labels is not None
        assert np.all((0 <= labels) & (labels < 8))
        groups = labels.reshape(5, 4)
        assert np.all(groups == groups[:, :1])  # equal points share a cluster
        assert len(set(groups[:, 0].tolist())) == 5


# ---------------------------------------------------------------------------
# assignment


def test_hungarian_identity_cheapest():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(hungarian(cost), [0, 1])


def test_hungarian_forced_swap():
    cost = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(hungarian(cost), [1, 0])


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(19)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        cost = rng.standard_normal((k, k))
        perm = hungarian(cost)
        assert sorted(perm.tolist()) == list(range(k))
        _, best_value = brute_force_assignment(cost)
        value = cost[np.arange(k), perm].sum()
        assert abs(value - best_value) <= 1e-12


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_perfect_and_relabeled():
    truth = np.array([0, 0, 1, 1, 2, 2])
    assert accuracy(truth, truth) == 1.0
    relabeled = np.array([2, 2, 0, 0, 1, 1])
    assert accuracy(relabeled, truth) == 1.0


def test_accuracy_small_example():
    pred = np.array([0, 0, 1, 1])
    truth = np.array([0, 1, 1, 1])
    assert accuracy(pred, truth) == 0.75


def test_accuracy_unequal_label_counts():
    pred = np.array([0, 1, 2, 3])
    truth = np.array([0, 0, 1, 1])
    assert accuracy(pred, truth) == 0.5


def test_accuracy_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(4, 30))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        assert accuracy(pred, truth) == brute_force_accuracy(pred, truth)


def test_accuracy_validates():
    with pytest.raises(ValueError):
        accuracy([0, 1], [0, 1, 1])
    with pytest.raises(ValueError):
        accuracy([0, -1], [0, 1])
    with pytest.raises(ValueError, match="^true labels must be whole numbers, got 1.2$"):
        accuracy([0, 1, 2], [0.0, 1.2, 2.5])
    with pytest.raises(ValueError, match="^predicted labels must be whole numbers, got nan$"):
        accuracy([0, np.nan, 2], [0, 1, 2])
    assert accuracy([0, 1, 2], [0.0, 1.0, 2.0]) == 1.0  # whole floats stay accepted


# ---------------------------------------------------------------------------
# nmi / purity


def test_nmi_identical_partitions():
    labels = np.array([0, 0, 1, 1, 2])
    assert nmi(labels, labels) == 1.0
    assert nmi(np.array([2, 2, 0, 0, 1]), labels) == 1.0  # relabeled
    # identical partitions with a skipped label value on one side
    assert nmi(np.array([0, 0, 2, 2]), np.array([1, 1, 0, 0])) == 1.0


def test_nmi_degenerate_single_cluster():
    assert nmi(np.zeros(4, dtype=int), np.zeros(4, dtype=int)) == 1.0
    assert nmi(np.zeros(4, dtype=int), np.array([0, 0, 1, 1])) == 0.0
    assert nmi(np.array([0, 0, 1, 1]), np.zeros(4, dtype=int)) == 0.0


def test_nmi_small_example_against_direct_definition():
    pred = np.array([0, 0, 1, 1])
    truth = np.array([0, 0, 0, 1])
    got = nmi(pred, truth)
    assert abs(got - direct_nmi(pred, truth)) <= 1e-12
    assert abs(got - 0.3455920299442113) <= 1e-9


def test_nmi_matches_direct_definition_randomized():
    rng = np.random.default_rng(27)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(5, 40))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        assert abs(nmi(pred, truth) - direct_nmi(pred, truth)) <= 1e-12
        assert 0.0 <= nmi(pred, truth) <= 1.0


def test_purity_small_example_and_random():
    pred = np.array([0, 0, 1, 1])
    truth = np.array([0, 1, 1, 1])
    assert purity(pred, truth) == 0.75
    assert purity(truth, truth) == 1.0
    rng = np.random.default_rng(33)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(4, 30))
        p = rng.integers(0, k, size=n)
        t = rng.integers(0, k, size=n)
        assert abs(purity(p, t) - direct_purity(p, t)) <= 1e-12


def test_metrics_invariant_under_prediction_relabeling():
    rng = np.random.default_rng(35)
    truth = rng.integers(0, 4, size=50)
    pred = rng.integers(0, 4, size=50)
    perm = np.array([2, 3, 1, 0])
    relabeled = perm[pred]
    assert accuracy(pred, truth) == accuracy(relabeled, truth)
    assert abs(nmi(pred, truth) - nmi(relabeled, truth)) <= 1e-12
    assert purity(pred, truth) == purity(relabeled, truth)


def test_contingency_counts():
    table = contingency([0, 0, 1], [1, 1, 0])
    assert np.array_equal(table, [[0, 2], [1, 0]])

import numpy as np
import pytest

from conftest import _row_orthonormal
from mvfuse.deep import reconstruction_loss
from mvfuse.fusion import (
    objective,
    update_alpha,
    update_beta,
    update_consensus,
    update_rotation,
)
from mvfuse.linalg import procrustes_max


def _random_views(rng, k=3, n=20, v=2):
    """A (v, k, n) stack of partitions and a (v, k, k) stack of rotations."""
    partitions = rng.uniform(0.0, 1.0, size=(v, k, n))
    rotations = np.linalg.qr(rng.standard_normal((v, k, k)))[0]
    return partitions, rotations


def _alignment_sum(partitions, rotations, beta):
    """sum_v beta_v partitions[v].T @ rotations[v], one view at a time."""
    k, n = partitions[0].shape
    u = np.zeros((n, k))
    for b, hm, w in zip(beta, partitions, rotations):
        u += b * (hm.T @ w)
    return u


# ---------------------------------------------------------------------------
# consensus


def test_consensus_is_row_orthonormal():
    rng = np.random.default_rng(31)
    partitions, rotations = _random_views(rng, v=3)
    h, degenerate = update_consensus(partitions, rotations, [0.5, 0.3, 0.2])
    assert not degenerate
    assert np.allclose(h @ h.T, np.eye(3), atol=1e-12)


def test_consensus_beats_random_orthonormal_candidates():
    # Monte-Carlo optimality check: no sampled feasible point should attain a
    # larger alignment trace than the closed-form solution.
    rng = np.random.default_rng(37)
    partitions, rotations = _random_views(rng, v=2)
    beta = np.array([0.6, 0.8])
    h, _ = update_consensus(partitions, rotations, beta)
    u = _alignment_sum(partitions, rotations, beta)
    best = float(np.sum(h * u.T))
    for _ in range(2000):
        cand = _row_orthonormal(rng, 3, 20)
        assert float(np.sum(cand * u.T)) <= best + 1e-9


def test_consensus_recovers_single_aligned_view_exactly():
    # One row-orthonormal view with identity rotation: the view is feasible
    # and attains the trace bound k, so the consensus must equal it.
    rng = np.random.default_rng(41)
    hm = _row_orthonormal(rng, 3, 25)
    h, degenerate = update_consensus(hm[None], np.eye(3)[None], [1.0])
    assert not degenerate
    assert np.allclose(h, hm, atol=1e-10)
    assert np.isclose(float(np.sum(h * hm)), 3.0)


def test_consensus_degenerate_without_fallback_still_orthonormal():
    rng = np.random.default_rng(47)
    partitions, rotations = _random_views(rng)
    h, degenerate = update_consensus(partitions, rotations, [0.0, 0.0])
    assert degenerate
    assert np.allclose(h @ h.T, np.eye(3), atol=1e-12)


def test_consensus_validates_inputs():
    rng = np.random.default_rng(53)
    partitions, rotations = _random_views(rng)
    with pytest.raises(ValueError):
        update_consensus(partitions, rotations[:1], [0.5, 0.5])
    with pytest.raises(ValueError):
        update_consensus(partitions, rotations, [0.5])
    bad = [partitions[0], rng.uniform(size=(3, 21))]  # no stack holds these
    with pytest.raises(ValueError):
        update_consensus(bad, rotations, [0.5, 0.5])
    with pytest.raises(ValueError):
        update_consensus(partitions, [rotations[0], np.eye(4)], [0.5, 0.5])


# ---------------------------------------------------------------------------
# rotation


def _rotation(partition, consensus, beta_v):
    """update_rotation on a one-view stack: that view's (w, degenerate)."""
    w, degenerate = update_rotation(partition[None], consensus, [beta_v])
    return w[0], degenerate[0]


def test_rotation_is_orthonormal_and_beats_random_candidates():
    rng = np.random.default_rng(59)
    partition = rng.uniform(0.0, 1.0, size=(3, 20))
    consensus = _row_orthonormal(rng, 3, 20)
    w, degenerate = _rotation(partition, consensus, 0.7)
    assert not degenerate
    assert np.allclose(w @ w.T, np.eye(3), atol=1e-12)
    best = float(np.sum(partition * (w @ consensus)))
    for _ in range(2000):
        cand = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert float(np.sum(partition * (cand @ consensus))) <= best + 1e-9


def test_rotation_for_self_alignment_is_identity():
    rng = np.random.default_rng(61)
    consensus = _row_orthonormal(rng, 4, 30)
    w, degenerate = _rotation(consensus, consensus, 1.0)
    assert not degenerate
    assert np.allclose(w, np.eye(4), atol=1e-10)


def test_rotation_ignores_positive_weight_scale():
    # beta_v only scales the singular values, never the maximizer.
    rng = np.random.default_rng(67)
    partition = rng.uniform(0.0, 1.0, size=(3, 20))
    consensus = _row_orthonormal(rng, 3, 20)
    w_small, _ = _rotation(partition, consensus, 1e-3)
    w_large, _ = _rotation(partition, consensus, 10.0)
    assert np.allclose(w_small, w_large, atol=1e-10)


def test_rotation_flags_zero_weight_as_degenerate():
    rng = np.random.default_rng(71)
    partition = rng.uniform(0.0, 1.0, size=(3, 20))
    consensus = _row_orthonormal(rng, 3, 20)
    _, degenerate = _rotation(partition, consensus, 0.0)
    assert degenerate


def test_rotation_validates_shapes():
    with pytest.raises(ValueError):
        update_rotation(np.ones((1, 3, 20)), np.ones((3, 21)), [1.0])


# ---------------------------------------------------------------------------
# the view stacks, bit for bit as one view at a time


@pytest.mark.parametrize("n", [20, 300])
@pytest.mark.parametrize("k", [3, 5, 12])
def test_stacked_blocks_equal_one_view_at_a_time_bit_for_bit(k, n):
    # the fit's shapes; the zero weight makes the middle view's rotation degenerate
    rng = np.random.default_rng(101 + k + n)
    partitions, rotations = _random_views(rng, k=k, n=n, v=3)
    consensus = np.ascontiguousarray(_row_orthonormal(rng, k, n))  # C order, as in a fit
    beta = np.array([0.6, 0.0, 0.8])

    w, degenerate = update_rotation(partitions, consensus, beta)
    for v, (hm, b) in enumerate(zip(partitions, beta)):
        h_v, degenerate_v = procrustes_max(b * (hm @ consensus.T))
        assert w[v].tobytes() == h_v.T.tobytes()
        assert degenerate[v] == degenerate_v
    assert degenerate.tolist() == [False, True, False]

    h, consensus_degenerate = update_consensus(partitions, rotations, beta)
    h_seq, degenerate_seq = procrustes_max(_alignment_sum(partitions, rotations, beta))
    assert h.tobytes() == h_seq.tobytes() and consensus_degenerate == degenerate_seq

    _, traces = update_beta(partitions, rotations, consensus)
    sequential = [float(np.sum(hm * (w_v @ consensus))) for hm, w_v in zip(partitions, rotations)]
    assert traces.tobytes() == np.array(sequential).tobytes()


# ---------------------------------------------------------------------------
# alpha


def test_alpha_inverse_loss_two_views():
    assert np.allclose(update_alpha([1.0, 3.0]), [0.75, 0.25])


def test_alpha_satisfies_stationarity():
    # At the constrained minimum of sum alpha^2 loss the products alpha_v
    # loss_v are all equal (the shared Lagrange multiplier).
    rng = np.random.default_rng(73)
    losses = rng.uniform(0.2, 5.0, size=6)
    alpha = update_alpha(losses)
    assert np.isclose(alpha.sum(), 1.0, atol=1e-15)
    assert np.all(alpha > 0)
    products = alpha * losses
    assert np.allclose(products, products[0], rtol=1e-12)


def test_alpha_beats_simplex_grid():
    losses = np.array([0.7, 2.1])
    alpha = update_alpha(losses)
    best = float(np.sum(alpha**2 * losses))
    for a0 in np.arange(0.0, 1.0 + 1e-9, 1e-3):
        cand = np.array([a0, 1.0 - a0])
        assert float(np.sum(cand**2 * losses)) >= best - 1e-12


def test_alpha_gives_zero_loss_views_all_weight():
    assert np.allclose(update_alpha([0.0, 2.0]), [1.0, 0.0])
    assert np.allclose(update_alpha([0.0, 0.0, 5.0]), [0.5, 0.5, 0.0])


@pytest.mark.parametrize("nviews", [2, 3])
def test_alpha_is_uniform_when_every_view_reconstructs_exactly(nviews):
    # every alpha scores 0 then, so the uniform one is a minimizer
    assert np.array_equal(update_alpha(np.zeros(nviews)), np.full(nviews, 1.0 / nviews))


def test_alpha_leaves_a_non_finite_loss_to_the_objective():
    # no check here: the sweep's losses are finite, and a non-finite one
    # makes the objective NaN, which the fit's record check rejects
    assert np.array_equal(update_alpha([0.0, 0.0]), [0.5, 0.5])
    for losses, alpha in (([1.0, np.inf], [1.0, 0.0]), ([1.0, np.nan], [0.0, 1.0])):
        assert np.array_equal(update_alpha(losses), alpha)
        with np.errstate(invalid="ignore"):
            assert np.isnan(objective(losses, [1.0, 1.0], alpha, [0.6, 0.8], 1.0))


# ---------------------------------------------------------------------------
# beta


def _beta_fixture(traces):
    """Views engineered so view v's alignment trace equals traces[v]."""
    consensus = np.array([[1.0, 0.0]])
    partitions = np.array([[[t, 0.0]] for t in traces])
    rotations = np.ones((len(traces), 1, 1))
    return partitions, rotations, consensus


def test_beta_normalizes_positive_traces():
    partitions, rotations, consensus = _beta_fixture([3.0, 4.0])
    beta, traces = update_beta(partitions, rotations, consensus)
    assert np.allclose(beta, [0.6, 0.8])
    assert np.array_equal(traces, [3.0, 4.0])


def test_beta_clamps_negative_traces():
    partitions, rotations, consensus = _beta_fixture([-1.0, 1.0])
    beta, traces = update_beta(partitions, rotations, consensus)
    assert np.allclose(beta, [0.0, 1.0])
    assert np.array_equal(traces, [-1.0, 1.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("traces, expected", [
    ([-1.0, -2.0], [1.0, 0.0]),
    ([-3.0, -2.0, -5.0], [0.0, 1.0, 0.0]),
    ([-1.0, 0.0], [0.0, 1.0]),
    ([-2.0, -2.0], [1.0, 0.0]),  # a tie goes to the first view
], ids=["first-best", "middle-best", "zero-trace-best", "tie"])
def test_beta_puts_all_weight_on_the_best_trace_when_nothing_aligns(traces, expected):
    partitions, rotations, consensus = _beta_fixture(traces)
    beta, f = update_beta(partitions, rotations, consensus)
    assert np.array_equal(beta, expected)
    assert np.array_equal(f, traces)


def test_beta_has_unit_norm_on_random_views():
    rng = np.random.default_rng(79)
    partitions, rotations = _random_views(rng, v=4)
    consensus = _row_orthonormal(rng, 3, 20)
    beta, _ = update_beta(partitions, rotations, consensus)
    assert np.isclose(np.linalg.norm(beta), 1.0, atol=1e-12)
    assert np.all(beta >= 0)


def test_beta_beats_unit_circle_grid():
    # For two views the feasible set is the first-quadrant arc; a fine sweep
    # of it must not beat the beta step, whatever the signs of the traces.
    for traces in ([3.0, 4.0], [-1.0, 2.0], [-1.0, -2.0], [-2.0, -1.0]):
        partitions, rotations, consensus = _beta_fixture(traces)
        beta, f = update_beta(partitions, rotations, consensus)
        assert np.array_equal(f, traces)
        best = float(beta @ f)
        for theta in np.arange(0.0, np.pi / 2 + 1e-9, 1e-3):
            cand = np.array([np.cos(theta), np.sin(theta)])
            assert float(cand @ f) <= best + 1e-12


# ---------------------------------------------------------------------------
# objective


def _exact_view(rng, d, k, n):
    """(x, basis, h) of a perfect one-layer factorization with a row-orthonormal partition."""
    # Disjoint non-negative rows scaled to unit norm are row-orthonormal.
    h = np.zeros((k, n))
    for i in range(k):
        cols = slice(i * (n // k), (i + 1) * (n // k))
        h[i, cols] = 1.0
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    z = rng.standard_normal((d, k))
    return z @ h, z, h


def test_objective_pure_alignment_equals_minus_lam_k():
    rng = np.random.default_rng(83)
    x, basis, h = _exact_view(rng, d=8, k=3, n=24)
    lam = 0.7
    losses = [reconstruction_loss(x, basis, h)]
    _, traces = update_beta(h[None], np.eye(3)[None], h.copy())
    got = objective(losses, traces, np.array([1.0]), np.array([1.0]), lam)
    assert np.isclose(got, -lam * 3.0, atol=1e-12)


def test_objective_matches_term_by_term_recomputation():
    rng = np.random.default_rng(89)
    views = []
    for d in (10, 14):
        z = [rng.standard_normal((d, 5)), rng.standard_normal((5, 3))]
        h = [rng.uniform(0.05, 1.0, size=(5, 20)), rng.uniform(0.05, 1.0, size=(3, 20))]
        x = rng.standard_normal((d, 20))
        views.append((x, z[0] @ z[1], h[1]))
    consensus = _row_orthonormal(rng, 3, 20)
    rotations = np.linalg.qr(rng.standard_normal((2, 3, 3)))[0]
    alpha, beta = np.array([0.3, 0.7]), np.array([0.6, 0.8])
    lam = 1.3
    expected = 0.0
    for a, b, w, (x, basis, hm) in zip(alpha, beta, rotations, views):
        recon = np.linalg.norm(x - basis @ hm, "fro") ** 2
        align = np.trace(hm.T @ w @ consensus)
        expected += a * a * recon - lam * b * align
    losses = [reconstruction_loss(*view) for view in views]
    _, traces = update_beta(np.stack([hm for _, _, hm in views]), rotations, consensus)
    assert np.isclose(objective(losses, traces, alpha, beta, lam), expected, rtol=1e-12)

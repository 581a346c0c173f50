from functools import reduce

import numpy as np
import pytest

from conftest import _row_orthonormal
from mvfuse.data import generate_synthetic, normalize
from mvfuse.deep import (
    fix_partition_gauge,
    pretrain_view,
    reconstruction_loss,
    sweep_view,
    update_basis,
    update_hidden,
    update_partition,
    validate_layer_dims,
)
from mvfuse.metrics import accuracy, kmeans
from mvfuse.seminmf import fit_layer


def _random_chain(rng, d=16, dims=(8, 3), n=40):
    """Generic view and factor chain: gaussian bases, uniform non-negative representations."""
    widths = [d, *dims]
    z = [rng.standard_normal((widths[i], widths[i + 1])) for i in range(len(dims))]
    h = [rng.uniform(0.05, 1.0, size=(w, n)) for w in dims]
    x = rng.standard_normal((d, n))
    return x, z, h


def _random_view(rng, d=16, dims=(8, 3), n=40):
    """(x, basis, h) of a generic chain: its bases folded into one, and its last representation."""
    x, z, h = _random_chain(rng, d, dims, n)
    return x, reduce(np.matmul, z), h[-1]


def _subproblem_value(x, basis, h, consensus, rotation, alpha_v, beta_v, lam):
    """alpha^2 reconstruction - lam beta alignment: what the partition step descends."""
    align = float(np.sum(h * (rotation @ consensus)))
    return alpha_v**2 * reconstruction_loss(x, basis, h) - lam * beta_v * align


# ---------------------------------------------------------------------------
# layer dims


def test_validate_layer_dims_accepts_good_schemes():
    assert validate_layer_dims([12, 3], 3, [40, 60, 80], 300) == [12, 3]
    assert validate_layer_dims([3], 3, [40], 300) == [3]
    assert validate_layer_dims([24, 12, 3], 3, [40, 60], 300) == [24, 12, 3]


def test_validate_layer_dims_rejects_bad_schemes():
    with pytest.raises(ValueError):
        validate_layer_dims([12, 4], 3, [40], 300)  # last != k
    with pytest.raises(ValueError):
        validate_layer_dims([3, 12], 12, [40], 300)  # increasing
    with pytest.raises(ValueError):
        validate_layer_dims([3, 3], 3, [40], 300)  # not strictly decreasing
    with pytest.raises(ValueError):
        validate_layer_dims([60, 3], 3, [40, 80], 300)  # wider than a view
    with pytest.raises(ValueError):
        validate_layer_dims([12, 3], 3, [40], 10)  # wider than sample count
    with pytest.raises(ValueError):
        validate_layer_dims([], 3, [40], 300)


# ---------------------------------------------------------------------------
# pretraining


def test_pretrain_single_layer_equals_fit_layer():
    rng = np.random.default_rng(201)
    x = rng.standard_normal((12, 30))
    h = pretrain_view(x, [4], iters=25, seeds=[11])
    assert isinstance(h, np.ndarray)
    assert np.array_equal(h, fit_layer(x, 4, iters=25, seed=11))


@pytest.mark.parametrize("dims", [[4], [8, 4], [10, 6, 3]])
def test_pretrain_returns_the_last_representation_of_the_layer_chain(dims):
    x = np.random.default_rng(202).standard_normal((14, 32))
    seeds = [11 + j for j in range(len(dims))]
    got = pretrain_view(x, dims, iters=10, seeds=seeds)
    h = x
    for width, seed in zip(dims, seeds):
        h = fit_layer(h, width, iters=10, seed=seed)
    assert np.array_equal(got, h)


def test_pretrain_shapes_and_nonnegativity():
    rng = np.random.default_rng(203)
    x = rng.standard_normal((20, 50))
    h = pretrain_view(x, [10, 6, 3], iters=10, seeds=[0, 1, 2])
    assert h.shape == (3, 50)
    assert h.min() >= 0


def test_pretrain_recovers_planted_clusters():
    # The overcomplete first layer needs genuine rank-(k + nuisance_dim)
    # structure to latch onto, so the planted data carries a strong private
    # nuisance subspace; the first layer absorbs it, the second strips it.
    ds = generate_synthetic(n=300, k=3, view_dims=[40], noise_sigma=0.05,
                            seed=105, nuisance_dim=9, nuisance_scale=2.8)
    x = normalize(ds.views[0], "l2-sample")
    h = pretrain_view(x, [12, 3], iters=200, seeds=[5, 6])
    labels = kmeans(h.T, 3, restarts=10, seed=0)
    assert accuracy(labels, ds.truth) >= 0.9


def test_pretrain_depth_beats_shallow_on_nuisance_data():
    ds = generate_synthetic(n=300, k=3, view_dims=[40], noise_sigma=0.05,
                            seed=105, nuisance_dim=9, nuisance_scale=2.8)
    x = normalize(ds.views[0], "l2-sample")
    deep = pretrain_view(x, [12, 3], iters=200, seeds=[5, 6])
    shallow = pretrain_view(x, [3], iters=200, seeds=[5])
    acc_deep = accuracy(kmeans(deep.T, 3, restarts=10, seed=0), ds.truth)
    acc_shallow = accuracy(kmeans(shallow.T, 3, restarts=10, seed=0), ds.truth)
    assert acc_deep > acc_shallow


def test_pretrain_deterministic():
    rng = np.random.default_rng(207)
    x = rng.standard_normal((15, 35))
    a = pretrain_view(x, [6, 2], iters=15, seeds=[4, 5])
    b = pretrain_view(x, [6, 2], iters=15, seeds=[4, 5])
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seeds", [[4], [4, 5, 6]])
def test_pretrain_takes_one_seed_per_layer(seeds):
    x = np.random.default_rng(209).standard_normal((15, 35))
    with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is (shorter|longer) than argument 1$"):
        pretrain_view(x, [6, 2], iters=1, seeds=seeds)


# ---------------------------------------------------------------------------
# basis refit


def test_update_basis_identity_system():
    n = 5
    assert np.allclose(update_basis(np.eye(n), np.eye(n)), np.eye(n), atol=1e-12)


def test_update_basis_matches_normal_equations_single_layer():
    rng = np.random.default_rng(211)
    x = rng.standard_normal((10, 30))
    h = rng.uniform(0.1, 1.0, size=(4, 30))
    z = update_basis(x, h)
    z_ne = np.linalg.solve(h @ h.T, h @ x.T).T  # normal equations, full-rank h
    assert np.linalg.norm(z - z_ne) <= 1e-8


def test_update_basis_never_increases_reconstruction_loss():
    rng = np.random.default_rng(217)
    for _ in range(100):
        depth = int(rng.integers(1, 4))
        dims = sorted(rng.choice(np.arange(2, 9), size=depth, replace=False))[::-1]
        x, basis, h = _random_view(rng, d=12, dims=tuple(int(v) for v in dims), n=20)
        before = reconstruction_loss(x, basis, h)
        assert reconstruction_loss(x, update_basis(x, h), h) <= before + 1e-9


def test_update_basis_first_order_optimality():
    rng = np.random.default_rng(219)
    x, _, h = _random_view(rng, d=10, dims=(5, 3), n=22)
    basis = update_basis(x, h)
    base = reconstruction_loss(x, basis, h)
    for _ in range(20):
        step = rng.standard_normal(basis.shape)
        step *= 1e-3 / np.linalg.norm(step)
        assert reconstruction_loss(x, basis + step, h) >= base - 1e-10


# ---------------------------------------------------------------------------
# representation steps


def test_update_hidden_fixed_point_when_exact():
    rng = np.random.default_rng(227)
    _, basis, h = _random_view(rng, d=14, dims=(6, 3), n=30)
    x = basis @ h  # the h_m subproblem is exactly solved
    assert np.allclose(update_hidden(x, basis, h), h, rtol=1e-9, atol=1e-12)


def test_update_hidden_monotone_and_nonnegative():
    rng = np.random.default_rng(229)
    for _ in range(20):
        x, phi, h = _random_view(rng, d=12, dims=(5, 2), n=25)
        before = float(np.sum((x - phi @ h) ** 2))
        for _ in range(50):
            h = update_hidden(x, phi, h)
            after = float(np.sum((x - phi @ h) ** 2))
            assert after <= before + 1e-8
            assert h.min() >= 0
            before = after


def test_update_partition_reduces_to_plain_step_without_alignment():
    from mvfuse.seminmf import multiplicative_step

    rng = np.random.default_rng(233)
    x, basis, h = _random_view(rng, d=12, dims=(6, 3), n=28)
    consensus = _row_orthonormal(rng, 3, 28)
    rotation = np.eye(3)
    got = update_partition(x, basis, h, consensus, rotation, alpha_v=1.0, beta_v=0.7, lam=0.0)
    plain = multiplicative_step(x, basis, h)
    # identical up to the denominator guard, which the alpha^2 factor rescales
    assert np.allclose(got, plain, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("lam", [0.0, 0.75])
def test_update_partition_equals_the_inline_aligned_rule(lam):
    """The weighted, pulled multiplicative step is the partition rule written
    out term by term, in the same order of operations, bit for bit."""
    from mvfuse.linalg import neg_part, pos_part
    from mvfuse.seminmf import EPS

    rng = np.random.default_rng(235)
    x, phi, hm = _random_view(rng, d=12, dims=(6, 3), n=28)
    consensus = _row_orthonormal(rng, 3, 28)
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    alpha_v, beta_v = 0.37, 0.61
    a, gram, wh = phi.T @ x, phi.T @ phi, rotation @ consensus
    a2, lb = 2.0 * alpha_v * alpha_v, lam * beta_v
    num = a2 * (pos_part(a) + neg_part(gram) @ hm) + lb * pos_part(wh)
    den = a2 * (neg_part(a) + pos_part(gram) @ hm) + lb * neg_part(wh) + EPS
    got = update_partition(x, phi, hm, consensus, rotation, alpha_v, beta_v, lam)
    assert np.array_equal(got, hm * np.sqrt(num / den))


def test_update_partition_monotone_on_joint_subproblem():
    rng = np.random.default_rng(239)
    for _ in range(20):
        x, basis, h = _random_view(rng, d=12, dims=(6, 3), n=24)
        consensus = _row_orthonormal(rng, 3, 24)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        alpha_v = float(rng.uniform(0.2, 0.8))
        beta_v = float(rng.uniform(0.2, 0.9))
        lam = float(rng.uniform(0.1, 4.0))
        before = _subproblem_value(x, basis, h, consensus, q, alpha_v, beta_v, lam)
        for _ in range(50):
            h = update_partition(x, basis, h, consensus, q, alpha_v, beta_v, lam)
            after = _subproblem_value(x, basis, h, consensus, q, alpha_v, beta_v, lam)
            assert after <= before + 1e-8
            assert h.min() >= 0
            before = after


def test_update_partition_keeps_zero_entries():
    rng = np.random.default_rng(241)
    x, basis, h = _random_view(rng, d=10, dims=(5, 3), n=20)
    h[1, :] = 0.0
    consensus = _row_orthonormal(rng, 3, 20)
    got = update_partition(x, basis, h, consensus, np.eye(3), 0.5, 0.5, 1.0)
    assert np.array_equal(got[1, :], np.zeros(20))


def test_update_partition_rejects_negative_lam():
    rng = np.random.default_rng(243)
    x, basis, h = _random_view(rng)
    consensus = _row_orthonormal(rng, 3, 40)
    with pytest.raises(ValueError):
        update_partition(x, basis, h, consensus, np.eye(3), 0.5, 0.5, -1.0)


# ---------------------------------------------------------------------------
# reconstruction loss


def test_reconstruction_loss_exact_factorization_is_zero():
    rng = np.random.default_rng(247)
    z1 = rng.standard_normal((10, 6))
    z2 = rng.standard_normal((6, 3))
    h = rng.uniform(0.1, 1.0, size=(3, 20))
    x = z1 @ z2 @ h
    assert reconstruction_loss(x, z1 @ z2, h) == 0.0


def test_reconstruction_loss_zero_factors():
    rng = np.random.default_rng(251)
    x = rng.standard_normal((8, 15))
    assert reconstruction_loss(x, np.zeros((8, 3)), np.zeros((3, 15))) == pytest.approx(float(np.sum(x * x)), abs=1e-18)


def test_reconstruction_loss_matches_direct_recomputation():
    rng = np.random.default_rng(253)
    x, basis, h = _random_view(rng, d=9, dims=(4, 2), n=17)
    direct = float(np.linalg.norm(x - basis @ h) ** 2)
    assert abs(reconstruction_loss(x, basis, h) - direct) <= 1e-10 * max(1.0, direct)


def test_reconstruction_loss_is_the_plain_sum_bit_for_bit_and_leaves_factors_alone():
    rng = np.random.default_rng(257)
    for depth, layout in [(1, "C"), (2, "C"), (3, "C"), (2, "F"), (3, "F")]:
        dims = (9, 5, 2)[-depth:]
        x, basis, h = _random_view(rng, d=13, dims=dims, n=31)
        x = np.asarray(x, order=layout)
        before = [x.copy(), basis.copy(), h.copy()]
        expected = float(np.sum((x - basis @ h) ** 2))
        assert reconstruction_loss(x, basis, h) == expected
        for old, new in zip(before, [x, basis, h]):
            assert np.array_equal(old, new)


# ---------------------------------------------------------------------------
# full sweep


def _manual_deep_sweep(x, zs, hs, eps=1e-10):
    """Independent single-view sweep: per layer the exact basis refit, then the
    multiplicative representation step (applied at every layer, last included),
    closing with the unit-row rescale of the partition."""
    zs, hs = [z.copy() for z in zs], [h.copy() for h in hs]
    for i in range(len(zs)):
        chain = hs[-1]
        for z in reversed(zs[i + 1 :]):
            chain = z @ chain
        left = None
        for z in zs[:i]:
            left = z if left is None else left @ z
        if left is None:
            zs[i] = x @ np.linalg.pinv(chain)
        else:
            zs[i] = np.linalg.pinv(left) @ x @ np.linalg.pinv(chain)
        phi = zs[i] if left is None else left @ zs[i]
        a, b = phi.T @ x, phi.T @ phi
        ap, an = (np.abs(a) + a) / 2, (np.abs(a) - a) / 2
        bp, bn = (np.abs(b) + b) / 2, (np.abs(b) - b) / 2
        if i < len(zs) - 1:
            hs[i] = hs[i] * np.sqrt((ap + bn @ hs[i]) / (an + bp @ hs[i] + eps))
    # last-layer step with the alignment term switched off
    hs[-1] = hs[-1] * np.sqrt((ap + bn @ hs[-1]) / (an + bp @ hs[-1] + eps))
    hs[-1] = hs[-1] / np.linalg.norm(hs[-1], axis=1, keepdims=True)
    return zs, hs


def test_sweep_without_alignment_is_a_deep_seminmf_sweep():
    rng = np.random.default_rng(257)
    x, z, h = _random_chain(rng, d=14, dims=(7, 3), n=30)
    consensus = _row_orthonormal(rng, 3, 30)
    zs, hs = _manual_deep_sweep(x, z, h)
    swept = sweep_view(x, h[-1], consensus, np.eye(3), alpha_v=1.0, beta_v=0.4, lam=0.0)
    # the sweep's one basis is the product of the oracle's bases
    for got, want in zip(swept, [reduce(np.matmul, zs), hs[-1]], strict=True):
        assert np.allclose(got, want, rtol=1e-7, atol=1e-9)


# ---------------------------------------------------------------------------
# partition gauge


def test_gauge_fix_unit_rows_and_direction_preserved():
    rng = np.random.default_rng(263)
    _, _, h = _random_view(rng, d=10, dims=(5, 3), n=20)
    before = h.copy()
    fixed = fix_partition_gauge(h)
    norms = np.linalg.norm(fixed, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # pure rescale per row, input untouched
    ratios = before / fixed
    assert np.allclose(ratios, ratios[:, :1], rtol=1e-12)
    assert np.array_equal(h, before)


def test_gauge_fix_leaves_zero_rows_alone():
    rng = np.random.default_rng(267)
    _, _, h = _random_view(rng, d=10, dims=(5, 3), n=20)
    h[1] = 0.0
    fixed = fix_partition_gauge(h)
    assert np.array_equal(fixed[1], np.zeros(20))
    assert np.allclose(np.linalg.norm(fixed[[0, 2]], axis=1), 1.0)


def test_gauge_fix_rejects_collapsed_or_diverged_partitions():
    from mvfuse.linalg import NumericalError

    rng = np.random.default_rng(269)
    _, _, h = _random_view(rng, d=10, dims=(5, 3), n=20)
    h[:] = 0.0
    with pytest.raises(NumericalError):
        fix_partition_gauge(h)
    h[:] = 1.0
    h[0, 0] = np.inf
    with pytest.raises(NumericalError):
        fix_partition_gauge(h)


def test_sweep_leaves_partition_rows_unit():
    rng = np.random.default_rng(271)
    x, _, h = _random_view(rng, d=14, dims=(7, 3), n=30)
    consensus = _row_orthonormal(rng, 3, 30)
    _, h = sweep_view(x, h, consensus, np.eye(3), 0.6, 0.5, 0.8)
    assert np.allclose(np.linalg.norm(h, axis=1), 1.0, atol=1e-12)

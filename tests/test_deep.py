import numpy as np
import pytest

from conftest import _row_orthonormal
from mvfuse.data import generate_synthetic, normalize
from mvfuse.deep import (
    ViewFactorization,
    _product,
    fix_partition_gauge,
    pretrain_view,
    reconstruction_loss,
    sweep_view,
    update_basis,
    update_hidden,
    update_partition,
    validate_layer_dims,
)
from mvfuse.linalg import pinv
from mvfuse.metrics import accuracy, kmeans
from mvfuse.pipeline import HyperParams, init_state
from mvfuse.seminmf import fit_layer, gram_refit, refit_basis


def _random_vf(rng, d=16, dims=(8, 3), n=40):
    """Generic factor stack: gaussian bases, uniform non-negative representations."""
    widths = [d, *dims]
    z = [rng.standard_normal((widths[i], widths[i + 1])) for i in range(len(dims))]
    h = [rng.uniform(0.05, 1.0, size=(w, n)) for w in dims]
    x = rng.standard_normal((d, n))
    return ViewFactorization(x=x, z=z, h=h)


def _subproblem_value(vf, consensus, rotation, alpha_v, beta_v, lam):
    """alpha^2 reconstruction - lam beta alignment: what the partition step descends."""
    align = float(np.sum(vf.h[-1] * (rotation @ consensus)))
    return alpha_v**2 * reconstruction_loss(vf) - lam * beta_v * align


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
    vf = pretrain_view(x, [4], iters=25, seeds=[11])
    direct = fit_layer(x, 4, iters=25, seed=11)
    assert np.array_equal(vf.z[0], direct.z)
    assert np.array_equal(vf.h[0], direct.h)


def test_pretrain_shapes_and_nonnegativity():
    rng = np.random.default_rng(203)
    x = rng.standard_normal((20, 50))
    vf = pretrain_view(x, [10, 6, 3], iters=10, seeds=[0, 1, 2])
    assert [z.shape for z in vf.z] == [(20, 10), (10, 6), (6, 3)]
    assert [h.shape for h in vf.h] == [(10, 50), (6, 50), (3, 50)]
    assert all(h.min() >= 0 for h in vf.h)


def test_pretrain_recovers_planted_clusters():
    # The overcomplete first layer needs genuine rank-(k + nuisance_dim)
    # structure to latch onto, so the planted data carries a strong private
    # nuisance subspace; the first layer absorbs it, the second strips it.
    ds = generate_synthetic(n=300, k=3, view_dims=[40], noise_sigma=0.05,
                            seed=105, nuisance_dim=9, nuisance_scale=2.8)
    x = normalize(ds.views[0], "l2-sample")
    vf = pretrain_view(x, [12, 3], iters=200, seeds=[5, 6])
    labels = kmeans(vf.h[-1].T, 3, restarts=10, seed=0)
    assert accuracy(labels, ds.truth) >= 0.9


def test_pretrain_depth_beats_shallow_on_nuisance_data():
    ds = generate_synthetic(n=300, k=3, view_dims=[40], noise_sigma=0.05,
                            seed=105, nuisance_dim=9, nuisance_scale=2.8)
    x = normalize(ds.views[0], "l2-sample")
    deep = pretrain_view(x, [12, 3], iters=200, seeds=[5, 6])
    shallow = pretrain_view(x, [3], iters=200, seeds=[5])
    acc_deep = accuracy(kmeans(deep.h[-1].T, 3, restarts=10, seed=0), ds.truth)
    acc_shallow = accuracy(kmeans(shallow.h[-1].T, 3, restarts=10, seed=0), ds.truth)
    assert acc_deep > acc_shallow


def test_pretrain_deterministic():
    rng = np.random.default_rng(207)
    x = rng.standard_normal((15, 35))
    a = pretrain_view(x, [6, 2], iters=15, seeds=[4, 5])
    b = pretrain_view(x, [6, 2], iters=15, seeds=[4, 5])
    assert all(np.array_equal(p, q) for p, q in zip(a.z, b.z))
    assert all(np.array_equal(p, q) for p, q in zip(a.h, b.h))


@pytest.mark.parametrize("seeds", [[4], [4, 5, 6]])
def test_pretrain_takes_one_seed_per_layer(seeds):
    x = np.random.default_rng(209).standard_normal((15, 35))
    with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is (shorter|longer) than argument 1$"):
        pretrain_view(x, [6, 2], iters=1, seeds=seeds)


# ---------------------------------------------------------------------------
# basis refit


def test_update_basis_identity_system():
    n = 5
    vf = ViewFactorization(x=np.eye(n), z=[np.zeros((n, n))], h=[np.eye(n)])
    assert np.allclose(update_basis(vf, 0), np.eye(n), atol=1e-12)


def test_update_basis_matches_normal_equations_single_layer():
    rng = np.random.default_rng(211)
    x = rng.standard_normal((10, 30))
    h = rng.uniform(0.1, 1.0, size=(4, 30))
    vf = ViewFactorization(x=x, z=[np.zeros((10, 4))], h=[h])
    z = update_basis(vf, 0)
    z_ne = np.linalg.solve(h @ h.T, h @ x.T).T  # normal equations, full-rank h
    assert np.linalg.norm(z - z_ne) <= 1e-8


def test_update_basis_matches_normal_equations_inner_layer():
    rng = np.random.default_rng(213)
    vf = _random_vf(rng, d=12, dims=(6, 3), n=25)
    z = update_basis(vf, 1)
    left, right = vf.z[0], vf.h[-1]
    # (left^T left) z (right right^T) = left^T x right^T, both gram factors full rank
    tmp = np.linalg.solve(left.T @ left, left.T @ vf.x @ right.T)
    z_ne = np.linalg.solve((right @ right.T).T, tmp.T).T
    assert np.linalg.norm(z - z_ne) <= 1e-8


def test_update_basis_never_increases_reconstruction_loss():
    rng = np.random.default_rng(217)
    for _ in range(100):
        depth = int(rng.integers(1, 4))
        dims = sorted(rng.choice(np.arange(2, 9), size=depth, replace=False))[::-1]
        vf = _random_vf(rng, d=12, dims=tuple(int(v) for v in dims), n=20)
        i = int(rng.integers(depth))
        before = reconstruction_loss(vf)
        vf.z[i] = update_basis(vf, i)
        assert reconstruction_loss(vf) <= before + 1e-9


def test_update_basis_first_order_optimality():
    rng = np.random.default_rng(219)
    vf = _random_vf(rng, d=10, dims=(5, 3), n=22)
    for i in range(2):
        vf.z[i] = update_basis(vf, i)
        base = reconstruction_loss(vf)
        for _ in range(20):
            step = rng.standard_normal(vf.z[i].shape)
            step *= 1e-3 / np.linalg.norm(step)
            probe = ViewFactorization(x=vf.x, z=list(vf.z), h=list(vf.h))
            probe.z = list(vf.z)
            probe.z[i] = vf.z[i] + step
            assert reconstruction_loss(probe) >= base - 1e-10


def _basis_oracle(vf, i):
    """pinv(z_1..z_{i-1}) x pinv(z_{i+1}..z_m h_m), the refit's closed form."""
    chain = vf.h[-1]
    for z in reversed(vf.z[i + 1 :]):
        chain = z @ chain
    out = vf.x @ pinv(chain)
    if i == 0:
        return out
    left = vf.z[0]
    for z in vf.z[1:i]:
        left = left @ z
    return pinv(left) @ out


@pytest.mark.parametrize("dims", [(7, 3), (9, 6, 3)])
def test_update_basis_equals_the_pinv_oracle_through_small_grams(pinv_calls, dims):
    rng = np.random.default_rng(221)
    for _ in range(5):
        vf = _random_vf(rng, d=14, dims=dims, n=35)
        widths = [14, *dims]
        for i in range(len(dims)):
            got = update_basis(vf, i)
            expect = _basis_oracle(vf, i)
            assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)
            vf.z[i] = got
    # only the tall left factors z_1..z_{i-1} take an SVD
    assert set(pinv_calls) == {(14, widths[i]) for i in range(1, len(dims))}


@pytest.mark.parametrize("defect", ["zero partition row", "rank-deficient inner basis"])
@pytest.mark.parametrize("dims", [(7, 3), (9, 6, 3)])
def test_update_basis_takes_the_chain_pinv_when_the_split_does_not_hold(pinv_calls, dims, defect):
    rng = np.random.default_rng(222)
    vf = _random_vf(rng, d=14, dims=dims, n=35)
    if defect == "zero partition row":
        vf.h[-1][1] = 0.0
    else:
        vf.z[-1][:, 2] = vf.z[-1][:, 0]  # A = z_{i+1}..z_m loses full column rank
    got = update_basis(vf, 0)
    assert pinv_calls == [(dims[0], 35)]  # the l x n chain itself
    expect = _basis_oracle(vf, 0)
    assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)


@pytest.mark.parametrize("zero_row", [False, True])
@pytest.mark.parametrize("dims", [(3,), (7, 3), (9, 6, 3)])
def test_last_basis_refit_is_the_single_layer_refit(pinv_calls, dims, zero_row):
    # the last layer's chain is h_m itself; a zero partition row takes the SVD
    rng = np.random.default_rng(224)
    vf = _random_vf(rng, d=14, dims=dims, n=35)
    if zero_row:
        vf.h[-1][1] = 0.0
    got = update_basis(vf, vf.depth - 1)
    expect = refit_basis(vf.x, vf.h[-1])
    if vf.depth > 1:
        left = vf.z[0]
        for z in vf.z[1:-1]:
            left = left @ z
        expect = pinv(left) @ expect
    assert np.array_equal(got, expect)
    left_pinv = [(14, dims[-2])] if len(dims) > 1 else []
    svd_refits = [(3, 35)] * 2 if zero_row else []  # one in update_basis, one in refit_basis
    assert sorted(pinv_calls) == sorted(svd_refits + left_pinv)


def test_update_basis_rejects_bad_layer():
    rng = np.random.default_rng(223)
    vf = _random_vf(rng)
    with pytest.raises(ValueError):
        update_basis(vf, 2)


# ---------------------------------------------------------------------------
# representation steps


def test_update_hidden_fixed_point_when_exact():
    rng = np.random.default_rng(227)
    vf = _random_vf(rng, d=14, dims=(6, 3), n=30)
    vf.x = vf.z[0] @ vf.h[0]  # layer-0 subproblem is exactly solved
    h_new = update_hidden(vf, 0)
    assert np.allclose(h_new, vf.h[0], rtol=1e-9, atol=1e-12)


def test_update_hidden_monotone_and_nonnegative():
    rng = np.random.default_rng(229)
    for _ in range(20):
        vf = _random_vf(rng, d=12, dims=(5, 2), n=25)
        phi = vf.z[0]
        before = float(np.sum((vf.x - phi @ vf.h[0]) ** 2))
        for _ in range(50):
            vf.h[0] = update_hidden(vf, 0)
            after = float(np.sum((vf.x - phi @ vf.h[0]) ** 2))
            assert after <= before + 1e-8
            assert vf.h[0].min() >= 0
            before = after


def test_update_hidden_rejects_last_layer():
    rng = np.random.default_rng(231)
    vf = _random_vf(rng)
    with pytest.raises(ValueError):
        update_hidden(vf, 1)


def test_update_partition_reduces_to_plain_step_without_alignment():
    from mvfuse.seminmf import multiplicative_step

    rng = np.random.default_rng(233)
    vf = _random_vf(rng, d=12, dims=(6, 3), n=28)
    consensus = _row_orthonormal(rng, 3, 28)
    rotation = np.eye(3)
    got = update_partition(vf, consensus, rotation, alpha_v=1.0, beta_v=0.7, lam=0.0)
    phi = vf.z[0] @ vf.z[1]
    plain = multiplicative_step(vf.x, phi, vf.h[-1])
    # identical up to the denominator guard, which the alpha^2 factor rescales
    assert np.allclose(got, plain, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("lam", [0.0, 0.75])
def test_update_partition_equals_the_inline_aligned_rule(lam):
    """The weighted, pulled multiplicative step is the partition rule written
    out term by term, in the same order of operations, bit for bit."""
    from mvfuse.linalg import neg_part, pos_part
    from mvfuse.seminmf import EPS

    rng = np.random.default_rng(235)
    vf = _random_vf(rng, d=12, dims=(6, 3), n=28)
    consensus = _row_orthonormal(rng, 3, 28)
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    alpha_v, beta_v = 0.37, 0.61
    phi, hm = vf.z[0] @ vf.z[1], vf.h[-1]
    a, gram, wh = phi.T @ vf.x, phi.T @ phi, rotation @ consensus
    a2, lb = 2.0 * alpha_v * alpha_v, lam * beta_v
    num = a2 * (pos_part(a) + neg_part(gram) @ hm) + lb * pos_part(wh)
    den = a2 * (neg_part(a) + pos_part(gram) @ hm) + lb * neg_part(wh) + EPS
    got = update_partition(vf, consensus, rotation, alpha_v, beta_v, lam)
    assert np.array_equal(got, hm * np.sqrt(num / den))


def test_update_partition_monotone_on_joint_subproblem():
    rng = np.random.default_rng(239)
    for _ in range(20):
        vf = _random_vf(rng, d=12, dims=(6, 3), n=24)
        consensus = _row_orthonormal(rng, 3, 24)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        alpha_v = float(rng.uniform(0.2, 0.8))
        beta_v = float(rng.uniform(0.2, 0.9))
        lam = float(rng.uniform(0.1, 4.0))
        before = _subproblem_value(vf, consensus, q, alpha_v, beta_v, lam)
        for _ in range(50):
            vf.h[-1] = update_partition(vf, consensus, q, alpha_v, beta_v, lam)
            after = _subproblem_value(vf, consensus, q, alpha_v, beta_v, lam)
            assert after <= before + 1e-8
            assert vf.h[-1].min() >= 0
            before = after


def test_update_partition_keeps_zero_entries():
    rng = np.random.default_rng(241)
    vf = _random_vf(rng, d=10, dims=(5, 3), n=20)
    vf.h[-1][1, :] = 0.0
    consensus = _row_orthonormal(rng, 3, 20)
    got = update_partition(vf, consensus, np.eye(3), 0.5, 0.5, 1.0)
    assert np.array_equal(got[1, :], np.zeros(20))


def test_update_partition_rejects_negative_lam():
    rng = np.random.default_rng(243)
    vf = _random_vf(rng)
    consensus = _row_orthonormal(rng, 3, 40)
    with pytest.raises(ValueError):
        update_partition(vf, consensus, np.eye(3), 0.5, 0.5, -1.0)


# ---------------------------------------------------------------------------
# reconstruction loss


def test_reconstruction_loss_exact_factorization_is_zero():
    rng = np.random.default_rng(247)
    z1 = rng.standard_normal((10, 6))
    z2 = rng.standard_normal((6, 3))
    h = rng.uniform(0.1, 1.0, size=(3, 20))
    x = z1 @ z2 @ h
    vf = ViewFactorization(x=x, z=[z1, z2], h=[np.ones((6, 20)), h])
    assert reconstruction_loss(vf) == 0.0


def test_reconstruction_loss_zero_factors():
    rng = np.random.default_rng(251)
    x = rng.standard_normal((8, 15))
    vf = ViewFactorization(x=x, z=[np.zeros((8, 3))], h=[np.zeros((3, 15))])
    assert reconstruction_loss(vf) == pytest.approx(float(np.sum(x * x)), abs=1e-18)


def test_reconstruction_loss_matches_direct_recomputation():
    rng = np.random.default_rng(253)
    vf = _random_vf(rng, d=9, dims=(4, 2), n=17)
    direct = float(np.linalg.norm(vf.x - vf.z[0] @ vf.z[1] @ vf.h[-1]) ** 2)
    assert abs(reconstruction_loss(vf) - direct) <= 1e-10 * max(1.0, direct)


def test_reconstruction_loss_is_the_plain_sum_bit_for_bit_and_leaves_factors_alone():
    rng = np.random.default_rng(257)
    for depth, layout in [(1, "C"), (2, "C"), (3, "C"), (2, "F"), (3, "F")]:
        dims = (9, 5, 2)[-depth:]
        vf = _random_vf(rng, d=13, dims=dims, n=31)
        vf.x = np.asarray(vf.x, order=layout)
        before = [vf.x.copy()] + [a.copy() for a in vf.z + vf.h]
        phi = vf.z[0]
        for z in vf.z[1:]:
            phi = phi @ z
        expected = float(np.sum((vf.x - phi @ vf.h[-1]) ** 2))
        assert reconstruction_loss(vf) == expected
        for old, new in zip(before, [vf.x] + vf.z + vf.h):
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
    vf = _random_vf(rng, d=14, dims=(7, 3), n=30)
    consensus = _row_orthonormal(rng, 3, 30)
    zs, hs = _manual_deep_sweep(vf.x, vf.z, vf.h)
    sweep_view(vf, consensus, np.eye(3), alpha_v=1.0, beta_v=0.4, lam=0.0)
    for got, want in zip(vf.z, zs):
        assert np.allclose(got, want, rtol=1e-7, atol=1e-9)
    for got, want in zip(vf.h, hs):
        assert np.allclose(got, want, rtol=1e-7, atol=1e-9)


# ---------------------------------------------------------------------------
# partition gauge


def test_gauge_fix_unit_rows_and_direction_preserved():
    rng = np.random.default_rng(263)
    vf = _random_vf(rng, d=10, dims=(5, 3), n=20)
    before = vf.h[-1].copy()
    z_before = [z.copy() for z in vf.z]
    fix_partition_gauge(vf)
    norms = np.linalg.norm(vf.h[-1], axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # pure rescale per row, bases untouched
    ratios = before / vf.h[-1]
    assert np.allclose(ratios, ratios[:, :1], rtol=1e-12)
    for z, zb in zip(vf.z, z_before):
        assert np.array_equal(z, zb)


def test_gauge_fix_leaves_zero_rows_alone():
    rng = np.random.default_rng(267)
    vf = _random_vf(rng, d=10, dims=(5, 3), n=20)
    vf.h[-1][1] = 0.0
    fix_partition_gauge(vf)
    assert np.array_equal(vf.h[-1][1], np.zeros(20))
    assert np.allclose(np.linalg.norm(vf.h[-1][[0, 2]], axis=1), 1.0)


def test_gauge_fix_rejects_collapsed_or_diverged_partitions():
    from mvfuse.linalg import NumericalError

    rng = np.random.default_rng(269)
    vf = _random_vf(rng, d=10, dims=(5, 3), n=20)
    vf.h[-1][:] = 0.0
    with pytest.raises(NumericalError):
        fix_partition_gauge(vf)
    vf.h[-1][:] = 1.0
    vf.h[-1][0, 0] = np.inf
    with pytest.raises(NumericalError):
        fix_partition_gauge(vf)


def test_sweep_leaves_partition_rows_unit():
    rng = np.random.default_rng(271)
    vf = _random_vf(rng, d=14, dims=(7, 3), n=30)
    consensus = _row_orthonormal(rng, 3, 30)
    sweep_view(vf, consensus, np.eye(3), 0.6, 0.5, 0.8)
    assert np.allclose(np.linalg.norm(vf.h[-1], axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("zero_row", [False, True])
@pytest.mark.parametrize("dims", [(3,), (7, 3), (9, 6, 3)])
def test_sweep_matches_basis_refits_that_each_recompute_the_partition_terms(dims, zero_row):
    # sweep_view computes gram_refit(x, h_m) once; each refit on its own
    # recomputes it. A zero partition row takes the SVD fallback.
    rng = np.random.default_rng(273)
    for _ in range(3):
        vf = _random_vf(rng, d=14, dims=dims, n=30)
        if zero_row:
            vf.h[-1][1] = 0.0
        consensus = _row_orthonormal(rng, 3, 30)
        rotation = _row_orthonormal(rng, 3, 3)
        alone = ViewFactorization(x=vf.x, z=list(vf.z), h=list(vf.h))
        for i in range(alone.depth):
            alone.z[i] = update_basis(alone, i)
            if i < alone.depth - 1:
                alone.h[i] = update_hidden(alone, i)
        alone.h[-1] = update_partition(alone, consensus, rotation, 0.6, 0.5, 0.8)
        fix_partition_gauge(alone)
        sweep_view(vf, consensus, rotation, 0.6, 0.5, 0.8)
        for got, expect in zip(vf.z + vf.h, alone.z + alone.h):
            assert np.array_equal(got, expect)


@pytest.mark.parametrize("zero_row", [False, True])
@pytest.mark.parametrize("dims", [(7, 3), (9, 6, 3)])
def test_sweep_bases_and_partition_never_read_the_inner_representations(dims, zero_row):
    # Only update_hidden reads an inner h_i, and what it writes nothing else reads.
    rng = np.random.default_rng(275)
    for _ in range(3):
        vf = _random_vf(rng, d=14, dims=dims, n=30)
        if zero_row:
            vf.h[-1][1] = 0.0
        inner = [rng.uniform(0.05, 1.0, size=h.shape) for h in vf.h[:-1]]
        other = ViewFactorization(x=vf.x, z=list(vf.z), h=[*inner, vf.h[-1]])
        consensus = _row_orthonormal(rng, 3, 30)
        rotation = _row_orthonormal(rng, 3, 3)
        for view in (vf, other):
            sweep_view(view, consensus, rotation, 0.6, 0.5, 0.8)
        for got, expect in zip(other.z + other.h[-1:], vf.z + vf.h[-1:], strict=True):
            assert np.array_equal(got, expect)


@pytest.mark.parametrize("data, dims", [("benchmark_dataset", [12, 3]),
                                        ("nuisance_dataset", [24, 12, 3])])
def test_sweep_basis_chain_is_the_single_layer_refit(request, data, dims):
    # Refitting every basis in turn leaves z_1 ... z_m equal to x pinv(h_m).
    views, _ = init_state(request.getfixturevalue(data), HyperParams(lam=1.0, dims=dims))
    for vf in views:
        x_pinv_hm = gram_refit(vf.x, vf.h[-1])
        for i in range(vf.depth):
            vf.z[i] = update_basis(vf, i, x_pinv_hm)
        gap = np.linalg.norm(_product(vf.z) - x_pinv_hm)
        assert gap <= 1e-12 * np.linalg.norm(x_pinv_hm)

import numpy as np
import pytest

import mvfuse.seminmf as seminmf_module
from mvfuse.linalg import GRAM_COND_LIMIT, NumericalError, pinv
from mvfuse.seminmf import fit_layer, init_layer, multiplicative_step, refit_basis, step_products


def _planted(rng, d=20, width=4, n=60):
    z = rng.standard_normal((d, width))
    h = rng.uniform(0.1, 1.0, size=(width, n))  # full row rank w.h.p.
    return z, h, z @ h


def _loss(x, z, h):
    return float(np.sum((x - z @ h) ** 2))


def test_multiplicative_step_fixed_point_at_exact_factorization():
    rng = np.random.default_rng(101)
    z, h, x = _planted(rng)
    h_new = multiplicative_step(step_products(x, z), h)
    # ratio is all-ones up to the denominator guard
    assert np.allclose(h_new, h, rtol=1e-9, atol=1e-12)


def test_multiplicative_step_keeps_zeros_and_sign():
    rng = np.random.default_rng(103)
    z, h, _ = _planted(rng)
    h[2, :] = 0.0
    x = rng.standard_normal((20, 60))
    h_new = multiplicative_step(step_products(x, z), h)
    assert np.all(h_new >= 0)
    assert np.array_equal(h_new[2, :], np.zeros(60))


def test_multiplicative_step_decreases_loss():
    rng = np.random.default_rng(107)
    for _ in range(20):
        x = rng.standard_normal((15, 40))
        z = rng.standard_normal((15, 5))
        h = rng.uniform(0.0, 1.0, size=(5, 40))
        before = _loss(x, z, h)
        for _ in range(50):
            h = multiplicative_step(step_products(x, z), h)
            after = _loss(x, z, h)
            assert after <= before + 1e-9
            before = after


def test_refit_basis_matches_the_svd_refit_on_full_row_rank_h(pinv_calls):
    rng = np.random.default_rng(141)
    for shape in [(3, 40), (12, 300), (5, 5)]:
        x = rng.standard_normal((20, shape[1]))
        h = rng.uniform(0.0, 1.0, size=shape)
        expect = x @ pinv(h)
        got = refit_basis(x, h)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
    assert pinv_calls == []


def test_refit_basis_takes_the_svd_on_a_singular_gram(pinv_calls):
    rng = np.random.default_rng(143)
    x = rng.standard_normal((10, 30))
    h = rng.uniform(0.1, 1.0, size=(4, 30))
    zero_row, repeated = h.copy(), h.copy()
    zero_row[1] = 0.0
    repeated[2] = repeated[0]
    for bad in (zero_row, repeated, np.zeros_like(h)):
        assert np.array_equal(refit_basis(x, bad), x @ pinv(bad))
    assert pinv_calls == [h.shape] * 3


@pytest.mark.parametrize("margin, svd_calls", [(1.01, 0), (0.99, 1)])
def test_refit_basis_path_follows_the_condition_limit(pinv_calls, margin, svd_calls):
    rng = np.random.default_rng(147)
    q, _ = np.linalg.qr(rng.standard_normal((30, 2)))
    h = np.diag([1.0, np.sqrt(margin / GRAM_COND_LIMIT)]) @ q.T
    x = rng.standard_normal((6, 30))
    got = refit_basis(x, h)
    assert len(pinv_calls) == svd_calls
    expect = x @ pinv(h)
    assert np.linalg.norm(got - expect) <= 1e-6 * np.linalg.norm(expect)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_refit_basis_rejects_non_finite_h_as_the_svd_refit_does(value):
    rng = np.random.default_rng(149)
    x = rng.standard_normal((6, 12))
    h = rng.uniform(0.1, 1.0, size=(3, 12))
    h[2, 4] = value
    # pinv's SVD, not LAPACK, rejects it: an inf entry would keep LAPACK from returning
    with pytest.raises(NumericalError, match=r"^SVD input of shape \(3, 12\) has non-finite"):
        refit_basis(x, h)


def test_init_layer_shapes_and_positivity():
    rng = np.random.default_rng(109)
    x = rng.standard_normal((12, 30))
    h = init_layer(x, 4, seed=3)
    assert h.shape == (4, 30)
    assert h.min() >= 0.2  # indicator plus offset: no zero rows possible
    col_max = h.max(axis=0)
    assert np.allclose(col_max, 1.2)  # exactly one indicator hit per sample


def test_init_layer_deterministic():
    rng = np.random.default_rng(113)
    x = rng.standard_normal((10, 25))
    assert np.array_equal(init_layer(x, 3, seed=9), init_layer(x, 3, seed=9))


def test_fit_layer_monotone_per_step():
    # re-run the alternation by hand and check the loss after every h step
    rng = np.random.default_rng(127)
    x = rng.standard_normal((18, 50))
    h = init_layer(x, 5, seed=1)
    z = refit_basis(x, h)
    losses = [_loss(x, z, h)]
    for _ in range(50):
        z = x @ pinv(h)
        assert _loss(x, z, h) <= losses[-1] + 1e-9
        h = multiplicative_step(step_products(x, z), h)
        losses.append(_loss(x, z, h))
        assert losses[-1] <= losses[-2] + 1e-9


def test_fit_layer_matches_manual_alternation():
    rng = np.random.default_rng(131)
    x = rng.standard_normal((14, 33))
    for iters in (0, 12):  # zero iterations return the seed itself
        h = init_layer(x, 4, seed=7)
        for _ in range(iters):
            h = multiplicative_step(step_products(x, refit_basis(x, h)), h)
        assert np.array_equal(fit_layer(x, 4, iters=iters, seed=7), h)


@pytest.mark.parametrize("iters", [0, 1, 12])
def test_fit_layer_makes_one_refit_per_iteration(monkeypatch, iters):
    # init_layer seeds h alone; each step refits the basis to the current h.
    calls = []

    def counting(x, h):
        calls.append(h.shape)
        return refit_basis(x, h)

    monkeypatch.setattr(seminmf_module, "refit_basis", counting)
    fit_layer(np.random.default_rng(133).standard_normal((14, 33)), 4, iters=iters, seed=7)
    assert len(calls) == iters


def test_fit_layer_planted_recovery():
    # Multiplicative steps converge slowly near the optimum; 200 sweeps is
    # where this instance first clears the recovery bar, 300 adds margin.
    rng = np.random.default_rng(137)
    _, _, x = _planted(rng, d=25, width=4, n=80)
    h = fit_layer(x, 4, iters=300, seed=0)
    rel = np.linalg.norm(x - refit_basis(x, h) @ h) / np.linalg.norm(x)
    assert rel < 0.05
    assert h.min() >= 0


def test_fit_layer_deterministic():
    rng = np.random.default_rng(139)
    x = rng.standard_normal((10, 24))
    assert np.array_equal(fit_layer(x, 3, iters=20, seed=5), fit_layer(x, 3, iters=20, seed=5))

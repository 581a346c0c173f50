import numpy as np
import pytest

import mvfuse.fusion as fusion_module
import mvfuse.pipeline as pipeline_module
from mvfuse.data import generate_synthetic, normalize_dataset
from mvfuse.deep import reconstruction_loss
from mvfuse.linalg import NumericalError
from mvfuse.pipeline import (
    HyperParams,
    check_convergence,
    fit,
    init_state,
)
from conftest import benchmark_hp


def _small_dataset(seed=7, **kwargs):
    params = dict(n=40, k=3, view_dims=[10, 14], noise_sigma=0.05, seed=seed)
    params.update(kwargs)
    return normalize_dataset(generate_synthetic(**params), "l2-sample")


# ---------------------------------------------------------------------------
# hyperparameters and convergence predicate


def test_hyperparams_validation():
    good = HyperParams(lam=1.0, dims=[6, 3])
    assert good.validate() is good
    with pytest.raises(ValueError, match="lam"):
        HyperParams(lam=-0.5, dims=[6, 3]).validate()
    with pytest.raises(ValueError, match="max_iter"):
        HyperParams(lam=1.0, dims=[6, 3], max_iter=0).validate()
    with pytest.raises(ValueError, match="tol"):
        HyperParams(lam=1.0, dims=[6, 3], tol=0.0).validate()
    with pytest.raises(ValueError, match="kmeans_restarts"):
        HyperParams(lam=1.0, dims=[6, 3], kmeans_restarts=0).validate()
    with pytest.raises(ValueError, match="pretrain_iters"):
        HyperParams(lam=1.0, dims=[6, 3], pretrain_iters=-1).validate()


def test_check_convergence():
    assert check_convergence([10.0, 10.0 + 1e-9], 1e-6)
    assert not check_convergence([10.0, 10.1], 1e-6)
    assert check_convergence([0.0, 0.0], 1e-6)  # guarded denominator
    with pytest.raises(ValueError):
        check_convergence([1.0], 1e-6)


# ---------------------------------------------------------------------------
# initialization


def test_init_state_starts_from_neutral_weights():
    ds = _small_dataset()
    views, state = init_state(ds, HyperParams(lam=1.0, dims=[6, 3]))
    assert len(views) == 2
    assert np.allclose(state.alpha, [0.5, 0.5])
    assert np.allclose(state.beta, np.full(2, 1.0 / np.sqrt(2.0)))
    for w in state.w:
        assert np.array_equal(w, np.eye(3))
    assert np.allclose(state.h @ state.h.T, np.eye(3), atol=1e-12)
    for vf in views:
        assert np.allclose(np.linalg.norm(vf.h[-1], axis=1), 1.0, atol=1e-12)
        assert all(h.min() >= 0 for h in vf.h)


def test_init_state_is_deterministic():
    ds = _small_dataset()
    hp = HyperParams(lam=1.0, dims=[6, 3], seed=4)
    views_a, state_a = init_state(ds, hp)
    views_b, state_b = init_state(ds, hp)
    for va, vb in zip(views_a, views_b):
        for a, b in zip(va.h, vb.h):
            assert np.array_equal(a, b)
    assert np.array_equal(state_a.h, state_b.h)


def test_init_state_seeds_views_independently():
    ds = _small_dataset()
    views, _ = init_state(ds, HyperParams(lam=1.0, dims=[6, 3], seed=4))
    # same widths, different pretraining randomness per view
    assert views[0].h[-1].shape == views[1].h[-1].shape
    assert not np.allclose(views[0].h[-1], views[1].h[-1])


def test_init_state_validates_layer_scheme():
    ds = _small_dataset()
    with pytest.raises(ValueError, match="last layer width"):
        init_state(ds, HyperParams(lam=1.0, dims=[6, 4]))
    with pytest.raises(ValueError, match="strictly decreasing"):
        init_state(ds, HyperParams(lam=1.0, dims=[3, 3]))
    with pytest.raises(ValueError, match="smallest view dimension"):
        init_state(ds, HyperParams(lam=1.0, dims=[11, 3]))


# ---------------------------------------------------------------------------
# fit


def test_fit_single_iteration_contract():
    ds = _small_dataset()
    res = fit(ds, HyperParams(lam=1.0, dims=[6, 3], max_iter=1))
    assert res.iterations_run == 1
    assert len(res.history) == 1
    assert res.labels.shape == (ds.n,)
    assert set(res.scores) == {"acc", "nmi", "pur"}
    assert res.h.shape == (3, ds.n)


def test_fit_without_truth_reports_no_scores():
    ds = _small_dataset()
    ds.truth = None
    res = fit(ds, HyperParams(lam=1.0, dims=[6, 3], max_iter=2))
    assert res.scores is None


def test_fit_objective_is_pure_reconstruction_when_lam_zero():
    # One view, lam 0: alpha is pinned at 1, the alignment term vanishes,
    # so the recorded objective must equal the recorded reconstruction loss.
    ds = _small_dataset(view_dims=[12])
    res = fit(ds, HyperParams(lam=0.0, dims=[6, 3], max_iter=10))
    for rec in res.history:
        assert np.isclose(rec.alpha[0], 1.0)
        assert np.isclose(rec.objective, rec.recon_losses[0], rtol=1e-12)
    assert res.history[-1].objective <= res.history[0].objective


def test_fit_stops_early_at_loose_tolerance(benchmark_dataset):
    res = fit(benchmark_dataset, benchmark_hp(tol=1e-3))
    assert res.iterations_run < 150
    objs = res.objectives
    rel = abs(objs[-1] - objs[-2]) / abs(objs[-2])
    assert rel < 1e-3


def test_fit_recovers_benchmark_clusters(benchmark_fit):
    assert benchmark_fit.scores["acc"] >= 0.95
    assert benchmark_fit.scores["nmi"] >= 0.85
    assert benchmark_fit.scores["pur"] >= 0.95


def test_fit_history_stays_feasible(benchmark_fit):
    hist = benchmark_fit.history
    assert len(hist) == 150
    assert max(rec.h_residual for rec in hist) <= 1e-8
    assert max(rec.w_residuals.max() for rec in hist) <= 1e-8
    assert max(rec.alpha_residual for rec in hist) <= 1e-12
    assert max(rec.beta_residual for rec in hist) <= 1e-10
    assert min(rec.min_h_entry for rec in hist) >= 0.0


def test_fit_is_bitwise_deterministic():
    ds = _small_dataset()
    hp = HyperParams(lam=1.0, dims=[6, 3], max_iter=20, seed=3)
    a = fit(ds, hp)
    b = fit(ds, hp)
    assert a.h.tobytes() == b.h.tobytes()
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.objectives, b.objectives)


def test_fit_names_the_failing_block(monkeypatch):
    ds = _small_dataset()

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(pipeline_module, "update_beta", boom)
    with pytest.raises(NumericalError, match="iteration 0, beta block"):
        fit(ds, HyperParams(lam=1.0, dims=[6, 3], max_iter=5))


def test_fit_computes_each_view_loss_once_per_iteration(monkeypatch):
    calls = []

    def counting(vf):
        calls.append(vf)
        return reconstruction_loss(vf)

    monkeypatch.setattr(pipeline_module, "reconstruction_loss", counting)
    monkeypatch.setattr(fusion_module, "reconstruction_loss", counting)
    ds = _small_dataset()
    res = fit(ds, HyperParams(lam=1.0, dims=[6, 3], max_iter=5))
    assert len(calls) == ds.num_views * res.iterations_run


def test_fit_keeps_previous_consensus_on_degenerate_step(monkeypatch):
    # Every consensus step after init_state's is flagged degenerate, so the
    # consensus init_state chose must survive every iteration unchanged.
    real = pipeline_module.update_consensus
    first = []

    def flagged(*args):
        h, degenerate = real(*args)
        if not first:
            first.append(h)
            return h, degenerate
        return h, True

    monkeypatch.setattr(pipeline_module, "update_consensus", flagged)
    res = fit(_small_dataset(), HyperParams(lam=1.0, dims=[6, 3], max_iter=5))
    assert res.iterations_run == 5
    assert all(rec.consensus_degenerate for rec in res.history)
    assert res.h is first[0]

import copy
import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mvfuse.data as data_module
import mvfuse.deep as deep_module
import mvfuse.fusion as fusion_module
import mvfuse.pipeline as pipeline_module
import mvfuse.seminmf as seminmf_module
from mvfuse.data import MultiViewDataset, generate_synthetic, normalize_dataset
from mvfuse.deep import expanded_loss, reconstruction_loss, update_basis
from mvfuse.fusion import update_consensus
from mvfuse.linalg import NumericalError
from mvfuse.pipeline import (
    HyperParams,
    check_convergence,
    fit,
    init_state,
    shared_pretraining,
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


@pytest.mark.parametrize("field, value, rule", [
    ("seed", -1, ">= 0"),
    ("lam", np.inf, "finite and >= 0"),
    ("lam", np.nan, "finite and >= 0"),
    ("tol", np.inf, "finite and > 0"),
    ("tol", np.nan, "finite and > 0"),
])
def test_hyperparams_name_a_negative_seed_and_a_non_finite_value(field, value, rule):
    hp = HyperParams(lam=1.0, dims=[6, 3])
    setattr(hp, field, value)
    with pytest.raises(ValueError, match=f"^{field} must be {rule}, got {value}$"):
        hp.validate()


def test_check_convergence():
    assert check_convergence(10.0, 10.0 + 1e-9, 1e-6)
    assert not check_convergence(10.0, 10.1, 1e-6)
    assert check_convergence(0.0, 0.0, 1e-6)  # guarded denominator
    assert not check_convergence(-1e-12, 1e-12, 1e-6)  # relative to the previous value


# ---------------------------------------------------------------------------
# initialization


def test_init_state_returns_gauge_fixed_partitions():
    ds = _small_dataset()
    partitions = init_state(ds, HyperParams(lam=1.0, dims=[6, 3]))
    assert isinstance(partitions, list) and len(partitions) == 2
    for hm in partitions:
        assert isinstance(hm, np.ndarray) and hm.shape == (3, ds.n)
        assert np.allclose(np.linalg.norm(hm, axis=1), 1.0, atol=1e-12)
        assert hm.min() >= 0


def test_fit_starts_from_neutral_weights(monkeypatch):
    ds = _small_dataset(view_dims=[10, 14, 12])
    consensus_calls, sweep_calls = [], []
    real_consensus, real_sweep = pipeline_module.update_consensus, pipeline_module.sweep_view

    def consensus_spy(partitions, rotations, beta):
        consensus_calls.append(([w.copy() for w in rotations], np.array(beta)))
        return real_consensus(partitions, rotations, beta)

    def sweep_spy(x, h, consensus, rotation, alpha_v, beta_v, lam, *rest):
        sweep_calls.append((rotation.copy(), alpha_v, beta_v))
        return real_sweep(x, h, consensus, rotation, alpha_v, beta_v, lam, *rest)

    monkeypatch.setattr(pipeline_module, "update_consensus", consensus_spy)
    monkeypatch.setattr(pipeline_module, "sweep_view", sweep_spy)
    fit(ds, HyperParams(lam=1.0, dims=[6, 3], max_iter=2))
    rotations, beta = consensus_calls[0]
    assert all(np.array_equal(w, np.eye(3)) for w in rotations) and len(rotations) == 3
    assert np.array_equal(beta, np.full(3, 1.0 / np.sqrt(3.0)))
    for rotation, alpha_v, beta_v in sweep_calls[:3]:  # iteration 0, one sweep per view
        assert np.array_equal(rotation, np.eye(3))
        assert alpha_v == 1.0 / 3.0
        assert beta_v == 1.0 / np.sqrt(3.0)


def test_init_state_is_deterministic():
    ds = _small_dataset()
    hp = HyperParams(lam=1.0, dims=[6, 3], seed=4)
    partitions_a, partitions_b = init_state(ds, hp), init_state(ds, hp)
    for ha, hb in zip(partitions_a, partitions_b, strict=True):
        assert np.array_equal(ha, hb)


def test_init_state_seeds_views_independently():
    ds = _small_dataset()
    partitions = init_state(ds, HyperParams(lam=1.0, dims=[6, 3], seed=4))
    # same widths, different pretraining randomness per view
    assert partitions[0].shape == partitions[1].shape
    assert not np.allclose(partitions[0], partitions[1])


def test_every_kmeans_call_of_a_fit_takes_its_seed_from_the_layout(monkeypatch):
    calls = []
    for module, where in ((seminmf_module, "pretraining"), (pipeline_module, "final")):
        def spy(*args, seed, original=module.kmeans, where=where, **kwargs):
            calls.append((where, seed))
            return original(*args, seed=seed, **kwargs)

        monkeypatch.setattr(module, "kmeans", spy)
    seed = 5
    fit(_small_dataset(), HyperParams(lam=1.0, dims=[8, 6, 3], max_iter=2, seed=seed))
    # view v, layer j pretrains from seed + 1000 (v + 1) + j; the final call from seed
    expect = [("pretraining", seed + 1000 * (v + 1) + j) for v in range(2) for j in range(3)]
    assert calls == expect + [("final", seed)]


@pytest.mark.parametrize("make_dataset, overrides, match", [
    (_small_dataset, dict(dims=[6, 4]), "last layer width"),
    (_small_dataset, dict(dims=[3, 3]), "strictly decreasing"),
    (_small_dataset, dict(dims=[11, 3]), "smallest view dimension"),
    (lambda: _small_dataset(n=15, view_dims=[20, 24]), dict(dims=[16, 3]), "sample count"),
    (_small_dataset, dict(lam=-1.0), "lam"),
    (_small_dataset, dict(pretrain_iters=-1), "pretrain_iters"),
], ids=["last-width", "not-decreasing", "wider-than-view", "wider-than-n", "negative-lam",
        "negative-pretrain-iters"])
def test_fit_checks_every_input_before_pretraining(monkeypatch, make_dataset, overrides, match):
    # init_state is the one home of a fit's input checks: nothing is pretrained first
    def never(*args):
        raise AssertionError("pretrain_view ran before the inputs were checked")

    monkeypatch.setattr(pipeline_module, "pretrain_view", never)
    with pytest.raises(ValueError, match=match):
        fit(make_dataset(), HyperParams(**{"lam": 1.0, "dims": [6, 3], **overrides}))


def _nan_entry(ds):
    x = ds.views[0].copy()
    x[0, 0] = np.nan
    return replace(ds, views=(x, ds.views[1]))


def _short_view(ds):
    return replace(ds, views=(ds.views[0], ds.views[1][:, 1:]))


@pytest.mark.parametrize("change, match", [
    (_nan_entry, "non-finite"),
    (_short_view, "has 39 samples, expected 40"),
], ids=["non-finite-entry", "sample-count-mismatch"])
def test_a_changed_dataset_is_checked_when_built(change, match):
    # a dataset cannot change once built, so a changed one is a new dataset,
    # checked as it is built; a fit then reads it without scanning it again
    with pytest.raises(ValueError, match=match):
        change(_small_dataset())


def test_a_fit_scans_no_view(monkeypatch):
    ds = _small_dataset()
    calls = []
    as_matrix = data_module.as_matrix
    monkeypatch.setattr(data_module, "as_matrix", lambda *a: calls.append(a) or as_matrix(*a))
    fit(ds, HyperParams(lam=1.0, dims=[6, 3], max_iter=2))
    assert calls == []


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_with_an_all_zero_view_names_the_collapse():
    # a zero view's partition would collapse during fine-tuning; the dataset
    # rejects it when built, before any fit, and names the view
    ds = _small_dataset()
    with pytest.raises(ValueError, match=r"view 0 is all zeros"):
        fit(replace(ds, views=(np.zeros_like(ds.views[0]), ds.views[1])),
            HyperParams(lam=1.0, dims=[6, 3], max_iter=5))


def test_fit_without_truth_reports_no_scores():
    ds = replace(_small_dataset(), truth=None)
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


def _healthy_record_inputs():
    """_record's keyword arguments but the objective, at a feasible iterate of two views."""
    ds = _small_dataset()
    partitions = init_state(ds, HyperParams(lam=1.0, dims=[6, 3]))
    w = [np.eye(3), np.linalg.qr(np.random.default_rng(97).standard_normal((3, 3)))[0]]
    beta = np.array([0.6, 0.8])
    h, _ = update_consensus(partitions, w, beta)
    losses = np.array([
        reconstruction_loss(x, update_basis(x, hm), hm) for x, hm in zip(ds.views, partitions)
    ])
    return dict(partitions=partitions, h=h, w=w, alpha=np.array([0.4, 0.6]), beta=beta,
                losses=losses, consensus_degenerate=False, rotation_degenerate=[False, False], it=4)


def test_record_residuals_near_zero_for_a_feasible_iterate():
    rec = pipeline_module._record(obj=-1.0, **_healthy_record_inputs())
    assert rec.h_residual < 1e-12
    assert rec.w_residuals.shape == (2,) and np.all(rec.w_residuals < 1e-12)
    assert rec.alpha_residual < 1e-15
    assert rec.beta_residual < 1e-15


def test_record_reports_constraint_violations(monkeypatch):
    monkeypatch.setattr(pipeline_module, "RESIDUAL_LIMIT", 100.0)
    inputs = _healthy_record_inputs()
    inputs.update(h=np.eye(3, 40) * 2.0, w=[np.eye(3) * 3.0, np.eye(3)],
                  alpha=np.array([0.5, 0.6]), beta=np.array([2.0, 0.0]))
    rec = pipeline_module._record(obj=-1.0, **inputs)
    assert np.isclose(rec.h_residual, np.sqrt(3 * 9.0))
    assert np.allclose(rec.w_residuals, [np.sqrt(3 * 64.0), 0.0])
    assert np.isclose(rec.alpha_residual, 0.1)
    assert np.isclose(rec.beta_residual, 1.0)


def _poison_partition(inputs):
    inputs["partitions"][1] = inputs["partitions"][1].copy()
    inputs["partitions"][1][2, 5] = np.nan  # gives min_h_entry = nan
    return -1.0


def _poison_consensus(inputs):
    inputs["h"] = np.full_like(inputs["h"], np.nan)  # gives h_residual = nan
    return np.nan  # and a NaN objective


@pytest.mark.parametrize("poison", [
    _poison_partition,
    _poison_consensus,
    lambda inputs: np.nan,
    lambda inputs: -np.inf,
], ids=["nan-partition", "nan-consensus", "nan-objective", "infinite-objective"])
def test_record_fails_closed_on_non_finite_values(poison):
    inputs = _healthy_record_inputs()
    pipeline_module._record(obj=-1.0, **inputs)  # healthy
    obj = poison(inputs)
    with pytest.raises(NumericalError, match="^iteration 4, constraint check: "):
        pipeline_module._record(obj=obj, **inputs)


@pytest.mark.parametrize("bad_loss", [np.inf, np.nan])
def test_a_non_finite_loss_fails_the_record_check(monkeypatch, bad_loss):
    # update_alpha takes the sweep's losses unchecked; the NaN objective they
    # give stops the fit at the iteration's constraint check
    ds = _small_dataset()
    real_sweep, calls = pipeline_module.sweep_view, []

    def sweep(*args):
        loss, h = real_sweep(*args)
        calls.append(loss)
        return (bad_loss if len(calls) == 2 * ds.num_views + 1 else loss), h

    monkeypatch.setattr(pipeline_module, "sweep_view", sweep)
    with np.errstate(invalid="ignore"), pytest.raises(
        NumericalError, match=r"^iteration 2, constraint check: .*objective nan$"
    ):
        fit(ds, HyperParams(lam=1.0, dims=[6, 3], max_iter=10, tol=1e-300))


def test_fit_names_the_failing_block(monkeypatch):
    ds = _small_dataset()

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(pipeline_module, "update_beta", boom)
    with pytest.raises(NumericalError, match="iteration 0, beta block"):
        fit(ds, HyperParams(lam=1.0, dims=[6, 3], max_iter=5))


def test_fit_computes_each_view_loss_once_per_iteration(monkeypatch):
    calls, direct = [], []

    def counting(*args):
        calls.append(args)
        return expanded_loss(*args)

    def direct_counting(*view):
        direct.append(view)
        return reconstruction_loss(*view)

    monkeypatch.setattr(deep_module, "expanded_loss", counting)
    monkeypatch.setattr(pipeline_module, "reconstruction_loss", direct_counting)
    monkeypatch.setattr(fusion_module, "reconstruction_loss", direct_counting)
    ds = _small_dataset()
    res = fit(ds, HyperParams(lam=1.0, dims=[6, 3], max_iter=5))
    assert len(calls) == ds.num_views * res.iterations_run
    assert direct == []  # the sweep's loss is the only one


def test_fit_takes_uniform_alpha_once_every_view_reconstructs_exactly(monkeypatch):
    # the true losses in iteration 0, zero losses from iteration 1 on
    ds = _small_dataset()
    calls = []

    def vanishing(*args):
        calls.append(args)
        return expanded_loss(*args) if len(calls) <= ds.num_views else 0.0

    monkeypatch.setattr(deep_module, "expanded_loss", vanishing)
    res = fit(ds, HyperParams(lam=1.0, dims=[6, 3], max_iter=4))
    uniform = np.full(ds.num_views, 1.0 / ds.num_views)
    assert not np.array_equal(res.history[0].alpha, uniform)
    assert res.iterations_run > 1
    for rec in res.history[1:]:
        assert np.array_equal(rec.alpha, uniform)


def test_fit_over_exactly_reconstructed_views_gives_alpha_no_negative_loss(monkeypatch):
    # k = n: phi h_m rebuilds every view exactly, and at lam 0 each step keeps it
    # so. The expanded losses then cancel to rounding around zero; the sweep
    # recomputes each directly, and alpha sees only non-negative losses.
    seen, direct = [], []
    real_alpha = pipeline_module.update_alpha

    def alpha_spy(losses):
        seen.append(np.array(losses))
        return real_alpha(losses)

    def direct_counting(*view):
        direct.append(view)
        return reconstruction_loss(*view)

    monkeypatch.setattr(pipeline_module, "update_alpha", alpha_spy)
    monkeypatch.setattr(deep_module, "reconstruction_loss", direct_counting)
    ds = _tiny_dataset(7, 7)
    res = fit(ds, HyperParams(lam=0.0, dims=[7], max_iter=5))
    assert len(seen) == res.iterations_run
    assert all((losses >= 0).all() for losses in seen)
    assert len(direct) == ds.num_views * res.iterations_run


def test_datasets_compare_and_hash_by_identity():
    a, b = _small_dataset(), _small_dataset()  # equal contents, two objects
    assert a == a and a != b
    memo = {a: "a", b: "b"}
    assert (memo[a], memo[b]) == ("a", "b")


def test_benchmark_fit_takes_no_svd_refit(pinv_calls, benchmark_dataset):
    # Every basis refit, in pretraining and in each sweep, goes through a small Gram.
    res = fit(benchmark_dataset, benchmark_hp())
    assert res.iterations_run == 150
    assert pinv_calls == []


def _tiny_dataset(n, k, seed=3):
    rng = np.random.default_rng(seed)
    views = [rng.standard_normal((d, n)) for d in (8, 10)]
    ds = MultiViewDataset(views=views, truth=np.arange(n) % k, k=k)
    return normalize_dataset(ds, "l2-sample")


def _duplicated_view():
    ds = _small_dataset()
    return replace(ds, views=(*ds.views, ds.views[0].copy()))


def _constant_view():
    ds = _small_dataset()
    return normalize_dataset(replace(ds, views=(np.ones_like(ds.views[0]), ds.views[1])),
                             "l2-sample")


# Inputs at the edges of the basis refits, with the final objective of a fit
# of at most 20 iterations at lam 1; the SVD refit and the Gram refit agree
# on it to 14 digits.
EDGE_INPUTS = {
    "duplicated view": (_duplicated_view, [6, 3], -4.909214154286827),
    "k = n": (lambda: _tiny_dataset(6, 6), [6], -8.485278993419229),
    "k = n - 2": (lambda: _tiny_dataset(8, 6), [6], -7.922676982321869),
    "constant view": (_constant_view, [6, 3], -3.7131493414882946),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(EDGE_INPUTS))
def test_fit_handles_inputs_at_the_edges_of_the_refits(name):
    make, dims, final = EDGE_INPUTS[name]
    ds = make()
    res = fit(ds, HyperParams(lam=1.0, dims=dims, max_iter=20))
    assert np.all(np.isfinite(res.objectives))
    assert res.objectives[-1] == pytest.approx(final, rel=1e-9)
    assert res.labels.shape == (ds.n,) and 0 <= res.labels.min() <= res.labels.max() < ds.k


def test_constant_view_refits_fall_back_to_the_svd(pinv_calls):
    # Its columns coincide, so the seeded h has equal rows and a singular Gram.
    make, dims, _ = EDGE_INPUTS["constant view"]
    fit(make(), HyperParams(lam=1.0, dims=dims, max_iter=20))
    assert (3, 40) in pinv_calls and (6, 40) in pinv_calls


def _flag_consensus(monkeypatch, first_degenerate):
    """Flag every consensus step after fit's first degenerate, the first one
    too when first_degenerate; returns the list of every h computed."""
    real = pipeline_module.update_consensus
    computed = []

    def flagged(*args):
        h, degenerate = real(*args)
        computed.append(h)
        return h, first_degenerate or len(computed) > 1 or degenerate

    monkeypatch.setattr(pipeline_module, "update_consensus", flagged)
    return computed


def test_fit_keeps_previous_consensus_on_degenerate_step(monkeypatch):
    # Every consensus step after fit's first is flagged degenerate, so the
    # first consensus must survive every iteration unchanged.
    computed = _flag_consensus(monkeypatch, first_degenerate=False)
    res = fit(_small_dataset(), HyperParams(lam=1.0, dims=[6, 3], max_iter=5))
    assert res.iterations_run == 5
    assert [rec.consensus_degenerate for rec in res.history] == [False, True, True, True, True]
    assert len(computed) == 5 and res.h is computed[0]


def test_fit_takes_a_first_consensus_flagged_degenerate(monkeypatch):
    # There is no earlier consensus to keep, so the first step's h is taken.
    computed = _flag_consensus(monkeypatch, first_degenerate=True)
    res = fit(_small_dataset(), HyperParams(lam=1.0, dims=[6, 3], max_iter=3))
    assert [rec.consensus_degenerate for rec in res.history] == [True, True, True]
    assert res.h is computed[0]


def test_fit_names_a_failing_first_consensus_step(monkeypatch):
    def boom(*args):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(pipeline_module, "update_consensus", boom)
    with pytest.raises(NumericalError, match="^iteration 0, consensus block: synthetic failure$"):
        fit(_small_dataset(), HyperParams(lam=1.0, dims=[6, 3], max_iter=5))


# ---------------------------------------------------------------------------
# shared pretraining


def _counting_pretrain(monkeypatch):
    calls = []
    real = pipeline_module.pretrain_view

    def counting(*args, **kwargs):
        calls.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "pretrain_view", counting)
    return calls


def _assert_same_start(got, expect):
    for a, b in zip(got, expect, strict=True):
        assert np.array_equal(a, b)


def test_fits_in_a_shared_pretraining_block_equal_fits_outside_it(monkeypatch):
    ds = _small_dataset()
    hps = [HyperParams(lam=lam, dims=[6, 3], max_iter=8) for lam in (0.25, 4.0)]
    alone = [fit(ds, hp) for hp in hps]
    calls = _counting_pretrain(monkeypatch)
    with shared_pretraining():
        shared = [fit(ds, hp) for hp in hps]
    assert len(calls) == ds.num_views  # the second fit started from the first one's
    for a, b in zip(shared, alone):
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.objectives, b.objectives)


def test_a_fine_tune_leaves_the_shared_start_unchanged():
    ds = _small_dataset()
    hp = HyperParams(lam=1.0, dims=[7, 5, 3], max_iter=5)
    with shared_pretraining():
        first = init_state(ds, hp)
        before = copy.deepcopy(first)
        fit(ds, hp)
        again = init_state(ds, hp)
    _assert_same_start(first, before)
    _assert_same_start(again, before)
    assert again is not first


def test_fits_from_a_read_only_shared_start_equal_fits_outside_the_block(monkeypatch):
    # No update writes into a view or a partition, so fits may share them.
    ds = _small_dataset()
    hps = [HyperParams(lam=lam, dims=[6, 3], max_iter=8) for lam in (0.25, 4.0)]
    alone = [fit(ds, hp) for hp in hps]
    calls = _counting_pretrain(monkeypatch)
    for x in ds.views:
        x.flags.writeable = False
    with shared_pretraining():
        for hm in init_state(ds, hps[0]):
            hm.flags.writeable = False
        shared = [fit(ds, hp) for hp in hps]
    assert len(calls) == ds.num_views
    for a, b in zip(shared, alone, strict=True):
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.objectives, b.objectives)


def test_a_shared_start_runs_no_pretraining_and_no_consensus_step(monkeypatch):
    ds = _small_dataset()
    hp = HyperParams(lam=1.0, dims=[7, 5, 3], pretrain_iters=5)
    pretrains = _counting_pretrain(monkeypatch)
    consensus = []
    real = pipeline_module.update_consensus

    def counting(*args):
        consensus.append(args)
        return real(*args)

    monkeypatch.setattr(pipeline_module, "update_consensus", counting)
    with shared_pretraining():
        first = init_state(ds, hp)
        assert (len(pretrains), len(consensus)) == (ds.num_views, 0)
        again = init_state(ds, replace(hp, lam=4.0))
    assert (len(pretrains), len(consensus)) == (ds.num_views, 0)
    _assert_same_start(again, first)
    assert again is not first


@pytest.mark.parametrize("change", ["dataset", "dims", "seed", "pretrain_iters"])
def test_shared_pretraining_misses_on_any_other_start(monkeypatch, change):
    ds = _small_dataset()
    hp = HyperParams(lam=1.0, dims=[6, 3], seed=2, pretrain_iters=10)
    other_ds, other_hp = ds, hp
    if change == "dataset":
        other_ds = _small_dataset()  # equal contents, another object
    else:
        other_hp = replace(hp, **{change: {"dims": [5, 3], "seed": 3, "pretrain_iters": 11}[change]})
    calls = _counting_pretrain(monkeypatch)
    with shared_pretraining():
        init_state(ds, hp)
        init_state(other_ds, other_hp)
        init_state(ds, replace(hp, lam=2.0))  # only lam differs: a hit
    assert len(calls) == 2 * ds.num_views


def test_pretraining_is_shared_only_inside_the_block_and_on_its_thread(monkeypatch):
    ds = _small_dataset()
    hp = HyperParams(lam=1.0, dims=[6, 3], pretrain_iters=5)
    calls = _counting_pretrain(monkeypatch)
    init_state(ds, hp)
    init_state(ds, hp)
    assert len(calls) == 2 * ds.num_views
    with shared_pretraining():
        init_state(ds, hp)
        worker = threading.Thread(target=init_state, args=(ds, hp))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        init_state(ds, hp)
    init_state(ds, hp)
    assert len(calls) == 5 * ds.num_views
    assert calls[3 * ds.num_views] != calls[0]  # the worker pretrained for itself


# ---------------------------------------------------------------------------
# BLAS thread counts

# Relative objective gap allowed between fits at OPENBLAS_NUM_THREADS 1 and 2
# (README). The largest gap measured was 3.5e-12 (n = 500 and 1000, fit-large's
# views and scheme, 10 iterations; 5.4e-13 for this test's fit over seeds 0-7),
# so the bound leaves a margin of about 30.
BLAS_THREADS_OBJECTIVE_GAP = 1e-10

_THREADED_FIT = """
import json
from mvfuse.data import generate_synthetic, normalize_dataset
from mvfuse.pipeline import HyperParams, fit
ds = generate_synthetic(n=300, k=5, view_dims=[100, 200, 300], noise_sigma=0.1, seed=0)
res = fit(normalize_dataset(ds, "l2-sample"), HyperParams(lam=1.0, dims=[20, 5], max_iter=10))
print(json.dumps({"labels": res.labels.tolist(), "objectives": [r.objective for r in res.history]}))
"""


def test_fits_at_one_and_two_blas_threads_agree_within_the_stated_bound():
    # n = 300 is the smallest size found whose consensus bits differ between the
    # two counts (OpenBLAS 0.3.31, 2 cores); ten iterations let the drift grow.
    # Each count is set only in its own child's environment.
    src = str(Path(__file__).resolve().parent.parent / "src")
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _THREADED_FIT], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                 "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )
        for threads in (1, 2)
    ]
    one, two = [json.loads(child.communicate(timeout=120)[0]) for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert one["labels"] == two["labels"]
    assert len(one["objectives"]) == len(two["objectives"]) == 10
    gaps = [abs(a - b) / abs(a) for a, b in zip(one["objectives"], two["objectives"])]
    assert max(gaps) <= BLAS_THREADS_OBJECTIVE_GAP

"""Release gate: one test per shipped acceptance criterion.

Run `pytest tests/test_acceptance.py -v -s` to get one [criterion N]
PASS/FAIL line per criterion. Criterion 7's companion check against a
user-supplied real corpus is opt-in via environment variables; see the
README for how to enable it.
"""

import os
import time

import numpy as np
import pytest

from conftest import (
    _row_orthonormal,
    benchmark_hp,
    brute_force_accuracy,
    brute_force_assignment,
    direct_nmi,
    direct_purity,
)
from mvfuse.cli import main
from mvfuse.data import generate_synthetic, normalize_dataset
from mvfuse.deep import update_partition
from mvfuse.fusion import update_alpha, update_beta, update_rotation
from mvfuse.linalg import procrustes_max
from mvfuse.metrics import accuracy, hungarian, kmeans, nmi, purity
from mvfuse.pipeline import fit
from mvfuse.seminmf import multiplicative_step


def _report(number, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. constraint suite on the benchmark


def test_criterion_1_constraint_suite(benchmark_dataset):
    t0 = time.perf_counter()
    res = fit(benchmark_dataset, benchmark_hp())
    elapsed = time.perf_counter() - t0
    hist = res.history
    worst_h = max(rec.h_residual for rec in hist)
    worst_w = max(rec.w_residuals.max() for rec in hist)
    worst_a = max(rec.alpha_residual for rec in hist)
    worst_b = max(rec.beta_residual for rec in hist)
    min_h = min(rec.min_h_entry for rec in hist)
    ok = (
        len(hist) == 150
        and worst_h <= 1e-8
        and worst_w <= 1e-8
        and worst_a <= 1e-12
        and worst_b <= 1e-10
        and min_h >= 0.0
        and elapsed <= 60.0
    )
    _report(
        1, ok,
        f"residuals h {worst_h:.2e} w {worst_w:.2e} alpha {worst_a:.2e} "
        f"beta {worst_b:.2e}, min entry {min_h:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. synthetic recovery vs the concatenated baseline


def test_criterion_2_synthetic_recovery(benchmark_dataset):
    results = [
        fit(benchmark_dataset, benchmark_hp(seed=rep)) for rep in range(10)
    ]
    best_acc = max(r.scores["acc"] for r in results)
    best_nmi = max(r.scores["nmi"] for r in results)
    concat = np.vstack(benchmark_dataset.views)
    base_labels = kmeans(concat.T, benchmark_dataset.k, restarts=50, seed=0)
    base_acc = accuracy(base_labels, benchmark_dataset.truth)
    ok = (
        best_acc >= 0.95
        and best_nmi >= 0.85
        and base_acc >= 0.9
        and best_acc >= base_acc - 0.02
    )
    _report(
        2, ok,
        f"best acc {best_acc:.4f} nmi {best_nmi:.4f}, concat baseline {base_acc:.4f}",
    )


# ---------------------------------------------------------------------------
# 3. convergence shape of the objective trace


def test_criterion_3_convergence_shape(benchmark_fit):
    objs = benchmark_fit.objectives
    rel = abs(objs[-1] - objs[-2]) / abs(objs[-2])
    diffs = np.diff(objs)
    increasing = float(np.mean(diffs > 0))
    ok = len(objs) == 150 and rel < 1e-4 and increasing <= 0.05
    _report(
        3, ok,
        f"final relative change {rel:.2e}, increasing pairs {increasing:.1%}",
    )


# ---------------------------------------------------------------------------
# 4. block-optimality oracles


def test_criterion_4_block_optimality():
    rng = np.random.default_rng(11)
    samples = 10_000
    slack = 1e-9

    procrustes_ok = True
    for _ in range(20):
        u = rng.standard_normal((10, 3))
        h, _ = procrustes_max(u)
        attained = float(np.sum(h * u.T))
        cands = np.linalg.qr(rng.standard_normal((samples, 10, 3)))[0]
        best_sample = float(np.einsum("bnk,nk->b", cands, u).max())
        procrustes_ok &= best_sample <= attained + slack

    rotation_ok = True
    for _ in range(20):
        partition = rng.uniform(0.0, 1.0, size=(3, 20))
        consensus = _row_orthonormal(rng, 3, 20)
        w, _ = update_rotation(partition, consensus, 0.8)
        attained = float(np.sum(partition * (w @ consensus)))
        cands = np.linalg.qr(rng.standard_normal((samples, 3, 3)))[0]
        scores = np.einsum("kn,bkj,jn->b", partition, cands, consensus)
        rotation_ok &= float(scores.max()) <= attained + slack

    alpha_ok = True
    grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    for losses in ([1.0, 3.0], *(rng.uniform(0.2, 5.0, size=2) for _ in range(5))):
        losses = np.asarray(losses)
        closed = update_alpha(losses)
        vals = grid**2 * losses[0] + (1.0 - grid) ** 2 * losses[1]
        a0 = grid[int(np.argmin(vals))]
        alpha_ok &= abs(a0 - closed[0]) <= 1e-3 and abs((1 - a0) - closed[1]) <= 1e-3
    a0g, a1g = np.meshgrid(grid, grid, indexing="ij")
    feasible = a0g + a1g <= 1.0 + 1e-12
    a0f, a1f = a0g[feasible], a1g[feasible]
    a2f = 1.0 - a0f - a1f
    for losses in (np.array([0.5, 1.0, 2.0]), rng.uniform(0.2, 5.0, size=3)):
        closed = update_alpha(losses)
        vals = a0f**2 * losses[0] + a1f**2 * losses[1] + a2f**2 * losses[2]
        i = int(np.argmin(vals))
        best = np.array([a0f[i], a1f[i], a2f[i]])
        alpha_ok &= bool(np.max(np.abs(best - closed)) <= 1e-3)

    beta_ok = True
    thetas = np.arange(0.0, np.pi / 2 + 1e-9, 1e-3)
    arc = np.stack([np.cos(thetas), np.sin(thetas)])
    consensus = np.array([[1.0, 0.0]])
    for f in ([3.0, 4.0], [1.0, 0.01], [-1.0, 1.0], [2.0, 2.0]):
        partitions = [np.array([[t, 0.0]]) for t in f]
        rotations = [np.eye(1), np.eye(1)]
        closed, _ = update_beta(partitions, rotations, consensus)
        best = arc[:, int(np.argmax(np.asarray(f) @ arc))]
        beta_ok &= bool(np.max(np.abs(best - closed)) <= 1e-3)

    ok = procrustes_ok and rotation_ok and alpha_ok and beta_ok
    _report(
        4, ok,
        f"procrustes {procrustes_ok}, rotation {rotation_ok}, "
        f"alpha {alpha_ok}, beta {beta_ok}",
    )


# ---------------------------------------------------------------------------
# 5. metric oracles


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(13)

    hungarian_ok = True
    for trial in range(200):
        k = 2 + trial % 5  # k in 2..6
        cost = rng.standard_normal((k, k))
        perm = hungarian(cost)
        brute_perm, brute_cost = brute_force_assignment(cost)
        hungarian_ok &= bool(np.array_equal(perm, brute_perm))
        hungarian_ok &= float(cost[np.arange(k), perm].sum()) == brute_cost

    accuracy_ok = True
    for trial in range(200):
        k = 2 + trial % 4  # k in 2..5
        n = int(rng.integers(10, 40))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        accuracy_ok &= accuracy(pred, truth) == brute_force_accuracy(pred, truth)

    info_ok = True
    for trial in range(200):
        k = 2 + trial % 4
        n = int(rng.integers(10, 60))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        if len(set(pred.tolist())) < 2 or len(set(truth.tolist())) < 2:
            continue
        info_ok &= abs(nmi(pred, truth) - min(direct_nmi(pred, truth), 1.0)) <= 1e-12
        info_ok &= abs(purity(pred, truth) - direct_purity(pred, truth)) <= 1e-12

    ok = hungarian_ok and accuracy_ok and info_ok
    _report(
        5, ok,
        f"assignment {hungarian_ok}, accuracy {accuracy_ok}, nmi/purity {info_ok}",
    )


# ---------------------------------------------------------------------------
# 6. multiplicative-rule monotonicity


def test_criterion_6_multiplicative_monotonicity():
    rng = np.random.default_rng(17)
    slack = 1e-8

    plain_ok = True
    for _ in range(20):
        basis = rng.standard_normal((12, 5))
        x = rng.standard_normal((12, 15))
        h = rng.uniform(0.05, 1.0, size=(5, 15))
        prev = np.linalg.norm(x - basis @ h) ** 2
        for _ in range(50):
            h = multiplicative_step(x, basis, h)
            value = np.linalg.norm(x - basis @ h) ** 2
            plain_ok &= value <= prev + slack
            prev = value

    partition_ok = True
    for _ in range(20):
        z = [rng.standard_normal((12, 6)), rng.standard_normal((6, 3))]
        hm = rng.uniform(0.05, 1.0, size=(3, 15))
        x, phi = rng.standard_normal((12, 15)), z[0] @ z[1]
        consensus = _row_orthonormal(rng, 3, 15)
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        alpha_v, beta_v, lam = 0.7, 0.6, 1.5

        def value(m):
            recon = np.linalg.norm(x - phi @ m) ** 2
            align = float(np.sum(m * (rotation @ consensus)))
            return alpha_v**2 * recon - lam * beta_v * align

        prev = value(hm)
        for _ in range(50):
            hm = update_partition(x, phi, hm, consensus, rotation, alpha_v, beta_v, lam)
            cur = value(hm)
            partition_ok &= cur <= prev + slack
            prev = cur

    ok = plain_ok and partition_ok
    _report(6, ok, f"representation rule {plain_ok}, partition rule {partition_ok}")


# ---------------------------------------------------------------------------
# 7. depth ablation


def test_criterion_7_depth_ablation(nuisance_dataset):
    def mean_acc(dims):
        accs = [
            fit(nuisance_dataset, benchmark_hp(seed=rep, dims=dims)).scores["acc"]
            for rep in range(10)
        ]
        return float(np.mean(accs))

    deep = mean_acc([12, 6, 3])
    shallow = mean_acc([3])
    ok = deep >= shallow
    _report(7, ok, f"mean acc deep {deep:.4f} vs shallow {shallow:.4f}")


REAL_MANIFEST = os.environ.get("MVFUSE_REAL_MANIFEST")
REAL_TARGET = os.environ.get("MVFUSE_REAL_TARGET_ACC")


@pytest.mark.skipif(
    not (REAL_MANIFEST and REAL_TARGET),
    reason="opt-in: set MVFUSE_REAL_MANIFEST and MVFUSE_REAL_TARGET_ACC",
)
def test_criterion_7_companion_real_corpus(tmp_path):
    # Data-dependent companion check: on a user-supplied corpus the full grid
    # search (best of 50 repeats per cell) must land within 0.05 of the
    # reference accuracy the user provides for that corpus.
    out = tmp_path / "grid"
    code = main([
        "grid", "--manifest", REAL_MANIFEST, "--repeats", "50",
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "grid.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    acc_col = header.index("best_acc")
    status_col = header.index("status")
    best = max(
        float(row.split("\t")[acc_col])
        for row in lines[1:]
        if row.split("\t")[status_col] == "ok"
    )
    target = float(REAL_TARGET)
    ok = abs(best - target) <= 0.05
    _report("7-companion", ok, f"grid best acc {best:.4f}, reference {target:.4f}")


# ---------------------------------------------------------------------------
# 8. byte-identical outputs


def test_criterion_8_determinism(tmp_path):
    argv = [
        "run",
        "--synthetic", "n=300,k=3,dims=40/60/80,sigma=0.1,seed=0",
        "--lambda", "1", "--dims", "12,3",
        "--repeats", "3", "--max-iter", "150", "--seed", "0",
        "--threads", "1", "--emit-embedding",
    ]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    names = ("results.tsv", "objective_trace.txt", "embedding.mvm")
    same = {
        name: (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in names
    }
    _report(8, all(same.values()), ", ".join(f"{n} identical={v}" for n, v in same.items()))

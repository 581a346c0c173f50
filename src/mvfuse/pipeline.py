"""End-to-end fit: pretrain, alternate the seven update blocks, cluster.

From a start that is pretraining alone, one outer iteration runs, in order:
the consensus step, a full fine-tuning sweep of every view (basis refits,
representation steps, partition step), the per-view rotation steps, the
alpha step, and the beta step; iteration 0's consensus step is the first.
The joint objective is recorded after the beta step; the loop stops when
its relative change falls below tol or after max_iter iterations.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from mvfuse.data import MultiViewDataset
from mvfuse.deep import (
    ViewFactorization,
    fix_partition_gauge,
    pretrain_view,
    reconstruction_loss,
    sweep_view,
    validate_layer_dims,
)
from mvfuse.fusion import (
    FusionState,
    objective,
    update_alpha,
    update_beta,
    update_consensus,
    update_rotation,
)
from mvfuse.linalg import NumericalError
from mvfuse.metrics import accuracy, kmeans, nmi, purity

# Residuals beyond this are treated as numerical failure, not logged quietly.
RESIDUAL_LIMIT = 1e-6

# Offset between the derived pretraining seeds of consecutive views.
VIEW_SEED_STRIDE = 1000


@dataclass
class HyperParams:
    lam: float
    dims: list
    max_iter: int = 150
    tol: float = 1e-6
    kmeans_restarts: int = 50
    pretrain_iters: int = 50
    seed: int = 0

    def validate(self) -> "HyperParams":
        for name, ok, rule in (
            ("lam", self.lam >= 0, ">= 0"),
            ("max_iter", self.max_iter >= 1, ">= 1"),
            ("tol", self.tol > 0, "> 0"),
            ("kmeans_restarts", self.kmeans_restarts >= 1, ">= 1"),
            ("pretrain_iters", self.pretrain_iters >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")
        return self


@dataclass
class IterationRecord:
    objective: float
    recon_losses: np.ndarray       # per-view ||x - rebuilt||^2
    alpha: np.ndarray
    beta: np.ndarray
    h_residual: float              # ||h h^T - I||_F
    w_residuals: np.ndarray        # per-view ||w w^T - I||_F
    alpha_residual: float          # |sum(alpha) - 1|
    beta_residual: float           # |  ||beta|| - 1|
    min_h_entry: float             # min over every layer of every view
    consensus_degenerate: bool
    rotation_degenerate: np.ndarray


@dataclass
class FitResult:
    h: np.ndarray                  # final k x n consensus
    labels: np.ndarray             # k-means clustering of the consensus columns
    history: list = field(default_factory=list)
    iterations_run: int = 0
    scores: dict | None = None     # acc/nmi/pur when ground truth is known

    @property
    def objectives(self) -> np.ndarray:
        return np.array([rec.objective for rec in self.history])


def check_convergence(objectives, tol: float) -> bool:
    """Relative change of the last two objective values fell below tol."""
    if len(objectives) < 2:
        raise ValueError("need at least two objective values")
    prev, last = objectives[-2], objectives[-1]
    return abs(last - prev) / max(abs(prev), 1e-12) < tol


# Per-thread init_state memo, set only inside a shared_pretraining() block.
_shared = threading.local()


@contextmanager
def shared_pretraining():
    """Let init_state pretrain each start once on this thread for the block.

    Inside the block, fits that share the dataset object, the layer dims, the
    seed and pretrain_iters -- all init_state reads, so any lam -- start from
    one pretraining: the memo holds the dataset and the gauge-fixed views.
    Results are identical to fits outside a block. The dataset must not
    change while the block is open. Blocks do not nest.
    """
    _shared.memo = {}
    try:
        yield
    finally:
        _shared.memo = None


def init_state(dataset: MultiViewDataset, hp: HyperParams):
    """Pretrain every view, then start fusion from neutral weights.

    Rotations start at identity, alpha uniform, beta uniform on the unit
    sphere, and the consensus is None: fit's first consensus step computes
    it. Pretraining is greedy and layer-wise, so it never sees the alignment
    term: hp.lam is never read here. Inside a shared_pretraining() block the
    gauge-fixed views are memoised per (dataset object, dims, seed,
    pretrain_iters), and a later call with the same key starts from them
    without pretraining. Every call returns new factor lists, rotations and
    weights; the arrays in them are shared, since every update replaces list
    entries and state fields rather than writing into an array.
    """
    hp.validate()
    dataset.validate()
    dims = validate_layer_dims(
        hp.dims, dataset.k, [x.shape[0] for x in dataset.views], dataset.n
    )
    nviews = dataset.num_views
    w = [np.eye(dataset.k) for _ in range(nviews)]
    alpha = np.full(nviews, 1.0 / nviews)
    beta = np.full(nviews, 1.0 / np.sqrt(nviews))
    memo = getattr(_shared, "memo", None)
    key = (id(dataset), tuple(dims), hp.seed, hp.pretrain_iters)
    if memo is not None and key in memo:
        _, views = memo[key]
    else:
        views = [
            pretrain_view(x, dims, seed=hp.seed + VIEW_SEED_STRIDE * (v + 1), iters=hp.pretrain_iters)
            for v, x in enumerate(dataset.views)
        ]
        for vf in views:
            fix_partition_gauge(vf)
        if memo is not None:
            memo[key] = (dataset, views)  # the held dataset keeps its id from being reused
    views = [ViewFactorization(x=vf.x, z=list(vf.z), h=list(vf.h)) for vf in views]
    return views, FusionState(h=None, w=w, alpha=alpha, beta=beta)


def _record(views, state, obj, losses, consensus_degenerate, rotation_degenerate, it):
    res = state.residuals()
    rec = IterationRecord(
        objective=obj,
        recon_losses=losses,
        alpha=state.alpha.copy(),
        beta=state.beta.copy(),
        h_residual=res["h"],
        w_residuals=np.array(res["w"]),
        alpha_residual=res["alpha"],
        beta_residual=res["beta"],
        min_h_entry=min(float(h.min()) for vf in views for h in vf.h),
        consensus_degenerate=consensus_degenerate,
        rotation_degenerate=np.array(rotation_degenerate),
    )
    worst = max(rec.h_residual, rec.w_residuals.max(), rec.alpha_residual, rec.beta_residual)
    if worst > RESIDUAL_LIMIT or rec.min_h_entry < 0:
        raise NumericalError(
            f"iteration {it}, constraint check: residual {worst:.3e}, "
            f"min representation entry {rec.min_h_entry:.3e}"
        )
    return rec


def fit(dataset: MultiViewDataset, hp: HyperParams) -> FitResult:
    """Run the full alternating optimization and cluster the consensus.

    Returns the final consensus, k-means labels of its columns (best inertia
    over hp.kmeans_restarts restarts), the per-iteration history, and --
    when the dataset carries ground truth -- acc/nmi/pur scores. Numerical
    failure in any block aborts with the iteration and block named.
    """
    views, state = init_state(dataset, hp)
    history = []
    for it in range(hp.max_iter):
        stage = "consensus"
        try:
            h, consensus_degenerate = update_consensus(
                [vf.h[-1] for vf in views], state.w, state.beta
            )
            if not consensus_degenerate or state.h is None:
                state.h = h  # a first consensus has no previous one to keep
            stage = "view sweep"
            for v, vf in enumerate(views):
                sweep_view(vf, state.h, state.w[v], state.alpha[v], state.beta[v], hp.lam)
            stage = "rotation"
            rotation_degenerate = []
            for v, vf in enumerate(views):
                w_new, degenerate = update_rotation(vf.h[-1], state.h, state.beta[v])
                if not degenerate:
                    state.w[v] = w_new
                rotation_degenerate.append(degenerate)
            stage = "alpha"
            losses = np.array([reconstruction_loss(vf) for vf in views])
            if np.any(losses > 0):
                state.alpha = update_alpha(losses)
            # else: every view reconstructs exactly; any alpha is optimal, keep it
            stage = "beta"
            state.beta, traces = update_beta([vf.h[-1] for vf in views], state.w, state.h)
            stage = "objective"
            obj = objective(losses, traces, state, hp.lam)
        except NumericalError as exc:
            raise NumericalError(f"iteration {it}, {stage} block: {exc}") from exc
        history.append(
            _record(views, state, obj, losses, consensus_degenerate, rotation_degenerate, it)
        )
        if it > 0 and check_convergence([rec.objective for rec in history[-2:]], hp.tol):
            break
    labels = kmeans(
        state.h.T, dataset.k, restarts=hp.kmeans_restarts, seed=hp.seed
    )
    scores = None
    if dataset.truth is not None:
        scores = {
            "acc": accuracy(labels, dataset.truth),
            "nmi": nmi(labels, dataset.truth),
            "pur": purity(labels, dataset.truth),
        }
    return FitResult(
        h=state.h,
        labels=labels,
        history=history,
        iterations_run=len(history),
        scores=scores,
    )

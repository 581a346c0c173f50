"""End-to-end fit: pretrain, alternate the six update blocks, cluster.

init_state is pretraining alone. fit then starts fusion from neutral weights
(identity rotations, uniform alpha and beta, no consensus yet) and holds the
consensus h, the rotations w, alpha and beta as plain arrays. One outer
iteration runs, in order: the consensus step, a fine-tuning sweep of every
view (basis refit, partition step), the per-view rotation steps, the alpha
step, and the beta step; iteration 0's consensus step is the first. Layer
depth acts through pretraining alone: a view's state is its partition h_m,
and each sweep refits the view's one basis as x pinv(h_m), steps h_m
against it and returns the view's reconstruction loss, taken from the
step's own products with ||x||^2, which fit computes once per view.
The joint objective is recorded after the beta step; from iteration 1 on,
the loop stops when its relative change falls below tol (check_convergence),
else after max_iter iterations. score_labels is the one scorer of labels
against ground truth, for fit and for every CLI report.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from mvfuse.data import MultiViewDataset
from mvfuse.deep import fix_partition_gauge, pretrain_view, sweep_view, validate_layer_dims
# Unused here; kept because the benchmark's tracer wraps this module attribute.
from mvfuse.deep import reconstruction_loss  # noqa: F401
from mvfuse.fusion import (
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


def kmeans_seed(seed: int, view: int | None = None, layer: int = 0) -> int:
    """The seed of one k-means call of a fit with seed `seed`.

    The final clustering gets `seed` itself; the seeding of pretraining layer
    `layer` of view `view` gets seed + VIEW_SEED_STRIDE * (view + 1) + layer.
    kmeans then gives its restart r the generator default_rng(seed + r).
    """
    if view is None:
        return seed
    return seed + VIEW_SEED_STRIDE * (view + 1) + layer


@dataclass
class HyperParams:
    lam: float
    dims: list
    max_iter: int = 150
    tol: float = 1e-6
    kmeans_restarts: int = 50
    pretrain_iters: int = 50
    seed: int = 0

    def validate(self, names=None) -> "HyperParams":
        """Check every field's range; an error labels a field by names[field], else its name."""
        names = names or {}
        for name, ok, rule in (
            ("lam", 0 <= self.lam < np.inf, "finite and >= 0"),
            ("max_iter", self.max_iter >= 1, ">= 1"),
            ("tol", 0 < self.tol < np.inf, "finite and > 0"),
            ("kmeans_restarts", self.kmeans_restarts >= 1, ">= 1"),
            ("pretrain_iters", self.pretrain_iters >= 0, ">= 0"),
            ("seed", self.seed >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(f"{names.get(name, name)} must be {rule}, got {getattr(self, name)}")
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
    min_h_entry: float             # min over every view's partition h_m
    consensus_degenerate: bool
    rotation_degenerate: np.ndarray


@dataclass
class FitResult:
    h: np.ndarray                  # final k x n consensus
    labels: np.ndarray             # k-means clustering of the consensus columns
    history: list = field(default_factory=list)
    scores: dict | None = None     # acc/nmi/pur when ground truth is known

    @property
    def iterations_run(self) -> int:
        return len(self.history)

    @property
    def objectives(self) -> np.ndarray:
        return np.array([rec.objective for rec in self.history])


def check_convergence(prev: float, last: float, tol: float) -> bool:
    """The relative change from the objective prev to the next one, last, fell below tol."""
    return abs(last - prev) / max(abs(prev), 1e-12) < tol


# The scores of a labelling against ground truth, in the order every report prints them.
SCORE_KEYS = ("acc", "nmi", "pur")


def score_labels(labels, truth) -> dict:
    """acc, nmi and pur of labels against truth, keyed by SCORE_KEYS."""
    scores = accuracy(labels, truth), nmi(labels, truth), purity(labels, truth)
    return dict(zip(SCORE_KEYS, scores))


# Per-thread init_state memo, set only inside a shared_pretraining() block.
_shared = threading.local()


@contextmanager
def shared_pretraining():
    """Let init_state pretrain each start once on this thread for the block.

    Inside the block, fits that share the dataset object, the layer dims, the
    seed and pretrain_iters -- all init_state reads, so any lam -- start from
    one pretraining. The memo keys the gauge-fixed partitions by the dataset
    object itself (datasets compare and hash by identity, and cannot change
    once built) and holds it for the block. Results are identical to fits
    outside a block. Blocks do not nest.
    """
    _shared.memo = {}
    try:
        yield
    finally:
        _shared.memo = None


def init_state(dataset: MultiViewDataset, hp: HyperParams) -> list:
    """Pretrain every view: the list of each view's gauge-fixed partition h_m.

    This is the one place a fit's inputs are checked: hp, and the layer
    widths against every view and the sample count. The dataset checked
    itself when it was built, so its views are not scanned again here. No
    step after this checks them again. This is pretraining alone; fit starts
    fusion from neutral weights.
    Pretraining is greedy and layer-wise, so it never sees the alignment
    term: hp.lam is never read here. Inside a shared_pretraining() block the
    partitions are memoised per (dataset, dims, seed, pretrain_iters), with
    the dataset object itself as the key, and a later call with the same key
    starts from them without pretraining. No update writes into a partition,
    so calls share them; every call returns a new list.
    """
    hp.validate()
    dims = validate_layer_dims(
        hp.dims, dataset.k, [x.shape[0] for x in dataset.views], dataset.n
    )
    memo = getattr(_shared, "memo", None)
    key = (dataset, tuple(dims), hp.seed, hp.pretrain_iters)
    if memo is not None and key in memo:
        partitions = memo[key]
    else:
        partitions = [
            fix_partition_gauge(pretrain_view(
                x, dims, hp.pretrain_iters, [kmeans_seed(hp.seed, v, j) for j in range(len(dims))]
            ))
            for v, x in enumerate(dataset.views)
        ]
        if memo is not None:
            memo[key] = partitions
    return list(partitions)


def _record(partitions, h, w, alpha, beta, obj, losses, consensus_degenerate,
            rotation_degenerate, it):
    eye = np.eye(h.shape[0])
    rec = IterationRecord(
        objective=obj,
        recon_losses=losses,
        alpha=alpha,
        beta=beta,
        h_residual=float(np.linalg.norm(h @ h.T - eye)),
        w_residuals=np.array([float(np.linalg.norm(wv @ wv.T - eye)) for wv in w]),
        alpha_residual=float(abs(alpha.sum() - 1.0)),
        beta_residual=float(abs(np.linalg.norm(beta) - 1.0)),
        min_h_entry=float(np.min([hm.min() for hm in partitions])),  # NaN-propagating
        consensus_degenerate=consensus_degenerate,
        rotation_degenerate=np.array(rotation_degenerate),
    )
    residuals = np.array([rec.h_residual, *rec.w_residuals, rec.alpha_residual, rec.beta_residual])
    # Each value must compare within its bound, so a NaN anywhere fails the check.
    if not (np.all(residuals <= RESIDUAL_LIMIT) and rec.min_h_entry >= 0 and np.isfinite(obj)):
        raise NumericalError(
            f"iteration {it}, constraint check: residual {residuals.max():.3e}, "
            f"min representation entry {rec.min_h_entry:.3e}, objective {obj:.6g}"
        )
    return rec


def fit(dataset: MultiViewDataset, hp: HyperParams) -> FitResult:
    """Run the full alternating optimization and cluster the consensus.

    Returns the final consensus, k-means labels of its columns (best inertia
    over hp.kmeans_restarts restarts), the per-iteration history, and --
    when the dataset carries ground truth -- acc/nmi/pur scores. Numerical
    failure in any block aborts with the iteration and block named.
    """
    partitions = init_state(dataset, hp)
    sq_norms = [float(np.sum(x * x)) for x in dataset.views]  # each sweep's loss reads ||x||^2
    # Neutral start: no consensus yet, identity rotations, uniform alpha and beta.
    nviews = dataset.num_views
    h = None
    w = [np.eye(dataset.k) for _ in range(nviews)]
    alpha = np.full(nviews, 1.0 / nviews)
    beta = np.full(nviews, 1.0 / np.sqrt(nviews))
    history = []
    for it in range(hp.max_iter):
        stage = "consensus"
        try:
            consensus, consensus_degenerate = update_consensus(partitions, w, beta)
            if not consensus_degenerate or h is None:
                h = consensus  # a first consensus has no previous one to keep
            stage = "view sweep"
            losses = np.empty(nviews)
            for v, x in enumerate(dataset.views):
                losses[v], partitions[v] = sweep_view(
                    x, partitions[v], h, w[v], alpha[v], beta[v], hp.lam, sq_norms[v]
                )
            stage = "rotation"
            rotation_degenerate = []
            for v, hm in enumerate(partitions):
                w_new, degenerate = update_rotation(hm, h, beta[v])
                if not degenerate:
                    w[v] = w_new
                rotation_degenerate.append(degenerate)
            stage = "alpha"
            alpha = update_alpha(losses)
            stage = "beta"
            beta, traces = update_beta(partitions, w, h)
            stage = "objective"
            obj = objective(losses, traces, alpha, beta, hp.lam)
        except NumericalError as exc:
            raise NumericalError(f"iteration {it}, {stage} block: {exc}") from exc
        history.append(_record(partitions, h, w, alpha, beta, obj, losses,
                               consensus_degenerate, rotation_degenerate, it))
        if it > 0 and check_convergence(history[-2].objective, history[-1].objective, hp.tol):
            break
    labels = kmeans(h.T, dataset.k, restarts=hp.kmeans_restarts, seed=kmeans_seed(hp.seed))
    scores = None if dataset.truth is None else score_labels(labels, dataset.truth)
    return FitResult(h=h, labels=labels, history=history, scores=scores)

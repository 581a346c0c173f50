import itertools
import math

import numpy as np
import pytest

import mvfuse.seminmf as seminmf_module
from mvfuse.data import generate_synthetic, normalize_dataset
from mvfuse.pipeline import HyperParams, fit

# The shared evaluation setup: three views of a planted three-cluster
# problem, unit-norm samples, a 150-iteration fit with the two-layer scheme.
BENCHMARK = dict(n=300, k=3, view_dims=[40, 60, 80], noise_sigma=0.1, seed=0)
BENCHMARK_DIMS = [12, 3]
BENCHMARK_LAM = 1.0


def benchmark_hp(seed: int = 0, **overrides) -> HyperParams:
    base = dict(
        lam=BENCHMARK_LAM, dims=list(BENCHMARK_DIMS), max_iter=150, seed=seed
    )
    base.update(overrides)
    return HyperParams(**base)


def _row_orthonormal(rng, k, n):
    """A random k x n matrix with orthonormal rows."""
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q.T


@pytest.fixture(scope="session")
def benchmark_dataset():
    return normalize_dataset(generate_synthetic(**BENCHMARK), "l2-sample")


@pytest.fixture(scope="session")
def benchmark_fit(benchmark_dataset):
    """The canonical seed-0 run; several suites inspect its history."""
    return fit(benchmark_dataset, benchmark_hp())


@pytest.fixture(scope="session")
def nuisance_dataset():
    """Benchmark variant where each view carries a private high-energy
    subspace, so per-view structure misleads shallow factorizations."""
    ds = generate_synthetic(**BENCHMARK, nuisance_dim=9, nuisance_scale=2.0)
    return normalize_dataset(ds, "l2-sample")


@pytest.fixture
def pinv_calls(monkeypatch):
    """Shapes of every SVD pinv that the basis refits (seminmf.refit_basis) take."""
    calls = []

    def recording(a, original=seminmf_module.pinv):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(seminmf_module, "pinv", recording)
    return calls


# Metric oracles, for tests/test_metrics.py and criterion 5 of tests/test_acceptance.py.


def brute_force_assignment(cost):
    """Minimum-cost permutation by exhaustive search (viable for k <= 6)."""
    k = cost.shape[0]
    best_perm, best_value = None, math.inf
    for perm in itertools.permutations(range(k)):
        value = sum(cost[i, perm[i]] for i in range(k))
        if value < best_value:
            best_perm, best_value = perm, value
    return np.array(best_perm), best_value


def brute_force_accuracy(pred, truth):
    """Best-map accuracy by trying every label bijection."""
    k = int(max(pred.max(), truth.max())) + 1
    n = len(pred)
    best = 0
    for perm in itertools.permutations(range(k)):
        matched = sum(1 for p, t in zip(pred, truth) if perm[p] == t)
        best = max(best, matched)
    return best / n


def direct_nmi(pred, truth):
    """NMI straight from the definition, with plain dict counting."""
    n = len(pred)
    joint, cp, ct = {}, {}, {}
    for p, t in zip(pred.tolist(), truth.tolist()):
        joint[(p, t)] = joint.get((p, t), 0) + 1
        cp[p] = cp.get(p, 0) + 1
        ct[t] = ct.get(t, 0) + 1
    mi = 0.0
    for (p, t), c in joint.items():
        mi += (c / n) * math.log((c * n) / (cp[p] * ct[t]))
    hp = -sum((c / n) * math.log(c / n) for c in cp.values())
    ht = -sum((c / n) * math.log(c / n) for c in ct.values())
    if hp == 0.0 and ht == 0.0:
        return 1.0
    if hp == 0.0 or ht == 0.0:
        return 0.0
    return mi / math.sqrt(hp * ht)


def direct_purity(pred, truth):
    clusters = {}
    for p, t in zip(pred.tolist(), truth.tolist()):
        clusters.setdefault(p, []).append(t)
    total = 0
    for members in clusters.values():
        total += max(members.count(t) for t in set(members))
    return total / len(pred)

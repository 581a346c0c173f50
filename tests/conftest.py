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

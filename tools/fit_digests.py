"""Print sha256 digests of fixed fits, for checking that a change is bit-identical.

Run from a checkout: `python3 tools/fit_digests.py > digests.txt`. The script
imports mvfuse from the `src` directory next to it, so running it in two
checkouts and comparing the outputs with `diff` shows whether a change moved
any of these outputs:

- five fits: the h, labels and objective trace of each, plus its iteration
  count and final objective;
- `eval`'s stdout for the labels of the first fit against its ground truth;
- `run --manifest` on the benchmark dataset saved as text: its stdout (with
  the output directory masked), `results.tsv`, `objective_trace.txt` and
  `embedding.mvm`;
- `grid.tsv` of the grid-deep benchmark argv at `--seed` 0 and 1, and at
  `--seed` 0 with `--threads 1`, the serial path.

A fit takes a few seconds; the whole script under a minute on 2 cores.
Digests hold only at a fixed BLAS thread count (see README).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mvfuse.cli import main
from mvfuse.data import generate_synthetic, normalize_dataset, save_dataset, write_labels
from mvfuse.pipeline import HyperParams, fit

# tests/conftest.py's benchmark dataset, and its nuisance variant.
BENCHMARK = dict(n=300, k=3, view_dims=[40, 60, 80], noise_sigma=0.1, seed=0)
NUISANCE = dict(BENCHMARK, nuisance_dim=9, nuisance_scale=2.0)
# The fit-large benchmark workload's dataset.
LARGE = dict(n=3000, k=5, view_dims=[100, 200, 300], noise_sigma=0.1, seed=0)

# (name, dataset spec, layer dims, lambda, max_iter, fit seed)
FITS = [
    ("benchmark-seed0", BENCHMARK, [12, 3], 1.0, 150, 0),
    ("benchmark-seed7", BENCHMARK, [12, 3], 1.0, 150, 7),
    ("nuisance-24.12.3", NUISANCE, [24, 12, 3], 2.0**5, 30, 0),
    ("nuisance-12.6.3", NUISANCE, [12, 6, 3], 2.0**-12, 30, 3),
    ("large-seed0", LARGE, [20, 5], 1.0, 50, 0),
]

# The grid-deep benchmark workload's arguments, lambdas in ascending order.
GRID_ARGS = [
    "--lambdas", ",".join(str(v) for v in (2.0**-12, 2.0**-4, 1.0, 2.0**5)),
    "--schemes", "p2,p3", "--p2-l1", "4", "--p3-l1", "8", "--p3-l2", "4",
    "--repeats", "2", "--max-iter", "30",
]
# (name, --seed, --threads) of each grid run: the benchmark workload's two, then a serial one.
GRID_RUNS = (
    ("grid-deep-seed0", 0, 2),
    ("grid-deep-seed1", 1, 2),
    ("grid-deep-seed0-threads1", 0, 1),
)


# The fit whose labels `eval` scores.
EVAL_FIT = "benchmark-seed0"

# `run`'s arguments on the benchmark dataset: the first fit's configuration, two repeats.
RUN_ARGS = ["--lambda", "1", "--dims", "12,3", "--repeats", "2", "--seed", "0", "--emit-embedding"]
RUN_FILES = ("results.tsv", "objective_trace.txt", "embedding.mvm")


def sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def cli_stdout(argv) -> str:
    """The stdout of one CLI command, which must exit 0."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited with code {code}")
    return stdout.getvalue()


def run_fit(spec, dims, lam, max_iter, seed):
    """The dataset of one FITS entry and its fit."""
    ds = normalize_dataset(generate_synthetic(**spec), "l2-sample")
    return ds, fit(ds, HyperParams(lam=lam, dims=dims, max_iter=max_iter, seed=seed))


def fit_lines(name, *config):
    ds, res = run_fit(*config)
    yield f"{name} h {sha(res.h.tobytes())}"
    yield f"{name} labels {sha(res.labels.tobytes())}"
    yield f"{name} objectives {sha(res.objectives.tobytes())}"
    yield f"{name} iterations {res.iterations_run} final {float(res.objectives[-1])!r}"
    if name == EVAL_FIT:
        with tempfile.TemporaryDirectory() as tmp:
            pred, truth = Path(tmp) / "pred.txt", Path(tmp) / "truth.txt"
            write_labels(pred, res.labels)
            write_labels(truth, ds.truth)
            stdout = cli_stdout(["eval", "--pred", str(pred), "--truth", str(truth)])
        yield f"{name} eval {sha(stdout.encode())}"


def run_lines():
    with tempfile.TemporaryDirectory() as tmp:
        manifest = save_dataset(generate_synthetic(**BENCHMARK), Path(tmp) / "data", fmt="text")
        out = Path(tmp) / "run"
        stdout = cli_stdout(["run", "--manifest", str(manifest), "--out", str(out), *RUN_ARGS])
        yield f"benchmark-run stdout {sha(stdout.replace(str(out), 'OUT').encode())}"
        for fname in RUN_FILES:
            yield f"benchmark-run {fname} {sha((out / fname).read_bytes())}"


def grid_lines():
    with tempfile.TemporaryDirectory() as tmp:
        manifest = save_dataset(generate_synthetic(**NUISANCE), Path(tmp) / "data", fmt="text")
        for name, seed, threads in GRID_RUNS:
            out = Path(tmp) / name
            cli_stdout(["grid", "--manifest", str(manifest), "--out", str(out),
                        *GRID_ARGS, "--threads", str(threads), "--seed", str(seed)])
            yield f"{name} grid.tsv {sha((out / 'grid.tsv').read_bytes())}"


if __name__ == "__main__":
    for args in FITS:
        for line in fit_lines(*args):
            print(line, flush=True)
    for line in run_lines():
        print(line, flush=True)
    for line in grid_lines():
        print(line, flush=True)

"""Compare the outputs of two checkouts: bit-identical, or equal up to rounding.

Run `python3 tools/fit_gap.py OLD NEW` with two checkout directories. Each
checkout's mvfuse runs in its own subprocess and produces 33 outputs:

- eight fits (`FITS`; the seventh skips pretraining's multiplicative steps,
  and the eighth's near-noiseless views drive the sweep's loss expansion
  to its fallback margin) and the 16 fits that `grid` runs for `GRID_ARGS`
  at `--seed 0 --threads 1`.
  A fit's digest covers its consensus h, labels and objective trace, its
  per-iteration per-view losses, alpha and beta, and its per-iteration
  constraint residuals, smallest partition entry and degenerate-step flags;
- `eval`'s stdout for the first fit's labels against its ground truth, and
  for those labels times 1000, whose ids leave gaps;
- `run` on the benchmark dataset saved as text: its stdout (output directory
  masked), `results.tsv`, `objective_trace.txt` and `embedding.mvm`;
- `grid.tsv` of `GRID_ARGS` at `--seed` 0 and 1 with `--threads 2`, and at
  `--seed 0` with `--threads 1`, the serial path.

It prints one line per output: `identical` when the digests match; for any
other fit, whether the labels are equal (and, when they differ, whether they
number the same partition's clusters differently), both iteration counts and
the largest relative gap between the objective traces over their common
iterations; `differs` for any other file. Then `N of M outputs
bit-identical`. It exits 1 when the checkouts produce different outputs or
any fit's labels or iteration count differ, and 0 otherwise; the objective
gaps are for the reader to judge. Digests hold only at a fixed BLAS thread
count (see README). It takes under a minute on 2 cores.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# tests/conftest.py's benchmark dataset, and its nuisance variant.
BENCHMARK = dict(n=300, k=3, view_dims=[40, 60, 80], noise_sigma=0.1, seed=0)
NUISANCE = dict(BENCHMARK, nuisance_dim=9, nuisance_scale=2.0)
# The benchmark dataset almost without noise: phi h fits each view nearly exactly.
NEAR_EXACT = dict(BENCHMARK, noise_sigma=1e-6)
# The fit-large benchmark workload's dataset.
LARGE = dict(n=3000, k=5, view_dims=[100, 200, 300], noise_sigma=0.1, seed=0)

# (name, dataset spec, layer dims, lambda, max_iter, fit seed, pretrain_iters)
FITS = [
    ("benchmark-seed0", BENCHMARK, [12, 3], 1.0, 150, 0, 50),
    ("benchmark-seed7", BENCHMARK, [12, 3], 1.0, 150, 7, 50),
    ("benchmark-one-layer", BENCHMARK, [3], 1.0, 150, 0, 50),
    ("nuisance-24.12.3", NUISANCE, [24, 12, 3], 2.0**5, 30, 0, 50),
    ("nuisance-12.6.3", NUISANCE, [12, 6, 3], 2.0**-12, 30, 3, 50),
    ("large-seed0", LARGE, [20, 5], 1.0, 50, 0, 50),
    ("benchmark-pretrain0", BENCHMARK, [12, 3], 1.0, 150, 0, 0),
    ("benchmark-near-exact", NEAR_EXACT, [12, 3], 1.0, 150, 0, 50),
]
# The fit whose labels `eval` scores.
EVAL_FIT = "benchmark-seed0"

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

# `run`'s arguments on the benchmark dataset: the first fit's configuration, two repeats.
RUN_ARGS = ["--lambda", "1", "--dims", "12,3", "--repeats", "2", "--seed", "0", "--emit-embedding"]
RUN_FILES = ("results.tsv", "objective_trace.txt", "embedding.mvm")


def sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def worker(checkout: str) -> None:
    """Print one JSON record per output of `checkout`'s mvfuse."""
    src = Path(checkout).resolve() / "src"
    sys.path.insert(0, str(src))
    import mvfuse
    if not Path(mvfuse.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported mvfuse from {mvfuse.__file__}, not from {src}")
    import mvfuse.cli as cli
    from mvfuse.data import generate_synthetic, normalize_dataset, save_dataset, write_labels
    from mvfuse.pipeline import HyperParams, fit

    # Printed at the end: cli_stdout captures stdout while a command runs.
    records = []

    def keep_fit(name, res):
        history = np.array([[*rec.recon_losses, *rec.alpha, *rec.beta] for rec in res.history])
        checks = np.array([
            [rec.h_residual, *rec.w_residuals, rec.alpha_residual, rec.beta_residual,
             rec.min_h_entry, rec.consensus_degenerate, *rec.rotation_degenerate]
            for rec in res.history
        ], dtype=np.float64)
        arrays = (res.h, res.labels, res.objectives, history, checks)
        records.append({"name": name, "sha": sha(b"".join(a.tobytes() for a in arrays)),
                        "labels": res.labels.tolist(), "objectives": res.objectives.tolist()})

    def keep_file(name, blob):
        records.append({"name": name, "sha": sha(blob)})

    def cli_stdout(argv) -> str:
        """The stdout of one CLI command, which must exit 0."""
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{argv[0]} exited with code {code}")
        return stdout.getvalue()

    real_fit = cli.fit

    def recording_fit(dataset, hp):
        res = real_fit(dataset, hp)
        keep_fit(f"grid lambda={hp.lam:g} dims={','.join(map(str, hp.dims))} seed={hp.seed}", res)
        return res

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, spec, dims, lam, max_iter, seed, pretrain_iters in FITS:
            ds = normalize_dataset(generate_synthetic(**spec), "l2-sample")
            res = fit(ds, HyperParams(lam=lam, dims=dims, max_iter=max_iter, seed=seed,
                                      pretrain_iters=pretrain_iters))
            keep_fit(name, res)
            if name == EVAL_FIT:
                write_labels(tmp / "truth.txt", ds.truth)
                for suffix, labels in (("", res.labels), (" gapped", 1000 * res.labels)):
                    write_labels(tmp / "pred.txt", labels)
                    stdout = cli_stdout(["eval", "--pred", str(tmp / "pred.txt"),
                                         "--truth", str(tmp / "truth.txt")])
                    keep_file(f"{name} eval{suffix}", stdout.encode())

        manifest = save_dataset(generate_synthetic(**BENCHMARK), tmp / "benchmark", fmt="text")
        out = tmp / "run"
        stdout = cli_stdout(["run", "--manifest", str(manifest), "--out", str(out), *RUN_ARGS])
        keep_file("benchmark-run stdout", stdout.replace(str(out), "OUT").encode())
        for fname in RUN_FILES:
            keep_file(f"benchmark-run {fname}", (out / fname).read_bytes())

        manifest = save_dataset(generate_synthetic(**NUISANCE), tmp / "nuisance", fmt="text")
        for name, seed, threads in GRID_RUNS:
            # the serial run's fits are recorded; the pooled runs' only through grid.tsv
            cli.fit = recording_fit if threads == 1 else real_fit
            cli_stdout(["grid", "--manifest", str(manifest), "--out", str(tmp / name),
                        *GRID_ARGS, "--threads", str(threads), "--seed", str(seed)])
            keep_file(f"{name} grid.tsv", (tmp / name / "grid.tsv").read_bytes())
    for record in records:
        print(json.dumps(record))


def collect(checkout: str) -> dict:
    """Each output of `checkout`, keyed by name, from a worker subprocess."""
    proc = subprocess.run([sys.executable, __file__, "--worker", checkout],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: worker exited with code {proc.returncode}\n{proc.stderr}")
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    return {rec["name"]: rec for rec in records}


def same_partition(a, b) -> bool:
    """Labels a and b split the samples into the same clusters, numbered alike or not."""
    return len(a) == len(b) and len(set(zip(a, b))) == len(set(a)) == len(set(b))


def compare(old: dict, new: dict) -> bool:
    """Print one line per output and the identical count; True when both sides
    have the same outputs and every fit's labels and iteration count agree."""
    ok = old.keys() == new.keys()
    for side, mine, other in (("OLD", old, new), ("NEW", new, old)):
        for name in sorted(mine.keys() - other.keys()):
            print(f"{name:<44} only in {side}")
    identical = 0
    for name in [name for name in old if name in new]:
        x, y = old[name], new[name]
        if x["sha"] == y["sha"]:
            identical += 1
            print(f"{name:<44} identical")
        elif "labels" not in x:
            print(f"{name:<44} differs")
        else:
            same_labels = x["labels"] == y["labels"]
            a, b = np.array(x["objectives"]), np.array(y["objectives"])
            common = min(a.size, b.size)
            gap = np.abs(b[:common] - a[:common]) / np.maximum(np.abs(a[:common]), np.finfo(float).tiny)
            if same_labels:
                labels = "labels equal"
            elif same_partition(x["labels"], y["labels"]):
                labels = "labels DIFFER (the same partition, relabelled)"
            else:
                labels = "labels DIFFER (another partition)"
            print(f"{name:<44} {labels}, "
                  f"iterations {a.size}/{b.size}, max relative objective gap {gap.max():.2e}")
            ok = ok and same_labels and a.size == b.size
    print(f"{identical} of {len(old.keys() | new.keys())} outputs bit-identical")
    return ok


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
        sys.exit(0)
    if len(sys.argv) != 3:
        raise SystemExit("usage: python3 tools/fit_gap.py OLD NEW")
    sys.exit(0 if compare(collect(sys.argv[1]), collect(sys.argv[2])) else 1)

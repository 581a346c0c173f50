"""Workloads, measurement and output checks of the mvfuse benchmark.

Each workload runs as one process in a closed loop: the next operation starts
only after the previous one ends. An operation is one ``pipeline.fit`` call
(``fit-*``) or one in-process ``mvfuse grid`` invocation (``grid-deep``).

The timed run (trace 0) reports the end-to-end metrics with nothing traced.
The traced run (trace 1) is a separate process: it runs every input twice,
once untraced and once under ``mvtrace``, and reports per-layer self times
and counts per operation, plus the tracing overhead between the two.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import mvtrace

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# The first operation of a run must reproduce the committed objective trace of
# every fit it shares with reference.json (all of them at seed 0, and in every
# grid-deep run) to this relative tolerance, whose absolute part is scaled by
# the largest |objective|. Changes
# of rounding alone (BLAS thread count, a Gram-form loss or basis solve) move
# the traces by about 1e-14; raising seminmf.EPS from 1e-10 to 1e-8 moves them
# by 1e-7. The tolerance passes the first kind and fails the second.
REFERENCE_RTOL = 1e-9

# Set-up is repeated at least SETUP_REPEATS times and for SETUP_SECONDS per
# run, and reported as the median: fit-small's takes under 2 ms.
SETUP_REPEATS = 15
SETUP_SECONDS = 0.5

# Every workload fits the fixed dataset its spec names (data seed 0, as in
# tests/conftest.py). In fit-* the run seed picks the fit seeds, SEED_STRIDE
# apart per run so that runs share none. In grid-deep it picks the order of
# the lambda values on the command line, which changes which cells the two
# worker threads run side by side but no fit: the mean accuracy and NMI of its
# 16 fits vary across data seeds (NMI quartile spread 0.41 of the median over
# 8 seeds) and across fit seeds (0.20 over 10) by more than a regression bound
# can absorb, so the grid's quality is pinned to fixed fits.
DATA_SEED = 0
SEED_STRIDE = 1000

END_TO_END = (
    ("op_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("acc_mean", "ratio"),
    ("nmi_mean", "ratio"),
)

PER_LAYER = (
    ("metrics.kmeans_seed_s", "s"),
    ("metrics.kmeans_seed_calls", "count"),
    ("metrics.kmeans_final_s", "s"),
    ("metrics.score_s", "s"),
    ("linalg.svd_s", "s"),
    ("linalg.svd_calls", "count"),
    ("linalg.pinv_s", "s"),
    ("linalg.pinv_calls", "count"),
    ("seminmf.fit_layer_s", "s"),
    ("seminmf.init_layer_s", "s"),
    ("seminmf.multiplicative_step_s", "s"),
    ("deep.pretrain_view_s", "s"),
    ("deep.sweep_view_s", "s"),
    ("deep.update_basis_s", "s"),
    ("deep.update_hidden_s", "s"),
    ("deep.update_partition_s", "s"),
    ("deep.fix_partition_gauge_s", "s"),
    ("deep.reconstruction_loss_s", "s"),
    ("deep.reconstruction_loss_calls", "count"),
    ("fusion.consensus_s", "s"),
    ("fusion.rotation_s", "s"),
    ("fusion.weights_s", "s"),
    ("fusion.objective_self_s", "s"),
    ("fusion.degenerate_steps", "count"),
    ("fusion.steps", "count"),
    ("pipeline.fit_self_s", "s"),
    ("pipeline.init_state_s", "s"),
    ("pipeline.record_s", "s"),
    ("pipeline.iter_s", "s"),
    ("pipeline.iterations", "count"),
    ("data.load_s", "s"),
    ("data.bytes_read", "bytes"),
    ("cli.self_s", "s"),
    ("cli.pool_efficiency", "ratio"),
    ("cli.distinct_repeat_ratio", "ratio"),
    ("cli.repeats", "count"),
    ("trace.op_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.untraced_op_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

# Span name -> per-layer metric holding its self time. Every span name of
# mvtrace.PATCH_TABLE appears here, so the self times of one operation add up
# to trace.self_sum_s.
SELF_TIME_METRIC = {
    "cli": "cli.self_s",
    "data.load": "data.load_s",
    "data.read": "data.load_s",
    "pipeline.fit": "pipeline.fit_self_s",
    "pipeline.init_state": "pipeline.init_state_s",
    "pipeline.record": "pipeline.record_s",
    "deep.pretrain_view": "deep.pretrain_view_s",
    "deep.fix_partition_gauge": "deep.fix_partition_gauge_s",
    "deep.sweep_view": "deep.sweep_view_s",
    "deep.reconstruction_loss": "deep.reconstruction_loss_s",
    "deep.update_basis": "deep.update_basis_s",
    "deep.update_hidden": "deep.update_hidden_s",
    "deep.update_partition": "deep.update_partition_s",
    "fusion.consensus": "fusion.consensus_s",
    "fusion.rotation": "fusion.rotation_s",
    "fusion.weights": "fusion.weights_s",
    "fusion.objective": "fusion.objective_self_s",
    "metrics.kmeans_final": "metrics.kmeans_final_s",
    "metrics.kmeans_seed": "metrics.kmeans_seed_s",
    "metrics.score": "metrics.score_s",
    "seminmf.fit_layer": "seminmf.fit_layer_s",
    "seminmf.init_layer": "seminmf.init_layer_s",
    "seminmf.multiplicative_step": "seminmf.multiplicative_step_s",
    "linalg.pinv": "linalg.pinv_s",
    "linalg.svd": "linalg.svd_s",
}

CALL_COUNT_METRIC = {
    "metrics.kmeans_seed": "metrics.kmeans_seed_calls",
    "linalg.svd": "linalg.svd_calls",
    "linalg.pinv": "linalg.pinv_calls",
    "deep.reconstruction_loss": "deep.reconstruction_loss_calls",
}


@dataclasses.dataclass(frozen=True)
class FitWorkload:
    """One pipeline.fit per operation; operation i uses fit seed base + i."""

    name: str
    n: int
    k: int
    view_dims: tuple
    dims: tuple
    lam: float
    max_iter: int
    sigma: float = 0.1

    def generate(self, data, seed: int):
        return data.generate_synthetic(
            n=self.n, k=self.k, view_dims=list(self.view_dims),
            noise_sigma=self.sigma, seed=seed,
        )


@dataclasses.dataclass(frozen=True)
class GridWorkload:
    """One in-process `mvfuse grid` run per operation over a text-format dataset."""

    name: str
    n: int
    k: int
    view_dims: tuple
    lambdas: tuple
    p2_l1: tuple       # two-layer schemes [c*k, k]
    p3_l1: tuple       # three-layer schemes [c1*k, c2*k, k]
    p3_l2: tuple
    repeats: int
    threads: int
    nuisance_dim: int
    nuisance_scale: float
    max_iter: int = 150
    sigma: float = 0.1

    @property
    def cells(self) -> int:
        schemes = len(self.p2_l1) + len(self.p3_l1) * len(self.p3_l2)
        return schemes * len(self.lambdas)

    def generate(self, data, seed: int):
        return data.generate_synthetic(
            n=self.n, k=self.k, view_dims=list(self.view_dims),
            noise_sigma=self.sigma, seed=seed,
            nuisance_dim=self.nuisance_dim, nuisance_scale=self.nuisance_scale,
        )

    def argv(self, manifest, out, seed: int) -> list[str]:
        def csv(values):
            return ",".join(str(v) for v in values)

        order = np.random.default_rng(seed).permutation(len(self.lambdas))
        return [
            "grid", "--manifest", str(manifest), "--out", str(out),
            "--lambdas", csv(self.lambdas[i] for i in order), "--schemes", "p2,p3",
            "--p2-l1", csv(self.p2_l1), "--p3-l1", csv(self.p3_l1),
            "--p3-l2", csv(self.p3_l2), "--repeats", str(self.repeats),
            "--threads", str(self.threads), "--max-iter", str(self.max_iter),
            "--seed", str(DATA_SEED),
        ]


# Why each workload (BENCHMARK.json repeats these reasons):
#   fit-small  the tests' benchmark fit; the per-iteration sweep dominates and
#              k-means seeding is a minor share.
#   fit-large  ten times the samples; pretraining k-means seeding and the
#              reconstruction loss dominate while the sweep is small.
#   grid-deep  the paper's evaluation path through the grid CLI: text parsing,
#              three-layer chains, both ends of the lambda range, and a
#              two-thread pool contending for the interpreter lock and BLAS.
#              30 iterations instead of the CLI's 150 keep one grid near 8 s,
#              so a run holds several and its median can drop the ones that
#              other guests of the host slowed down.
WORKLOADS = {
    w.name: w
    for w in (
        FitWorkload(
            name="fit-small",
            n=300, k=3, view_dims=(40, 60, 80), dims=(12, 3), lam=1.0, max_iter=150,
        ),
        FitWorkload(
            name="fit-large",
            n=3000, k=5, view_dims=(100, 200, 300), dims=(20, 5), lam=1.0, max_iter=50,
        ),
        GridWorkload(
            name="grid-deep",
            n=300, k=3, view_dims=(40, 60, 80),
            lambdas=(2.0**-12, 2.0**-4, 1.0, 2.0**5),
            p2_l1=(4,), p3_l1=(8,), p3_l2=(4,),
            repeats=2, threads=2, nuisance_dim=9, nuisance_scale=2.0, max_iter=30,
        ),
    )
}


def import_mvfuse(root: Path) -> dict:
    """Import mvfuse from root/src and nowhere else; returns its modules by name."""
    import importlib
    import sys

    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    modules = {}
    for name in ("cli", "data", "deep", "fusion", "linalg", "metrics", "pipeline", "seminmf"):
        mod = importlib.import_module(f"mvfuse.{name}")
        if src not in Path(mod.__file__).resolve().parents:
            raise ImportError(f"mvfuse.{name} was imported from {mod.__file__}, not {src}")
        modules[f"mvfuse.{name}"] = mod
    return modules


# --------------------------------------------------------------- machine

def _openblas_runtime() -> list[dict]:
    """Configuration and thread count of every OpenBLAS library loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        for prefix, suffix in (("", ""), ("scipy_", "64_"), ("scipy_", ""), ("", "64_")):
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                entry["config"] = config().decode()
                entry["num_threads"] = int(threads())
                break
        found.append(entry)
    return found


def steal_seconds() -> float | None:
    """CPU time the hypervisor has given other guests, summed over this machine's CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if fields[:1] != ["cpu"] or len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def machine_info() -> dict:
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_runtime(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "platform": platform.platform(),
    }


# --------------------------------------------------------------- checks

def check_fit(res, k: int) -> list[str]:
    """Labels lie in [0, k); the history is non-empty and finite."""
    problems = []
    labels = np.asarray(res.labels)
    if labels.size == 0 or labels.min() < 0 or labels.max() >= k:
        problems.append(f"labels outside [0, {k})")
    if not res.history:
        problems.append("empty history")
    for rec in res.history:
        values = [rec.objective, rec.recon_losses, rec.alpha, rec.beta]
        if not all(np.all(np.isfinite(v)) for v in values):
            problems.append("non-finite history")
            break
    return problems


def trace_matches(trace, reference, rtol: float = REFERENCE_RTOL) -> bool:
    trace = np.asarray(trace, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if trace.shape != reference.shape:
        return False
    atol = rtol * float(np.max(np.abs(reference)))
    return bool(np.allclose(trace, reference, rtol=rtol, atol=atol))


def load_reference(workload) -> dict | None:
    """Reference traces by fit key, or None if they were recorded for another spec."""
    entry = json.loads(REFERENCE_PATH.read_text())["workloads"][workload.name]
    return entry["traces"] if entry["spec"] == repr(workload) else None


def fit_key(dims, lam, seed) -> str:
    return f"dims={','.join(str(d) for d in dims)} lam={float(lam)!r} seed={int(seed)}"


# --------------------------------------------------------------- operations

@dataclasses.dataclass
class OpOutcome:
    wall: float
    cpu: float
    fits: list            # (dims, lam, seed, FitResult)
    problems: list


class FitRunner:
    def __init__(self, workload: FitWorkload, modules: dict, seed: int, workdir: Path):
        self.w, self.modules, self.seed = workload, modules, seed

    def setup(self):
        data = self.modules["mvfuse.data"]
        self.dataset = data.normalize_dataset(self.w.generate(data, DATA_SEED), "l2-sample")

    def hp(self, index: int):
        return self.modules["mvfuse.pipeline"].HyperParams(
            lam=self.w.lam, dims=list(self.w.dims), max_iter=self.w.max_iter,
            seed=SEED_STRIDE * self.seed + index,
        )

    def run(self, index: int) -> OpOutcome:
        hp = self.hp(index)
        fit = self.modules["mvfuse.pipeline"].fit   # looked up per call: tracing patches it
        wall0, cpu0 = time.perf_counter(), time.process_time()
        res = fit(self.dataset, hp)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return OpOutcome(wall, cpu, [(hp.dims, hp.lam, hp.seed, res)], check_fit(res, self.w.k))


class GridRunner:
    def __init__(self, workload: GridWorkload, modules: dict, seed: int, workdir: Path):
        self.w, self.modules, self.seed = workload, modules, seed
        self.data_dir = workdir / "data"
        self.out_dir = workdir / "out"

    def setup(self):
        data = self.modules["mvfuse.data"]
        self.manifest = data.save_dataset(
            self.w.generate(data, DATA_SEED), self.data_dir, fmt="text"
        )

    @contextlib.contextmanager
    def _recording(self):
        """Collect every FitResult the CLI produces, from any thread.

        Timed runs keep this one thin wrapper (16 calls per grid): the output
        checks and quality metrics need every fit's result.
        """
        cli = self.modules["mvfuse.cli"]
        original = cli.fit
        fits, lock = [], threading.Lock()

        def recording_fit(dataset, hp):
            res = original(dataset, hp)
            with lock:
                fits.append((list(hp.dims), hp.lam, hp.seed, res))
            return res

        cli.fit = recording_fit
        try:
            yield fits
        finally:
            cli.fit = original

    def run(self, index: int) -> OpOutcome:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = self.w.argv(self.manifest, self.out_dir, self.seed)
        with self._recording() as fits, contextlib.redirect_stdout(io.StringIO()):
            main = self.modules["mvfuse.cli"].main   # looked up per call: tracing patches it
            wall0, cpu0 = time.perf_counter(), time.process_time()
            code = main(argv)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        problems = [] if code == 0 else [f"grid exited with code {code}"]
        problems += self._check_table()
        expected = self.w.cells * self.w.repeats
        if len(fits) != expected:
            problems.append(f"{len(fits)} fits recorded, expected {expected}")
        fits.sort(key=lambda f: (len(f[0]), f[0], f[1], f[2]))
        for *_, res in fits:
            problems += check_fit(res, self.w.k)
        return OpOutcome(wall, cpu, fits, problems)

    def _check_table(self) -> list[str]:
        table = self.out_dir / "grid.tsv"
        if not table.is_file():
            return ["grid.tsv not written"]
        rows = table.read_text().splitlines()
        header, body = rows[0].split("\t"), rows[1:]
        status = header.index("status")
        problems = []
        if len(body) != self.w.cells:
            problems.append(f"grid.tsv has {len(body)} cells, expected {self.w.cells}")
        bad = [r.split("\t")[0] for r in body if r.split("\t")[status] != "ok"]
        if bad:
            problems.append(f"grid cells not ok: {','.join(bad)}")
        return problems


def make_runner(workload, modules, seed, workdir):
    cls = GridRunner if isinstance(workload, GridWorkload) else FitRunner
    return cls(workload, modules, seed, workdir)


def check_reference(workload, outcome: OpOutcome, seed: int) -> list[str]:
    """An operation's fits must reproduce every committed objective trace they
    share a fit seed with; at run seed 0 they must share them all."""
    reference = load_reference(workload)
    if reference is None:
        return []
    got = {fit_key(d, lam, s): res.objectives for d, lam, s, res in outcome.fits}
    if seed == 0 and set(got) != set(reference):
        return [f"fits {sorted(got)} differ from the reference fits {sorted(reference)}"]
    return [
        f"objective trace of {key} differs from the reference"
        for key in sorted(set(got) & set(reference))
        if not trace_matches(got[key], reference[key])
    ]


# --------------------------------------------------------------- statistics

def median(values):
    return float(statistics.median(values)) if values else float("nan")


def mean(values):
    return float(statistics.fmean(values)) if values else 0.0


def spread(values) -> str:
    """Median, quartiles, and the highest percentile with ten samples beyond it."""
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    text = f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"
    if len(values) > 10:
        pct = int(100 * (len(values) - 10) / len(values))
        text += f" p{pct}={float(np.percentile(values, pct)):.6g}"
    return text


def fit_quality(outcomes) -> tuple[float, float]:
    fits = [res for o in outcomes for *_, res in o.fits if res.scores is not None]
    return (mean([r.scores["acc"] for r in fits]), mean([r.scores["nmi"] for r in fits]))


# --------------------------------------------------------------- the run loop

class Run:
    """Closed loop of operations; a new one starts only if it should end in time."""

    def __init__(self, workload, seed: int, seconds: float, root: Path, modules: dict):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.modules = modules
        work_root = root / "bench" / ".work"
        work_root.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
        self.runner = make_runner(workload, modules, seed, self.workdir)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.loop_s = 0.0
        self.steal_s: float | None = None

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def setup(self) -> list[float]:
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            t0 = time.perf_counter()
            self.runner.setup()
            times.append(time.perf_counter() - t0)
        return times

    def attempt(self, index: int, check_ref: bool) -> OpOutcome | None:
        self.attempted += 1
        try:
            outcome = self.runner.run(index)
        except (self.modules["mvfuse.linalg"].NumericalError, ValueError) as exc:
            self.failed += 1
            self.problems.append(f"op {index}: {type(exc).__name__}: {exc}")
            return None
        problems = list(outcome.problems)
        if check_ref:
            problems += check_reference(self.workload, outcome, self.seed)
        if problems:
            self.failed += 1
            self.problems += [f"op {index}: {p}" for p in problems]
        return outcome

    def loop(self, step):
        """Call step(i) until the next call would likely end after the deadline."""
        t0, steal0 = time.perf_counter(), steal_seconds()
        durations = []
        i = 0
        while True:
            s0 = time.perf_counter()
            step(i)
            durations.append(time.perf_counter() - s0)
            i += 1
            self.loop_s = time.perf_counter() - t0
            if self.loop_s + median(durations) > self.seconds:
                break
        steal1 = steal_seconds()
        if steal0 is not None and steal1 is not None:
            self.steal_s = steal1 - steal0

    def timed(self) -> tuple[dict, dict]:
        setup_times = self.setup()
        outcomes = []

        def step(i):
            outcome = self.attempt(i, check_ref=(i == 0))
            if outcome is not None:
                outcomes.append(outcome)

        self.loop(step)
        acc, nmi = fit_quality(outcomes)
        values = {
            "op_s": median([o.wall for o in outcomes]),
            "cpu_s": median([o.cpu for o in outcomes]),
            "setup_s": median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "acc_mean": acc,
            "nmi_mean": nmi,
        }
        notes = {
            "op_s": spread([o.wall for o in outcomes]),
            "cpu_s": spread([o.cpu for o in outcomes]),
            "setup_s": spread(setup_times),
            "acc_mean": f"over {sum(len(o.fits) for o in outcomes)} fits",
            "nmi_mean": f"over {sum(len(o.fits) for o in outcomes)} fits",
        }
        return values, notes

    def traced(self, trace_path: Path) -> tuple[dict, dict]:
        self.setup()
        tracer = mvtrace.Tracer()
        plain, traced = [], []

        def traced_attempt(i):
            tracer.install(self.modules)
            try:
                with tracer.operation(i):
                    return self.attempt(i, check_ref=(i == 0))
            finally:
                tracer.restore()

        def plain_attempt(i):
            return self.attempt(i, check_ref=False)

        def step(i):
            # the same input untraced and traced; alternate which runs first
            if i % 2 == 0:
                a, b = plain_attempt(i), traced_attempt(i)
            else:
                b, a = traced_attempt(i), plain_attempt(i)
            if a is not None and b is not None:
                plain.append(a)
                traced.append((i, b))

        self.loop(step)
        write_spans(trace_path, tracer, self.workload, self.seed)
        values = layer_metrics(self.workload, tracer, plain, traced)
        notes = {
            "trace.op_s": f"mean of {len(traced)} traced operations",
            "trace.self_sum_s": "sum of every self time above",
            "trace.overhead_s": "traced minus untraced, same inputs",
            "fusion.degenerate_steps": "of fusion.steps consensus and rotation steps",
            "pipeline.iter_s": "median over every outer iteration",
        }
        if isinstance(self.workload, GridWorkload):
            notes["cli.pool_efficiency"] = (
                f"fit wall time / ({self.workload.threads} threads x grid wall time)")
            notes["cli.distinct_repeat_ratio"] = "distinct (objective, labels) per repeat"
        else:
            for name in ("data.load_s", "data.bytes_read", "cli.self_s", "cli.pool_efficiency",
                         "cli.distinct_repeat_ratio", "cli.repeats"):
                notes[name] = "(no grid CLI in this workload)"
        return values, notes


def layer_metrics(workload, tracer, plain, traced) -> dict:
    """Per-operation means over the traced operations, so parts add up to the whole."""
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)
    per_op = []
    iter_times = []
    for op, outcome in traced:
        spans = by_op[op]
        row = defaultdict(float)
        for name, t in mvtrace.self_time_by_name(spans).items():
            row[SELF_TIME_METRIC[name]] += t
        for s in spans:
            if s.name in CALL_COUNT_METRIC:
                row[CALL_COUNT_METRIC[s.name]] += 1
        row["trace.self_sum_s"] = sum(row[m] for m in set(SELF_TIME_METRIC.values()))
        row["trace.op_s"] = outcome.wall
        row["trace.spans"] = len(spans)
        row["data.bytes_read"] = tracer.counts.get((op, "data.read"), 0.0)
        fits = [res for *_, res in outcome.fits]
        row["pipeline.iterations"] = sum(r.iterations_run for r in fits)
        row["fusion.degenerate_steps"] = sum(
            int(rec.consensus_degenerate) + int(np.sum(rec.rotation_degenerate))
            for r in fits for rec in r.history
        )
        row["fusion.steps"] = sum(
            1 + len(rec.rotation_degenerate) for r in fits for rec in r.history
        )
        iter_times += iteration_times(spans)
        if isinstance(workload, GridWorkload):
            cli = [s for s in spans if s.name == "cli"]
            fit_wall = sum(s.end - s.start for s in spans if s.name == "pipeline.fit")
            cli_wall = sum(s.end - s.start for s in cli)
            row["cli.pool_efficiency"] = fit_wall / (workload.threads * cli_wall)
            row["cli.distinct_repeat_ratio"] = distinct_repeat_ratio(outcome.fits)
            row["cli.repeats"] = workload.repeats
        per_op.append(row)
    values = {name: mean([row.get(name, 0.0) for row in per_op]) for name, _ in PER_LAYER}
    values["pipeline.iter_s"] = median(iter_times) if iter_times else 0.0
    values["trace.untraced_op_s"] = mean([o.wall for o in plain])
    values["trace.overhead_s"] = values["trace.op_s"] - values["trace.untraced_op_s"]
    return values


def iteration_times(spans) -> list[float]:
    """Outer-iteration wall times: from init_state's end to each record's end."""
    children = defaultdict(list)
    for s in spans:
        if s.name in ("pipeline.init_state", "pipeline.record"):
            children[s.parent].append(s)
    out = []
    for group in children.values():
        group.sort(key=lambda s: s.end)
        ends = [s.end for s in group]
        if group[0].name == "pipeline.init_state":
            out += [b - a for a, b in zip(ends, ends[1:])]
    return out


def distinct_repeat_ratio(fits) -> float:
    """Mean over grid cells of distinct (objective, labels) outcomes per repeat."""
    cells = defaultdict(set)
    counts = defaultdict(int)
    for dims, lam, _, res in fits:
        key = (tuple(dims), lam)
        cells[key].add((res.history[-1].objective, np.asarray(res.labels).tobytes()))
        counts[key] += 1
    return mean([len(cells[key]) / counts[key] for key in cells])


def write_spans(path: Path, tracer, workload, seed: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# workload={workload.name} seed={seed} machine={json.dumps(machine_info())}\n")
        fh.write("id\tparent\tname\tstart\tend\top\tthread\n")
        for s in tracer.spans:
            fh.write(f"{s.id}\t{s.parent}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.op}\t{s.thread}\n")

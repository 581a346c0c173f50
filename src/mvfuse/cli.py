"""Command-line front end: run, grid, synth, eval."""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from mvfuse.data import (
    DEFAULT_FORMAT,
    DEFAULT_NORMALIZATION,
    MATRIX_FORMATS,
    NORMALIZATION_SCHEMES,
    MultiViewDataset,
    generate_synthetic,
    load_dataset,
    normalize_dataset,
    read_labels,
    save_dataset,
    write_matrix_binary,
)
from mvfuse.deep import validate_layer_dims
from mvfuse.linalg import NumericalError
from mvfuse.pipeline import SCORE_KEYS, HyperParams, fit, score_labels, shared_pretraining

LAMBDA_EXPONENTS = range(-12, 6)          # 2^-12 .. 2^5, 18 values
SCHEME_KINDS = ("p2", "p3")               # two- and three-layer scheme families
SCHEME_FLAGS = {"p2": "--p2-l1", "p3": "--p3-l1/--p3-l2"}  # the flags each family reads
P2_L1_MULTIPLIERS = (4, 5, 6)             # two-layer schemes [c*k, k]
P3_L1_MULTIPLIERS = (8, 10, 12)           # three-layer schemes [c1*k, c2*k, k]
P3_L2_MULTIPLIERS = (4, 5, 6)


def lambda_grid() -> list[float]:
    return [float(2.0**e) for e in LAMBDA_EXPONENTS]


def layer_schemes(k, kinds=SCHEME_KINDS, p2_l1=P2_L1_MULTIPLIERS,
                  p3_l1=P3_L1_MULTIPLIERS, p3_l2=P3_L2_MULTIPLIERS):
    """The layer widths of every scheme of the given kinds, each of SCHEME_KINDS.

    A scheme that no data with k clusters admits is an error naming the flags
    of its family; whether a scheme fits the data is left to its fits.
    """
    for kind in kinds:
        if kind not in SCHEME_KINDS:
            raise ValueError(f"--schemes items must be {' or '.join(SCHEME_KINDS)}, got {kind!r}")
    families = {
        "p2": [[c * k, k] for c in p2_l1],
        "p3": [[c1 * k, c2 * k, k] for c1 in p3_l1 for c2 in p3_l2],
    }
    schemes = []
    for kind in SCHEME_KINDS:
        if kind not in kinds:
            continue
        for dims in families[kind]:
            try:
                validate_layer_dims(dims, k)
            except ValueError as exc:
                raise ValueError(f"{SCHEME_FLAGS[kind]}: {exc}") from None
        schemes += families[kind]
    return schemes


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{x:.12g}"


def _parse_list(text, flag, parse=int):
    """The values of a comma-separated list flag: spaces around an item are
    ignored, no item is empty and no value is repeated."""
    items = [t.strip() for t in str(text).split(",")]
    try:
        values = [] if "" in items else [parse(t) for t in items]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"{flag} must be a comma-separated {parse.__name__} list "
                         f"with no empty item, got {text!r}")
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise ValueError(f"{flag} repeats the value {repeated!r}, got {text!r}")
    return values


# Synthetic spec key -> (generate_synthetic keyword, value parser), for run, grid and synth.
SYNTHETIC_SPEC_KEYS = {
    "n": ("n", int),
    "k": ("k", int),
    "dims": ("view_dims", lambda v: [int(t) for t in v.split("/")]),
    "sigma": ("noise_sigma", float),
    "seed": ("seed", int),
    "nuisance-dim": ("nuisance_dim", int),
    "nuisance-scale": ("nuisance_scale", float),
    "name": ("name", str),
}

SYNTHETIC_HELP = "synthetic dataset spec, e.g. n=300,k=3,dims=40/60/80,sigma=0.1,seed=7"


def _parse_synthetic_spec(spec: str) -> dict:
    """Parse "n=300,k=3,dims=40/60/80,sigma=0.1,seed=7[,...]" into generator kwargs.

    Like a list flag's items, spaces around a key or value are ignored and no
    item is empty. Every error names --synthetic.
    """
    kwargs = {}
    for item in spec.split(","):
        if not item.strip():
            raise ValueError(f"--synthetic must be comma-separated key=value items "
                             f"with no empty item, got {spec!r}")
        if "=" not in item:
            raise ValueError(f"--synthetic item {item!r} is not key=value")
        key, value = (t.strip() for t in item.split("=", 1))
        if key not in SYNTHETIC_SPEC_KEYS:
            raise ValueError(f"--synthetic key {key!r} is unknown; the keys are "
                             f"{', '.join(SYNTHETIC_SPEC_KEYS)}")
        keyword, parse = SYNTHETIC_SPEC_KEYS[key]
        if keyword in kwargs:
            raise ValueError(f"--synthetic key {key!r} given twice")
        try:
            kwargs[keyword] = parse(value)
        except ValueError as exc:
            raise ValueError(f"--synthetic key {key!r} has a bad value {value!r}") from exc
    for key in ("n", "k", "dims"):
        if SYNTHETIC_SPEC_KEYS[key][0] not in kwargs:
            raise ValueError(f"--synthetic is missing key {key!r}")
    return kwargs


def _synthetic_dataset(spec: str) -> MultiViewDataset:
    """The raw dataset of a --synthetic spec; every error names --synthetic and its key."""
    names = {keyword: f"--synthetic {key}" for key, (keyword, _) in SYNTHETIC_SPEC_KEYS.items()}
    return generate_synthetic(**_parse_synthetic_spec(spec), names=names)


def _load_data(args):
    """Check the options run and grid share; return the normalized dataset,
    which records the scheme applied to it."""
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {out}: {existing} is not a directory")
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    if bool(args.manifest) == bool(args.synthetic):
        raise ValueError("provide exactly one of --manifest or --synthetic")
    if args.manifest:
        return load_dataset(args.manifest, normalization=args.norm)
    dataset = _synthetic_dataset(args.synthetic)
    return normalize_dataset(dataset, args.norm or DEFAULT_NORMALIZATION)


# HyperParams field -> the run/grid flag that sets it; lam's flag is per command.
FIT_FLAGS = {"max_iter": "--max-iter", "tol": "--tol", "kmeans_restarts": "--restarts",
             "pretrain_iters": "--pretrain-iters", "seed": "--seed"}


def _repeat_params(args, lam, dims, lam_flag) -> list[HyperParams]:
    """The validated HyperParams of every repeat; repeat i has seed --seed + i."""
    hp = HyperParams(lam=lam, dims=dims, **{f: getattr(args, f) for f in FIT_FLAGS})
    hp.validate(names={**FIT_FLAGS, "lam": lam_flag})
    return [replace(hp, seed=hp.seed + i) for i in range(args.repeats)]


def _map(fn, items, threads):
    """[fn(item) for item in items], on a pool of `threads` workers when threads > 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _values(res) -> list:
    """Objective, acc, nmi and pur of one repeat; the scores are None without ground truth."""
    scores = res.scores or {}
    return [res.history[-1].objective] + [scores.get(key) for key in SCORE_KEYS]


def _mean_std(values):
    values = [v for v in values if v is not None]
    if not values:
        return None, None
    return float(np.mean(values)), float(np.std(values))


def _summary(values):
    """Best repeat index, then the mean and the std of every column of values.

    values holds one _values row per repeat. The best repeat has the highest
    accuracy when scored, the lowest objective otherwise.
    """
    if values[0][1] is not None:
        best = int(np.argmax([v[1] for v in values]))
    else:
        best = int(np.argmin([v[0] for v in values]))
    stats = [_mean_std(column) for column in zip(*values)]
    return best, [mean for mean, _ in stats], [std for _, std in stats]


RESULT_COLUMNS = "repeat seed lambda dims norm iterations objective".split() + list(SCORE_KEYS)


def _results_table(results, repeats, norm):
    values = [_values(res) for res in results]
    best, mean, std = _summary(values)
    config = [_fmt(repeats[0].lam), ",".join(str(d) for d in repeats[0].dims), norm]
    rows = ["\t".join(RESULT_COLUMNS)]

    def row(tag, seed_text, iters, values):
        rows.append("\t".join([tag, seed_text, *config, iters] + [_fmt(v) for v in values]))

    for i, res in enumerate(results):
        row(str(i), str(repeats[i].seed), str(res.iterations_run), values[i])
    row("best", str(repeats[best].seed), str(results[best].iterations_run), values[best])
    row("mean", "-", "-", mean)
    row("std", "-", "-", std)
    return "\n".join(rows) + "\n", best


def cmd_run(args) -> int:
    dataset = _load_data(args)
    dims = _parse_list(args.dims, "--dims")
    repeats = _repeat_params(args, args.lam, dims, "--lambda")
    results = _map(lambda hp: fit(dataset, hp), repeats, args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table, best = _results_table(results, repeats, dataset.normalization)
    (out / "results.tsv").write_text(table)
    trace = "\n".join(_fmt(obj) for obj in results[best].objectives.tolist()) + "\n"
    (out / "objective_trace.txt").write_text(trace)
    if args.emit_embedding:
        write_matrix_binary(out / "embedding.mvm", results[best].h)
    best_res = results[best]
    print(f"dataset {dataset.name}: {dataset.num_views} views, n={dataset.n}, k={dataset.k}")
    print(f"repeats={args.repeats} lambda={_fmt(args.lam)} dims={','.join(map(str, dims))}")
    if best_res.scores is not None:
        scores = " ".join(f"{key}={_fmt(best_res.scores[key])}" for key in SCORE_KEYS)
        print(f"best repeat {best}: {scores}")
    else:
        print(f"best repeat {best}: objective={_fmt(best_res.history[-1].objective)}")
    print(f"wrote {out / 'results.tsv'}")
    return 0


GRID_COLUMNS = (
    "cell lambda dims norm repeats status".split()
    + [f"best_{key}" for key in SCORE_KEYS]
    + [f"{stat}_{key}" for key in SCORE_KEYS for stat in ("mean", "std")]
    + ["mean_objective", "error"]
)


def cmd_grid(args) -> int:
    dataset = _load_data(args)
    schemes = layer_schemes(
        dataset.k, _parse_list(args.schemes, "--schemes", str),
        p2_l1=_parse_list(args.p2_l1, "--p2-l1"),
        p3_l1=_parse_list(args.p3_l1, "--p3-l1"),
        p3_l2=_parse_list(args.p3_l2, "--p3-l2"),
    )
    lambdas = lambda_grid() if args.lambdas is None else _parse_list(args.lambdas, "--lambdas", float)
    # Options are checked for every cell before any fit; only a layer scheme
    # that does not fit the data fails inside its own cell. One row of cells
    # per scheme, one cell per lambda, one HyperParams per repeat of a cell.
    cells = [[_repeat_params(args, lam, dims, "--lambdas") for lam in lambdas] for dims in schemes]

    # One group per (layer scheme, repeat): pretraining never reads lambda,
    # so each group pretrains once and fine-tunes every lambda from that start.
    # A group keeps each fit's _values row, or a failed fit's message: all the
    # table reads, so memory does not grow with the number of fits.
    def run_group(group):
        fits = []
        with shared_pretraining():
            for hp in group:
                try:
                    fits.append(_values(fit(dataset, hp)))
                except (ValueError, NumericalError) as exc:
                    fits.append(str(exc))
        return fits

    groups = [[cell[i] for cell in row] for row in cells for i in range(args.repeats)]
    group_fits = iter(_map(run_group, groups, args.threads))
    rows = ["\t".join(GRID_COLUMNS)]
    best_acc, best_line, failed = -1.0, None, 0
    for row in cells:
        per_repeat = [next(group_fits) for _ in range(args.repeats)]
        for (hp, *_), values in zip(row, zip(*per_repeat)):
            head = [str(len(rows) - 1), _fmt(hp.lam), ",".join(str(d) for d in hp.dims),
                    dataset.normalization, str(args.repeats)]
            # a failed cell reports its lowest-seed failure
            failure = next((v for v in values if isinstance(v, str)), None)
            if failure is not None:
                failed += 1
                error = failure.replace("\t", " ").replace("\n", " ")
                nans = ["nan"] * (len(GRID_COLUMNS) - len(head) - 2)
                rows.append("\t".join(head + ["failed"] + nans + [error]))
                continue
            top, mean, std = _summary(values)
            best_scores = values[top][1:]
            spread = [stat for pair in zip(mean[1:], std[1:]) for stat in pair]
            rows.append("\t".join(
                head + ["ok"] + [_fmt(v) for v in best_scores + spread + [mean[0]]] + [""]
            ))
            acc = best_scores[0]
            if acc is not None and acc > best_acc:
                best_acc = acc
                best_line = f"best cell {head[0]}: lambda={head[1]} dims={head[2]} acc={_fmt(acc)}"

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "grid.tsv").write_text("\n".join(rows) + "\n")
    ncells = len(rows) - 1
    print(f"grid: {ncells} cells ({ncells - failed} ok, {failed} failed)")
    if best_line is not None:
        print(best_line)
    print(f"wrote {out / 'grid.tsv'}")
    return 0


def cmd_synth(args) -> int:
    ds = _synthetic_dataset(args.synthetic)
    manifest = save_dataset(ds, args.out, fmt=args.format, normalization=args.norm)
    print(f"wrote {manifest}")
    return 0


def cmd_eval(args) -> int:
    pred, truth = read_labels(args.pred), read_labels(args.truth)
    if pred.size != truth.size:
        raise ValueError(
            f"--pred {args.pred} has {pred.size} labels, --truth {args.truth} has {truth.size}"
        )
    scores = score_labels(pred, truth)
    for key in SCORE_KEYS:
        print(f"{key.upper()} {_fmt(scores[key])}")
    return 0


def _add_data_args(p):
    p.add_argument("--manifest", help="dataset manifest path")
    p.add_argument("--synthetic", help=SYNTHETIC_HELP)
    p.add_argument("--norm", choices=list(NORMALIZATION_SCHEMES), default=None,
                   help=f"normalization override (default: manifest tag or {DEFAULT_NORMALIZATION})")


def _add_fit_args(p):
    defaults = {f.name: f.default for f in fields(HyperParams)}
    for name, flag in FIT_FLAGS.items():
        p.add_argument(flag, dest=name, type=type(defaults[name]), default=defaults[name],
                       help=f"HyperParams.{name} (default: %(default)s)")
    p.add_argument("--repeats", type=int, default=50)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvfuse",
        description="Multi-view clustering via layered semi-NMF and partition alignment",
        allow_abbrev=False,  # a prefix such as --lam must not stand in for --lambda
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="fit one configuration over repeated seeds", allow_abbrev=False)
    _add_data_args(p)
    _add_fit_args(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="alignment weight")
    p.add_argument("--dims", required=True,
                   help="comma-separated layer widths, last must equal k")
    p.add_argument("--emit-embedding", action="store_true",
                   help="also write the best consensus matrix")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("grid", help="sweep the lambda grid x layer schemes", allow_abbrev=False)
    _add_data_args(p)
    _add_fit_args(p)
    p.add_argument("--lambdas", default=None,
                   help="comma-separated lambda values (default: 2^-12..2^5)")
    p.add_argument("--schemes", default=",".join(SCHEME_KINDS), help="subset of %(default)s")
    p.add_argument("--p2-l1", default=",".join(map(str, P2_L1_MULTIPLIERS)),
                   help="first-layer multipliers for two-layer schemes")
    p.add_argument("--p3-l1", default=",".join(map(str, P3_L1_MULTIPLIERS)),
                   help="first-layer multipliers for three-layer schemes")
    p.add_argument("--p3-l2", default=",".join(map(str, P3_L2_MULTIPLIERS)),
                   help="second-layer multipliers for three-layer schemes")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("synth", help="generate a synthetic dataset on disk", allow_abbrev=False)
    p.add_argument("--synthetic", required=True, help=SYNTHETIC_HELP)
    p.add_argument("--format", choices=list(MATRIX_FORMATS), default=DEFAULT_FORMAT)
    p.add_argument("--norm", choices=list(NORMALIZATION_SCHEMES), default=DEFAULT_NORMALIZATION,
                   help="normalization tag recorded in the manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score a predicted labeling against ground truth",
                       allow_abbrev=False)
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NumericalError, OSError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from mvfuse.cli import (
    _parse_synthetic_spec,
    build_parser,
    lambda_grid,
    layer_schemes,
    main,
)
from mvfuse.data import (
    Manifest,
    generate_synthetic,
    load_dataset,
    read_matrix,
    save_dataset,
    write_labels,
    write_matrix,
)
from mvfuse.pipeline import HyperParams

README = Path(__file__).resolve().parent.parent / "README.md"

SMALL_SPEC = "n=40,k=3,dims=10/14,sigma=0.05,seed=7"
SMALL_RUN = [
    "run", "--synthetic", SMALL_SPEC, "--lambda", "1", "--dims", "6,3",
    "--repeats", "2", "--max-iter", "10", "--restarts", "5",
]


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    return header, [dict(zip(header, line.split("\t"))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# grid construction helpers


def test_lambda_grid_spans_the_exponent_range():
    grid = lambda_grid()
    assert len(grid) == 18
    assert grid[0] == 2.0**-12
    assert grid[-1] == 2.0**5
    assert all(b == 2 * a for a, b in zip(grid, grid[1:]))


def test_layer_schemes_cover_two_and_three_layer_families():
    schemes = layer_schemes(3)
    assert [12, 3] in schemes and [18, 3] in schemes
    assert [24, 12, 3] in schemes and [36, 18, 3] in schemes
    assert len(schemes) == 3 + 9
    assert layer_schemes(3, kinds=("p2",)) == [[12, 3], [15, 3], [18, 3]]


def test_parse_synthetic_spec():
    kwargs = _parse_synthetic_spec("n=60,k=4,dims=10/20,sigma=0.2,seed=3,nuisance-dim=2")
    assert kwargs == dict(
        n=60, k=4, view_dims=[10, 20], noise_sigma=0.2, seed=3, nuisance_dim=2
    )
    with pytest.raises(ValueError, match="unknown synthetic spec key"):
        _parse_synthetic_spec("n=60,k=4,dims=10,views=3")
    with pytest.raises(ValueError, match="missing"):
        _parse_synthetic_spec("n=60,k=4")
    with pytest.raises(ValueError, match="key=value"):
        _parse_synthetic_spec("n=60,k")
    with pytest.raises(ValueError, match="synthetic spec key 'dims'"):
        _parse_synthetic_spec("n=60,k=4,dims=10/x")


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_loadable_dataset(tmp_path, capsys):
    code = main([
        "synth", "--synthetic", "n=40,k=3,dims=8/12,sigma=0.1,seed=5",
        "--out", str(tmp_path / "ds"),
    ])
    assert code == 0
    assert "manifest.json" in capsys.readouterr().out
    ds = load_dataset(tmp_path / "ds" / "manifest.json")
    assert ds.num_views == 2
    assert ds.n == 40
    assert ds.truth is not None


def test_synth_regeneration_is_byte_identical(tmp_path):
    argv = ["synth", "--synthetic", "n=30,k=2,dims=6,seed=9"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    for name in ("manifest.json", "view0.mvm", "truth.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_text_format(tmp_path):
    code = main([
        "synth", "--synthetic", "n=30,k=2,dims=6",
        "--format", "text", "--out", str(tmp_path / "ds"),
    ])
    assert code == 0
    m = Manifest.load(tmp_path / "ds" / "manifest.json")
    assert m.views[0]["path"] == "view0.txt"


@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_synth_writes_the_bytes_of_save_dataset(tmp_path, fmt):
    spec = "n=40,k=3,dims=8/12,sigma=0.2,seed=5,nuisance-dim=2,nuisance-scale=1.5,name=demo"
    kwargs = dict(n=40, k=3, view_dims=[8, 12], noise_sigma=0.2, seed=5,
                  nuisance_dim=2, nuisance_scale=1.5, name="demo")
    assert main(["synth", "--synthetic", spec, "--format", fmt,
                 "--norm", "minmax-feature", "--out", str(tmp_path / "cli")]) == 0
    save_dataset(generate_synthetic(**kwargs), tmp_path / "lib", fmt=fmt,
                 normalization="minmax-feature")
    names = sorted(p.name for p in (tmp_path / "lib").iterdir())
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == names
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


def test_synth_rejects_the_retired_generator_flags(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--n", "40", "--k", "3", "--view-dims", "8,12",
              "--out", str(tmp_path / "ds")])
    assert exc.value.code == 2
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("argv", [
    [a if a != "--lambda" else "--lam" for a in SMALL_RUN],
    SMALL_RUN + ["--max", "2"],
], ids=["--lam", "--max"])
def test_fit_flags_must_be_spelled_out(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "grid"])
def test_fit_flag_defaults_are_the_hyperparams_defaults(command):
    argv = [command, "--synthetic", SMALL_SPEC, "--out", "out"]
    if command == "run":
        argv += ["--lambda", "1", "--dims", "6,3"]
    args = build_parser().parse_args(argv)
    hp = HyperParams(lam=1.0, dims=[6, 3])
    assert (args.max_iter, args.tol, args.restarts, args.pretrain_iters, args.seed) == (
        hp.max_iter, hp.tol, hp.kmeans_restarts, hp.pretrain_iters, hp.seed
    )


# ---------------------------------------------------------------------------
# run


def test_run_writes_results_and_trace(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(SMALL_RUN + ["--out", str(out), "--emit-embedding"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "best repeat" in stdout
    header, rows = _read_rows(out / "results.tsv")
    assert header[:4] == ["repeat", "seed", "lambda", "dims"]
    tags = [r["repeat"] for r in rows]
    assert tags == ["0", "1", "best", "mean", "std"]
    assert [rows[0]["seed"], rows[1]["seed"]] == ["0", "1"]
    for r in rows[:2]:
        assert r["dims"] == "6,3"
        assert float(r["acc"]) >= 0.0
    trace = (out / "objective_trace.txt").read_text().splitlines()
    best_row = rows[2]
    assert len(trace) == int(best_row["iterations"])
    emb = read_matrix(out / "embedding.mvm")
    assert emb.shape == (3, 40)


def test_run_is_deterministic_per_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(SMALL_RUN + ["--seed", "3", "--threads", "1", "--out", str(a),
                             "--emit-embedding"]) == 0
    assert main(SMALL_RUN + ["--seed", "3", "--threads", "1", "--out", str(b),
                             "--emit-embedding"]) == 0
    for name in ("results.tsv", "objective_trace.txt", "embedding.mvm"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_files_do_not_depend_on_thread_count(tmp_path):
    for threads in ("1", "2"):
        assert main(SMALL_RUN + ["--threads", threads, "--out", str(tmp_path / threads)]) == 0
    for name in ("results.tsv", "objective_trace.txt"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize("command", ["run", "grid"])
def test_fit_commands_reject_nonpositive_repeats(tmp_path, capsys, command):
    argv = [command, "--synthetic", SMALL_SPEC, "--repeats", "0", "--out", str(tmp_path)]
    if command == "run":
        argv += ["--lambda", "1", "--dims", "6,3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--repeats" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("threads", ["0", "-4"])
def test_fit_commands_reject_nonpositive_threads(tmp_path, capsys, command, threads):
    argv = [command, "--synthetic", SMALL_SPEC, "--threads", threads, "--out", str(tmp_path)]
    if command == "run":
        argv += ["--lambda", "1", "--dims", "6,3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--threads" in err
    assert not any(tmp_path.iterdir())


def test_norm_column_names_the_scheme_the_manifest_applied(tmp_path):
    assert main([
        "synth", "--synthetic", "n=40,k=3,dims=10/14,seed=7",
        "--norm", "minmax-feature", "--out", str(tmp_path / "ds"),
    ]) == 0
    data = ["--manifest", str(tmp_path / "ds" / "manifest.json")]
    fit_args = ["--repeats", "1", "--max-iter", "5", "--restarts", "2"]
    run = ["run", *data, "--lambda", "1", "--dims", "6,3", *fit_args]
    assert main(run + ["--out", str(tmp_path / "implicit")]) == 0
    assert main(run + ["--norm", "minmax-feature", "--out", str(tmp_path / "explicit")]) == 0
    assert main([
        "grid", *data, "--lambdas", "1", "--schemes", "p2", "--p2-l1", "2", *fit_args,
        "--out", str(tmp_path / "grid"),
    ]) == 0
    _, implicit = _read_rows(tmp_path / "implicit" / "results.tsv")
    _, explicit = _read_rows(tmp_path / "explicit" / "results.tsv")
    _, cells = _read_rows(tmp_path / "grid" / "grid.tsv")
    assert implicit == explicit
    assert {r["norm"] for r in implicit} == {"minmax-feature"}
    assert cells[0]["norm"] == "minmax-feature"


def test_run_rejects_ambiguous_data_source(tmp_path, capsys):
    code = main([
        "run", "--synthetic", SMALL_SPEC, "--manifest", "x.json",
        "--lambda", "1", "--dims", "6,3", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "exactly one of" in capsys.readouterr().err


@pytest.mark.parametrize("views, named", [
    ([{"path": "view0.mvm"}], "view 0 needs path and integer dim"),
    ([{"dim": 8}], "view 0 needs path and integer dim"),
    ([{"path": "view0.mvm", "dim": 8}, {"path": "view1.mvm", "dim": "wide"}], "view 1 needs"),
    (["view0.mvm"], "view 0 needs"),
    ({"path": "view0.mvm", "dim": 8}, "views must be a list"),
])
def test_run_rejects_malformed_manifest_views(tmp_path, capsys, views, named):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"name": "x", "k": 3, "sample_count": 40, "views": views}))
    code = main([
        "run", "--manifest", str(manifest),
        "--lambda", "1", "--dims", "6,3", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: manifest {manifest}: ") and named in err
    assert not (tmp_path / "out").exists()


def _small_manifest(tmp_path, view0):
    ds = generate_synthetic(n=40, k=3, view_dims=[10, 14], noise_sigma=0.05, seed=7)
    manifest = save_dataset(ds, tmp_path / "data")
    write_matrix(tmp_path / "data" / "view0.mvm", view0)
    return manifest


def _run_manifest(manifest, out):
    return main([
        "run", "--manifest", str(manifest), "--lambda", "1", "--dims", "6,3",
        "--repeats", "1", "--max-iter", "10", "--restarts", "5", "--out", str(out),
    ])


def test_run_fits_a_constant_view(tmp_path):
    # the constant view's refits take the SVD fallback
    manifest = _small_manifest(tmp_path, np.full((10, 40), 0.5))
    assert _run_manifest(manifest, tmp_path / "out") == 0
    assert (tmp_path / "out" / "results.tsv").is_file()


def test_run_names_an_all_zero_view(tmp_path, capsys):
    manifest = _small_manifest(tmp_path, np.zeros((10, 40)))
    assert _run_manifest(manifest, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "view 0 is all zeros" in err
    assert not (tmp_path / "out").exists()


def test_run_reports_missing_manifest(tmp_path, capsys):
    code = main([
        "run", "--manifest", str(tmp_path / "absent.json"),
        "--lambda", "1", "--dims", "6,3", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "manifest not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# grid


def test_grid_single_cell_matches_run(tmp_path):
    run_out, grid_out = tmp_path / "run", tmp_path / "grid"
    assert main(SMALL_RUN + ["--out", str(run_out)]) == 0
    assert main([
        "grid", "--synthetic", SMALL_SPEC, "--lambdas", "1",
        "--schemes", "p2", "--p2-l1", "2",
        "--repeats", "2", "--max-iter", "10", "--restarts", "5",
        "--out", str(grid_out),
    ]) == 0
    _, run_rows = _read_rows(run_out / "results.tsv")
    _, grid_rows = _read_rows(grid_out / "grid.tsv")
    assert len(grid_rows) == 1
    cell = grid_rows[0]
    assert cell["status"] == "ok"
    assert cell["dims"] == "6,3"
    best_run = next(r for r in run_rows if r["repeat"] == "best")
    mean_run = next(r for r in run_rows if r["repeat"] == "mean")
    assert cell["best_acc"] == best_run["acc"]
    assert cell["mean_acc"] == mean_run["acc"]


def test_grid_records_failed_cells(tmp_path, capsys):
    assert main([
        "grid", "--synthetic", SMALL_SPEC, "--lambdas", "1",
        "--schemes", "p2", "--p2-l1", "2,50",
        "--repeats", "1", "--max-iter", "5", "--restarts", "2",
        "--out", str(tmp_path / "grid"),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "1 ok, 1 failed" in stdout
    _, rows = _read_rows(tmp_path / "grid" / "grid.tsv")
    failed = next(r for r in rows if r["status"] == "failed")
    assert failed["dims"] == "150,3"
    assert "exceeds" in failed["error"]
    assert failed["best_acc"] == "nan"
    ok = next(r for r in rows if r["status"] == "ok")
    assert ok["error"] == ""


# Each out-of-range option with the HyperParams field it sets; the error names
# the flag the user typed, never the field.
OUT_OF_RANGE_OPTIONS = [
    (["--max-iter", "0"], "max_iter"),
    (["--restarts", "0"], "kmeans_restarts"),
    (["--tol", "0"], "tol"),
    (["--pretrain-iters", "-1"], "pretrain_iters"),
    (["--lambdas=1,-0.5"], "lam"),
]


def _assert_names_flag(tmp_path, capsys, argv, flag, field=None):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} ")
    assert field is None or field not in captured.err.split()
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option, field", OUT_OF_RANGE_OPTIONS)
def test_grid_rejects_out_of_range_fit_options_before_any_fit(tmp_path, capsys, option, field):
    argv = [
        "grid", "--synthetic", SMALL_SPEC, "--lambdas", "1", "--schemes", "p2",
        "--p2-l1", "2", "--repeats", "1", "--max-iter", "5", "--restarts", "2",
    ]
    _assert_names_flag(tmp_path, capsys, argv + option, option[0].split("=")[0], field)


@pytest.mark.parametrize("option, field", [
    (["--lambda", "-0.5"] if field == "lam" else option, field)
    for option, field in OUT_OF_RANGE_OPTIONS
])
def test_run_rejects_out_of_range_fit_options_by_flag(tmp_path, capsys, option, field):
    _assert_names_flag(tmp_path, capsys, SMALL_RUN + option, option[0], field)


@pytest.mark.parametrize("argv, flag", [
    (["grid", "--synthetic", SMALL_SPEC, "--lambdas", "1,x"], "--lambdas"),
    (["run", "--synthetic", SMALL_SPEC, "--lambda", "1", "--dims", "6,x"], "--dims"),
    (["grid", "--synthetic", SMALL_SPEC, "--p2-l1", "2,y"], "--p2-l1"),
    (["run", "--synthetic", "n=abc,k=3,dims=10/14", "--lambda", "1", "--dims", "6,3"],
     "synthetic spec key 'n'"),
    (["grid", "--synthetic", "n=40,k=3,dims=10/14,sigma=wide"], "synthetic spec key 'sigma'"),
])
def test_fit_commands_name_the_flag_of_an_unparsable_value(tmp_path, capsys, argv, flag):
    _assert_names_flag(tmp_path, capsys, argv, flag)


def test_grid_file_does_not_depend_on_thread_count(tmp_path):
    argv = [
        "grid", "--synthetic", SMALL_SPEC, "--lambdas", "0.5,1",
        "--schemes", "p2", "--p2-l1", "2,3",
        "--repeats", "2", "--max-iter", "5", "--restarts", "2",
    ]
    for threads in ("1", "2"):
        assert main(argv + ["--threads", threads, "--out", str(tmp_path / threads)]) == 0
    assert (tmp_path / "1" / "grid.tsv").read_bytes() == (tmp_path / "2" / "grid.tsv").read_bytes()


def test_grid_rejects_unknown_scheme_kind(tmp_path, capsys):
    code = main([
        "grid", "--synthetic", SMALL_SPEC, "--schemes", "p4",
        "--repeats", "1", "--out", str(tmp_path / "grid"),
    ])
    assert code == 2
    assert "p2 or p3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval


def test_eval_scores_label_files(tmp_path, capsys):
    write_labels(tmp_path / "pred.txt", np.array([0, 0, 1, 1]))
    write_labels(tmp_path / "truth.txt", np.array([0, 0, 1, 0]))
    code = main([
        "eval", "--pred", str(tmp_path / "pred.txt"),
        "--truth", str(tmp_path / "truth.txt"),
    ])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ACC 0.75"
    assert out[2] == "PUR 0.75"


def test_eval_reports_missing_files(tmp_path, capsys):
    code = main([
        "eval", "--pred", str(tmp_path / "nope.txt"),
        "--truth", str(tmp_path / "nope.txt"),
    ])
    assert code == 2
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# README


def test_readme_command_lines_parse():
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.S | re.M)
    text = "\n".join(blocks).replace("\\\n", " ")  # join continued lines
    commands = [shlex.split(line) for line in text.splitlines() if line.startswith("mvfuse ")]
    assert len(commands) >= 5
    for argv in commands:
        build_parser().parse_args(argv[1:])

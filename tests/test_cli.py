import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mvfuse.cli as cli_module
import mvfuse.pipeline as pipeline_module
from mvfuse.cli import (
    _parse_synthetic_spec,
    build_parser,
    lambda_grid,
    layer_schemes,
    main,
)
from mvfuse.data import (
    DEFAULT_NORMALIZATION,
    Manifest,
    MultiViewDataset,
    generate_synthetic,
    load_dataset,
    read_matrix,
    save_dataset,
    write_labels,
    write_matrix_binary,
)
from mvfuse.linalg import NumericalError
from mvfuse.pipeline import HyperParams, fit

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
    with pytest.raises(ValueError, match=r"^--schemes items must be p2 or p3, got 'p4'$"):
        layer_schemes(3, kinds=("p4",))


def test_layer_schemes_check_only_the_families_they_build():
    assert layer_schemes(3, kinds=("p2",), p2_l1=(2,), p3_l1=(1,), p3_l2=(1,)) == [[6, 3]]
    with pytest.raises(ValueError, match=r"^--p3-l1/--p3-l2: layer widths must be strictly"):
        layer_schemes(3, kinds=("p3",), p3_l1=(2,), p3_l2=(2,))


def test_parse_synthetic_spec():
    kwargs = _parse_synthetic_spec("n=60,k=4,dims=10/20,sigma=0.2,seed=3,nuisance-dim=2")
    assert kwargs == dict(
        n=60, k=4, view_dims=[10, 20], noise_sigma=0.2, seed=3, nuisance_dim=2
    )
    # every error names the flag
    for spec, error in [
        ("n=60,k=4,dims=10,views=3",
         "--synthetic key 'views' is unknown; the keys are "
         "n, k, dims, sigma, seed, nuisance-dim, nuisance-scale, name"),
        ("n=60,k=4", "--synthetic is missing key 'dims'"),
        ("n=60,k", "--synthetic item 'k' is not key=value"),
        ("n=60,k=4,dims=10/x", "--synthetic key 'dims' has a bad value '10/x'"),
        ("n=30,k=3,dims=5/6,n=40", "--synthetic key 'n' given twice"),
    ]:
        with pytest.raises(ValueError) as info:
            _parse_synthetic_spec(spec)
        assert str(info.value) == error
    spaced = _parse_synthetic_spec(" n = 60, k=4 ,dims= 10/20 ,name= x ")
    assert spaced == dict(n=60, k=4, view_dims=[10, 20], name="x")
    for spec in ("n=300,,k=3,dims=40/60", "n=300,k=3,dims=40/60,", "n=300, ,k=3,dims=40/60"):
        with pytest.raises(ValueError, match=r"^--synthetic .* no empty item"):
            _parse_synthetic_spec(spec)


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
    assert (args.max_iter, args.tol, args.kmeans_restarts, args.pretrain_iters, args.seed) == (
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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_fails_whole_when_any_repeat_fails(tmp_path, monkeypatch, capsys, threads):
    # results.tsv has no status column, so run writes all repeats or nothing
    real = cli_module.fit

    def failing(dataset, hp):
        if hp.seed >= 1:
            raise NumericalError(f"forced at seed {hp.seed}")
        return real(dataset, hp)

    monkeypatch.setattr(cli_module, "fit", failing)
    argv = SMALL_RUN + ["--repeats", "3", "--threads", threads, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: forced at seed ")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_fit_commands_reject_an_out_under_a_file_before_any_fit(
    tmp_path, monkeypatch, capsys, command, out
):
    (tmp_path / "afile").write_text("keep\n")
    calls = []
    monkeypatch.setattr(cli_module, "fit", lambda *args: calls.append(args))
    argv = [command, "--synthetic", SMALL_SPEC, "--out", str(tmp_path / out)]
    if command == "run":
        argv += ["--lambda", "1", "--dims", "6,3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: --out {tmp_path / out}: {tmp_path / 'afile'} is not a directory\n"
    )
    assert captured.out == "" and calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
    assert (tmp_path / "afile").read_text() == "keep\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_names_the_synthetic_scale_that_overflows(tmp_path, capsys):
    argv = ["run", "--synthetic", "n=30,k=3,dims=4/5,sigma=1e308", "--out", str(tmp_path),
            "--lambda", "1", "--dims", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --synthetic sigma=1e+308 overflows view 0\n"


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


def test_norm_column_names_the_scheme_the_manifest_applied(tmp_path, monkeypatch):
    assert main([
        "synth", "--synthetic", "n=40,k=3,dims=10/14,seed=7",
        "--norm", "minmax-feature", "--out", str(tmp_path / "ds"),
    ]) == 0
    # each command parses the manifest once, with or without --norm
    parsed, load = [], Manifest.load

    def counting_load(path):
        parsed.append(path)
        return load(path)

    monkeypatch.setattr(Manifest, "load", counting_load)
    data = ["--manifest", str(tmp_path / "ds" / "manifest.json")]
    fit_args = ["--repeats", "1", "--max-iter", "5", "--restarts", "2"]
    run = ["run", *data, "--lambda", "1", "--dims", "6,3", *fit_args]
    assert main(run + ["--out", str(tmp_path / "implicit")]) == 0
    assert len(parsed) == 1
    assert main(run + ["--norm", "minmax-feature", "--out", str(tmp_path / "explicit")]) == 0
    assert len(parsed) == 2
    assert main([
        "grid", *data, "--lambdas", "1", "--schemes", "p2", "--p2-l1", "2", *fit_args,
        "--out", str(tmp_path / "grid"),
    ]) == 0
    assert len(parsed) == 3
    _, implicit = _read_rows(tmp_path / "implicit" / "results.tsv")
    _, explicit = _read_rows(tmp_path / "explicit" / "results.tsv")
    _, cells = _read_rows(tmp_path / "grid" / "grid.tsv")
    assert implicit == explicit
    assert {r["norm"] for r in implicit} == {"minmax-feature"}
    assert cells[0]["norm"] == "minmax-feature"


def test_every_unstated_normalization_is_the_one_default(tmp_path):
    # synth without --norm or --format writes what save_dataset's defaults write
    assert main(["synth", "--synthetic", SMALL_SPEC, "--out", str(tmp_path / "ds")]) == 0
    save_dataset(generate_synthetic(**_parse_synthetic_spec(SMALL_SPEC)), tmp_path / "lib")
    names = sorted(p.name for p in (tmp_path / "lib").iterdir())
    assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == names
    for name in names:
        assert (tmp_path / "ds" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()
    manifest = tmp_path / "ds" / "manifest.json"
    raw = json.loads(manifest.read_text())
    assert raw.pop("normalization") == DEFAULT_NORMALIZATION
    manifest.write_text(json.dumps(raw))
    assert Manifest.load(manifest).normalization == DEFAULT_NORMALIZATION

    fit_args = ["--lambda", "1", "--dims", "6,3", "--repeats", "1", "--max-iter", "5",
                "--restarts", "2"]
    runs = {
        "untagged-manifest": ["--manifest", str(manifest)],
        "synthetic": ["--synthetic", SMALL_SPEC],
        "stated": ["--synthetic", SMALL_SPEC, "--norm", DEFAULT_NORMALIZATION],
    }
    for name, data in runs.items():
        assert main(["run", *data, *fit_args, "--out", str(tmp_path / name)]) == 0
    tables = {(tmp_path / name / "results.tsv").read_text() for name in runs}
    assert len(tables) == 1
    _, rows = _read_rows(tmp_path / "stated" / "results.tsv")
    assert {r["norm"] for r in rows} == {DEFAULT_NORMALIZATION}


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


_MANIFEST = {"name": "x", "k": 3, "sample_count": 40, "views": [{"path": "view0.mvm", "dim": 10}]}


@pytest.mark.parametrize("text, named", [
    (json.dumps({**_MANIFEST, "truth": 5}), "truth must be a path string, got 5"),
    (json.dumps({**_MANIFEST, "k": "three"}), "k must be an integer, got 'three'"),
    (json.dumps({**_MANIFEST, "k": 3.7}), "k must be an integer, got 3.7"),
    (json.dumps({**_MANIFEST, "k": True}), "k must be an integer, got True"),
    (json.dumps({**_MANIFEST, "sample_count": 40.5}), "sample_count must be an integer, got 40.5"),
    (json.dumps({**_MANIFEST, "views": [{"path": "view0.mvm", "dim": 10.5}]}),
     "view 0 needs path and integer dim: {'path': 'view0.mvm', 'dim': 10.5}"),
    ('{name: "x"}',
     "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("5", "expected a JSON object, got 5"),
    (json.dumps({**_MANIFEST, "name": None}), "name must be a string, got None"),
    (json.dumps({**_MANIFEST, "name": 7}), "name must be a string, got 7"),
], ids=["truth-number", "k-word", "k-fraction", "k-bool", "sample_count-fraction", "dim-fraction",
        "malformed-json", "not-an-object", "name-null", "name-number"])
def test_run_names_the_manifest_and_the_field_it_rejects(tmp_path, capsys, text, named):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    code = main([
        "run", "--manifest", str(manifest),
        "--lambda", "1", "--dims", "6,3", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: manifest {manifest}: {named}\n"
    assert not (tmp_path / "out").exists()


def _small_manifest(tmp_path, view0):
    ds = generate_synthetic(n=40, k=3, view_dims=[10, 14], noise_sigma=0.05, seed=7)
    manifest = save_dataset(ds, tmp_path / "data")
    write_matrix_binary(tmp_path / "data" / "view0.mvm", view0)
    return manifest


def _run_manifest(manifest, out, *options):
    return main([
        "run", "--manifest", str(manifest), "--lambda", "1", "--dims", "6,3",
        "--repeats", "1", "--max-iter", "10", "--restarts", "5", "--out", str(out), *options,
    ])


def test_run_fits_a_constant_view(tmp_path):
    # the constant view's refits take the SVD fallback
    manifest = _small_manifest(tmp_path, np.full((10, 40), 0.5))
    assert _run_manifest(manifest, tmp_path / "out") == 0
    assert (tmp_path / "out" / "results.tsv").is_file()


def test_run_names_an_all_zero_view(tmp_path, capsys):
    cases = {
        "raw": (np.zeros((10, 40)), [], "view 0 is all zeros"),
        # every feature is constant, so the min-max map zeroes the view
        "minmax": (np.full((10, 40), 0.5), ["--norm", "minmax-feature"],
                   "view 0 is all zeros after minmax-feature normalization"),
    }
    for name, (view0, options, cause) in cases.items():
        manifest = _small_manifest(tmp_path / name, view0)
        assert _run_manifest(manifest, tmp_path / name / "out", *options) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and cause in err
        assert not (tmp_path / name / "out").exists()


def _duplicated_view_dataset():
    ds = generate_synthetic(n=40, k=3, view_dims=[10, 14], noise_sigma=0.05, seed=7)
    return replace(ds, views=(*ds.views, ds.views[0].copy()))


def _k_equals_n_dataset():
    rng = np.random.default_rng(3)
    views = [rng.standard_normal((d, 6)) for d in (8, 10)]
    return MultiViewDataset(views=views, truth=np.arange(6), k=6)


@pytest.mark.parametrize("make, dims", [
    (_duplicated_view_dataset, [6, 3]),
    (_k_equals_n_dataset, [6]),
])
def test_run_at_the_edges_of_the_refits_matches_library_fit(tmp_path, make, dims):
    manifest = save_dataset(make(), tmp_path / "data")
    out = tmp_path / "out"
    assert main([
        "run", "--manifest", str(manifest), "--lambda", "1", "--dims", ",".join(map(str, dims)),
        "--repeats", "1", "--max-iter", "20", "--restarts", "5", "--out", str(out),
        "--emit-embedding",
    ]) == 0
    res = fit(load_dataset(manifest), HyperParams(lam=1.0, dims=dims, max_iter=20, kmeans_restarts=5))
    assert np.array_equal(read_matrix(out / "embedding.mvm"), res.h)
    _, rows = _read_rows(out / "results.tsv")
    assert rows[0]["objective"] == f"{res.objectives[-1]:.12g}"
    assert rows[0]["acc"] == f"{res.scores['acc']:.12g}"


def test_run_reports_missing_manifest(tmp_path, capsys):
    code = main([
        "run", "--manifest", str(tmp_path / "absent.json"),
        "--lambda", "1", "--dims", "6,3", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "absent.json") in err


# ---------------------------------------------------------------------------
# grid


def test_grid_cells_match_run_for_every_lambda(tmp_path):
    common = ["--synthetic", SMALL_SPEC, "--repeats", "2", "--max-iter", "10", "--restarts", "5"]
    grid_out = tmp_path / "grid"
    assert main(["grid", *common, "--lambdas", "4,0.25,1", "--schemes", "p2", "--p2-l1", "2",
                 "--out", str(grid_out)]) == 0
    _, cells = _read_rows(grid_out / "grid.tsv")
    assert [c["lambda"] for c in cells] == ["4", "0.25", "1"]
    for cell in cells:
        run_out = tmp_path / f"run-{cell['lambda']}"
        assert main(["run", *common, "--lambda", cell["lambda"], "--dims", "6,3",
                     "--out", str(run_out)]) == 0
        _, rows = _read_rows(run_out / "results.tsv")
        by_tag = {r["repeat"]: r for r in rows}
        assert cell["status"] == "ok" and cell["dims"] == "6,3"
        for col in ("acc", "nmi", "pur"):
            assert cell[f"best_{col}"] == by_tag["best"][col]
            assert cell[f"mean_{col}"] == by_tag["mean"][col]
            assert cell[f"std_{col}"] == by_tag["std"][col]
        assert cell["mean_objective"] == by_tag["mean"]["objective"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_grid_pretrains_once_per_scheme_and_repeat(tmp_path, monkeypatch, threads):
    calls = []
    real = pipeline_module.pretrain_view

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "pretrain_view", counting)
    schemes, lambdas, repeats, views = 2, 3, 2, 3
    assert main([
        "grid", "--synthetic", "n=40,k=3,dims=10/14/12,sigma=0.05,seed=7",
        "--lambdas", "0.5,1,2", "--schemes", "p2", "--p2-l1", "2,3",
        "--repeats", str(repeats), "--max-iter", "3", "--restarts", "2",
        "--pretrain-iters", "5", "--threads", threads, "--out", str(tmp_path / "grid"),
    ]) == 0
    _, rows = _read_rows(tmp_path / "grid" / "grid.tsv")
    assert len(rows) == schemes * lambdas and all(r["status"] == "ok" for r in rows)
    assert len(calls) == schemes * repeats * views
    assert sorted(map(tuple, calls)) == [(6, 3)] * 6 + [(9, 3)] * 6


FAILING_GRID = [
    "grid", "--synthetic", SMALL_SPEC, "--lambdas", "0.5,1,2",
    "--schemes", "p2", "--p2-l1", "2,3", "--repeats", "3", "--max-iter", "5", "--restarts", "2",
]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_grid_fails_only_the_cell_of_a_failing_lambda(tmp_path, monkeypatch, capsys, threads):
    # lambda 0.5 fails mid-fit and runs first in its group, so its siblings
    # fine-tune from a start that a failed fit already used
    argv = FAILING_GRID + ["--threads", threads]
    assert main(argv + ["--out", str(tmp_path / "clean")]) == 0
    real = pipeline_module.objective

    def failing(losses, traces, alpha, beta, lam):
        if lam == 0.5:
            raise NumericalError("forced")
        return real(losses, traces, alpha, beta, lam)

    monkeypatch.setattr(pipeline_module, "objective", failing)
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "forced")]) == 0
    assert "4 ok, 2 failed" in capsys.readouterr().out
    _, clean = _read_rows(tmp_path / "clean" / "grid.tsv")
    _, forced = _read_rows(tmp_path / "forced" / "grid.tsv")
    for before, after in zip(clean, forced, strict=True):
        if after["lambda"] == "0.5":
            assert after["status"] == "failed"
            assert after["error"] == "iteration 0, objective block: forced"
        else:
            assert after == before


def test_grid_reports_the_lowest_seed_failure_of_a_cell(tmp_path, monkeypatch):
    real = cli_module.fit

    def failing(dataset, hp):
        if hp.lam == 1.0 and hp.dims == [9, 3] and hp.seed >= 1:
            raise NumericalError(f"forced at seed {hp.seed}")
        return real(dataset, hp)

    monkeypatch.setattr(cli_module, "fit", failing)
    assert main(FAILING_GRID + ["--threads", "2", "--out", str(tmp_path / "grid")]) == 0
    _, rows = _read_rows(tmp_path / "grid" / "grid.tsv")
    assert [r["status"] for r in rows] == ["ok"] * 4 + ["failed", "ok"]
    assert rows[4]["error"] == "forced at seed 1"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_grid_best_cell_is_the_first_row_with_the_highest_accuracy(
        tmp_path, monkeypatch, capsys, threads):
    real = cli_module.fit

    def failing(dataset, hp):
        if hp.lam == 0.5 and hp.dims == [6, 3]:
            raise NumericalError("forced")
        return real(dataset, hp)

    monkeypatch.setattr(cli_module, "fit", failing)
    assert main(FAILING_GRID + ["--threads", threads, "--out", str(tmp_path / "grid")]) == 0
    _, rows = _read_rows(tmp_path / "grid" / "grid.tsv")
    assert rows[0]["status"] == "failed"
    ok = [r for r in rows if r["status"] == "ok"]
    top = max(float(r["best_acc"]) for r in ok)
    best = next(r for r in ok if float(r["best_acc"]) == top)
    assert (
        f"best cell {best['cell']}: lambda={best['lambda']} dims={best['dims']} "
        f"acc={best['best_acc']}\n"
    ) in capsys.readouterr().out


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


GRID = ["grid", "--synthetic", SMALL_SPEC, "--repeats", "1", "--max-iter", "5", "--restarts", "2"]


# Each out-of-range option with the HyperParams field it sets; the error names
# the flag the user typed, never the field.
OUT_OF_RANGE_OPTIONS = [
    (["--max-iter", "0"], "max_iter"),
    (["--restarts", "0"], "kmeans_restarts"),
    (["--tol", "0"], "tol"),
    (["--pretrain-iters", "-1"], "pretrain_iters"),
    (["--lambdas=1,-0.5"], "lam"),
    (["--seed", "-1"], "seed"),
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
    (SMALL_RUN + ["--lambda", "inf"], "--lambda"),
    (SMALL_RUN + ["--tol", "inf"], "--tol"),
    (["grid", "--synthetic", SMALL_SPEC, "--lambdas", "1,inf", "--schemes", "p2", "--p2-l1", "2"],
     "--lambdas"),
])
def test_fit_commands_name_the_flag_of_a_non_finite_value(tmp_path, capsys, argv, flag):
    _assert_names_flag(tmp_path, capsys, argv, flag)


def test_synth_names_a_negative_spec_seed(tmp_path, capsys):
    argv = ["synth", "--synthetic", "n=30,k=2,dims=6,seed=-1", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --synthetic seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


# `error` is the generator's own message; the CLI reports it with the keyword
# replaced by --synthetic and the spec key
@pytest.mark.parametrize("spec, error", [
    ("sigma=nan", "noise_sigma must be finite and >= 0, got nan"),
    ("sigma=inf", "noise_sigma must be finite and >= 0, got inf"),
    ("nuisance-dim=2,nuisance-scale=inf", "nuisance_scale must be finite, got inf"),
    ("nuisance-dim=2,nuisance-scale=nan", "nuisance_scale must be finite, got nan"),
])
@pytest.mark.parametrize("command", [
    ["synth"],
    ["run", "--lambda", "1", "--dims", "6,3"],
    ["grid", "--lambdas", "1", "--schemes", "p2", "--p2-l1", "2"],
], ids=["synth", "run", "grid"])
def test_synth_run_and_grid_reject_a_non_finite_noise_scale(tmp_path, capsys, monkeypatch,
                                                           command, spec, error):
    monkeypatch.setattr(cli_module, "fit", lambda *a: pytest.fail("a fit ran"))
    spec = f"n=40,k=3,dims=10/14,{spec}"
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        generate_synthetic(**_parse_synthetic_spec(spec))
    key = spec.rsplit(",", 1)[1].split("=")[0]
    keyword = cli_module.SYNTHETIC_SPEC_KEYS[key][0]
    argv = [*command, "--synthetic", spec, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {error.replace(keyword, f'--synthetic {key}')}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec, error", [
    ("n=30,k=3,dims=4/5,sigma=-1", "--synthetic sigma must be finite and >= 0, got -1.0"),
    ("n=30,k=3,dims=4/5,nuisance-dim=9", "--synthetic nuisance-dim 9 exceeds view dim 4"),
    ("n=30,k=1,dims=4/5", "need --synthetic k >= 2, got 1"),
    ("n=10,k=3,dims=4/5", "need --synthetic n >= 5k = 15, got 10"),
    ("n=30,k=3,dims=4/5,sigma=1e308", "--synthetic sigma=1e+308 overflows view 0"),
], ids=["sigma", "nuisance-dim", "k", "n", "sigma-overflow"])
@pytest.mark.parametrize("command", [["synth"], ["run", "--lambda", "1", "--dims", "3"]],
                         ids=["synth", "run"])
def test_a_spec_value_the_generator_rejects_names_its_key(tmp_path, capsys, monkeypatch,
                                                          command, spec, error):
    monkeypatch.setattr(cli_module, "fit", lambda *a: pytest.fail("a fit ran"))
    argv = [*command, "--synthetic", spec, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


def _run_synthetic(repeats):
    return ["run", "--synthetic", SMALL_SPEC, "--lambda", "1", "--dims", "6,3",
            "--repeats", str(repeats), "--max-iter", "2", "--restarts", "1",
            "--pretrain-iters", "2"]


@pytest.mark.parametrize("argv, built", [
    (_run_synthetic(1), 2),
    (_run_synthetic(3), 2),
    (["synth", "--synthetic", SMALL_SPEC], 1),
], ids=["run-repeats1", "run-repeats3", "synth"])
def test_each_dataset_is_checked_once_when_built(tmp_path, monkeypatch, argv, built):
    # run: the generated dataset and its normalized copy, however many repeats
    # fit them; synth: the generated one, which save_dataset writes unchecked
    seen = []
    check = MultiViewDataset.__post_init__

    def spy(self):
        seen.append(self)
        check(self)

    monkeypatch.setattr(MultiViewDataset, "__post_init__", spy)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert len(seen) == built


@pytest.mark.parametrize("option, error", [
    (["--schemes", "p2", "--p2-l1", "0"], "--p2-l1: layer widths must be positive, got [0, 3]"),
    (["--schemes", "p2", "--p2-l1", "4,-2"], "--p2-l1: layer widths must be positive, got [-6, 3]"),
    (["--p2-l1", "1"], "--p2-l1: layer widths must be strictly decreasing, got [3, 3]"),
    (["--schemes", "p3", "--p3-l1", "4", "--p3-l2", "4"],
     "--p3-l1/--p3-l2: layer widths must be strictly decreasing, got [12, 12, 3]"),
])
def test_grid_rejects_a_layer_scheme_no_data_admits_before_any_fit(
    tmp_path, capsys, monkeypatch, option, error
):
    calls = []
    monkeypatch.setattr(cli_module, "fit", lambda *args: calls.append(args))
    assert main(GRID + option + ["--lambdas", "1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (["grid", "--synthetic", SMALL_SPEC, "--lambdas", "1,x"], "--lambdas"),
    (["run", "--synthetic", SMALL_SPEC, "--lambda", "1", "--dims", "6,x"], "--dims"),
    (["grid", "--synthetic", SMALL_SPEC, "--p2-l1", "2,y"], "--p2-l1"),
    (["run", "--synthetic", "n=abc,k=3,dims=10/14", "--lambda", "1", "--dims", "6,3"],
     "--synthetic key 'n'"),
    (["grid", "--synthetic", "n=40,k=3,dims=10/14,sigma=wide"], "--synthetic key 'sigma'"),
])
def test_fit_commands_name_the_flag_of_an_unparsable_value(tmp_path, capsys, argv, flag):
    _assert_names_flag(tmp_path, capsys, argv, flag)


@pytest.mark.parametrize("argv, flag", [
    (GRID + ["--lambdas", ","], "--lambdas"),
    (GRID + ["--lambdas", ""], "--lambdas"),
    (GRID + ["--schemes", ","], "--schemes"),
    (GRID + ["--schemes", "p2", "--p2-l1", ","], "--p2-l1"),
    (GRID + ["--p3-l2", ""], "--p3-l2"),
    (["run", "--synthetic", SMALL_SPEC, "--lambda", "1", "--dims", ","], "--dims"),
    (["run", "--synthetic", SMALL_SPEC, "--lambda", "1", "--dims", "6,,3"], "--dims"),
    (GRID + ["--lambdas", "0.5,,1"], "--lambdas"),
    (GRID + ["--schemes", "p2,"], "--schemes"),
    (GRID + ["--lambdas", "1,1.0", "--schemes", "p2", "--p2-l1", "2"], "--lambdas"),
    (GRID + ["--schemes", "p2,p2"], "--schemes"),
    (GRID + ["--schemes", "p2", "--p2-l1", "2,2"], "--p2-l1"),
    (GRID + ["--schemes", "p3", "--p3-l1", "8,8"], "--p3-l1"),
    (GRID + ["--p3-l2", "4,4"], "--p3-l2"),
    (GRID + ["--schemes", "p2, "], "--schemes"),
    (GRID + ["--schemes", "p2,p4"], "--schemes"),
    (["run", "--synthetic", "n=300,,k=3,dims=40/60", "--lambda", "1", "--dims", "6,3"],
     "--synthetic"),
    (["grid", "--synthetic", f"{SMALL_SPEC},"], "--synthetic"),
    (["synth", "--synthetic", f" ,{SMALL_SPEC}"], "--synthetic"),
], ids=["lambdas-comma", "lambdas-blank", "schemes-comma", "p2-l1-comma", "p3-l2-blank",
        "dims-comma", "dims-empty-item", "lambdas-empty-item", "schemes-trailing-comma",
        "lambdas-repeated", "schemes-repeated", "p2-l1-repeated", "p3-l1-repeated",
        "p3-l2-repeated", "schemes-blank-item", "schemes-unknown", "synthetic-empty-item",
        "synthetic-trailing-comma", "synthetic-blank-item"])
def test_fit_commands_name_the_flag_of_an_empty_list(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.setattr(cli_module, "fit", lambda *a: pytest.fail("a fit ran"))
    _assert_names_flag(tmp_path, capsys, argv, flag)


@pytest.mark.parametrize("argv, dims", [
    (GRID + ["--lambdas", " 1 ", "--schemes", "p2, p3", "--p2-l1", " 2", "--p3-l1", "3 ",
             "--p3-l2", " 2 "], ["6,3", "9,6,3"]),
], ids=["schemes-spaced"])
def test_fit_commands_ignore_spaces_around_list_items(tmp_path, argv, dims):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    _, rows = _read_rows(tmp_path / "out" / "grid.tsv")
    assert [(r["lambda"], r["dims"], r["status"]) for r in rows] == [("1", d, "ok") for d in dims]


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


def test_eval_and_run_report_the_same_scores(tmp_path, capsys):
    ds = generate_synthetic(n=40, k=3, view_dims=[10, 14], noise_sigma=1.5, seed=7)
    manifest = save_dataset(ds, tmp_path / "data")
    assert _run_manifest(manifest, tmp_path / "out") == 0
    summary = capsys.readouterr().out.splitlines()[2]
    hp = HyperParams(lam=1.0, dims=[6, 3], max_iter=10, kmeans_restarts=5)
    res = fit(load_dataset(manifest), hp)
    write_labels(tmp_path / "pred.txt", res.labels)
    truth = tmp_path / "data" / "truth.txt"
    assert main(["eval", "--pred", str(tmp_path / "pred.txt"), "--truth", str(truth)]) == 0
    scores = [line.replace(" ", "=").lower() for line in capsys.readouterr().out.splitlines()]
    assert summary == "best repeat 0: " + " ".join(scores)
    assert res.scores["acc"] < 1.0  # not a trivially saturated labelling


def test_eval_reports_missing_files(tmp_path, capsys):
    code = main([
        "eval", "--pred", str(tmp_path / "nope.txt"),
        "--truth", str(tmp_path / "nope.txt"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "nope.txt") in err


def test_eval_names_the_file_and_line_of_a_label_fault(tmp_path, capsys):
    pred, truth = tmp_path / "pred.txt", tmp_path / "truth.txt"
    truth.write_text("0\n1\n")
    for text, problem in [
        ("0\n-1\n", f"{pred}, line 2: expected one non-negative integer label, got '-1'"),
        ("0 1\n", f"{pred}, line 1: expected one non-negative integer label, got '0 1'"),
        ("0\n1\n1\n", f"--pred {pred} has 3 labels, --truth {truth} has 2"),
    ]:
        pred.write_text(text)
        assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"


# ---------------------------------------------------------------------------
# README


def test_readme_command_lines_parse():
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.S | re.M)
    text = "\n".join(blocks).replace("\\\n", " ")  # join continued lines
    commands = [shlex.split(line) for line in text.splitlines() if line.startswith("mvfuse ")]
    assert len(commands) >= 5
    for argv in commands:
        build_parser().parse_args(argv[1:])

import numpy as np
import pytest

from mvfuse.cli import (
    _parse_synthetic_spec,
    lambda_grid,
    layer_schemes,
    main,
)
from mvfuse.data import Manifest, load_dataset, read_matrix, write_labels

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


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_loadable_dataset(tmp_path, capsys):
    code = main([
        "synth", "--n", "40", "--k", "3", "--view-dims", "8,12",
        "--sigma", "0.1", "--seed", "5", "--out", str(tmp_path / "ds"),
    ])
    assert code == 0
    assert "manifest.json" in capsys.readouterr().out
    ds = load_dataset(tmp_path / "ds" / "manifest.json")
    assert ds.num_views == 2
    assert ds.n == 40
    assert ds.truth is not None


def test_synth_regeneration_is_byte_identical(tmp_path):
    argv = ["synth", "--n", "30", "--k", "2", "--view-dims", "6", "--seed", "9"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    for name in ("manifest.json", "view0.mvm", "truth.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_text_format(tmp_path):
    code = main([
        "synth", "--n", "30", "--k", "2", "--view-dims", "6",
        "--format", "text", "--out", str(tmp_path / "ds"),
    ])
    assert code == 0
    m = Manifest.load(tmp_path / "ds" / "manifest.json")
    assert m.views[0]["path"] == "view0.txt"


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


def test_norm_column_names_the_scheme_the_manifest_applied(tmp_path):
    assert main([
        "synth", "--n", "40", "--k", "3", "--view-dims", "10,14", "--seed", "7",
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

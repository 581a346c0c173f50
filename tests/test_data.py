import json
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from mvfuse.data import (
    MAGIC,
    Manifest,
    MultiViewDataset,
    generate_synthetic,
    load_dataset,
    normalize,
    normalize_dataset,
    read_labels,
    read_matrix,
    save_dataset,
    write_labels,
    write_matrix_binary,
    write_matrix_text,
)
from mvfuse.metrics import accuracy, kmeans

AWKWARD = np.array(
    [
        [0.1, 1.0 / 3.0, 1e-300],
        [-1e300, -0.0, 5e-324],
    ]
)


# ---------------------------------------------------------------------------
# normalization


def test_l2_sample_normalization_worked_example():
    x = np.array([[3.0, 0.0], [4.0, 0.0]])
    out = normalize(x, "l2-sample")
    assert np.allclose(out, [[0.6, 0.0], [0.8, 0.0]])  # zero column untouched
    assert np.allclose(np.linalg.norm(out[:, 0]), 1.0)


def test_l2_sample_normalization_is_idempotent():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((7, 30))
    once = normalize(x, "l2-sample")
    twice = normalize(once, "l2-sample")
    assert np.max(np.abs(once - twice)) < 1e-12


def test_minmax_feature_normalization_worked_example():
    x = np.array([[1.0, 3.0, 2.0], [5.0, 5.0, 5.0]])
    out = normalize(x, "minmax-feature")
    assert np.allclose(out[0], [0.0, 1.0, 0.5])
    assert np.array_equal(out[1], np.zeros(3))  # constant feature collapses


def test_minmax_feature_normalization_is_idempotent():
    rng = np.random.default_rng(5)
    x = rng.uniform(-4.0, 9.0, size=(6, 25))
    once = normalize(x, "minmax-feature")
    twice = normalize(once, "minmax-feature")
    assert np.max(np.abs(once - twice)) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-160],
                         ids=["overflow", "underflow", "subnormal-squares"])
def test_l2_sample_normalization_survives_extreme_columns(scale):
    # The squared norm of the first column overflows or loses bits to underflow;
    # the other columns must keep the bits of the plain norm-and-divide.
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 6))
    x[:, 0] = [1.0, 2.0, 0.0, -2.0]
    x[:, 0] *= scale
    x[:, 5] = 0.0
    out = normalize(x, "l2-sample")
    assert np.allclose(out[:, 0], np.array([1.0, 2.0, 0.0, -2.0]) / 3.0, rtol=1e-15, atol=0)
    assert abs(np.linalg.norm(out[:, 0]) - 1.0) <= 1e-15
    assert np.array_equal(out[:, 1:5], x[:, 1:5] / np.linalg.norm(x[:, 1:5], axis=0))
    assert np.array_equal(out[:, 5], np.zeros(4))  # an all-zero column stays untouched


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_minmax_feature_normalization_survives_a_range_past_the_float64_maximum():
    x = np.array([[-1e308, 0.0, 5e307, 1e308], [1.0, 3.0, 2.0, 5.0]])
    out = normalize(x, "minmax-feature")
    assert np.array_equal(out[0], [0.0, 0.5, 0.75, 1.0])
    assert np.array_equal(out[1], (x[1] - 1.0) / 4.0)  # an ordinary row keeps its bits
    ds = MultiViewDataset(views=[x], truth=None, k=2)
    assert np.array_equal(normalize_dataset(ds, "minmax-feature").views[0], out)


def test_normalize_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="unknown normalization"):
        normalize(np.ones((2, 2)), "zscore")


def test_normalize_dataset_applies_scheme_to_every_view():
    ds = generate_synthetic(n=30, k=3, view_dims=[5, 8], seed=11)
    out = normalize_dataset(ds, "l2-sample")
    for x in out.views:
        assert np.allclose(np.linalg.norm(x, axis=0), 1.0)
    assert np.array_equal(out.truth, ds.truth)


# ---------------------------------------------------------------------------
# matrix files


def test_text_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    a = rng.standard_normal((9, 5)) * np.logspace(-8, 8, 5)
    path = tmp_path / "a.txt"
    write_matrix_text(path, a)
    back = read_matrix(path)
    assert back.tobytes() == a.tobytes()
    assert path.read_text().splitlines()[0] == "9 5"


def test_text_round_trip_survives_awkward_values(tmp_path):
    path = tmp_path / "awkward.txt"
    write_matrix_text(path, AWKWARD)
    assert read_matrix(path).tobytes() == AWKWARD.tobytes()


def test_binary_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    a = rng.standard_normal((11, 7))
    path = tmp_path / "a.mvm"
    write_matrix_binary(path, a)
    blob = path.read_bytes()
    assert blob[:8] == MAGIC
    assert len(blob) == 16 + 8 * 11 * 7
    assert read_matrix(path).tobytes() == a.tobytes()


def test_read_matrix_sniffs_magic_regardless_of_suffix(tmp_path):
    a = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "disguised.txt"
    write_matrix_binary(path, a)
    assert np.array_equal(read_matrix(path), a)


def test_read_matrix_reports_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope.mvm"):
        read_matrix(tmp_path / "nope.mvm")


def test_read_matrix_rejects_truncated_binary(tmp_path):
    path = tmp_path / "trunc.mvm"
    write_matrix_binary(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="expected"):
        read_matrix(path)


def test_read_matrix_rejects_bad_text_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("rows and cols\n1 2\n")
    with pytest.raises(ValueError, match="header"):
        read_matrix(path)


def test_read_matrix_rejects_wrong_value_count(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("2 3\n1 2 3\n4 5\n")
    with pytest.raises(ValueError, match="expected 6 values"):
        read_matrix(path)


@pytest.mark.parametrize("text, problem", [
    (b"2 3\n1 2 3 4\n5 6\n", "line 2: expected 3 values, got 4"),
    (b"2 3\n1 2 3\n4 5 6\n7 8 9\n", "line 4: unexpected content after 2 rows"),
    (b"2 3\n1 2 3\n4 abc 6\n", "line 3: could not convert string to float: 'abc'"),
    (b"2 3\n1 nan 3\n4 5 6\n", "line 2: non-finite entry"),
    (b"2 3\n1 2 3\n4 5 \xff\n", "line 3: not UTF-8 text (invalid start byte)"),
    (b"-1 0\n", "line 1: header must be 'rows cols', both >= 1, got '-1 0'"),
    (b"2 0\n\n\n", "line 1: header must be 'rows cols', both >= 1, got '2 0'"),
])
def test_read_matrix_rejects_ragged_rows_and_extra_lines(tmp_path, text, problem):
    path = tmp_path / "bad.txt"
    path.write_bytes(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, {re.escape(problem)}$"):
        read_matrix(path)


def test_read_matrix_allows_trailing_blank_lines(tmp_path):
    path = tmp_path / "tail.txt"
    path.write_text("2 3\n1 2 3\n4 5 6\n\n  \n")
    assert np.array_equal(read_matrix(path), np.arange(1.0, 7.0).reshape(2, 3))


def test_labels_round_trip(tmp_path):
    labels = np.array([2, 0, 1, 1, 0], dtype=np.int64)
    path = tmp_path / "truth.txt"
    write_labels(path, labels)
    assert np.array_equal(read_labels(path), labels)
    write_labels(path, labels.astype(float))  # whole floats write as integers
    assert np.array_equal(read_labels(path), labels)
    with pytest.raises(ValueError, match="half.txt must be whole numbers, got 0.5$"):
        write_labels(tmp_path / "half.txt", [0.5, 1.0])
    assert not (tmp_path / "half.txt").exists()


def test_read_labels_rejects_non_integers(tmp_path):
    path = tmp_path / "truth.txt"
    for text, problem in [
        (b"0\nbanana\n", "line 2: expected one non-negative integer label, got 'banana'"),
        (b"0\n1 1\n2.5\n", "line 2: expected one non-negative integer label, got '1 1'"),
        (b"0\n1\n2.5\n", "line 3: expected one non-negative integer label, got '2.5'"),
        (b"0\n-1\n", "line 2: expected one non-negative integer label, got '-1'"),
        (b"1\n\n+1\n", "line 3: expected one non-negative integer label, got '+1'"),
        (b"0\n\xe9\n", "line 2: not UTF-8 text (invalid continuation byte)"),
    ]:
        path.write_bytes(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, {re.escape(problem)}$"):
            read_labels(path)


# ---------------------------------------------------------------------------
# manifests


def test_manifest_round_trip(tmp_path):
    m = Manifest(
        name="demo",
        k=4,
        sample_count=120,
        views=[{"path": "view0.mvm", "dim": 30}, {"path": "view1.txt", "dim": 12}],
        truth="truth.txt",
        normalization="minmax-feature",
    )
    path = tmp_path / "manifest.json"
    m.save(path)
    assert Manifest.load(path) == m


def test_manifest_without_truth_omits_the_key(tmp_path):
    m = Manifest(name="demo", k=2, sample_count=10, views=[{"path": "v.mvm", "dim": 3}])
    path = tmp_path / "manifest.json"
    m.save(path)
    assert "truth" not in json.loads(path.read_text())
    assert Manifest.load(path).truth is None


def test_manifest_load_reads_integral_floats_as_integers(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"name": "x", "k": 3.0, "sample_count": 40.0,
                                "views": [{"path": "v.mvm", "dim": 10.0}]}))
    m = Manifest.load(path)
    assert (m.k, m.sample_count, m.views) == (3, 40, [{"path": "v.mvm", "dim": 10}])
    assert all(type(v) is int for v in (m.k, m.sample_count, m.views[0]["dim"]))


def test_manifest_load_reports_missing_fields(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"name": "x", "k": 3, "views": []}))
    with pytest.raises(ValueError, match="sample_count"):
        Manifest.load(path)


def test_manifest_load_rejects_unknown_normalization(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(
        json.dumps(
            {
                "name": "x",
                "k": 3,
                "sample_count": 5,
                "views": [{"path": "v.mvm", "dim": 2}],
                "normalization": "whitening",
            }
        )
    )
    with pytest.raises(ValueError, match="unknown normalization"):
        Manifest.load(path)


def test_manifest_load_reports_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="absent.json"):
        Manifest.load(tmp_path / "absent.json")


def test_manifest_accepts_multi_segment_document_layout(tmp_path):
    # The on-disk schema for a typical real corpus: several term-count
    # segments over shared documents, labels alongside.
    raw = {
        "name": "news-segments",
        "k": 5,
        "sample_count": 685,
        "views": [{"path": f"seg{i}.mvm", "dim": dim} for i, dim in enumerate([4659, 4633, 4665, 4684])],
        "truth": "truth.txt",
        "normalization": "l2-sample",
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(raw))
    m = Manifest.load(path)
    assert m.k == 5
    assert [v["dim"] for v in m.views] == [4659, 4633, 4665, 4684]


# ---------------------------------------------------------------------------
# dataset save / load


def test_save_load_round_trip_binary(tmp_path):
    ds = generate_synthetic(n=40, k=3, view_dims=[6, 9], seed=23)
    manifest_path = save_dataset(ds, tmp_path / "out", fmt="binary")
    back = load_dataset(manifest_path)
    assert back.name == ds.name
    assert back.k == ds.k
    assert back.num_views == 2
    assert np.array_equal(back.truth, ds.truth)
    # loading applies the manifest's normalization to the raw stored views
    for x, raw in zip(back.views, ds.views):
        assert np.allclose(x, normalize(raw, "l2-sample"))


def test_load_respects_normalization_override(tmp_path):
    ds = generate_synthetic(n=40, k=3, view_dims=[6], seed=29)
    manifest_path = save_dataset(ds, tmp_path / "out", fmt="text")
    back = load_dataset(manifest_path, normalization="minmax-feature")
    assert np.allclose(back.views[0], normalize(ds.views[0], "minmax-feature"))


def test_load_names_view_with_missing_file(tmp_path):
    ds = generate_synthetic(n=30, k=2, view_dims=[4, 5], seed=31)
    manifest_path = save_dataset(ds, tmp_path / "out")
    (tmp_path / "out" / "view1.mvm").unlink()
    with pytest.raises(ValueError, match=r"view 1 \(view1\.mvm\): \[Errno 2\] .*view1\.mvm"):
        load_dataset(manifest_path)


def test_load_names_view_with_wrong_shape(tmp_path):
    ds = generate_synthetic(n=30, k=2, view_dims=[4, 5], seed=37)
    manifest_path = save_dataset(ds, tmp_path / "out")
    write_matrix_binary(tmp_path / "out" / "view0.mvm", np.ones((4, 29)))
    with pytest.raises(ValueError, match=r"view 0 \(view0\.mvm\): expected 4x30, got 4x29"):
        load_dataset(manifest_path)


@pytest.mark.parametrize("labels, problem", [
    ([0, 1], "expected 30 labels, got 2"),
    ([0, 1, 2] * 9 + [0, 1, 7], r"labels must lie in \[0, 3\), got 7"),
], ids=["too few labels", "label out of range"])
def test_load_names_a_truth_file_that_does_not_fit_the_manifest(tmp_path, labels, problem):
    ds = generate_synthetic(n=30, k=3, view_dims=[4, 5], seed=38)
    manifest_path = save_dataset(ds, tmp_path / "out")
    write_labels(tmp_path / "out" / "truth.txt", labels)
    with pytest.raises(ValueError, match=rf"^truth \(truth\.txt\): {problem}$"):
        load_dataset(manifest_path)


def test_save_dataset_rejects_bad_options(tmp_path):
    ds = generate_synthetic(n=30, k=2, view_dims=[4], seed=41)
    with pytest.raises(ValueError, match="fmt"):
        save_dataset(ds, tmp_path / "out", fmt="parquet")
    with pytest.raises(ValueError, match="normalization"):
        save_dataset(ds, tmp_path / "out", normalization="zscore")


def test_dataset_validation_errors():
    good = generate_synthetic(n=30, k=3, view_dims=[4, 5], seed=43)
    with pytest.raises(ValueError, match="k >= 2"):
        MultiViewDataset(views=good.views, truth=good.truth, k=1)
    with pytest.raises(ValueError, match="no views"):
        MultiViewDataset(views=[], truth=None, k=3)
    ragged = [good.views[0], good.views[1][:, :-1]]
    with pytest.raises(ValueError, match="view 1 has 29 samples"):
        MultiViewDataset(views=ragged, truth=None, k=3)
    with pytest.raises(ValueError, match="view 1 is all zeros"):
        MultiViewDataset(views=[good.views[0], 0.0 * good.views[1]], truth=None, k=3)
    same = [np.repeat(x[:, :1], 30, axis=1) for x in good.views]
    with pytest.raises(ValueError, match="all 30 samples are identical in every view"):
        MultiViewDataset(views=same, truth=None, k=3)
    MultiViewDataset(views=[same[0], good.views[1]], truth=None, k=3)  # view 1 differs
    with pytest.raises(ValueError, match="truth has shape"):
        MultiViewDataset(views=good.views, truth=good.truth[:-1], k=3)
    bad_range = good.truth.copy()
    bad_range[0] = 3
    with pytest.raises(ValueError, match=r"truth labels must lie in \[0, 3\)"):
        MultiViewDataset(views=good.views, truth=bad_range, k=3)
    fractional = good.truth + 0.7  # 0.7, 1.7, 2.7 must not truncate to 0, 1, 2
    with pytest.raises(ValueError, match="^dataset 'x': truth labels must be whole numbers, got "):
        MultiViewDataset(views=good.views, truth=fractional, k=3, name="x")
    whole = MultiViewDataset(views=good.views, truth=good.truth.astype(float), k=3)
    assert whole.truth.dtype == np.int64 and np.array_equal(whole.truth, good.truth)


def test_a_dataset_cannot_change_once_built():
    good = generate_synthetic(n=30, k=3, view_dims=[4, 5], seed=43)
    x, truth = good.views[0].copy(), good.truth.copy()
    ds = MultiViewDataset(views=[x, good.views[1]], truth=truth, k=3)
    assert isinstance(ds.views, tuple)
    for name, value in (("views", ()), ("truth", None), ("k", 4)):
        with pytest.raises(FrozenInstanceError):
            setattr(ds, name, value)
    with pytest.raises(ValueError, match="read-only"):
        ds.views[0][0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ds.truth[0] = 1
    # the caller's arrays stay writable, and the views share memory with them
    x[0, 0] = 2.0
    truth[0] = 2
    assert ds.views[0][0, 0] == 2.0 and np.shares_memory(ds.views[0], x)
    assert ds.truth.dtype == np.int64 and ds.truth.flags.writeable is False


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_labels_are_balanced():
    ds = generate_synthetic(n=100, k=3, view_dims=[5], seed=47)
    counts = np.bincount(ds.truth, minlength=3)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 100


def test_synthetic_is_deterministic_per_seed():
    a = generate_synthetic(n=40, k=3, view_dims=[6, 7], seed=53)
    b = generate_synthetic(n=40, k=3, view_dims=[6, 7], seed=53)
    c = generate_synthetic(n=40, k=3, view_dims=[6, 7], seed=54)
    for x, y in zip(a.views, b.views):
        assert np.array_equal(x, y)
    assert np.array_equal(a.truth, b.truth)
    assert not np.array_equal(a.views[0], c.views[0])


def test_synthetic_noiseless_view_is_trivially_clusterable():
    # Without noise all samples of a cluster coincide, so a single view
    # already determines the planted labels exactly.
    ds = generate_synthetic(n=60, k=3, view_dims=[20], noise_sigma=0.0, seed=59)
    labels = kmeans(ds.views[0].T, 3, restarts=5, seed=0)
    assert accuracy(labels, ds.truth) == 1.0


def test_synthetic_nuisance_adds_per_view_private_structure():
    plain = generate_synthetic(n=40, k=3, view_dims=[10], noise_sigma=0.0, seed=61)
    spiked = generate_synthetic(
        n=40, k=3, view_dims=[10], noise_sigma=0.0, seed=61,
        nuisance_dim=4, nuisance_scale=1.0,
    )
    diff = spiked.views[0] - plain.views[0]
    assert np.linalg.matrix_rank(diff) == 4
    # the documented semantics: per-sample nuisance-to-signal energy ratio
    ratio = np.linalg.norm(diff) / np.linalg.norm(plain.views[0])
    assert 0.7 < ratio < 1.4


def test_synthetic_rejects_bad_arguments():
    with pytest.raises(ValueError, match="k >= 2"):
        generate_synthetic(n=30, k=1, view_dims=[5])
    with pytest.raises(ValueError, match="n >= 5k"):
        generate_synthetic(n=10, k=3, view_dims=[5])
    with pytest.raises(ValueError, match="noise_sigma"):
        generate_synthetic(n=30, k=3, view_dims=[5], noise_sigma=-0.1)
    with pytest.raises(ValueError, match="nuisance_dim"):
        generate_synthetic(n=30, k=3, view_dims=[5], nuisance_dim=-1)
    with pytest.raises(ValueError, match="exceeds view dim"):
        generate_synthetic(n=30, k=3, view_dims=[5], nuisance_dim=6)
    with pytest.raises(ValueError, match="positive"):
        generate_synthetic(n=30, k=3, view_dims=[0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scales, match", [
    (dict(noise_sigma=1e308), "noise_sigma=1e[+]308 overflows view 0"),
    (dict(nuisance_dim=2, nuisance_scale=1e308), "nuisance_scale=1e[+]308 overflows view 0"),
    (dict(nuisance_dim=2, nuisance_scale=-1e308), "nuisance_scale=-1e[+]308 overflows view 0"),
], ids=["noise", "nuisance", "negative-nuisance"])
def test_synthetic_names_a_finite_scale_that_overflows_a_view(scales, match):
    with pytest.raises(ValueError, match=match):
        generate_synthetic(n=30, k=3, view_dims=[4, 5], **scales)

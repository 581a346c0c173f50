"""Datasets on disk: manifests, matrix files, normalization, synthetic data.

A dataset is a directory holding one matrix file per view plus a JSON
manifest. Matrices are stored features x samples (d x n) in either of two
bit-exact interchange forms:

* text (".txt"): first line "rows cols", then one whitespace-delimited row
  per line, entries printed with 17 significant digits;
* binary (".mvm"): 16-byte header -- the 8-byte magic "MVMATRIX", then
  little-endian uint32 rows and cols -- followed by row-major little-endian
  float64 entries.

Readers sniff the magic, so either format may appear under any name.

The manifest carries: name, k, sample_count, one {path, dim} entry per view,
an optional truth path (one integer label per line), and the normalization
scheme applied at load time.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from mvfuse.metrics import as_labels

MAGIC = b"MVMATRIX"

# The scheme a manifest without a normalization tag, synth and --synthetic data get.
DEFAULT_NORMALIZATION = "l2-sample"
NORMALIZATION_SCHEMES = (DEFAULT_NORMALIZATION, "minmax-feature")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d float64 array or raise ValueError.

    The check of every matrix that enters the program: a dataset's views,
    a binary matrix file, and the arrays the writers and normalize take.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be 2-d with positive shape, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


# Compared and hashed by identity, so a dataset can key a memo. Checked once,
# when built: it keeps read-only views of the checked arrays, not copies, and
# its fields cannot be reassigned, so every reader can trust it as built.
@dataclass(eq=False, frozen=True)
class MultiViewDataset:
    views: tuple              # d_v x n float64 matrices, shared sample axis
    truth: np.ndarray | None  # n ground-truth labels in [0, k), or None
    k: int
    name: str = "dataset"
    normalization: str | None = None  # the scheme applied to the views; None if raw

    @property
    def n(self) -> int:
        return self.views[0].shape[1]

    @property
    def num_views(self) -> int:
        return len(self.views)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"dataset {self.name!r}: need k >= 2, got {self.k}")
        if not self.views:
            raise ValueError(f"dataset {self.name!r}: no views")
        n = self.views[0].shape[1]
        views = []
        for i, x in enumerate(self.views):
            x = as_matrix(x, f"view {i}").view()  # the caller's array stays writable
            if x.shape[1] != n:
                raise ValueError(
                    f"dataset {self.name!r}: view {i} has {x.shape[1]} samples, expected {n}"
                )
            if not x.any():
                # its partition would collapse to zero during fine-tuning
                raise ValueError(f"dataset {self.name!r}: view {i} is all zeros")
            x.flags.writeable = False
            views.append(x)
        if all((x == x[:, :1]).all() for x in views):
            raise ValueError(
                f"dataset {self.name!r}: all {n} samples are identical in every view, "
                "so no clustering can tell them apart"
            )
        object.__setattr__(self, "views", tuple(views))
        if self.truth is not None:
            truth = as_labels(self.truth, f"dataset {self.name!r}: truth labels")
            if truth.shape != (n,):
                raise ValueError(
                    f"dataset {self.name!r}: truth has shape {truth.shape}, expected ({n},)"
                )
            if truth.min() < 0 or truth.max() >= self.k:
                raise ValueError(
                    f"dataset {self.name!r}: truth labels must lie in [0, {self.k})"
                )
            truth.flags.writeable = False  # as_labels made it, so it is not the caller's
            object.__setattr__(self, "truth", truth)


def _json_int(value) -> int | None:
    """A JSON integer (3, or 3.0) as an int; None for anything else, bools included."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value if type(value) is int else None


@dataclass
class Manifest:
    name: str
    k: int
    sample_count: int
    views: list = field(default_factory=list)  # {"path": str, "dim": int} per view
    truth: str | None = None
    normalization: str = DEFAULT_NORMALIZATION

    @classmethod
    def load(cls, path) -> "Manifest":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise ValueError(f"manifest {path}: not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"manifest {path}: expected a JSON object, got {raw!r}")
        for key in ("name", "k", "sample_count", "views"):
            if key not in raw:
                raise ValueError(f"manifest {path}: missing field {key!r}")
        if not isinstance(raw["name"], str):
            raise ValueError(f"manifest {path}: name must be a string, got {raw['name']!r}")
        for key in ("k", "sample_count"):
            if _json_int(raw[key]) is None:
                raise ValueError(f"manifest {path}: {key} must be an integer, got {raw[key]!r}")
        if not isinstance(raw["views"], list):
            raise ValueError(f"manifest {path}: views must be a list, got {raw['views']!r}")
        views = []
        for i, v in enumerate(raw["views"]):
            dim = _json_int(v.get("dim")) if isinstance(v, dict) else None
            if dim is None or not isinstance(v.get("path"), str):
                raise ValueError(f"manifest {path}: view {i} needs path and integer dim: {v!r}")
            views.append({"path": v["path"], "dim": dim})
        truth = raw.get("truth")
        if truth is not None and not isinstance(truth, str):
            raise ValueError(f"manifest {path}: truth must be a path string, got {truth!r}")
        m = cls(
            name=raw["name"],
            k=_json_int(raw["k"]),
            sample_count=_json_int(raw["sample_count"]),
            views=views,
            truth=truth,
            normalization=raw.get("normalization", DEFAULT_NORMALIZATION),
        )
        if m.normalization not in NORMALIZATION_SCHEMES:
            raise ValueError(
                f"manifest {path}: unknown normalization {m.normalization!r}, "
                f"expected one of {NORMALIZATION_SCHEMES}"
            )
        return m

    def save(self, path) -> None:
        payload = asdict(self)
        if self.truth is None:
            del payload["truth"]
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def write_matrix_text(path, a) -> None:
    a = as_matrix(a)
    rows = [f"{a.shape[0]} {a.shape[1]}"]
    rows += [" ".join(f"{v:.17g}" for v in row) for row in a]
    Path(path).write_text("\n".join(rows) + "\n")


def write_matrix_binary(path, a) -> None:
    a = as_matrix(a)
    header = MAGIC + struct.pack("<II", a.shape[0], a.shape[1])
    Path(path).write_bytes(header + np.ascontiguousarray(a, dtype="<f8").tobytes())


# Matrix format -> (file suffix, writer), for save_dataset and synth --format.
MATRIX_FORMATS = {"binary": (".mvm", write_matrix_binary), "text": (".txt", write_matrix_text)}
DEFAULT_FORMAT = "binary"


def _text_lines(path, blob: bytes) -> list[str]:
    """The lines of a UTF-8 text file; a byte that is not UTF-8 faults its line."""
    try:
        return blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        lineno = blob.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {lineno}: not UTF-8 text ({exc.reason})") from None


def read_matrix(path) -> np.ndarray:
    """Read either matrix format, sniffing the binary magic."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[: len(MAGIC)] == MAGIC:
        if len(blob) < 16:
            raise ValueError(f"{path}: truncated binary header")
        rows, cols = struct.unpack("<II", blob[8:16])
        expect = 16 + 8 * rows * cols
        if len(blob) != expect:
            raise ValueError(f"{path}: expected {expect} bytes for {rows}x{cols}, got {len(blob)}")
        a = np.frombuffer(blob[16:], dtype="<f8").reshape(rows, cols)
        return as_matrix(a.astype(np.float64), str(path))
    lines = _text_lines(path, blob)
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        rows, cols = (int(t) for t in lines[0].split())
    except ValueError:
        rows = cols = 0
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}, line 1: header must be 'rows cols', both >= 1, got {lines[0]!r}")
    body = [line.split() for line in lines[1 : rows + 1]]
    count = sum(len(tokens) for tokens in body)
    if count != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, got {count}")
    values = np.empty((rows, cols))
    for lineno, tokens in enumerate(body, start=2):
        if len(tokens) != cols:
            raise ValueError(f"{path}, line {lineno}: expected {cols} values, got {len(tokens)}")
        try:
            values[lineno - 2] = np.array(tokens, dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
        if not np.isfinite(values[lineno - 2]).all():
            raise ValueError(f"{path}, line {lineno}: non-finite entry")
    for lineno, line in enumerate(lines[rows + 1 :], start=rows + 2):
        if line.strip():
            raise ValueError(f"{path}, line {lineno}: unexpected content after {rows} rows")
    return values  # every row was checked above, its line named


def write_labels(path, labels) -> None:
    labels = as_labels(labels, f"labels for {path}")
    Path(path).write_text("\n".join(str(v) for v in labels) + "\n")


def read_labels(path) -> np.ndarray:
    """One non-negative integer label per non-blank line; a fault names its line."""
    path = Path(path)
    labels = []
    for lineno, line in enumerate(_text_lines(path, path.read_bytes()), start=1):
        token = line.strip()
        if not token:
            continue
        if not (token.isascii() and token.isdigit()):
            raise ValueError(
                f"{path}, line {lineno}: expected one non-negative integer label, got {token!r}"
            )
        labels.append(int(token))
    if not labels:
        raise ValueError(f"{path}: empty label file")
    return np.array(labels, dtype=np.int64)


# Below this a column's sum of squares has lost bits to underflow.
L2_SAFE_NORM = np.sqrt(np.finfo(np.float64).tiny)


def normalize(x, scheme: str = DEFAULT_NORMALIZATION) -> np.ndarray:
    """Per-view normalization.

    "l2-sample" scales every column (sample) to unit l2 norm, leaving
    all-zero columns untouched; "minmax-feature" maps every row (feature)
    onto [0, 1], sending constant rows to zero. Both work on every finite
    input: a column whose squared norm overflows or underflows is divided by
    its largest |entry| first, and a row whose range overflows is halved.
    """
    x = as_matrix(x)
    if scheme == "l2-sample":
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(x, axis=0)
        out = x / np.where(norms == 0.0, 1.0, norms)
        lost = (norms < L2_SAFE_NORM) | (norms == np.inf)
        lost[lost] = x[:, lost].any(axis=0)  # an all-zero column stays as it is
        if lost.any():  # only these columns change; every other one keeps its bits
            y = x[:, lost] / np.abs(x[:, lost]).max(axis=0)
            out[:, lost] = y / np.linalg.norm(y, axis=0)
        return out
    if scheme == "minmax-feature":
        lo, hi = x.min(axis=1, keepdims=True), x.max(axis=1, keepdims=True)
        with np.errstate(over="ignore"):
            span = hi - lo
        wide = span == np.inf
        if wide.any():  # the halved row has a finite range and the same map
            x, lo = np.where(wide, x / 2, x), np.where(wide, lo / 2, lo)
            span = np.where(wide, hi / 2, hi) - lo
        out = (x - lo) / np.where(span == 0.0, 1.0, span)
        out[np.broadcast_to(span == 0.0, out.shape)] = 0.0
        return out
    raise ValueError(f"unknown normalization scheme {scheme!r}, expected one of {NORMALIZATION_SCHEMES}")


def normalize_dataset(ds: MultiViewDataset, scheme: str = DEFAULT_NORMALIZATION) -> MultiViewDataset:
    """The dataset with every view normalized by `scheme`, which it records."""
    views = [normalize(x, scheme) for x in ds.views]
    for i, (raw, x) in enumerate(zip(ds.views, views)):
        if not x.any() and np.any(raw):
            raise ValueError(f"dataset {ds.name!r}: view {i} is all zeros after {scheme} "
                             "normalization, though the raw view is not")
    return replace(ds, views=views, normalization=scheme)


@contextmanager
def _naming(prefix: str):
    """Re-raise an OSError or ValueError of the block as a ValueError led by prefix."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ValueError(f"{prefix}: {exc}") from exc


def load_dataset(manifest_path, normalization: str | None = None) -> MultiViewDataset:
    """Load the dataset a manifest describes and normalize it with normalize_dataset.

    The manifest's scheme applies unless `normalization` overrides it. Every
    view is checked against its declared dimension and the shared sample
    count, and the truth file against the sample count and k; any failure to
    read or check a view or the truth file names it.
    """
    manifest = Manifest.load(manifest_path)
    base = Path(manifest_path).parent
    n = manifest.sample_count
    views = []
    for i, entry in enumerate(manifest.views):
        with _naming(f"view {i} ({entry['path']})"):
            x = read_matrix(base / entry["path"])
            if x.shape != (entry["dim"], n):
                raise ValueError(f"expected {entry['dim']}x{n}, got {x.shape[0]}x{x.shape[1]}")
        views.append(x)
    truth = None
    if manifest.truth is not None:
        with _naming(f"truth ({manifest.truth})"):
            truth = read_labels(base / manifest.truth)
            if truth.size != n:
                raise ValueError(f"expected {n} labels, got {truth.size}")
            if truth.max() >= manifest.k:
                raise ValueError(f"labels must lie in [0, {manifest.k}), got {truth.max()}")
    raw = MultiViewDataset(views=views, truth=truth, k=manifest.k, name=manifest.name)
    return normalize_dataset(raw, normalization or manifest.normalization)


def save_dataset(
    ds: MultiViewDataset,
    out_dir,
    fmt: str = DEFAULT_FORMAT,
    normalization: str = DEFAULT_NORMALIZATION,
) -> Path:
    """Write views, truth, and manifest under out_dir; returns the manifest path.

    Matrices are stored raw; the manifest's normalization tag tells loaders
    what to apply.
    """
    if fmt not in MATRIX_FORMATS:
        raise ValueError(f"fmt must be one of {tuple(MATRIX_FORMATS)}, got {fmt!r}")
    if normalization not in NORMALIZATION_SCHEMES:
        raise ValueError(f"unknown normalization scheme {normalization!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix, write = MATRIX_FORMATS[fmt]
    entries = []
    for i, x in enumerate(ds.views):
        fname = f"view{i}{suffix}"
        write(out_dir / fname, x)
        entries.append({"path": fname, "dim": int(x.shape[0])})
    truth_name = None
    if ds.truth is not None:
        truth_name = "truth.txt"
        write_labels(out_dir / truth_name, ds.truth)
    manifest = Manifest(
        name=ds.name,
        k=ds.k,
        sample_count=ds.n,
        views=entries,
        truth=truth_name,
        normalization=normalization,
    )
    manifest_path = out_dir / "manifest.json"
    manifest.save(manifest_path)
    return manifest_path


@contextmanager
def _scale_overflow(name: str, scale: float, view: int):
    """Turn a floating-point overflow inside the block into a ValueError naming the scale."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ValueError(f"{name}={scale:g} overflows view {view}") from None


def generate_synthetic(
    n: int,
    k: int,
    view_dims,
    noise_sigma: float = 0.1,
    seed: int = 0,
    nuisance_dim: int = 0,
    nuisance_scale: float = 1.0,
    name: str = "synth",
    names=None,
) -> MultiViewDataset:
    """Planted multi-view clustering data.

    Balanced labels (cluster sizes within one of n/k) drive a k x n indicator
    that every view observes through its own random linear map, plus isotropic
    Gaussian noise of scale noise_sigma. With nuisance_dim > 0 each view also
    receives a private rank-nuisance_dim component of scale nuisance_scale --
    structure that is real but carries no cluster signal, and differs per view.
    An error labels an argument by names[keyword], else by its keyword; names
    changes no output. Like every dataset, the result checks itself when built.
    """
    names = names or {}

    def label(keyword):
        return names.get(keyword, keyword)

    if k < 2:
        raise ValueError(f"need {label('k')} >= 2, got {k}")
    if n < 5 * k:
        raise ValueError(f"need {label('n')} >= 5k = {5 * k}, got {n}")
    if not 0 <= noise_sigma < np.inf:
        raise ValueError(f"{label('noise_sigma')} must be finite and >= 0, got {noise_sigma}")
    if not np.isfinite(nuisance_scale):
        raise ValueError(f"{label('nuisance_scale')} must be finite, got {nuisance_scale}")
    if nuisance_dim < 0:
        raise ValueError(f"{label('nuisance_dim')} must be >= 0, got {nuisance_dim}")
    if seed < 0:
        raise ValueError(f"{label('seed')} must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    counts = np.full(k, n // k)
    counts[: n % k] += 1
    labels = np.repeat(np.arange(k), counts)
    rng.shuffle(labels)
    indicator = np.zeros((k, n))
    indicator[labels, np.arange(n)] = 1.0
    views = []
    for v, d in enumerate(view_dims):
        d = int(d)
        if d < 1:
            raise ValueError(f"{label('view_dims')} must be positive, got {d}")
        x = rng.standard_normal((d, k)) @ indicator
        if nuisance_dim > 0:
            if nuisance_dim > d:
                raise ValueError(f"{label('nuisance_dim')} {nuisance_dim} exceeds view dim {d}")
            # Orthonormal basis plus sqrt(d/q) scaling makes nuisance_scale the
            # per-sample nuisance-to-signal energy ratio, independent of d.
            directions = np.linalg.qr(rng.standard_normal((d, nuisance_dim)))[0]
            codes = rng.standard_normal((nuisance_dim, n))
            with _scale_overflow(label("nuisance_scale"), nuisance_scale, v):
                gain = nuisance_scale * np.sqrt(d / nuisance_dim)
                x = x + gain * (directions @ codes)
        if noise_sigma > 0:
            with _scale_overflow(label("noise_sigma"), noise_sigma, v):
                x = x + noise_sigma * rng.standard_normal((d, n))
        views.append(x)
    return MultiViewDataset(views=views, truth=labels, k=k, name=name)

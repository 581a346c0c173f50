"""Compare the fits of two checkouts up to rounding: labels, iteration counts, objectives.

Run `python3 tools/fit_gap.py OLD NEW` with two checkout directories. Each
checkout's mvfuse runs in its own subprocess on the five fits of
`fit_digests.FITS` and on the 16 fits that `grid` runs for
`fit_digests.GRID_ARGS` at `--seed 0`. Per fit the script prints whether the
labels are equal, both iteration counts, and the largest relative gap
between the two objective traces over their common iterations. It exits 1
when any labels or iteration counts differ, and 0 otherwise; the objective
gaps are for the reader to judge. Where `fit_digests.py` asks "bit-identical?",
this script asks "equal up to rounding?". It takes under half a minute on 2 cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def worker(checkout: str) -> None:
    """Print one JSON line per fit of `checkout`: its name, labels and objective trace."""
    src = Path(checkout).resolve() / "src"
    sys.path.insert(0, str(src))
    import mvfuse  # the checkout's package; fit_digests's imports below bind to it

    if not Path(mvfuse.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported mvfuse from {mvfuse.__file__}, not from {src}")
    import mvfuse.cli as cli
    from mvfuse.data import generate_synthetic, save_dataset

    import fit_digests

    records = []

    def keep(name, res):
        records.append({"name": name, "labels": res.labels.tolist(),
                        "objectives": res.objectives.tolist()})

    for name, *config in fit_digests.FITS:
        keep(name, fit_digests.run_fit(*config)[1])

    real_fit = cli.fit

    def recording_fit(dataset, hp):
        res = real_fit(dataset, hp)
        keep(f"grid lambda={hp.lam:g} dims={','.join(map(str, hp.dims))} seed={hp.seed}", res)
        return res

    cli.fit = recording_fit
    with tempfile.TemporaryDirectory() as tmp:
        data = generate_synthetic(**fit_digests.NUISANCE)
        manifest = save_dataset(data, Path(tmp) / "data", fmt="text")
        fit_digests.cli_stdout(["grid", "--manifest", str(manifest), "--out", str(Path(tmp) / "grid"),
                                *fit_digests.GRID_ARGS, "--threads", "1", "--seed", "0"])
    for record in records:
        print(json.dumps(record))


def collect(checkout: str) -> dict:
    """Each fit of `checkout`, keyed by name, from a worker subprocess."""
    proc = subprocess.run([sys.executable, __file__, "--worker", checkout],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: worker exited with code {proc.returncode}\n{proc.stderr}")
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    return {rec["name"]: rec for rec in records}


def compare(old: dict, new: dict) -> bool:
    """Print one line per fit; True when labels and iteration counts all agree."""
    ok = old.keys() == new.keys()
    if not ok:
        print(f"fits only in OLD: {sorted(old.keys() - new.keys())}")
        print(f"fits only in NEW: {sorted(new.keys() - old.keys())}")
    print(f"{'fit':<44} {'labels':<9} {'iterations':<11} max relative objective gap")
    for name in [name for name in old if name in new]:
        same_labels = old[name]["labels"] == new[name]["labels"]
        x, y = np.array(old[name]["objectives"]), np.array(new[name]["objectives"])
        common = min(x.size, y.size)
        gap = np.abs(y[:common] - x[:common]) / np.maximum(np.abs(x[:common]), np.finfo(float).tiny)
        labels = "equal" if same_labels else "DIFFER"
        print(f"{name:<44} {labels:<9} {f'{x.size}/{y.size}':<11} {gap.max():.2e}")
        ok = ok and same_labels and x.size == y.size
    return ok


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
        sys.exit(0)
    if len(sys.argv) != 3:
        raise SystemExit("usage: python3 tools/fit_gap.py OLD NEW")
    sys.exit(0 if compare(collect(sys.argv[1]), collect(sys.argv[2])) else 1)

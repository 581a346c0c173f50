"""tools/fit_gap.py's comparison of two checkouts' outputs, on hand-built records."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "fit_gap.py"
_SPEC = importlib.util.spec_from_file_location("fit_gap", _PATH)
fit_gap = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fit_gap)

# One fit output and one file output, as a worker reports them.
OLD = {
    "fit": {"sha": "a", "labels": [0, 1, 1], "objectives": [-1.0, -2.0]},
    "fit eval": {"sha": "b"},
}


@pytest.mark.parametrize("name, record, same, printed", [
    ("fit", {}, True, ["2 of 2 outputs bit-identical"]),
    ("fit", {"sha": "c", "objectives": [-1.0, -2.0 * (1 + 2**-52)]}, True,
     ["labels equal, iterations 2/2, max relative objective gap 2.22e-16",
      "1 of 2 outputs bit-identical"]),
    ("fit", {"sha": "c", "labels": [1, 0, 0]}, False,
     ["labels DIFFER (the same partition, relabelled)"]),
    ("fit", {"sha": "c", "labels": [0, 0, 1]}, False, ["labels DIFFER (another partition)"]),
    ("fit", {"sha": "c", "labels": [0, 1, 2]}, False, ["labels DIFFER (another partition)"]),
    ("fit", {"sha": "c", "objectives": [-1.0, -2.0, -2.5]}, False, ["iterations 2/3"]),
    ("fit eval", None, False, ["only in OLD", "1 of 2 outputs bit-identical"]),
    ("fit eval", {"sha": "c"}, True, ["differs", "1 of 2 outputs bit-identical"]),
], ids=["identical", "rounding-gap", "labels-differ", "labels-differ-repartitioned",
        "labels-differ-split", "iterations-differ", "one-side-only", "file-differs"])
def test_compare(capsys, name, record, same, printed):
    """NEW is OLD with `name`'s record updated by `record`, or without it when None."""
    new = {key: dict(value) for key, value in OLD.items()}
    if record is None:
        del new[name]
    else:
        new[name].update(record)
    assert fit_gap.compare(OLD, new) is same
    out = capsys.readouterr().out
    for text in printed:
        assert text in out

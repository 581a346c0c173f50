"""One-operation smoke runs of every workload, and the output checks.

The smoke runs shrink each workload (fewer samples and iterations) so they
exercise the same code paths in seconds; seed 1 skips the reference check,
which only the full fit-small run at seed 0 exercises.
"""

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import mvbench  # noqa: E402
import run  # noqa: E402

SHRUNK = {
    "fit-small": dict(max_iter=4),
    "fit-large": dict(n=150, view_dims=(20, 30, 40), max_iter=3),
    "grid-deep": dict(n=90, lambdas=(2.0**-12, 2.0**5), max_iter=3),
}


def bench(capsys, name, seed, trace, workload=None):
    argv = ["--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, workload=workload) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(mvbench.WORKLOADS))
def test_smoke_run_prints_every_metric(capsys, name, trace):
    workload = dataclasses.replace(mvbench.WORKLOADS[name], **SHRUNK[name])
    text, result = bench(capsys, name, 1, trace, workload)
    expected = mvbench.PER_LAYER if trace else mvbench.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    assert list(result["metrics"]) == [m for m, _ in expected]
    for metric, unit in expected:
        value = result["metrics"][metric]
        assert value == {"value": value["value"], "unit": unit}
        assert np.isfinite(value["value"])
        assert any(line.split()[:1] == [metric] and f" {unit}" in line for line in text)
    assert any(line.split()[:1] == ["fail_ratio"] for line in text)
    assert text[0].startswith("machine ")
    machine = json.loads(text[0][len("machine "):])
    assert {"nproc", "python", "numpy", "scipy", "openblas",
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} <= set(machine)
    if trace:
        check_traced(workload, {k: v["value"] for k, v in result["metrics"].items()})


def check_traced(workload, m):
    # every span's self time lands in one metric, so the parts add up
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.op_s"], rel=1e-3)
    assert m["fusion.steps"] == m["pipeline.iterations"] * (1 + len(workload.view_dims))
    if isinstance(workload, mvbench.GridWorkload):
        assert m["cli.repeats"] == workload.repeats
        assert 0 < m["cli.distinct_repeat_ratio"] <= 1
        assert 0 < m["cli.pool_efficiency"] <= 1
        assert m["data.bytes_read"] > 0
        assert m["deep.update_hidden_s"] > 0


def test_seed_zero_matches_the_reference_trace(capsys):
    _, result = bench(capsys, "fit-small", 0, 0)
    assert result["correct"] is True and result["failed"] == 0


def test_raised_error_counts_as_failed_operation(capsys):
    bad = dataclasses.replace(mvbench.WORKLOADS["fit-small"], dims=(7, 4), max_iter=2)
    text, result = bench(capsys, "fit-small", 1, 0, bad)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert any("check failed" in line and "ValueError" in line for line in text)


def test_reference_tolerance_passes_rounding_and_fails_changed_iterates():
    ref = np.array([329.27, 233.09, -91.6, 2.46])
    assert mvbench.trace_matches(ref * (1 + 1e-13), ref)
    assert not mvbench.trace_matches(ref * (1 + 1e-7), ref)
    assert not mvbench.trace_matches(ref[:-1], ref)


def _fit(labels, objectives):
    history = [
        SimpleNamespace(objective=o, recon_losses=np.ones(3), alpha=np.ones(3), beta=np.ones(3))
        for o in objectives
    ]
    return SimpleNamespace(labels=np.array(labels), history=history)


@pytest.mark.parametrize(
    "labels, objectives, problem",
    [
        ([0, 1, 2], [1.0, 0.5], None),
        ([0, 1, 3], [1.0, 0.5], "labels outside [0, 3)"),
        ([0, -1, 2], [1.0], "labels outside [0, 3)"),
        ([0, 1, 2], [], "empty history"),
        ([0, 1, 2], [1.0, float("nan")], "non-finite history"),
    ],
)
def test_check_fit(labels, objectives, problem):
    problems = mvbench.check_fit(_fit(labels, objectives), k=3)
    assert problems == ([] if problem is None else [problem])


def test_benchmark_json_names_the_metrics_this_code_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(mvbench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(mvbench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(mvbench.PER_LAYER)


def test_reference_was_recorded_for_every_current_spec():
    for workload in mvbench.WORKLOADS.values():
        assert mvbench.load_reference(workload), f"rerun make_reference.py {workload.name}"

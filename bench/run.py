"""Run one mvfuse benchmark workload, or all of them, and print the metrics.

    python3 bench/run.py --workload fit-small --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 36

Run from the root of a source checkout: mvfuse is imported from ./src. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the machine, every
metric with its unit and sample spread, the failure ratio, the CPU time the
hypervisor gave other guests meanwhile, and any failed output check.
--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics of a separate traced run and writes its spans to
bench/.work/trace-<workload>.tsv. With --workload all, each workload runs in
its own process, one after another, and the last line merges their results
under "<workload>.<metric>" names.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import mvbench

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*mvbench.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True,
                   help="picks the fit seeds (fit-*) or the lambda order (grid-deep)")
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; at least one operation always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in mvbench.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None, workload=None) -> int:
    """Run the benchmark; `workload` overrides the named spec (used by tests)."""
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        modules = mvbench.import_mvfuse(ROOT)
    except ImportError as exc:
        print(f"error: cannot import mvfuse from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workload = workload or mvbench.WORKLOADS[args.workload]
    run = mvbench.Run(workload, args.seed, args.seconds, ROOT, modules)
    try:
        if args.trace:
            values, notes = run.traced(ROOT / "bench" / ".work" / f"trace-{workload.name}.tsv")
            names = mvbench.PER_LAYER
        else:
            values, notes = run.timed()
            names = mvbench.END_TO_END
    finally:
        run.close()

    print("machine " + json.dumps(mvbench.machine_info(), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, unit in names:
        note = notes.get(name, "")
        print(f"  {name:32s} {values[name]:.6g} {unit}  {note}".rstrip())
    ratio = run.failed / run.attempted
    print(f"  {'fail_ratio':32s} {ratio:.6g} ratio  ({run.failed} failed of {run.attempted} attempted)")
    if run.steal_s is not None:
        print(f"  steal: the hypervisor gave other guests {run.steal_s:.3g} CPU-s "
              f"of this machine during the {run.loop_s:.3g} s loop")
    for problem in run.problems:
        print(f"  check failed: {problem}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

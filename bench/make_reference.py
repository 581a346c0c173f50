"""Rewrite bench/reference.json: the objective traces of seed 0's first operation.

    python3 bench/make_reference.py [workload ...]

Run it only when a change is meant to move the iterates; the benchmark
checks every seed-0 run against this file to REFERENCE_RTOL.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import mvbench

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    modules = mvbench.import_mvfuse(ROOT)
    names = argv or sorted(mvbench.WORKLOADS)
    path = mvbench.REFERENCE_PATH
    doc = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
    work = ROOT / "bench" / ".work"
    work.mkdir(parents=True, exist_ok=True)
    for name in names:
        workload = mvbench.WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            runner = mvbench.make_runner(workload, modules, 0, Path(tmp))
            runner.setup()
            outcome = runner.run(0)
        if outcome.problems:
            print(f"{name}: {outcome.problems}", file=sys.stderr)
            return 1
        doc["workloads"][name] = {
            "spec": repr(workload),
            "traces": {
                mvbench.fit_key(d, lam, s): [float(v) for v in res.objectives]
                for d, lam, s, res in outcome.fits
            },
        }
        print(f"{name}: {len(outcome.fits)} traces")
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

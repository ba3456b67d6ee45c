"""Freeze the reference reports that the benchmark checks ops against.

    python3 perfbench/freeze.py [WORKLOAD ...]

Run from the repository root at the commit whose outputs are taken as
correct.  For every effective seed it builds the workload's inputs,
runs each op once and stores the printed report under its argv in
``perfbench/reference/<workload>.json``.  Refreshing references is a
benchmark-only change that names the correctness fix it records.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # pins threads before numpy loads
from check import REFERENCE_DIR
from workloads import REFERENCE_SEEDS, WORKLOADS


def freeze(zdim, workload) -> dict:
    references: dict = {}
    workdir = run.ROOT / ".perfbench" / f"freeze-{workload.name}-{os.getpid()}"
    here = os.getcwd()
    try:
        for seed in range(REFERENCE_SEEDS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            run.set_up(zdim, workload, seed, workdir)
            os.chdir(workdir)
            for op in workload.ops(seed):
                _, text, problems = run.run_op(zdim, op, {op.key: {}})
                if problems:
                    raise SystemExit(f"{op.key}: {problems[0]}")
                report = json.loads(text)
                if references.setdefault(op.key, report) != report:
                    raise SystemExit(f"{op.key}: report depends on more than its argv")
            os.chdir(here)
            print(f"{workload.name} seed {seed}: {len(references)} reports", flush=True)
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
    return references


def main(names) -> int:
    zdim, _ = run.import_zdim()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        references = freeze(zdim, WORKLOADS[name])
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

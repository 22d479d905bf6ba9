"""Record the outputs the correctness gate compares against at the reference seed.

    python3 bench/record_reference.py [workload ...]

Run it from the repository root on the commit whose outputs are the contract
(the references under ``reference/`` were recorded from the seed commit). It
sets up each workload once at ``REFERENCE_SEED``, runs its command once, and
writes the summarised outputs to ``reference/<workload>.json``.
"""
from __future__ import annotations

import json
import shutil
import sys

import checks
from run import ROOT, run_once
from workloads import REFERENCE_SEED, WORKLOADS


def record(name: str) -> None:
    workload = WORKLOADS[name]
    work = ROOT / ".bench-work" / f"reference-{name}"
    try:
        if not run_once(workload, REFERENCE_SEED, work, work / "out"):
            sys.exit(f"{name}: set-up or command failed")
        summary = checks.summarize(workload, work / "out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (checks.REFERENCE_DIR / f"{name}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"recorded {name}")


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        record(name)

"""myobench benchmark: one workload, timed through the real CLI, outputs checked.

    python3 bench/run.py --workload robustness_panel --seed 7 --seconds 20 --trace 0

Run from the repository root. Set-up synthesises the workload's dataset with
``myobench synth`` (seeded by ``--seed``) several times, each in a fresh
process, and reports the median as ``setup_s``. The timed command then runs
repeatedly, one fresh process at a time (a closed loop with one caller), for
at least ``--seconds`` seconds; every run's outputs go through the
correctness gate in ``checks.py``.

Times are CPU times (user + system) of the process that runs the command,
scaled to a reference host speed: the worker times a fixed calibration loop
before and after the command (see ``worker.py``), and each time is multiplied
by ``CALIBRATION_REF_S`` over that calibration's CPU time. The shared host
steals CPU from its guests at times, which stretches wall time but not CPU
time, and runs its cores slower or faster for seconds to minutes, which
stretches both; the calibration loop slows with it. Raw CPU, wall and
calibration times go into the run record.

With ``--trace 0`` the end-to-end metrics are medians over the timed runs.
With ``--trace 1`` untraced and traced runs alternate and the per-layer
metrics come from the traced ones (see ``spans.py``); spans are written under
``.bench-results/``. The last line of standard output is the result JSON; the
line before it records the run and machine facts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
from spans import RATIOS, layer_units
from workloads import REFERENCE_SEED, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 3
MIN_RUNS = 2
RUN_DEADLINE_S = 170  # a benchmark run must end within 180 s

# calibration loop CPU seconds (before + after) at the reference speed: about the
# median on a 2-vCPU KVM guest of an Intel Xeon host, Python 3.11, numpy 2.4
CALIBRATION_REF_S = 0.78

END_TO_END = {"ref_cpu_s": "s", "work_per_ref_cpu_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# a fixed string-hash seed, so that dict and set layouts do not vary between workers
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def at_ref(result: dict, key: str) -> float:
    """``result[key]`` (CPU seconds) scaled to the reference host speed."""
    return result[key] * CALIBRATION_REF_S / result["calibration_s"]


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    """Runs set-up and timed commands for one workload and seed."""

    def __init__(self, workload: Workload, seed: int, work: Path, results: Path,
                 reference: dict | None):
        self.workload, self.seed = workload, seed
        self.work, self.results, self.reference = work, results, reference
        self.manifest = work / "data" / "manifest.json"
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.runs = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        # (CPU, wall, calibration CPU) seconds of each command, by kind
        self.seconds: dict[str, list[tuple[float, float, float]]] = {
            "setup": [], "untraced": [], "traced": []}

    def worker(self, argv: list[str], trace: bool) -> dict | None:
        """Run one CLI command in a fresh process; None when it fails."""
        self.runs += 1
        run_id = f"{self.workload.name}-seed{self.seed}-run{self.runs}"
        result = self.work / f"{run_id}.json"
        spec = {"root": str(ROOT), "argv": argv, "result": str(result),
                "trace": run_id if trace else None,
                "spans": str(self.results / f"{run_id}.spans.npz")}
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                                  cwd=ROOT, env=WORKER_ENV, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"{run_id}: timed out", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.exists():
            print(f"{run_id}: exit code {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(result.read_text())

    def setup(self, trace: bool) -> dict | None:
        shutil.rmtree(self.manifest.parent, ignore_errors=True)
        result = self.worker(self.workload.synth.args(self.seed, str(self.manifest.parent)), trace)
        if result is not None:
            self.seconds["setup"].append(
                (result["setup_s"], result["setup_wall_s"], result["calibration_s"]))
        return result

    def timed(self, trace: bool) -> dict | None:
        """One run of the timed command, with its outputs checked."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        prefix = checks.out_prefix(self.workload, out)
        result = self.worker(self.workload.command.args(str(self.manifest), str(prefix)), trace)
        gate = checks.check(self.workload, out, self.reference)
        self.attempted += gate.attempted
        # a failed command counts as every check of its run failing
        failures = gate.failures if result is not None else ["command failed"] * gate.attempted
        self.failed += len(failures)
        self.failures.extend(failures)
        shutil.rmtree(out)
        if result is not None:
            self.seconds["traced" if trace else "untraced"].append(
                (result["cpu_s"], result["wall_s"], result["calibration_s"]))
        return result

    def check_counts(self, traced: list[dict]):
        """Call counts are deterministic, so every traced run must repeat them."""
        if len(traced) < 2:
            return
        counted = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")} for r in traced]
        self.attempted += 1
        if any(c != counted[0] for c in counted[1:]):
            self.failed += 1
            self.failures.append("per-layer counts differ between traced runs")


def run_once(workload: Workload, seed: int, work: Path, out: Path) -> bool:
    """Set up once and run the command once, leaving its outputs in ``out``."""
    runner = Runner(workload, seed, work, work, None)
    work.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    argv = workload.command.args(str(runner.manifest), str(checks.out_prefix(workload, out)))
    return runner.setup(trace=False) is not None and runner.worker(argv, trace=False) is not None


def run_end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    setups = [runner.setup(trace=False) for _ in range(SETUP_RUNS)]
    if any(s is None for s in setups):
        raise BenchError("set-up failed")
    timed = []
    start = time.perf_counter()
    while len(timed) < MIN_RUNS or time.perf_counter() - start < seconds:
        timed.append(runner.timed(trace=False))
    ok = [r for r in timed if r is not None]
    if not ok:
        raise BenchError("every timed command failed")
    work = runner.workload.work
    return {
        "ref_cpu_s": statistics.median(at_ref(r, "cpu_s") for r in ok),
        "work_per_ref_cpu_s": statistics.median(work / at_ref(r, "cpu_s") for r in ok),
        "setup_s": statistics.median(at_ref(s, "setup_s") for s in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def run_traced(runner: Runner, seconds: float) -> dict[str, float]:
    setup = runner.setup(trace=True)
    if setup is None:
        raise BenchError("set-up failed")
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.timed(trace=False))
        traced.append(runner.timed(trace=True))
    plain = [r for r in plain if r is not None]
    traced = [r for r in traced if r is not None]
    if not (plain and traced):
        raise BenchError("every timed command failed")
    runner.check_counts(traced)
    # median_low keeps counts integral; they are equal across traced runs anyway
    metrics = {k: v + statistics.median_low(r["layers"][k] for r in traced)
               for k, v in setup["layers"].items()}
    for ratio, (num, base) in RATIOS.items():
        metrics[ratio] = metrics[num] / metrics[base] if metrics[base] else 0.0
    metrics["trace.overhead_s"] = (statistics.median(at_ref(r, "cpu_s") for r in traced)
                                   - statistics.median(at_ref(r, "cpu_s") for r in plain))
    return metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts() -> dict:
    """Core count, CPU model, data-cache sizes, versions, and what code was measured."""
    import numpy as np

    facts = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
             "source_sha256": source_digest(), "commit": None}
    try:  # Linux only
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
        facts["cpu_model"] = next(line.partition(":")[2].strip() for line in cpuinfo
                                  if line.startswith("model name"))
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "type").read_text().strip() != "Instruction":
                level = (index / "level").read_text().strip()
                facts[f"L{level}_cache"] = (index / "size").read_text().strip()
    except (OSError, StopIteration):
        pass
    for package in ("numpy", "scipy", "click"):
        facts[package] = metadata.version(package)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        facts["commit"] = proc.stdout.strip() or None
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "myobench").is_dir():
        print(f"no myobench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench-work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    results = ROOT / ".bench-results"
    results.mkdir(exist_ok=True)
    reference = checks.load_reference(workload) if args.seed == REFERENCE_SEED else None
    runner = Runner(workload, args.seed, work, results, reference)
    try:
        work.mkdir(parents=True)
        measure = run_traced if args.trace else run_end_to_end
        values = measure(runner, args.seconds)
        dataset_bytes = sum(p.stat().st_size for p in runner.manifest.parent.iterdir())
    except BenchError as exc:
        print(f"{workload.name}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = layer_units() if args.trace else END_TO_END
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "reference_checked": reference is not None, "runs": runner.runs,
        "failed_frac": runner.failed / runner.attempted, "failures": runner.failures[:10],
        "work_unit": workload.work_unit, "work_per_run": workload.work,
        "dataset_bytes": dataset_bytes, "cpu_wall_calibration_s_per_run": runner.seconds,
        "machine": machine_facts(),
    }
    if not args.trace:
        record[f"{workload.work_unit}_per_ref_cpu_s"] = values["work_per_ref_cpu_s"]
        for i, key in enumerate(("cpu_s", "wall_s", "calibration_s")):
            record[key] = statistics.median(t[i] for t in runner.seconds["untraced"])
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "metrics": values}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

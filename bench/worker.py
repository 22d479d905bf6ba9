"""Child process of the benchmark: runs one myobench CLI command in-process.

Usage: ``python worker.py '<json spec>'`` with keys ``root`` (the checkout),
``argv`` (CLI arguments), ``result`` (where to write the result JSON),
``trace`` (a run id to record spans under, or null) and ``spans`` (where to
write them). The result holds the command's CPU time (user + system, all
threads) and wall time, the same two since the worker started importing
myobench (the set-up time, for ``synth``), the CPU time of the calibration
loop run before and after, the process's peak RSS and, when traced, the
per-layer metrics. A failing command exits with its CLI exit code and writes
no result.

The calibration loop is fixed work that uses no myobench code: small-array
numpy calls and FFTs, dict updates, text-to-float parsing and sorts of a 1 MiB
array, the kinds of work the commands do. Its CPU time tracks how fast the
shared host runs this process right then, so the benchmark can scale the
command's CPU time to a reference speed. It allocates its large buffers once,
so that what the command leaves on the heap changes its cost little.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

CALIBRATION_ROUNDS = 20  # about 0.4 s of CPU on a 2.x GHz Xeon core

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.standard_normal(256)
_LARGE = _RNG.standard_normal(1 << 17)
_SCRATCH = np.empty_like(_LARGE)
_TEXT = [f"{v:.6f}" for v in _RNG.standard_normal(2000)]


def _calibration_round() -> float:
    rng = np.random.default_rng(7)
    total = 0.0
    for _ in range(300):
        y = _SMALL + 0.1 * rng.standard_normal(256)
        total += float(np.abs(np.fft.rfft(y)).sum()) + float(np.abs(np.diff(y)).sum())
    counts: dict[int, int] = {}
    for i in range(30000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(3):
        total += sum(map(float, _TEXT))
    for _ in range(4):
        np.copyto(_SCRATCH, _LARGE)
        _SCRATCH.sort()
        total += float(_SCRATCH[-1])
    return total + len(counts)


def calibrate() -> float:
    """CPU seconds of the fixed calibration loop."""
    start = time.process_time()
    for _ in range(CALIBRATION_ROUNDS):
        _calibration_round()
    return time.process_time() - start


def main() -> int:
    spec = json.loads(sys.argv[1])
    calibration = calibrate()
    started, started_cpu = time.perf_counter(), time.process_time()
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import click
    from myobench import cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer, install
        tracer = Tracer(spec["trace"])
        install(tracer)
    command_start, command_start_cpu = time.perf_counter(), time.process_time()
    try:
        cli.main.main(args=spec["argv"], standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    end, end_cpu = time.perf_counter(), time.process_time()
    calibration += calibrate()
    result = {
        "cpu_s": end_cpu - command_start_cpu,
        "wall_s": end - command_start,
        "setup_s": end_cpu - started_cpu,
        "setup_wall_s": end - started,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.save(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

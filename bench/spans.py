"""Spans and counts around myobench's public functions, from outside the package.

``install`` replaces each traced function by a wrapper under every name it is
bound to in any loaded ``myobench`` module (several modules import functions
by name), so every call is seen. Spans record name, start, end and parent in
memory and are written out by ``save``; self time is a span's duration minus
the time its child spans cover.

Some functions are grouped under one family span (``time_features.amplitude``
covers nine kernels). Three redundancy counts are kept at the same
boundaries: distinct windows per FFT, distinct noise keys per WGN draw, and
distinct trial inputs per extraction.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# span name -> (module, attribute) pairs it wraps; a dotted attribute reaches into
# a class (a method) or a click command (its callback)
TRACED = {
    "cli.command": [("myobench.cli", f"{c}.callback") for c in ("extract", "robustness",
                                                                 "classify")],
    "dataio.load_dataset": [("myobench.dataio", "load_dataset")],
    "dataio.save_dataset": [("myobench.dataio", "save_dataset")],
    "dataio.synthesize_emg": [("myobench.dataio", "synthesize_emg")],
    "signals.segment": [("myobench.signals", "segment")],
    "signals.amplitude_spectrum": [("myobench.signals", "amplitude_spectrum")],
    "registry.compute": [("myobench.registry", "FeatureDescriptor.compute")],
    "time_features.amplitude": [("myobench.time_features", f) for f in
                                ("iemg", "mav", "mmav1", "mmav2", "mavslp", "ssi",
                                 "var", "rms", "wl")],
    "time_features.counters": [("myobench.time_features", f) for f in ("zc", "ssc", "wamp")],
    "time_features.hemg": [("myobench.time_features", "hemg")],
    "freq_features.ar": [("myobench.freq_features", "ar_coefficients")],
    "freq_features.moments": [("myobench.freq_features", f) for f in
                              ("mnf", "mdf", "mmnf", "mmdf")],
    "noise.inject_at_snr": [("myobench.noise", "inject_at_snr")],
    "noise.generate_wgn": [("myobench.noise", "generate_wgn")],
    "robustness.run_grid": [("myobench.robustness", "run_grid")],
    "recognition.extract_window_set": [("myobench.recognition", "extract_window_set")],
    "recognition.lda_train": [("myobench.recognition", "lda_train")],
    "recognition.lda_scores": [("myobench.recognition", "lda_scores")],
    "recognition.majority_vote": [("myobench.recognition", "majority_vote")],
}
CLI_SPAN = "cli.command"  # whichever of the timed commands the workload runs
COUNTS = ("dataio.load_dataset.bytes", "dataio.save_dataset.bytes",
          "signals.fft_windows", "recognition.extract_window_set.trials")

RATIOS = {  # ratio -> (numerator, base)
    "signals.fft_per_window_eval": ("signals.amplitude_spectrum.calls", "signals.fft_windows"),
    "noise.draws_per_copy": ("noise.generate_wgn.calls", "noise.distinct_copies"),
    "recognition.trial_extractions_per_trial": ("recognition.extract_window_set.trials",
                                                "recognition.distinct_trial_inputs"),
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in TRACED:
        if name == CLI_SPAN:
            units[f"{name}.total_s"] = "s"
        else:
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update((name, "B" if name.endswith(".bytes") else "count") for name in COUNTS)
    units.update({"noise.distinct_copies": "count", "recognition.distinct_trial_inputs": "count",
                  "trace.spans": "count", "trace.overhead_s": "s"})
    units.update(dict.fromkeys(RATIOS, "ratio"))
    return units


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.span_name, self.span_parent = array("i"), array("i")
        self.span_start, self.span_end = array("d"), array("d")
        self._stack: list[int] = []        # open span indices
        self._child_s: list[float] = []    # child time covered, per open span
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.total_s = dict.fromkeys(TRACED, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.fft_last = None               # (address key, array kept alive so the key stays unique)
        self.noise_keys: set = set()
        self.trial_keys: set = set()

    def wrap(self, name: str, fn, observe=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_end.append(0.0)
            self._stack.append(idx)
            self._child_s.append(0.0)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, idx, clock())
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def _close(self, name: str, idx: int, end: float):
        self.span_end[idx] = end
        self._stack.pop()
        duration = end - self.span_start[idx]
        child = self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics of this process: calls, self_s, counts."""
        out = {}
        for name in TRACED:
            if name == CLI_SPAN:
                out[f"{name}.total_s"] = self.total_s[name]
            else:
                out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        out["noise.distinct_copies"] = len(self.noise_keys)
        out["recognition.distinct_trial_inputs"] = len(self.trial_keys)
        out["trace.spans"] = len(self.span_start)
        return out

    def save(self, path: Path):
        """Write every span: name, start, end, parent index, and the run id."""
        import numpy as np
        np.savez(path, run_id=self.run_id, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end))


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _dataset_bytes(manifest_path) -> int:
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    return manifest_path.stat().st_size + sum(
        (manifest_path.parent / t["path"]).stat().st_size for t in manifest["trials"])


def _observe_load(tracer: Tracer, args, kwargs, result):
    tracer.counts["dataio.load_dataset.bytes"] += _dataset_bytes(
        _arg(args, kwargs, 0, "manifest_path"))


def _observe_save(tracer: Tracer, args, kwargs, result):
    tracer.counts["dataio.save_dataset.bytes"] += _dataset_bytes(result)


def _observe_fft(tracer: Tracer, args, kwargs, result):
    window = _arg(args, kwargs, 0, "window")
    window = getattr(window, "samples", window)
    interface = getattr(window, "__array_interface__", None)
    key = ((interface["data"][0], interface["shape"], interface["strides"])
           if interface else id(window))
    if tracer.fft_last is None or tracer.fft_last[0] != key:
        tracer.counts["signals.fft_windows"] += 1
        tracer.fft_last = (key, window)


def _observe_wgn(tracer: Tracer, args, kwargs, result):
    tracer.noise_keys.add((_arg(args, kwargs, 0, "n"), repr(_arg(args, kwargs, 1, "seed"))))


def _observe_extraction(tracer: Tracer, args, kwargs, result):
    trials = _arg(args, kwargs, 0, "trials")
    config = (_arg(args, kwargs, 1, "rate"), tuple(_arg(args, kwargs, 2, "descriptors")),
              _arg(args, kwargs, 3, "segmentation"))
    tracer.counts["recognition.extract_window_set.trials"] += len(trials)
    for trial in trials:
        tracer.trial_keys.add((trial.trial_id, hash(trial.data.tobytes()), config))


OBSERVERS = {
    "dataio.load_dataset": _observe_load,
    "dataio.save_dataset": _observe_save,
    "signals.amplitude_spectrum": _observe_fft,
    "noise.generate_wgn": _observe_wgn,
    "recognition.extract_window_set": _observe_extraction,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced function that exists, under every name bound to it.

    A function a later version of the package no longer has is skipped, and
    its span then reports zero calls.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "myobench" or name.startswith("myobench."))]
    for span, targets in TRACED.items():
        for module_name, attr in targets:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapped = tracer.wrap(span, original, OBSERVERS.get(span))
            setattr(owner, leaf, wrapped)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)

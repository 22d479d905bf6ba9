"""The benchmark's workloads: a seeded synthetic dataset plus one CLI command.

Each workload is set up with ``myobench synth`` (its dataset seed is the
benchmark's ``--seed``) and timed on one other ``myobench`` command. The
command's own noise seed stays fixed, so seed 7 reproduces exactly the runs
recorded under ``reference/``.
"""
from __future__ import annotations

from dataclasses import dataclass

REFERENCE_SEED = 7
SNR_GRID = (20.0, 15.0, 10.0, 5.0, 3.0, 0.0)
WINDOW_MS, SLIDE_MS = 256.0, 64.0  # the CLI defaults every workload uses


@dataclass(frozen=True)
class Synth:
    """Options of ``myobench synth``; trials are per class."""

    classes: int
    channels: int
    trials: int
    duration_ms: float = 3000.0
    rate: float = 1000.0

    def args(self, seed: int, out: str) -> list[str]:
        return ["synth", "--classes", str(self.classes), "--channels", str(self.channels),
                "--trials", str(self.trials), "--duration-ms", f"{self.duration_ms:g}",
                "--rate", f"{self.rate:g}", "--seed", str(seed), "--out", out]

    @property
    def trial_count(self) -> int:
        return self.classes * self.trials

    @property
    def samples(self) -> int:
        """Samples in the whole dataset, all channels."""
        return self.trial_count * self.channels * _samples(self.duration_ms, self.rate)

    @property
    def windows_per_trial(self) -> int:
        n, w = _samples(self.duration_ms, self.rate), _samples(WINDOW_MS, self.rate)
        return (n - w) // _samples(SLIDE_MS, self.rate) + 1


def _samples(ms: float, rate: float) -> int:
    return int(round(ms * rate / 1000.0))


@dataclass(frozen=True)
class Robustness:
    """``myobench robustness`` over the default panel."""

    feature_count: int          # descriptors in the panel
    max_windows: int
    snr: tuple[float, ...] = SNR_GRID
    reps: int = 10
    kind = "robustness"

    def records(self, synth: Synth) -> int:
        """Benchmark records (windows) per motion class."""
        return synth.trials * synth.channels * min(self.max_windows, synth.windows_per_trial)

    def work(self, synth: Synth) -> int:
        """PE evaluations."""
        return self.records(synth) * synth.classes * len(self.snr) * self.reps * self.feature_count

    def args(self, data: str, out: str) -> list[str]:
        return ["robustness", "--data", data, "--snr", ",".join(f"{s:g}" for s in self.snr),
                "--reps", str(self.reps), "--max-windows", str(self.max_windows),
                "--out", out]


@dataclass(frozen=True)
class Classify:
    """``myobench classify``: LOTO over feature sets x noise levels."""

    sets: tuple[str, ...] = ("hudgins", "oskoei", "robust")
    noise: tuple[str, ...] = ("clean", "20", "15", "10")
    seed: int = 2
    kind = "classify"

    def work(self, synth: Synth) -> int:
        """Held-out windows classified, summed over sets x noise levels."""
        return len(self.sets) * len(self.noise) * synth.trial_count * synth.windows_per_trial

    def args(self, data: str, out: str) -> list[str]:
        return ["classify", "--data", data, "--sets", ",".join(self.sets),
                "--noise", ",".join(self.noise), "--seed", str(self.seed), "--out", out]


@dataclass(frozen=True)
class Extract:
    """``myobench extract`` with the default rms,mav,wl features."""

    features: tuple[str, ...] = ("rms", "mav", "wl")
    kind = "extract"

    def work(self, synth: Synth) -> int:
        """Input samples loaded and turned into feature rows."""
        return synth.samples

    def args(self, data: str, out: str) -> list[str]:
        return ["extract", "--data", data, "--features", ",".join(self.features),
                "--out", out]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str              # what ``work_per_ref_cpu_s`` counts on this workload
    synth: Synth
    command: Robustness | Classify | Extract

    @property
    def work(self) -> int:
        """Units of ``work_unit`` one timed command does."""
        return self.command.work(self.synth)


SMALL = Synth(classes=4, channels=2, trials=6)
LONG = Synth(classes=2, channels=8, trials=1, duration_ms=60000.0, rate=2000.0)

WORKLOADS = {w.name: w for w in [
    Workload(
        "robustness_panel",
        "ten features share each noisy copy: noise, FFT (4 spectra per copy) and "
        "registry dispatch do most of the work; no LDA, little I/O",
        "pe_evals", SMALL, Robustness(feature_count=10, max_windows=4)),
    Workload(
        "classify_loto",
        "the recognition layer: LOTO re-extracts training trials per fold, 72 LDA fits, "
        "288 majority-vote streams; no robustness code",
        "decisions", SMALL, Classify()),
    Workload(
        "extract_long",
        "two 8 ch x 60 s trials at 2 kHz, 36 MB of CSV: CSV parsing and the extract "
        "loop dominate, and each trial's working set exceeds L2",
        "samples", LONG, Extract()),
]}

"""Dataset ingestion, output files, and synthetic sEMG generation.

On-disk layout: a JSON manifest plus one CSV per trial.

    manifest.json   {"classes": [...], "sampling_rate_hz": ...,
                     "trials": [{"path", "label", "subject", "group",
                                 "channels": [...]}, ...]}
    trial CSV       first row channel names, then one sample per channel per
                    row, rendered at full precision so save -> load is
                    bit-exact.

The synthetic generator stands in for real recordings: per class and channel
it shapes white Gaussian noise with a band-pass filter and scales it to the
class RMS amplitude, giving stationary trials whose spectra and levels are
controllable enough to separate classes. `synthesize_emg` is the package's
one user of scipy, which it imports on first call, so that importing
myobench skips scipy.

Every file the package writes goes through `write_output`: a dataset's
manifest and trial CSVs, and each command's outputs with their
``<file>.config.json`` sidecars. The one exception is the binary parse
cache: loading a trial CSV stores its parsed samples as
``<trial dir>/.myobench-cache/<csv name>.<sha256 of the CSV>.npy``, and a
later load of the same bytes reads that entry instead of parsing the text.
Storing an entry drops the entries of CSVs that are gone from the directory.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .signals import _check_rate


class DatasetError(Exception):
    """A manifest or trial file failed validation."""


@dataclass
class Trial:
    """One labeled multi-channel recording."""

    trial_id: str
    label: str
    subject: str
    group: str
    channels: list[str]
    data: np.ndarray  # (n_samples, n_channels)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[1] != len(self.channels):
            raise ValueError("trial data must be (n_samples, n_channels)")


@dataclass
class Dataset:
    """In-memory dataset: class list, shared sampling rate, and trials."""

    classes: list[str]
    rate: float
    trials: list[Trial]

    def __post_init__(self):
        _check_rate(self.rate)
        ids = [t.trial_id for t in self.trials]
        if len(set(ids)) != len(ids):
            raise ValueError("trial ids must be unique")
        for t in self.trials:
            if t.label not in self.classes:
                raise ValueError(f"trial {t.trial_id} has unknown label {t.label!r}")
            if t.channels != self.trials[0].channels:
                raise ValueError(
                    f"trial {t.trial_id} channels {t.channels} differ from "
                    f"{self.trials[0].channels}; datasets need a uniform layout"
                )


def load_dataset(manifest_path) -> Dataset:
    """Load and validate a dataset from its manifest.

    Distinct failures raise DatasetError naming the problem: a manifest that
    is not a JSON object, a missing manifest key or trial entry key, a class
    or trial list that is not a list, a trial entry that is not an object, a
    class name, trial path, label, subject or group that is not a string, a
    trial's channel list that is not a list, a repeated class name, a rate
    that is not a positive finite number (a bool is not a number), a
    missing, unreadable or non-UTF-8 trial file, per-trial rate differing
    from the dataset rate, a label outside the declared class set, channel
    names in a CSV not matching the manifest, a sample row that is ragged or
    not numeric (named by file and line), a NaN or infinite sample (named by
    file, line and channel), a repeated trial id (a file stem) or a channel
    layout that differs between trials. Samples read from the parse cache
    are checked as parsed ones are.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DatasetError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatasetError(f"manifest is not valid JSON: {exc}") from exc

    if not isinstance(manifest, dict):
        raise DatasetError("manifest must be a JSON object")
    for key in ("classes", "sampling_rate_hz", "trials"):
        if key not in manifest:
            raise DatasetError(f"manifest missing required key {key!r}")
        if key != "sampling_rate_hz" and not isinstance(manifest[key], list):
            raise DatasetError(f"manifest {key!r} must be a list, got {manifest[key]!r}")
    classes = manifest["classes"]
    for index, name in enumerate(classes):
        if not isinstance(name, str):
            raise DatasetError(f"manifest class {index}: expected a string, got {name!r}")
    repeated = [c for i, c in enumerate(classes) if c in classes[:i]]
    if repeated:
        raise DatasetError(f"manifest repeats class name {repeated[0]!r}")
    rate = _number(manifest["sampling_rate_hz"])
    if not (math.isfinite(rate) and rate > 0):
        raise DatasetError("sampling_rate_hz must be a positive finite number, "
                           f"got {manifest['sampling_rate_hz']!r}")
    base = manifest_path.parent

    trials = []
    for index, entry in enumerate(manifest["trials"]):
        if not isinstance(entry, dict):
            raise DatasetError(f"trial entry {index}: expected an object, got {entry!r}")
        for key in ("path", "label", "channels"):
            if key not in entry:
                raise DatasetError(f"trial entry {index}: missing required key {key!r}")
        for key in ("path", "label", "subject", "group"):
            if not isinstance(entry.get(key, ""), str):
                raise DatasetError(f"trial entry {index}: {key!r} must be a string, "
                                   f"got {entry[key]!r}")
        if not isinstance(entry["channels"], list):
            raise DatasetError(f"trial entry {index}: 'channels' must be a list, "
                               f"got {entry['channels']!r}")
        path = base / entry["path"]
        label = entry["label"]
        if label not in classes:
            raise DatasetError(
                f"trial {entry['path']}: unknown label {label!r} "
                f"(declared classes: {classes})"
            )
        declared_rate = entry.get("sampling_rate_hz")
        if declared_rate is not None and _number(declared_rate) != rate:
            raise DatasetError(
                f"trial {entry['path']}: rate mismatch "
                f"({declared_rate} Hz declared vs {rate} Hz dataset)"
            )
        if not path.exists():
            raise DatasetError(f"missing trial file: {path}")
        try:
            channels, data = _read_trial_csv(path)
        except OSError as exc:
            raise DatasetError(f"cannot read trial file {path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise DatasetError(f"trial file is not UTF-8 text: {path}") from exc
        if channels != list(entry["channels"]):
            raise DatasetError(
                f"trial {entry['path']}: channel names {channels} "
                f"do not match manifest {entry['channels']}"
            )
        trials.append(Trial(
            trial_id=Path(entry["path"]).stem,
            label=label,
            subject=entry.get("subject", ""),
            group=entry.get("group", ""),
            channels=channels,
            data=data,
        ))
    try:
        return Dataset(classes=classes, rate=rate, trials=trials)
    except ValueError as exc:  # repeated trial ids, or a non-uniform channel layout
        raise DatasetError(str(exc)) from exc


def _number(value) -> float:
    """``value`` as a float, or NaN when it is not a number (a bool is not)."""
    if isinstance(value, bool):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


_CACHE_DIR = ".myobench-cache"


def _read_trial_csv(path: Path):
    """A trial file's channel names and samples; the samples come from the
    parse cache when it holds an entry for the file's current bytes. A NaN
    or infinite sample fails parsed or cached samples alike, and samples
    that fail are not stored."""
    with path.open() as fh:
        header = fh.readline()
        if not header:
            raise DatasetError(f"trial file is empty: {path}")
        channels = header.rstrip("\r\n").split(",")
        entry = path.parent / _CACHE_DIR / f"{path.name}.{_sha256(path)}.npy"
        data = cached = _cached(entry, len(channels))
        if cached is None:
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    data = np.loadtxt(fh, dtype=float, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                data = None
    if data is not None and data.shape[0] == 0:
        raise DatasetError(f"trial file has no samples: {path}")
    if data is None or data.shape[1] != len(channels):
        raise _row_error(path, len(channels))
    if not np.isfinite(data).all():
        raise _non_finite_error(path, channels, data)
    if cached is None:
        _store(entry, data)
    return channels, data


def _sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read in fixed chunks so that memory stays flat."""
    digest = hashlib.sha256()
    buf = bytearray(1 << 20)
    view = memoryview(buf)
    with path.open("rb") as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def _cached(entry: Path, n_columns: int):
    """The samples stored in a cache entry, or None when it is missing or unusable.

    Only the .npy format is read (never a pickle), and an entry must hold a
    non-empty float64 table with one column per channel.
    """
    try:
        with entry.open("rb") as fh:
            data = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError):
        return None
    if (data.dtype == np.float64 and data.ndim == 2 and data.shape[0] > 0
            and data.shape[1] == n_columns):
        return data
    return None


def _store(entry: Path, data: np.ndarray) -> None:
    """Cache parsed samples under ``entry`` and drop stale entries: the
    trial's older ones, and those of CSVs no longer in the trial directory.

    The entry is written to a per-process temporary file and renamed into
    place, so a concurrent load never reads half of it. The cache only saves
    time: when it cannot be written (a read-only dataset, a full disk) the
    load goes on without it.
    """
    tmp = entry.with_name(f"{entry.name}.{os.getpid()}.tmp")
    try:
        entry.parent.mkdir(exist_ok=True)
        with tmp.open("wb") as fh:  # np.save given a path would append ".npy"
            np.save(fh, data, allow_pickle=False)
        os.replace(tmp, entry)
        csv_name = entry.name.removesuffix(".npy").rpartition(".")[0]
        for old in entry.parent.iterdir():
            source, _, digest = old.name.removesuffix(".npy").rpartition(".")
            if (old.name.endswith(".npy") and len(digest) == 64 and old != entry
                    and (source == csv_name or not (entry.parent.parent / source).is_file())):
                old.unlink()
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _row_error(path: Path, n_columns: int) -> DatasetError:
    """Name the file line of the first sample row the strict parser rejects.

    Runs only after a bulk parse failed, so it can afford one parse per row;
    blank lines are skipped as in the bulk parse, and line numbers are 1-based
    file lines.
    """
    with path.open() as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\r\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != n_columns:
                return DatasetError(
                    f"{path}:{lineno}: expected {n_columns} values, got {len(cells)}")
            try:
                np.loadtxt([line], dtype=float, delimiter=",", comments=None)
            except ValueError:
                return DatasetError(f"{path}:{lineno}: non-numeric sample in {line!r}")
    return DatasetError(f"{path}: samples do not form a {n_columns}-column table")


def _non_finite_error(path: Path, channels: list[str], data: np.ndarray) -> DatasetError:
    """Name the file line and channel of the first NaN or infinite sample.

    Runs only after the finite check on the whole table failed. Row k of the
    table is the k-th non-blank line after the header, as the bulk parse
    reads the file.
    """
    row, column = np.argwhere(~np.isfinite(data))[0]
    with path.open() as fh:
        next(fh)
        rows = ((n, line) for n, line in enumerate(fh, start=2) if line.rstrip("\r\n"))
        lineno, line = next(itertools.islice(rows, row, None))
    cell = line.rstrip("\r\n").split(",")[column].strip()
    return DatasetError(
        f"{path}:{lineno}: non-finite sample {cell!r} in channel {channels[column]!r}")


def save_dataset(dataset: Dataset, out_dir, config: dict | None = None) -> Path:
    """Write manifest.json plus one CSV per trial; returns the manifest path.

    Samples are rendered with shortest round-trip precision, so loading the
    written files reproduces the arrays bit-exactly. A ``config`` goes to the
    manifest's sidecar.
    """
    out_dir = Path(out_dir)
    entries = []
    for trial in dataset.trials:
        fname = f"{trial.trial_id}.csv"
        lines = [",".join(trial.channels)]
        lines.extend(",".join(map(repr, row)) for row in trial.data.tolist())
        write_output(out_dir / fname, "\n".join(lines) + "\n")
        entries.append({
            "path": fname,
            "label": trial.label,
            "subject": trial.subject,
            "group": trial.group,
            "channels": trial.channels,
        })
    manifest = {
        "classes": dataset.classes,
        "sampling_rate_hz": dataset.rate,
        "trials": entries,
    }
    return write_output(out_dir / "manifest.json", manifest, config)


def write_output(path, content, config: dict | None = None) -> Path:
    """Write one output file, and its ``<file>.config.json`` sidecar given ``config``.

    ``content`` is either text, written as is (a CSV rendered by `csv_rows`
    has csv.writer's quoting and CRLF line ends), or a JSON-able payload,
    written with a 2-space indent and a final newline; a NaN or infinity in
    it is a ValueError, since JSON (RFC 8259) has neither. The parent
    directory is created first. Returns ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = (content if isinstance(content, str)
            else json.dumps(content, indent=2, allow_nan=False) + "\n")
    with path.open("w", newline="") as fh:
        fh.write(text)
    if config is not None:
        write_output(path.with_name(path.name + ".config.json"), config)
    return path


def csv_rows(rows) -> str:
    """``rows`` as csv.writer writes them: quoted only where needed, CRLF line ends."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def csv_prefix(values) -> str:
    """``values`` as csv.writer writes them at the start of a row, each
    followed by a comma, so that the rest of the row can be appended."""
    return csv_rows([[*values, ""]])[:-len("\r\n")]


# Default gesture vocabulary for synthetic classes.
_MOTION_NAMES = [
    "hand_open", "hand_close", "wrist_flexion", "wrist_extension",
    "forearm_pronation", "forearm_supination", "rest",
]


@dataclass(frozen=True)
class ClassSpec:
    """Spectral shape and level of one synthetic class: band (Hz) and RMS (mV)."""

    name: str
    band: tuple[float, float]
    amplitude: float
    group: str = "strong"

    def __post_init__(self):
        lo, hi = self.band
        if not (lo < hi):
            raise ValueError(f"class {self.name}: degenerate band {self.band}")
        if not (10.0 <= lo and hi <= 500.0):
            raise ValueError(f"class {self.name}: band {self.band} outside 10-500 Hz")
        if not self.amplitude > 0:
            raise ValueError(f"class {self.name}: amplitude must be positive")


def default_class_specs(n_classes: int, low: float = 30.0,
                        high: float = 450.0) -> list[ClassSpec]:
    """Disjoint bands spread over [low, high] with alternating strong/weak levels."""
    if n_classes < 1:
        raise ValueError("need at least one class")
    span = (high - low) / n_classes
    gap = min(20.0, 0.2 * span)
    specs = []
    for i in range(n_classes):
        name = _MOTION_NAMES[i] if i < len(_MOTION_NAMES) else f"gesture_{i + 1}"
        band = (low + i * span, low + (i + 1) * span - gap)
        if i % 2 == 0:
            amplitude, group = 100.0 - 5.0 * (i // 2), "strong"
        else:
            amplitude, group = 25.0 - 2.5 * (i // 2), "weak"
        specs.append(ClassSpec(name=name, band=band, amplitude=amplitude, group=group))
    return specs


@dataclass(frozen=True)
class SynthConfig:
    """Shape of a synthetic dataset."""

    classes: tuple[ClassSpec, ...]
    channels: int = 2
    trials_per_class: int = 6
    trial_ms: float = 3000.0
    rate: float = 1000.0
    seed: int = 0

    def __post_init__(self):
        if not self.classes:
            raise ValueError("need at least one class spec")
        if self.channels < 1 or self.trials_per_class < 1:
            raise ValueError("channels and trials_per_class must be >= 1")
        if not (0 < self.trial_ms < math.inf and 0 < self.rate < math.inf):
            raise ValueError("trial_ms and rate must be positive and finite")
        samples = self.trial_ms * self.rate / 1000.0
        # the largest arrays `synthesize_emg` makes: a trial's (samples, channels)
        # table, and the about 2 x samples of noise each channel is filtered from
        if samples * max(self.channels, 2) * 8 > np.iinfo(np.intp).max:
            raise ValueError(
                f"--duration-ms {self.trial_ms:g} at --rate {self.rate:g} gives "
                f"{samples:.3g} samples per trial, too many for an array of "
                f"{self.channels} channel(s)")
        for spec in self.classes:
            if spec.band[1] >= self.rate / 2.0:
                raise ValueError(
                    f"class {spec.name}: band edge {spec.band[1]} Hz reaches "
                    f"Nyquist ({self.rate / 2.0} Hz)"
                )


def synthesize_emg(cfg: SynthConfig) -> Dataset:
    """Generate a labeled dataset of band-limited Gaussian trials.

    Each (class, trial, channel) stream is seeded independently from the base
    seed, so the dataset is bit-reproducible and channels are uncorrelated.
    Trials are normalized to the class RMS amplitude.
    """
    n = int(round(cfg.trial_ms * cfg.rate / 1000.0))
    if n < 2:
        raise ValueError("trial_ms too short for the sampling rate")
    from scipy import signal as sps  # here, so that importing myobench skips scipy
    pad = max(n // 2, 256)  # settle the filter before the kept span
    trials = []
    for c_idx, spec in enumerate(cfg.classes):
        sos = sps.butter(4, spec.band, btype="bandpass", fs=cfg.rate, output="sos")
        for t_idx in range(cfg.trials_per_class):
            data = np.empty((n, cfg.channels))
            for ch in range(cfg.channels):
                rng = np.random.default_rng([cfg.seed, c_idx, t_idx, ch])
                white = rng.standard_normal(n + 2 * pad)
                shaped = sps.sosfiltfilt(sos, white)[pad:pad + n]
                data[:, ch] = shaped * (spec.amplitude / math.sqrt(np.mean(shaped ** 2)))
            trials.append(Trial(
                trial_id=f"{spec.name}_{t_idx + 1:02d}",
                label=spec.name,
                subject="synthetic",
                group=spec.group,
                channels=[f"ch{ch + 1}" for ch in range(cfg.channels)],
                data=data,
            ))
    return Dataset(classes=[s.name for s in cfg.classes], rate=cfg.rate, trials=trials)

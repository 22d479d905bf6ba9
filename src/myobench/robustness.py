"""White-Gaussian-noise robustness benchmark.

For every (trial record, SNR level, repetition) the runner injects calibrated
noise into the clean signal, re-extracts each feature, and scores the
percentage error

    PE = |(feature_clean - feature_noise) / feature_clean| * 100

Results aggregate to mean/std PE per (feature, group, motion, SNR). Each
record's clean signal and noisy copies fill one matrix, and the whole
feature panel is extracted from it in one call, so a (record, feature) pair
whose clean value is zero (PE undefined) or whose extraction fails is left
out as a whole: its attempts are not averaged but counted in the
``excluded`` column instead. A record whose clean power is zero (SNR
undefined) is left out the same way for every feature. A feature that no
record gives a PE for is named, with the reason, in the grid's ``unscored``.

All features at a given (record, SNR, repetition) see the same noise draw,
and each draw's stream is keyed by (seed, record index, SNR index,
repetition), so serial and parallel evaluation orders give bit-identical
grids. All stream seeds and streams are seeded in one batch before the
record loop (see `noise.derive_seeds` and `noise.stream_words`), and each
copy is drawn straight into its row of the record's matrix.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataio import Dataset
from .noise import derive_seeds, fill_wgn, signal_power, snr_sigma, stream_words
from .registry import FeatureDescriptor, extract, make_descriptor, resolve_hemg_limit
from .signals import SegmentationConfig, Signal, segment


def percentage_error(clean_value, noisy_value):
    """Relative feature deviation in percent; undefined for a zero clean value.

    Either value may be an array; the result broadcasts over both.
    """
    if np.any(np.asarray(clean_value) == 0):
        raise ValueError("percentage error is undefined for a zero clean value")
    return np.abs((clean_value - noisy_value) / clean_value) * 100.0


@dataclass(frozen=True)
class RobustnessConfig:
    """Benchmark shape: SNR grid, repetitions per level, base seed.

    ``groups`` optionally restricts the run to the named signal groups
    (e.g. strong/weak); ``dry_run`` bypasses injection so every PE is zero,
    which pins the no-noise identity in tests.
    """

    snr_grid: tuple[float, ...] = (20.0, 15.0, 10.0, 5.0, 3.0, 0.0)
    repetitions: int = 10
    seed: int = 0
    groups: tuple[str, ...] | None = None
    dry_run: bool = False

    def __post_init__(self):
        if not self.snr_grid:
            raise ValueError("SNR grid must be non-empty")
        if self.repetitions < 1:
            raise ValueError("need at least one repetition")
        if not self.dry_run and not all(math.isfinite(s) for s in self.snr_grid):
            raise ValueError("snr_db must be finite")


@dataclass(frozen=True)
class TrialRecord:
    """One clean signal under test, with its labels for aggregation."""

    signal: Signal
    motion: str
    group: str
    trial_id: str


@dataclass
class GridRow:
    feature: str
    parameters: str
    group: str
    motion: str
    snr_db: float
    mean_pe: float
    std_pe: float
    n: int
    excluded: int


@dataclass
class RobustnessGrid:
    """Grid rows plus the resolved config.

    ``unscored`` maps the label of each feature that no record gave a PE for
    to the reason its first record was excluded; its rows have ``n == 0``.
    """

    rows: list[GridRow]
    config: dict = field(default_factory=dict)
    unscored: dict[str, str] = field(default_factory=dict)


def records_from_dataset(dataset: Dataset, segmentation: SegmentationConfig | None = None,
                         max_windows: int | None = 1) -> list[TrialRecord]:
    """Turn a dataset into per-channel benchmark records.

    With a segmentation config each trial channel contributes up to
    ``max_windows`` windows (None = all); without one, the whole channel is a
    single record.
    """
    if max_windows is not None and max_windows < 0:
        raise ValueError(f"max_windows must be >= 0 or None, got {max_windows}")
    records = []
    for trial in dataset.trials:
        for ch, ch_name in enumerate(trial.channels):
            sig = trial.signal(ch, dataset.rate)
            if segmentation is None:
                records.append(TrialRecord(
                    signal=sig, motion=trial.label, group=trial.group,
                    trial_id=f"{trial.trial_id}/{ch_name}",
                ))
                continue
            windows = segment(sig, segmentation)
            if max_windows is not None:
                windows = windows[:max_windows]
            for w_idx, window in enumerate(windows):
                records.append(TrialRecord(
                    signal=Signal(samples=window, rate=dataset.rate),
                    motion=trial.label, group=trial.group,
                    trial_id=f"{trial.trial_id}/{ch_name}/w{w_idx}",
                ))
    return records


def run_grid(records: list[TrialRecord], features: list[FeatureDescriptor],
             cfg: RobustnessConfig) -> RobustnessGrid:
    """Run the PE benchmark over records x features x SNR grid x repetitions.

    Rows come sorted by feature name, then input position among features of
    the same name, then group, motion and falling SNR. A record with a
    non-finite clean sample is an error, since its PE would average to NaN.
    """
    if cfg.groups is not None:
        records = [r for r in records if r.group in cfg.groups]
    if not records:
        raise ValueError("no trial records to benchmark")
    if len(set(features)) != len(features):
        raise ValueError("a feature (or sweep value) is listed twice")
    for record in records:
        if not np.all(np.isfinite(record.signal.samples)):
            raise ValueError(f"record {record.trial_id} has non-finite samples")
    features = resolve_hemg_limit(features, (r.signal.samples for r in records))

    reps = cfg.repetitions
    n_snr = len(cfg.snr_grid)
    picks, reasons = _scalar_picks(features)
    in_range = np.array([d_idx not in reasons for d_idx in range(len(features))])
    pe = np.zeros((len(records), n_snr, reps, len(features)))
    valid = np.zeros((len(records), len(features)), dtype=bool)
    if not cfg.dry_run:
        stream_seeds = derive_seeds([cfg.seed], range(len(records)), range(n_snr))
        words = stream_words(stream_seeds.ravel(), range(reps))
        words = words.reshape(len(records), n_snr * reps, -1)
    for r_idx, record in enumerate(records):
        clean = record.signal.samples
        matrix = np.empty((1 + n_snr * reps, clean.size))  # row 0 is the clean signal
        matrix[0] = clean
        if cfg.dry_run:
            matrix[1:] = clean
        else:
            p_clean = signal_power(clean)
            try:
                sigmas = np.array([snr_sigma(p_clean, snr) for snr in cfg.snr_grid])
            except ValueError as exc:  # zero clean power: excluded for every feature
                for d_idx in range(len(features)):
                    reasons.setdefault(d_idx, str(exc))
                continue
            # clean + sigma * draw, as two broadcasts over the draws made in place
            noisy = fill_wgn(words[r_idx], matrix[1:]).reshape(n_snr, reps, clean.size)
            noisy *= sigmas[:, np.newaxis, np.newaxis]
            noisy += clean
        values, ok = _scalar_values(features, picks, in_range, matrix, record.signal.rate,
                                    reasons)
        ok &= values[0] != 0
        for d_idx in np.flatnonzero(~ok):
            reasons.setdefault(d_idx, "its clean value is zero")
        kept = np.flatnonzero(ok)
        pe[r_idx][..., kept] = percentage_error(values[0, kept], values[1:, kept]) \
            .reshape(n_snr, reps, kept.size)
        valid[r_idx] = ok

    buckets: dict[tuple[str, str], list[int]] = {}
    for r_idx, record in enumerate(records):
        buckets.setdefault((record.group, record.motion), []).append(r_idx)
    levels = {snr: [s for s, level in enumerate(cfg.snr_grid) if level == snr]
              for snr in sorted(set(cfg.snr_grid), reverse=True)}
    rows = []
    for d_idx in sorted(range(len(features)), key=lambda d: features[d].name):
        desc = features[d_idx]
        for (group, motion), members in sorted(buckets.items()):
            kept = [r for r in members if valid[r, d_idx]]
            for snr, columns in levels.items():
                pes = pe[..., d_idx][np.ix_(kept, columns)].ravel()
                rows.append(GridRow(
                    feature=desc.name,
                    parameters=desc.param_text,
                    group=group,
                    motion=motion,
                    snr_db=snr,
                    mean_pe=float(np.mean(pes)) if pes.size else float("nan"),
                    std_pe=float(np.std(pes)) if pes.size else float("nan"),
                    n=int(pes.size),
                    excluded=(len(members) - len(kept)) * len(columns) * reps,
                ))
    unscored = {features[d].label: reasons[d] for d in range(len(features))
                if not valid[:, d].any()}
    return RobustnessGrid(rows=rows, config=_config_dict(cfg, features), unscored=unscored)


def _scalar_picks(features):
    """Each descriptor's scalar column in a joint extraction, and where none exists.

    Returns the column indices (0 where a descriptor's ``scalar_component``
    is out of range) and {descriptor index: reason} for those descriptors.
    """
    counts = [desc.component_count() for desc in features]
    starts = np.cumsum([0] + counts[:-1])
    picks, reasons = np.zeros(len(features), dtype=np.intp), {}
    for d_idx, (desc, start, count) in enumerate(zip(features, starts, counts)):
        if 1 <= desc.scalar_component <= count:
            picks[d_idx] = start + desc.scalar_component - 1
        else:
            reasons[d_idx] = (f"scalar component {desc.scalar_component} out of range "
                              f"for {count} components")
    return picks, reasons


def _scalar_values(features, picks, in_range, matrix, rate, reasons):
    """Every descriptor's scalar over the rows of ``matrix``, and which ones exist.

    One joint extraction shares intermediates (differences, the spectrum)
    among the descriptors. If it raises, each descriptor is extracted on its
    own, so a failing one fails only itself; its error message goes into
    ``reasons``. A descriptor whose scalar component is out of range
    (``in_range`` False) never exists.
    """
    ok = in_range.copy()
    try:
        return extract(features, matrix, rate)[:, picks], ok
    except ValueError:
        pass
    values = np.zeros((matrix.shape[0], len(features)))
    for d_idx in np.flatnonzero(ok):
        desc = features[d_idx]
        try:
            values[:, d_idx] = extract([desc], matrix, rate)[:, desc.scalar_component - 1]
        except ValueError as exc:
            ok[d_idx] = False
            reasons.setdefault(d_idx, str(exc))
    return values, ok


def sweep_parameters(records: list[TrialRecord], family: str, param: str,
                     values, cfg: RobustnessConfig,
                     base_params: dict | None = None) -> RobustnessGrid:
    """Run one grid over one descriptor per parameter value.

    Noise draws depend only on (seed, record, SNR, repetition), so every
    value sees identical noise and the slices are directly comparable.
    Repeated values are rejected: they would fold into one slice.
    """
    values = list(values)
    if not values:
        raise ValueError("parameter sweep needs at least one value")
    descriptors = [make_descriptor(family, {**(base_params or {}), param: value})
                   for value in values]
    grid = run_grid(records, descriptors, cfg)
    grid.config["sweep"] = {"feature": family, "parameter": param,
                            "values": [float(v) for v in values]}
    return grid


def _config_dict(cfg: RobustnessConfig, features) -> dict:
    return {
        "snr_grid_db": list(cfg.snr_grid),
        "repetitions": cfg.repetitions,
        "seed": cfg.seed,
        "groups": list(cfg.groups) if cfg.groups is not None else None,
        "dry_run": cfg.dry_run,
        "features": [
            {"name": d.name, "parameters": d.param_text,
             "scalar_component": d.scalar_component}
            for d in features
        ],
    }


_CSV_COLUMNS = ["feature", "parameters", "group", "motion", "snr_db",
                "mean_pe", "std_pe", "n", "excluded"]


def grid_to_csv(grid: RobustnessGrid, path) -> Path:
    """Write the grid as CSV (plot-ready); the resolved config goes to a sidecar."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for row in grid.rows:
            writer.writerow([
                row.feature, row.parameters, row.group, row.motion,
                f"{row.snr_db:g}", f"{row.mean_pe:.10g}", f"{row.std_pe:.10g}",
                row.n, row.excluded,
            ])
    sidecar = path.with_suffix(path.suffix + ".config.json")
    sidecar.write_text(json.dumps(grid.config, indent=2) + "\n")
    return path


def grid_to_json(grid: RobustnessGrid, path) -> Path:
    """Write the grid plus its resolved config as a single JSON document."""
    path = Path(path)
    payload = {
        "config": grid.config,
        "rows": [
            {col: getattr(row, col) for col in _CSV_COLUMNS}
            for row in grid.rows
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path

"""White-Gaussian-noise robustness benchmark.

For every (trial record, SNR level, repetition) the runner injects calibrated
noise into the clean signal, re-extracts each feature, and scores the
percentage error

    PE = |(feature_clean - feature_noise) / feature_clean| * 100

Results aggregate to mean/std PE per (feature, group, motion, SNR). Each
record's clean signal and noisy copies are scored together, so a (record,
feature) pair whose clean value is zero (PE undefined) or whose extraction
fails is left out as a whole: its attempts are not averaged but counted in
the ``excluded`` column instead. A record whose clean power is zero (SNR
undefined) is left out the same way for every feature. A feature that no
record gives a PE for is named, with the reason, in the grid's ``unscored``:
the reason of the first record, in record order, that excluded it.

All features at a given (record, SNR, repetition) see the same noise draw,
and each draw's stream is keyed by (seed, record index, SNR index,
repetition), so serial and parallel evaluation orders give bit-identical
grids. All stream seeds and streams are seeded in one batch before the
record loop (see `noise.derive_seeds` and `noise.stream_words`).

Consecutive records of one length and rate are extracted in stacked blocks
under the budget the recognition pipeline uses, ``registry._BLOCK_SAMPLES``
window samples: at the default 6 SNR levels x 10 repetitions a 256-sample
record fills 61 rows, so a block holds 4 records. Each copy is drawn
straight into its row of the block's matrix, the whole feature panel is
extracted from the block in one call, and each record's PE is scored from
its rows. A record whose clean power is zero stays out of every block. If a
block's joint extraction raises, its records are extracted one at a time,
so a failure that only one record causes excludes only that record. Every
value, and so every row and every ``unscored`` reason, is what extracting
each record alone gives.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields

import numpy as np

from .dataio import Dataset
from .noise import ZERO_POWER, add_wgn, derive_seeds, signal_power, snr_factor, stream_words
from .registry import (FeatureDescriptor, _blocks, extract, peak_amplitude,
                       resolve_hemg_peak)
from .signals import SegmentationConfig, segment


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
    (e.g. strong/weak).
    """

    snr_grid: tuple[float, ...] = (20.0, 15.0, 10.0, 5.0, 3.0, 0.0)
    repetitions: int = 10
    seed: int = 0
    groups: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.snr_grid:
            raise ValueError("SNR grid must be non-empty")
        if self.repetitions < 1:
            raise ValueError("need at least one repetition")
        for snr in self.snr_grid:
            snr_factor(snr)  # refuses a level that is not finite, or too low


@dataclass(frozen=True)
class TrialRecord:
    """One clean signal under test (samples at ``rate`` Hz), with its labels
    for aggregation."""

    samples: np.ndarray
    rate: float
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
    """Grid rows plus the descriptors they were scored with, HEMG ranges resolved.

    ``unscored`` maps the label of each feature that no record gave a PE for
    to the reason its first record was excluded; its rows have ``n == 0``.
    """

    rows: list[GridRow]
    features: list[FeatureDescriptor]
    unscored: dict[str, str] = field(default_factory=dict)


def records_from_dataset(dataset: Dataset, segmentation: SegmentationConfig,
                         max_windows: int | None = 1) -> list[TrialRecord]:
    """Turn a dataset into per-window benchmark records.

    Each trial channel contributes up to ``max_windows`` windows (None = all).
    """
    if max_windows is not None and max_windows < 0:
        raise ValueError(f"max_windows must be >= 0 or None, got {max_windows}")
    records = []
    for trial in dataset.trials:
        for ch, ch_name in enumerate(trial.channels):
            windows = segment(trial.data[:, ch], dataset.rate, segmentation)
            if max_windows is not None:
                windows = windows[:max_windows]
            for w_idx, window in enumerate(windows):
                records.append(TrialRecord(
                    samples=window, rate=dataset.rate,
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
        if not record.samples.size:
            raise ValueError(f"record {record.trial_id} has no samples")
        if not np.all(np.isfinite(record.samples)):
            raise ValueError(f"record {record.trial_id} has non-finite samples")
    features = resolve_hemg_peak(features,
                                 peak_amplitude([r.samples for r in records])[0])

    reps = cfg.repetitions
    n_snr = len(cfg.snr_grid)
    copies = 1 + n_snr * reps  # a record's rows: its clean signal, then its noisy copies
    picks, reasons = _scalar_picks(features)
    in_range = np.array([d_idx not in reasons for d_idx in range(len(features))])
    pe = np.zeros((len(records), n_snr, reps, len(features)))
    valid = np.zeros((len(records), len(features)), dtype=bool)
    stream_seeds = derive_seeds([cfg.seed], range(len(records)), range(n_snr))
    words = stream_words(stream_seeds.ravel(), range(reps))
    words = words.reshape(len(records), n_snr * reps, -1)
    factors = np.repeat([snr_factor(snr) for snr in cfg.snr_grid], reps)  # one per copy
    # the clean powers, one matrix per run of consecutive records of one length
    powers = np.concatenate([signal_power([r.samples for r in run]) for _, run
                             in itertools.groupby(records, key=lambda r: r.samples.size)])
    # A block holds records of one length and rate, all of nonzero power or all of zero.
    kinds = [(r.samples.size, r.rate, powers[r_idx] > 0) for r_idx, r in enumerate(records)]
    for block in _blocks([copies * r.samples.size for r in records], kinds):
        if powers[block.start] == 0:  # zero clean power: excluded for every feature
            for d_idx in range(len(features)):
                reasons.setdefault(d_idx, ZERO_POWER)
            continue
        width, rate = kinds[block.start][:2]
        matrix = np.empty((len(block), copies, width))
        for r_idx, rows in zip(block, matrix):
            rows[0] = records[r_idx].samples
            add_wgn(rows[0], factors, words[r_idx], rows[1:])
        values, failures = _scalar_values(features, picks, in_range, matrix, rate)
        for r_idx, record_values, failed in zip(block, values, failures):
            ok = in_range & (record_values[0] != 0)  # a failed descriptor's values are zero
            for d_idx, reason in failed.items():
                reasons.setdefault(d_idx, reason)
            for d_idx in np.flatnonzero(~ok):
                reasons.setdefault(d_idx, "its clean value is zero")
            kept = np.flatnonzero(ok)
            pe[r_idx][..., kept] = percentage_error(
                record_values[0, kept], record_values[1:, kept]).reshape(n_snr, reps, kept.size)
            valid[r_idx] = ok

    buckets: dict[tuple[str, str], list[int]] = {}
    for r_idx, record in enumerate(records):
        buckets.setdefault((record.group, record.motion), []).append(r_idx)
    levels = {snr: [s for s, level in enumerate(cfg.snr_grid) if level == snr]
              for snr in sorted(set(cfg.snr_grid), reverse=True)}
    # The cells of levels listed equally often are the rows of one matrix: all
    # levels, unless one repeats, whose row then pools its grid columns.
    shapes: dict[int, list[float]] = {}
    for snr, columns in levels.items():
        shapes.setdefault(len(columns), []).append(snr)
    rows = []
    for d_idx in sorted(range(len(features)), key=lambda d: features[d].name):
        desc = features[d_idx]
        for (group, motion), members in sorted(buckets.items()):
            kept = [r for r in members if valid[r, d_idx]]
            stats = dict.fromkeys(levels, (float("nan"), float("nan")))
            if kept:
                cells = pe[kept, ..., d_idx]  # (kept records, grid columns, repetitions)
                for snrs in shapes.values():
                    # each row lists its level's PEs record by record, then
                    # column by column, then repetition by repetition
                    matrix = cells[:, [s for snr in snrs for s in levels[snr]]]
                    matrix = matrix.reshape(len(kept), len(snrs), -1).swapaxes(0, 1)
                    matrix = matrix.reshape(len(snrs), -1)
                    stats.update(zip(snrs, zip(np.mean(matrix, axis=-1).tolist(),
                                               np.std(matrix, axis=-1).tolist())))
            for snr, columns in levels.items():
                rows.append(GridRow(
                    feature=desc.name,
                    parameters=desc.param_text,
                    group=group,
                    motion=motion,
                    snr_db=snr,
                    mean_pe=stats[snr][0],
                    std_pe=stats[snr][1],
                    n=len(kept) * len(columns) * reps,
                    excluded=(len(members) - len(kept)) * len(columns) * reps,
                ))
    unscored = {features[d].label: reasons[d] for d in range(len(features))
                if not valid[:, d].any()}
    return RobustnessGrid(rows=rows, features=features, unscored=unscored)


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


def _scalar_values(features, picks, in_range, block, rate):
    """Every descriptor's scalar over each record's rows of ``block``, and which fail.

    ``block`` is a (records, rows, samples) array. Returns the (records,
    rows, descriptors) values and, per record, {descriptor index: error
    message} for the descriptors whose extraction raised on that record.
    One joint extraction covers the whole block and shares intermediates
    (differences, the spectrum) among the descriptors. If it raises, each
    record is extracted on its own, and where that raises, each descriptor
    on its own, so a failure excludes only its own (record, descriptor)
    pairs. The values of a failed descriptor are zero, and so are those of a
    descriptor whose scalar component is out of range (``in_range`` False)
    wherever descriptors are extracted on their own.
    """
    try:
        values = extract(features, block.reshape(-1, block.shape[-1]), rate)[:, picks]
        return values.reshape(block.shape[:2] + (-1,)), [{} for _ in block]
    except ValueError:
        pass
    if len(block) > 1:
        parts = [_scalar_values(features, picks, in_range, rows[np.newaxis], rate)
                 for rows in block]
        return np.concatenate([v for v, _ in parts]), [f for _, (f,) in parts]
    values = np.zeros(block.shape[:2] + (len(features),))
    failures = {}
    for d_idx in np.flatnonzero(in_range):
        desc = features[d_idx]
        try:
            values[0, :, d_idx] = extract([desc], block[0], rate)[:, desc.scalar_component - 1]
        except ValueError as exc:
            failures[d_idx] = str(exc)
    return values, [failures]


def grid_csv_rows(grid: RobustnessGrid) -> list[list]:
    """The grid as plot-ready CSV rows: a header, then one row per cell."""
    return [[f.name for f in fields(GridRow)]] + [
        [row.feature, row.parameters, row.group, row.motion, f"{row.snr_db:g}",
         f"{row.mean_pe:.10g}", f"{row.std_pe:.10g}", row.n, row.excluded]
        for row in grid.rows]


def grid_json_rows(grid: RobustnessGrid) -> list[dict]:
    """The grid's rows as JSON objects. A cell with no PE (``n == 0``) has a
    null ``mean_pe`` and ``std_pe``, since JSON has no NaN."""
    return [vars(row) | ({"mean_pe": None, "std_pe": None} if row.n == 0 else {})
            for row in grid.rows]

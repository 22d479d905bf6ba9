"""White-Gaussian-noise robustness benchmark.

The records under test are windows of a dataset: the first ``max_windows``
windows of each channel of each trial in the configured groups, in trial,
channel and time order, stacked once into one (records, samples) matrix at
the dataset's rate. For every (record, SNR level, repetition) the runner
injects calibrated noise into the clean window, re-extracts each feature,
and scores the percentage error

    PE = |(feature_clean - feature_noise) / feature_clean| * 100

Results aggregate to mean/std PE per (feature, group, motion, SNR), one
cell per level: a grid that lists a level twice (compared as floats, so 20
and 20.0, or 0 and -0) is refused. Each record's clean signal and noisy
copies are scored together, so a (record, feature) pair whose clean value
is zero (PE undefined), or that the feature cannot define on its clean
signal or any noisy copy, is left out as a whole: its attempts are not
averaged but counted in the ``excluded`` column instead. A record whose
clean power is zero (SNR undefined) is left out the same way for every
feature. Each pair's reason is kept as a code in one (records,
descriptors) array: 0 for a scored pair, a kernel's fault code (see
`registry._FAULTS`), or one of the grid's own, negative codes for zero
clean power, a zero clean value and a descriptor that no record can give
a value (see below). A feature that no record gives a PE for is named,
with the reason, in the grid's ``unscored``: that descriptor's fault, or
else record 0's reason, since every record excluded it.

All features at a given (record, SNR, repetition) see the same noise draw,
and each draw's stream is keyed by (seed, record index, SNR index,
repetition), records numbered after the groups filter, so serial and
parallel evaluation orders give bit-identical grids. All stream seeds and
streams are seeded in one batch before the record loop (see
`noise.derive_seeds` and `noise.stream_words`).

Consecutive records are extracted in stacked blocks under the budget the
recognition pipeline uses, ``registry._BLOCK_SAMPLES`` window samples: at
the default 6 SNR levels x 10 repetitions a 256-sample record fills 61 rows,
so a block holds 4 records. One `noise.add_wgn` call draws every noisy copy
of the block straight into its rows of the block's matrix, the whole
feature panel is extracted from the block in one `registry._columns`
call, and one `percentage_error` call scores the block. The extraction
takes the block as one signal, the matrix's rows back to back with one
window every ``width`` samples, so each elementwise intermediate is one
contiguous pass over the block; the few differences and neighbour
products that straddle two rows are computed but never read. The blocks are
built over the records of nonzero clean power only, which get their codes
before any block does, and a descriptor that no record can give a value is
left out of every extraction: one whose scalar component is out of range,
or one that `registry._check_width` refuses at the records' width
(``mavslp``'s 3 segments of a 256-sample window). A row that a descriptor
cannot define, such as a constant record's spectrum without its DC bin,
does not stop the block's extraction: it comes back as NaN with a fault
code, so one extraction per block finds every (record, descriptor) pair to
leave out, and a pair's code is the highest over the record's rows. Every
value, and so every row and every ``unscored`` reason, is what extracting
each record alone gives.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .dataio import Dataset
from .noise import (ZERO_POWER, add_wgn, derive_seeds, level_text, signal_power, snr_factor,
                    stream_words)
from .registry import (_FAULTS, FeatureDescriptor, _blocks, _check_width, _columns,
                       peak_amplitude, resolve_hemg_peak)
from .signals import SegmentationConfig, segment

# Why a (record, descriptor) pair is left out, as a code (0: it is scored): a
# kernel's fault code (see `registry._FAULTS`), or one of the grid's own,
# which are negative so that no kernel code is one of them.
_ZERO_POWER, _ZERO_VALUE, _REFUSED = -1, -2, -3
_REASONS = {**_FAULTS, _ZERO_POWER: ZERO_POWER, _ZERO_VALUE: "its clean value is zero"}


def percentage_error(clean_value, noisy_value):
    """Relative feature deviation in percent; undefined for a zero clean value.

    Either value may be an array; the result broadcasts over both.
    """
    if np.any(np.asarray(clean_value) == 0):
        raise ValueError("percentage error is undefined for a zero clean value")
    return np.abs((clean_value - noisy_value) / clean_value) * 100.0


@dataclass(frozen=True)
class RobustnessConfig:
    """Benchmark shape: SNR grid, repetitions per level, base seed, records.

    Each SNR level may be listed once; a repeated level (compared as
    floats) is a ValueError. ``groups`` optionally restricts the run to the
    named signal groups (e.g. strong/weak), and ``max_windows`` caps the
    windows each trial channel contributes (None = all).
    """

    snr_grid: tuple[float, ...] = (20.0, 15.0, 10.0, 5.0, 3.0, 0.0)
    repetitions: int = 10
    seed: int = 0
    groups: tuple[str, ...] | None = None
    max_windows: int | None = 1

    def __post_init__(self):
        if not self.snr_grid:
            raise ValueError("SNR grid must be non-empty")
        if self.repetitions < 1:
            raise ValueError("need at least one repetition")
        if self.max_windows is not None and self.max_windows < 0:
            raise ValueError(f"max_windows must be >= 0 or None, got {self.max_windows}")
        levels = [float(snr) for snr in self.snr_grid]
        for s_idx, snr in enumerate(levels):
            snr_factor(snr)  # refuses a level that is not finite, or too low
            if snr in levels[:s_idx]:  # 20 and 20.0, or 0 and -0, are one level
                raise ValueError(f"SNR level {level_text(snr)} dB is repeated")


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
    to the reason record 0 was excluded; its rows have ``n == 0``.
    """

    rows: list[GridRow]
    features: list[FeatureDescriptor]
    unscored: dict[str, str] = field(default_factory=dict)


def run_grid(dataset: Dataset, features: list[FeatureDescriptor], cfg: RobustnessConfig,
             segmentation: SegmentationConfig) -> RobustnessGrid:
    """Run the PE benchmark over a dataset's windows x features x SNR grid x repetitions.

    The records are the first ``cfg.max_windows`` windows of each channel of
    each trial in ``cfg.groups``, in trial, channel and time order. Rows come
    sorted by feature name, then input position among features of the same
    name, then group, motion and falling SNR. A window with a non-finite
    sample is an error naming its trial and channel, since its PE would
    average to NaN.
    """
    if len(set(features)) != len(features):
        raise ValueError("a feature (or sweep value) is listed twice")
    signals = [(trial, ch) for trial in dataset.trials
               if cfg.groups is None or trial.group in cfg.groups
               for ch in range(len(trial.channels))]
    windows = [segment(trial.data[:, ch], dataset.rate, segmentation)[:cfg.max_windows]
               for trial, ch in signals]
    owner = np.repeat(np.arange(len(signals)), [len(w) for w in windows])
    if not owner.size:
        raise ValueError("no trial records to benchmark")
    samples = np.concatenate(windows)  # record r is row r, a window of signal owner[r]
    if not np.isfinite(samples).all():
        trial, ch = signals[owner[np.argwhere(~np.isfinite(samples))[0, 0]]]
        raise ValueError(f"trial {trial.trial_id}, channel {trial.channels[ch]}: "
                         "non-finite samples")
    features = resolve_hemg_peak(features, peak_amplitude([samples.T])[0])  # one trial

    records, width = samples.shape
    reps = cfg.repetitions
    n_snr = len(cfg.snr_grid)
    copies = 1 + n_snr * reps  # a record's rows: its clean signal, then its noisy copies
    picks, refused = _scalar_picks(features, width)
    usable = np.array([d_idx not in refused for d_idx in range(len(features))])
    joint = [features[d_idx] for d_idx in np.flatnonzero(usable)]
    pe = np.zeros((len(features), n_snr, records, reps))
    stream_seeds = derive_seeds([cfg.seed], range(records), range(n_snr))
    words = stream_words(stream_seeds.ravel(), range(reps)).reshape(records, copies - 1, -1)
    factors = np.repeat([snr_factor(snr) for snr in cfg.snr_grid], reps)  # one per copy
    powers = signal_power(samples)
    excluded = np.zeros((records, len(features)), dtype=np.int8)
    excluded[powers == 0] = _ZERO_POWER
    excluded[:, ~usable] = _REFUSED
    live = np.flatnonzero(powers > 0)  # the records that blocks hold
    # With no descriptor to extract, every pair already has its code.
    for block in _blocks([copies * width] * live.size) if joint else []:
        rec = live[block.start:block.stop]
        matrix = np.empty((len(rec), copies, width))
        matrix[:, 0] = samples[rec]
        add_wgn(matrix[:, 0], factors, words[rec], matrix[:, 1:])
        # one signal whose back-to-back windows are the rows
        values, codes = _columns(joint, matrix.reshape(1, -1), width, width, dataset.rate)
        values = values[:, picks].reshape(len(rec), copies, -1)
        # a (record, descriptor) pair's fault is its highest code over the record's rows
        block_codes = excluded[rec]
        block_codes[:, usable] = codes.reshape(len(rec), copies, -1).max(axis=1)
        block_codes[(block_codes == 0) & (values[:, 0] == 0)] = _ZERO_VALUE
        excluded[rec] = block_codes
        # an excluded pair divides by 1, not by its zero or NaN clean value
        pe[:, :, rec] = percentage_error(
            np.where(block_codes == 0, values[:, 0], 1.0)[:, np.newaxis], values[:, 1:],
        ).reshape(len(rec), n_snr, reps, -1).transpose(3, 1, 0, 2)

    buckets: dict[tuple[str, str], list[int]] = {}
    for r_idx, s_idx in enumerate(owner.tolist()):
        trial = signals[s_idx][0]
        buckets.setdefault((trial.group, trial.label), []).append(r_idx)
    falling = sorted(range(n_snr), key=lambda s: cfg.snr_grid[s], reverse=True)
    rows = []
    for d_idx in sorted(range(len(features)), key=lambda d: features[d].name):
        desc = features[d_idx]
        for (group, motion), members in sorted(buckets.items()):
            kept = [r for r in members if excluded[r, d_idx] == 0]
            mean = std = [float("nan")] * n_snr
            if kept:
                # one row per level: its PEs record by record, then repetition by repetition
                cells = pe[d_idx][np.ix_(falling, kept)].reshape(n_snr, -1)
                mean, std = np.mean(cells, axis=-1).tolist(), np.std(cells, axis=-1).tolist()
            for s_idx, mean_pe, std_pe in zip(falling, mean, std):
                rows.append(GridRow(
                    feature=desc.name, parameters=desc.param_text, group=group, motion=motion,
                    snr_db=cfg.snr_grid[s_idx], mean_pe=mean_pe, std_pe=std_pe,
                    n=len(kept) * reps, excluded=(len(members) - len(kept)) * reps))
    # a feature that no record scored is excluded for every record, record 0 too
    unscored = {features[d].label: refused[d] if d in refused else _REASONS[excluded[0, d]]
                for d in range(len(features)) if excluded[:, d].all()}
    return RobustnessGrid(rows=rows, features=features, unscored=unscored)


def _scalar_picks(features, width: int):
    """Each descriptor's scalar column in a joint extraction, and where none exists.

    Returns the column indices and {descriptor index: reason} for the
    descriptors that no record can give a scalar: one whose
    ``scalar_component`` is out of range, and one that
    `registry._check_width` refuses at ``width`` samples. The joint
    extraction is of the other descriptors, in order; a descriptor with a
    reason gets column 0.
    """
    picks, reasons, start = np.zeros(len(features), dtype=np.intp), {}, 0
    for d_idx, desc in enumerate(features):
        count = desc.component_count()
        try:
            if not 1 <= desc.scalar_component <= count:
                raise ValueError(f"scalar component {desc.scalar_component} out of range "
                                 f"for {count} components")
            _check_width([desc], width)
        except ValueError as exc:
            reasons[d_idx] = str(exc)
            continue
        picks[d_idx] = start + desc.scalar_component - 1
        start += count
    return picks, reasons


def grid_csv_rows(grid: RobustnessGrid) -> list[list]:
    """The grid as plot-ready CSV rows: a header, then one row per cell."""
    return [[f.name for f in fields(GridRow)]] + [
        [row.feature, row.parameters, row.group, row.motion, level_text(row.snr_db),
         f"{row.mean_pe:.10g}", f"{row.std_pe:.10g}", row.n, row.excluded]
        for row in grid.rows]


def grid_json_rows(grid: RobustnessGrid) -> list[dict]:
    """The grid's rows as JSON objects. A cell with no PE (``n == 0``) has a
    null ``mean_pe`` and ``std_pe``, since JSON has no NaN."""
    return [vars(row) | ({"mean_pe": None, "std_pe": None} if row.n == 0 else {})
            for row in grid.rows]

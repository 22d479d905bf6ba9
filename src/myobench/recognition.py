"""Windowed gesture recognition: LDA, majority vote, leave-one-out scoring.

The pipeline windows each trial, concatenates per-channel feature values into
one row per window position, trains a pooled-covariance LDA on all trials but
one, and scores the held-out trial's time-ordered decision stream after
majority-vote smoothing. Folds iterate over trials; reports pool the
confusion matrix and classification rate across folds.

Noise evaluation follows the robust-feature premise: training data stays
clean and WGN is injected into the held-out raw signal before feature
extraction. Data-dependent feature parameters (the histogram range) are
resolved per fold from the training trials only, so nothing about a held-out
trial can influence its fold's model.

Folds and feature sets share work. Each trial's clean peak |amplitude| is
taken once, and each fold resolves every set's descriptors from the peaks of
its own training trials. Each level is then one `extract_window_set` call
over every trial, clean or noisy, over the union of the descriptors that any
(set, fold) resolves (each once, in first-seen order). A (set, fold) keeps
the channel-major columns of its own descriptors in that union: it trains on
its training trials' rows of the clean matrix (the row ranges before and
after its held-out trial's, at the set's columns), and scores its held-out
trial's rows of each level's matrix, which are the matrices a fresh
extraction of that set would build. Held-out data cannot leak through the
shared matrix: a fold trains only on its training trials' rows, under
descriptors resolved without the held-out trial, so a fold whose held-out
trial holds the peak amplitude selects the columns of its own histogram
range. At each noise level every trial is made noisy once; it also gets the
other folds' HEMG-range columns, which only those folds read. The clean
matrix serves every fold and level, and the labels, window starts and trial
row ranges come from it once: `extract_window_set` records where each trial's
rows begin (``trial_rows``) as it lays them out, so no window's start time
has to mark a trial boundary. A noisy level's matrix is freed before the next
level's is built. Each call stacks its trials' channels into blocks of at
most ``registry._BLOCK_SAMPLES`` window samples and runs each feature kernel
once per block; a block of one trial's channels is read in place from the
trial's channel-major samples, with no copy.

Scoring works on class codes. Each fold maps its model's class list onto the
dataset's class indices once, and its raw decisions are that map applied to
the argmax of the discriminants. One majority vote smooths every fold's
codes at once, with no window crossing a fold boundary; the confusion
matrix, the fold rates and the report's decision columns
(`DecisionStream`) all count those codes, and the decision CSVs turn them
back into class names only as text, from each name's quoted form.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dataio import Dataset, Trial, csv_prefix, write_output
from .noise import (add_wgn, derive_seed, derive_seeds, level_text, signal_power, snr_factor,
                    stream_words)
from .registry import (FeatureDescriptor, _blocks, _columns, _fault, peak_amplitude,
                       resolve_hemg_peak)
from .signals import SegmentationConfig, segment_offsets

DEFAULT_VOTE_WINDOW = 5  # ~512 ms of context at 256/64 ms windowing
DEFAULT_RIDGE = 1e-6


@dataclass
class LabeledWindowSet:
    """What `extract_window_set` gives: feature rows with per-window labels
    and start times. Trial ``i``, with id ``trial_ids[i]``, holds rows
    ``trial_rows[i]:trial_rows[i + 1]``."""

    features: np.ndarray          # (n_windows, n_features)
    labels: np.ndarray            # (n_windows,) indices into class_names
    trial_ids: list[str]          # (n_trials,)
    class_names: list[str]
    window_start_ms: np.ndarray
    trial_rows: np.ndarray        # (n_trials + 1,)
    feature_names: list[str]

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class LdaModel:
    """Pooled-covariance multi-class LDA."""

    class_names: list[str]
    means: np.ndarray        # (K, d)
    covariance: np.ndarray   # (d, d), after regularization
    priors: np.ndarray       # (K,)
    _coef: np.ndarray = field(repr=False, default=None)       # (K, d)
    _intercept: np.ndarray = field(repr=False, default=None)  # (K,)


def lda_train(features, labels, class_names: list[str],
              ridge: float = DEFAULT_RIDGE) -> LdaModel:
    """Fit class means, pooled within-class covariance, and empirical priors.

    ``features`` is an (n, d) matrix of finite values and ``labels`` holds
    one index into ``class_names`` per row; any other label is a ValueError.
    The covariance is pooled with n - K degrees of freedom and stabilized as
    cov + ridge * (trace(cov)/d) * I. Every class present must contribute at
    least two windows. Features of zero within-class variance are a
    ValueError whatever the ridge, and so is a pooled covariance that stays
    singular (collinear features with ``ridge=0``).
    """
    X, y = np.asarray(features, dtype=float), np.asarray(labels, dtype=int)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if y.shape != X.shape[:1]:
        raise ValueError("labels must match row count")
    if not np.all(np.isfinite(X)):
        raise ValueError("feature matrix contains non-finite values")
    outside = y[(y < 0) | (y >= len(class_names))]
    if outside.size:
        raise ValueError(f"label {outside[0]} is not an index into "
                         f"{len(class_names)} class names")
    present = np.flatnonzero(np.bincount(y))
    if present.size < 2:
        raise ValueError("LDA needs at least 2 classes in the training data")
    n, d = X.shape
    k = present.size
    means = np.empty((k, d))
    scatter = np.zeros((d, d))
    counts = np.empty(k)
    for i, cls in enumerate(present):
        rows = X[y == cls]
        if rows.shape[0] < 2:
            raise ValueError(
                f"class {class_names[cls]!r} has {rows.shape[0]} window(s); "
                "need at least 2"
            )
        means[i] = rows.mean(axis=0)
        centered = rows - means[i]
        scatter += centered.T @ centered
        counts[i] = rows.shape[0]
    cov = scatter / (n - k)
    trace = np.trace(cov)
    if trace <= 0:
        raise ValueError("features have zero variance; covariance is degenerate")
    if ridge > 0:
        cov = cov + ridge * (trace / d) * np.eye(d)
    priors = counts / n

    try:
        coef = np.linalg.solve(cov, means.T).T
    except np.linalg.LinAlgError:
        raise ValueError("pooled within-class covariance is singular; "
                         "a ridge > 0 regularizes it") from None
    intercept = -0.5 * np.sum(coef * means, axis=1) + np.log(priors)
    return LdaModel(
        class_names=[class_names[c] for c in present],
        means=means, covariance=cov, priors=priors,
        _coef=coef, _intercept=intercept,
    )


def lda_scores(model: LdaModel, X: np.ndarray) -> np.ndarray:
    """Discriminant values per class for each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.means.shape[1]:
        raise ValueError(f"expected {model.means.shape[1]} features, got {X.shape[1]}")
    return X @ model._coef.T + model._intercept


def check_vote_window(vote_window: int) -> None:
    """Reject a majority-vote window that is not an odd positive count."""
    if vote_window < 1 or vote_window % 2 == 0:
        raise ValueError(f"vote window must be an odd positive count, got {vote_window}")


def _vote(codes: np.ndarray, n_codes: int, vote_window: int,
          offsets: np.ndarray) -> np.ndarray:
    """Centered modal filter over class codes in [0, n_codes), stream by stream.

    ``codes[offsets[i]:offsets[i + 1]]`` is stream ``i``; no window reaches
    across a stream boundary. The unique mode of a window wins; a tie keeps
    the raw code. Votes are differences of running one-hot counts, so each
    position costs O(n_codes), not O(window).
    """
    n = codes.size
    running = np.zeros((n + 1, n_codes), dtype=np.int64)
    running[np.arange(1, n + 1), codes] = 1
    np.cumsum(running, axis=0, out=running)
    half = vote_window // 2
    stream = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    pos = np.arange(n)
    votes = (running[np.minimum(pos + half + 1, offsets[stream + 1])]
             - running[np.maximum(pos - half, offsets[stream])])
    unique = np.count_nonzero(votes == votes.max(axis=1)[:, None], axis=1) == 1
    return np.where(unique, votes.argmax(axis=1), codes)


def majority_vote(decision_stream, vote_window: int = DEFAULT_VOTE_WINDOW) -> list:
    """Smooth a decision stream with a centered modal filter.

    Stream edges use whatever neighborhood is available; when two labels tie
    for the mode, the raw (unsmoothed) decision at that position is kept.
    Labels may be any hashables.
    """
    check_vote_window(vote_window)
    stream = list(decision_stream)
    if not stream:
        return []
    codes: dict = {}
    for label in stream:
        codes.setdefault(label, len(codes))
    names = list(codes)
    smoothed = _vote(np.array([codes[label] for label in stream]), len(names),
                     vote_window, np.array([0, len(stream)]))
    return [names[c] for c in smoothed.tolist()]


def _channel_error(trial: Trial, channel: int, fault) -> ValueError:
    """A ValueError of ``fault`` (a message or an exception) in channel
    ``channel`` of ``trial``, naming both."""
    return ValueError(f"trial {trial.trial_id}, channel {trial.channels[channel]}: {fault}")


def extract_window_set(trials: list[Trial], rate: float,
                       descriptors: list[FeatureDescriptor],
                       segmentation: SegmentationConfig,
                       class_names: list[str]) -> LabeledWindowSet:
    """Window every trial and build the per-window feature matrix.

    Feature columns are channel-major: all descriptors of channel 1, then
    channel 2, and so on; vector features contribute one column per component.
    Rows follow the trials, each trial's windows in time order, and
    ``trial_rows`` records where each trial's rows begin. The channels
    of consecutive trials with the same window count are extracted in
    stacked blocks of at most ``registry._BLOCK_SAMPLES`` window samples (a
    block may end inside a trial), each written straight into its rows and
    channel's columns; every value equals that channel's `extract_segments`.
    A block whose channels all belong to one trial is extracted in place,
    as a view of the trial's channel-major samples; a block that spans
    trials is copied into one stack.
    A window that a descriptor cannot define is a ValueError naming the
    first such signal's trial and channel, in (trial, channel) order, with
    the fault of its first such descriptor. A trial whose label is not in
    ``class_names`` is a ValueError naming both, raised before any extraction.
    """
    if not trials:
        raise ValueError("no trials to extract features from")
    channels = len(trials[0].channels)
    if any(len(trial.channels) != channels for trial in trials):
        raise ValueError("trials must share one channel layout")
    for trial in trials:
        if trial.label not in class_names:
            raise ValueError(f"trial {trial.trial_id}: label {trial.label!r} is not a class name")
    feature_names = [f"{ch_name}:{c}" for ch_name in trials[0].channels
                     for desc in descriptors for c in desc.component_names()]

    offsets = [segment_offsets(len(trial.data), rate, segmentation) for trial in trials]
    first_row = np.cumsum([0] + [o.size for o in offsets])
    width, slide = segmentation.window_samples(rate), segmentation.slide_samples(rate)
    features = np.empty((first_row[-1], channels,
                         sum(d.component_count() for d in descriptors)))
    signals = [(t, ch) for t in range(len(trials)) for ch in range(channels)]
    for block in _blocks([offsets[t].size * width for t, _ in signals]):
        (t, first), (last_t, last) = signals[block[0]], signals[block[-1]]
        span = offsets[t][-1] + width
        if t == last_t:  # one trial's channels: a view of its samples
            stack = trials[t].data[:span, first:last + 1].T
        else:
            stack = np.empty((len(block), span))
            for row, (t, ch) in zip(stack, (signals[i] for i in block)):
                row[:] = trials[t].data[:span, ch]
        values, codes = (a.reshape(len(block), offsets[t].size, -1)
                         for a in _columns(descriptors, stack, width, slide, rate))
        faulty = np.flatnonzero(codes.any(axis=(1, 2)))
        if faulty.size:
            t, ch = signals[block[faulty[0]]]
            raise _channel_error(trials[t], ch, _fault(codes[faulty[0]]))
        for signal_values, i in zip(values, block):
            t, ch = signals[i]
            features[first_row[t]:first_row[t + 1], ch] = signal_values
    return LabeledWindowSet(
        features=features.reshape(first_row[-1], -1),
        labels=np.repeat([class_names.index(t.label) for t in trials], np.diff(first_row)),
        trial_ids=[t.trial_id for t in trials],
        class_names=list(class_names),
        window_start_ms=np.concatenate(offsets) * 1000.0 / rate, trial_rows=first_row,
        feature_names=feature_names,
    )


@dataclass(eq=False)
class DecisionStream:
    """A report's decisions as columns, fold by fold in trial order.

    Fold ``i`` holds rows ``offsets[i]:offsets[i + 1]``, in time order. The
    true, raw (LDA) and majority-vote decisions are codes into the report's
    ``class_names``.
    """

    offsets: np.ndarray           # (folds + 1,)
    window_start_ms: np.ndarray   # (windows,)
    true: np.ndarray              # (windows,) class codes
    raw: np.ndarray
    mv: np.ndarray

    def __len__(self) -> int:
        return self.window_start_ms.size

    def __eq__(self, other):
        if not isinstance(other, DecisionStream):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass
class ClassificationReport:
    """Pooled leave-one-out result: rate, confusion matrix, decision stream."""

    class_names: list[str]
    cr: float                      # percent correct, after majority vote
    confusion: np.ndarray          # (K, K) counts, rows = true class
    fold_crs: list[tuple[str, float]]
    decisions: DecisionStream


def _train_folds(dataset: Dataset, feature_sets: list[list[FeatureDescriptor]],
                 held_out, segmentation: SegmentationConfig):
    """Each set's (model, resolved descriptors, columns) per held-out trial
    index, the union of those descriptors, and the clean window set over the
    union.

    Training uses clean data only, so the same fold models can score any
    noise level. A fold resolves its descriptors from the peak |amplitude| of
    its own training trials, and ``columns`` are their channel-major columns
    in the union's matrix, so a fold's training rows at those columns are
    what extracting its descriptors alone would give.
    """
    trials = dataset.trials
    train = np.arange(len(trials)) != np.array(held_out)[:, np.newaxis]
    fold_peaks = peak_amplitude([t.data for t in trials], train).tolist()
    resolved = [[resolve_hemg_peak(features, peak) for peak in fold_peaks]
                for features in feature_sets]
    union = list(dict.fromkeys(d for per_fold in resolved for descriptors in per_fold
                               for d in descriptors))
    clean = extract_window_set(trials, dataset.rate, union, segmentation, dataset.classes)
    starts = np.cumsum([0] + [d.component_count() for d in union]).tolist()
    span = {d: range(a, b) for d, a, b in zip(union, starts, starts[1:])}
    by_channel = np.arange(clean.features.shape[1]).reshape(-1, starts[-1])
    folds = [[] for _ in feature_sets]
    for i, *per_set in zip(held_out, *resolved):
        a, b = clean.trial_rows[i:i + 2]  # a fold trains on the row ranges around these
        y = np.concatenate([clean.labels[:a], clean.labels[b:]])
        for set_folds, descriptors in zip(folds, per_set):
            columns = by_channel[:, [c for d in descriptors for c in span[d]]].ravel()
            # two slices and one copy: about 4x faster than one np.ix_ gather of the rows
            X = np.concatenate([clean.features[:a, columns], clean.features[b:, columns]])
            set_folds.append((lda_train(X, y, clean.class_names), descriptors, columns))
    return folds, union, clean


def _test_trials(dataset: Dataset, noise_snr_db: float, noise_seed: int) -> list[Trial]:
    """The held-out trials with WGN in every channel.

    Fold ``i``'s channel ``ch`` draws from the stream keyed by
    (derive_seed(noise_seed, i, ch), 0), as `inject_at_snr` keys that seed,
    so every feature set tested at a level sees the same noisy trials. A
    channel of zero power is a ValueError that names its trial and channel.
    """
    factor = snr_factor(noise_snr_db)  # refuses a bad level before drawing
    trials = dataset.trials
    seeds = derive_seeds([noise_seed], range(len(trials)), range(len(trials[0].channels)))
    words = stream_words(seeds.ravel(), [0]).reshape(seeds.shape[1:] + (1, -1))
    noisy_trials = []
    for trial, trial_words in zip(trials, words):
        clean, noisy = trial.data.T, np.empty(trial.data.shape[::-1])
        try:  # one copy of each channel
            add_wgn(clean, [factor], trial_words, noisy[:, np.newaxis])
        except ValueError as exc:  # a channel of zero power: name it
            raise _channel_error(trial, np.flatnonzero(signal_power(clean) == 0)[0], exc) from None
        noisy_trials.append(replace(trial, data=noisy.T))
    return noisy_trials


def _score_folds(folds, clean: LabeledWindowSet, features: np.ndarray,
                 vote_window: int) -> ClassificationReport:
    """Fold ``i`` scores trial ``i``'s rows of ``features``, a level's matrix
    over the rows and columns of ``clean``, whose labels, window starts and
    trial row ranges the report keeps."""
    k = len(clean.class_names)
    class_index = {name: i for i, name in enumerate(clean.class_names)}
    bounds = list(zip(clean.trial_rows[:-1].tolist(), clean.trial_rows[1:].tolist()))
    raw = []
    for (model, _, columns), (a, b) in zip(folds, bounds):
        to_dataset = np.array([class_index[name] for name in model.class_names])
        raw.append(to_dataset[np.argmax(lda_scores(model, features[a:b, columns]), axis=1)])
    raw = np.concatenate(raw)
    true = clean.labels
    mv = _vote(raw, k, vote_window, clean.trial_rows)
    confusion = np.bincount(true * k + mv, minlength=k * k).reshape(k, k)
    hits = np.concatenate([[0], np.cumsum(mv == true)])
    fold_crs = [(trial_id, 100.0 * int(hits[b] - hits[a]) / (b - a))
                for trial_id, (a, b) in zip(clean.trial_ids, bounds)]
    cr = 100.0 * float(np.trace(confusion)) / int(confusion.sum())
    decisions = DecisionStream(offsets=clean.trial_rows, true=true, raw=raw, mv=mv,
                               window_start_ms=clean.window_start_ms)
    return ClassificationReport(
        class_names=list(clean.class_names), cr=cr, confusion=confusion,
        fold_crs=fold_crs, decisions=decisions,
    )


def _evaluate(dataset: Dataset, feature_sets: list[list[FeatureDescriptor]],
              levels: list, level_seeds: list[int],
              segmentation: SegmentationConfig,
              vote_window: int) -> list[list[ClassificationReport]]:
    """The report of every feature set at every noise level, level by level.

    Every set scores the clean level from the clean window set, and each
    noisy level from one extraction of every noisy trial over the same
    descriptor union.
    """
    check_vote_window(vote_window)
    if len(dataset.trials) < 2:
        raise ValueError("leave-one-out needs at least 2 trials")
    trial_count = Counter(t.label for t in dataset.trials)
    thin = [label for label, c in trial_count.items() if c < 2]
    if thin:
        raise ValueError(
            f"leave-one-out needs every class in >= 2 trials; short: {thin}"
        )
    folds, union, clean = _train_folds(dataset, feature_sets, range(len(dataset.trials)),
                                       segmentation)

    def scored(features):  # a level's matrix is freed before the next level's is built
        return [_score_folds(per_set, clean, features, vote_window)
                for per_set in folds]

    return [scored(clean.features if level is None else extract_window_set(
                _test_trials(dataset, level, level_seed), dataset.rate, union, segmentation,
                dataset.classes).features)
            for level, level_seed in zip(levels, level_seeds)]


def leave_one_out(dataset: Dataset, features: list[FeatureDescriptor],
                  segmentation: SegmentationConfig, *,
                  vote_window: int = DEFAULT_VOTE_WINDOW,
                  noise_snr_db: float | None = None,
                  noise_seed: int = 0) -> ClassificationReport:
    """Leave-one-trial-out validation with majority-vote post-processing.

    With ``noise_snr_db`` set, each held-out trial is tested after WGN
    injection into its raw channels (training stays clean); the noise stream
    is keyed by (noise_seed, fold index, channel), so results are
    reproducible and all feature sets evaluated at a level share the noise.
    """
    return _evaluate(dataset, [features], [noise_snr_db], [noise_seed], segmentation,
                     vote_window)[0][0]


@dataclass
class CrTable:
    """Classification rate per (feature set, noise level); levels use None = clean."""

    set_names: list[str]
    levels: list[float | None]
    cr: np.ndarray                                   # (n_sets, n_levels)
    reports: dict[tuple[str, str], ClassificationReport]

    @staticmethod
    def level_label(level: float | None) -> str:
        """``clean``, or the level in dB as `noise.level_text` writes it, so
        distinct levels get distinct labels."""
        return "clean" if level is None else f"{level_text(level)}dB"

    @staticmethod
    def level_labels(levels) -> list[str]:
        """The labels of ``levels``; a repeated level (compared as floats, so
        0 and -0 are one level; nan by its label) is a ValueError, since each
        level names one column, report cell and decision file."""
        labels = [CrTable.level_label(level) for level in levels]
        repeated = [label for i, (level, label) in enumerate(zip(levels, labels))
                    if level in levels[:i] or label in labels[:i]]
        if repeated:
            raise ValueError(f"noise level {repeated[0]} is repeated")
        return labels


def evaluate_feature_sets(dataset: Dataset,
                          feature_sets: dict[str, list[FeatureDescriptor]],
                          noise_levels, segmentation: SegmentationConfig,
                          *, vote_window: int = DEFAULT_VOTE_WINDOW, seed: int = 0) -> CrTable:
    """Score every feature set at every noise level (None or an SNR in dB).

    Models always train on clean data; the noise stream at a level is shared
    across feature sets so their scores face identical interference.
    """
    levels = list(noise_levels)
    if not feature_sets or not levels:
        raise ValueError("need at least one feature set and one noise level")
    labels = CrTable.level_labels(levels)
    set_names = list(feature_sets)
    by_level = _evaluate(dataset, [feature_sets[name] for name in set_names], levels,
                         [derive_seed(seed, l_idx) for l_idx in range(len(levels))],
                         segmentation, vote_window)
    cr = np.array([[report.cr for report in row] for row in by_level]).T
    reports = {(name, label): row[s_idx]
               for s_idx, name in enumerate(set_names) for label, row in zip(labels, by_level)}
    return CrTable(set_names=set_names, levels=levels, cr=cr, reports=reports)


def table_csv_rows(table: CrTable) -> list[list]:
    """The CR table as CSV rows: a header of level labels, then one row per set."""
    return [["feature_set"] + [CrTable.level_label(l) for l in table.levels]] + [
        [name] + [f"{v:.4f}" for v in table.cr[i]] for i, name in enumerate(table.set_names)]


def table_payload(table: CrTable) -> dict:
    """The JSON report's body: the CR grid, and each cell's fold and confusion detail."""
    return {
        "levels": [CrTable.level_label(l) for l in table.levels],
        "sets": table.set_names,
        "classification_rate": {
            name: {CrTable.level_label(l): table.cr[i, j]
                   for j, l in enumerate(table.levels)}
            for i, name in enumerate(table.set_names)
        },
        "cells": {
            f"{name}@{label}": {
                "classification_rate": report.cr,
                "class_names": report.class_names,
                "confusion": report.confusion.tolist(),
                "fold_crs": [{"trial_id": t, "cr": c} for t, c in report.fold_crs],
            }
            for (name, label), report in table.reports.items()
        },
    }


def decisions_to_csv(table: CrTable, prefix) -> list[Path]:
    """One decision-stream CSV per cell, ``<prefix>_decisions_<set>_<level>.csv``.

    Columns: window_start_ms, true_label, raw_label, mv_label. Rows appear
    fold by fold in trial order, each fold's windows in time order, in
    csv.writer's format (minimal quoting, CRLF line ends). Each class name is
    quoted once, and each distinct block of a fold's window starts is
    formatted once for every file.
    """
    quoted = {name: csv_prefix([name])[:-1] for name in dict.fromkeys(
        name for report in table.reports.values() for name in report.class_names)}
    start_text: dict[bytes, list[str]] = {}
    paths = []
    for (set_name, level_label), report in table.reports.items():
        names = [quoted[name] for name in report.class_names]
        dec = report.decisions
        true, raw, mv = dec.true.tolist(), dec.raw.tolist(), dec.mv.tolist()
        rows = ["window_start_ms,true_label,raw_label,mv_label\r\n"]
        for a, b in zip(dec.offsets[:-1].tolist(), dec.offsets[1:].tolist()):
            block = dec.window_start_ms[a:b]
            starts = start_text.get(block.tobytes())
            if starts is None:
                starts = start_text[block.tobytes()] = [f"{s:g}," for s in block.tolist()]
            rows += [f"{s}{names[t]},{names[r]},{names[m]}\r\n"
                     for s, t, r, m in zip(starts, true[a:b], raw[a:b], mv[a:b])]
        paths.append(write_output(f"{prefix}_decisions_{set_name}_{level_label}.csv",
                                  "".join(rows)))
    return paths

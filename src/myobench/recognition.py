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

Folds share work. Within one feature set, each trial's clean feature block is
extracted once per distinct tuple of resolved descriptors and cached under
(trial id, resolved descriptors); a fold's training matrix stacks the cached
blocks of its training trials in trial order, which is the matrix a fresh
extraction would build. Held-out data cannot leak through the cache: a fold
resolves its descriptors from its training trials before looking anything up,
so a fold whose held-out trial holds the peak amplitude resolves a different
histogram range and gets blocks of its own, and the held-out trial's own
block is never read. At each noise level every held-out trial is made noisy
once and scored by every feature set.
"""
from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataio import Dataset, Trial
from .noise import NoiseSpec, derive_seed, inject_at_snr
from .registry import FeatureDescriptor, extract, resolve_hemg_limit
from .signals import SegmentationConfig, segment, segment_offsets

DEFAULT_VOTE_WINDOW = 5  # ~512 ms of context at 256/64 ms windowing
DEFAULT_RIDGE = 1e-6


@dataclass
class LabeledWindowSet:
    """Feature rows with per-window labels, trial ids, and start times."""

    features: np.ndarray          # (n_windows, n_features)
    labels: np.ndarray            # (n_windows,) indices into class_names
    trial_ids: list[str]
    class_names: list[str]
    window_start_ms: np.ndarray
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        self.window_start_ms = np.asarray(self.window_start_ms, dtype=float)
        n = self.features.shape[0]
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if not (self.labels.shape == (n,) and len(self.trial_ids) == n
                and self.window_start_ms.shape == (n,)):
            raise ValueError("labels, trial ids, and start times must match row count")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("feature matrix contains non-finite values")

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

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def lda_train(data: LabeledWindowSet, ridge: float = DEFAULT_RIDGE) -> LdaModel:
    """Fit class means, pooled within-class covariance, and empirical priors.

    The covariance is pooled with n - K degrees of freedom and stabilized as
    cov + ridge * (trace(cov)/d) * I. Every class present must contribute at
    least two windows.
    """
    X, y = data.features, data.labels
    present = np.unique(y)
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
                f"class {data.class_names[cls]!r} has {rows.shape[0]} window(s); "
                "need at least 2"
            )
        means[i] = rows.mean(axis=0)
        centered = rows - means[i]
        scatter += centered.T @ centered
        counts[i] = rows.shape[0]
    cov = scatter / (n - k)
    if ridge > 0:
        trace = np.trace(cov)
        if trace <= 0:
            raise ValueError("features have zero variance; covariance is degenerate")
        cov = cov + ridge * (trace / d) * np.eye(d)
    priors = counts / n

    coef = np.linalg.solve(cov, means.T).T
    intercept = -0.5 * np.sum(coef * means, axis=1) + np.log(priors)
    return LdaModel(
        class_names=[data.class_names[c] for c in present],
        means=means, covariance=cov, priors=priors,
        _coef=coef, _intercept=intercept,
    )


def lda_scores(model: LdaModel, X: np.ndarray) -> np.ndarray:
    """Discriminant values per class for each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.dim:
        raise ValueError(f"expected {model.dim} features, got {X.shape[1]}")
    return X @ model._coef.T + model._intercept


def lda_predict(model: LdaModel, window_features) -> str:
    """Most likely class for one feature vector; ties go to the lowest index."""
    scores = lda_scores(model, np.asarray(window_features, dtype=float))[0]
    return model.class_names[int(np.argmax(scores))]


def majority_vote(decision_stream, vote_window: int = DEFAULT_VOTE_WINDOW) -> list:
    """Smooth a decision stream with a centered modal filter.

    Stream edges use whatever neighborhood is available; when two labels tie
    for the mode, the raw (unsmoothed) decision at that position is kept.
    Labels may be any hashables; votes are counted as differences of running
    one-hot counts, so each position costs O(labels), not O(window).
    """
    if vote_window < 1 or vote_window % 2 == 0:
        raise ValueError("vote window must be an odd positive count")
    stream = list(decision_stream)
    if not stream:
        return []
    n = len(stream)
    codes: dict = {}
    for label in stream:
        codes.setdefault(label, len(codes))
    running = np.zeros((n + 1, len(codes)), dtype=np.int64)
    running[np.arange(1, n + 1), [codes[label] for label in stream]] = 1
    np.cumsum(running, axis=0, out=running)
    half = vote_window // 2
    pos = np.arange(n)
    votes = running[np.minimum(pos + half + 1, n)] - running[np.maximum(pos - half, 0)]
    unique = np.count_nonzero(votes == votes.max(axis=1)[:, None], axis=1) == 1
    names = list(codes)
    return [names[w] if u else raw
            for w, u, raw in zip(votes.argmax(axis=1).tolist(), unique.tolist(), stream)]


def extract_window_set(trials: list[Trial], rate: float,
                       descriptors: list[FeatureDescriptor],
                       segmentation: SegmentationConfig,
                       class_names: list[str]) -> LabeledWindowSet:
    """Window every trial and build the per-window feature matrix.

    Feature columns are channel-major: all descriptors of channel 1, then
    channel 2, and so on; vector features contribute one column per component.
    """
    if not trials:
        raise ValueError("no trials to extract features from")
    feature_names = [f"{ch_name}:{c}" for ch_name in trials[0].channels
                     for desc in descriptors for c in desc.component_names()]

    blocks, labels, trial_ids, starts = [], [], [], []
    for trial in trials:
        offsets = segment_offsets(trial.signal(0, rate), segmentation)
        blocks.append(np.hstack([
            extract(descriptors, segment(trial.signal(ch, rate), segmentation), rate)
            for ch in range(len(trial.channels))
        ]))
        labels.extend([class_names.index(trial.label)] * offsets.size)
        trial_ids.extend([trial.trial_id] * offsets.size)
        starts.append(offsets * 1000.0 / rate)
    return LabeledWindowSet(
        features=np.vstack(blocks), labels=np.array(labels),
        trial_ids=trial_ids, class_names=list(class_names),
        window_start_ms=np.concatenate(starts), feature_names=feature_names,
    )


@dataclass
class DecisionRecord:
    trial_id: str
    window_start_ms: float
    true_label: str
    raw_label: str
    mv_label: str


@dataclass
class ClassificationReport:
    """Pooled leave-one-out result: rate, confusion matrix, decision stream."""

    class_names: list[str]
    cr: float                      # percent correct, after majority vote
    confusion: np.ndarray          # (K, K) counts, rows = true class
    fold_crs: list[tuple[str, float]]
    decisions: list[DecisionRecord]


def train_fold(dataset: Dataset, features: list[FeatureDescriptor],
               segmentation: SegmentationConfig, held_out_trial_id: str,
               ridge: float = DEFAULT_RIDGE):
    """Resolve descriptors and fit the LDA for one fold's training split.

    Only trials other than the held-out one contribute, both to the model and
    to data-dependent feature parameters.
    """
    return _train_fold(dataset, features, segmentation, held_out_trial_id,
                       ridge, cache={})


def _train_fold(dataset: Dataset, features: list[FeatureDescriptor],
                segmentation: SegmentationConfig, held_out_trial_id: str,
                ridge: float, cache: dict):
    """``train_fold`` reusing clean per-trial feature blocks from ``cache``.

    The cache is keyed by (trial id, resolved descriptors): a block is reused
    only under the exact parameters this fold resolved from its own training
    trials, and the held-out trial's block is never read.
    """
    train_trials = [t for t in dataset.trials if t.trial_id != held_out_trial_id]
    if len(train_trials) == len(dataset.trials):
        raise ValueError(f"no trial with id {held_out_trial_id!r}")
    resolved = resolve_hemg_limit(
        features,
        (t.data[:, ch] for t in train_trials for ch in range(len(t.channels))),
    )
    blocks = []
    for trial in train_trials:
        key = (trial.trial_id, tuple(resolved))
        if key not in cache:
            cache[key] = extract_window_set([trial], dataset.rate, resolved,
                                            segmentation, dataset.classes)
        blocks.append(cache[key])
    train_set = LabeledWindowSet(
        features=np.vstack([b.features for b in blocks]),
        labels=np.concatenate([b.labels for b in blocks]),
        trial_ids=[tid for b in blocks for tid in b.trial_ids],
        class_names=list(dataset.classes),
        window_start_ms=np.concatenate([b.window_start_ms for b in blocks]),
        feature_names=blocks[0].feature_names,
    )
    return lda_train(train_set, ridge=ridge), resolved


def _validate_folds(dataset: Dataset):
    if len(dataset.trials) < 2:
        raise ValueError("leave-one-out needs at least 2 trials")
    trial_count = Counter(t.label for t in dataset.trials)
    thin = [label for label, c in trial_count.items() if c < 2]
    if thin:
        raise ValueError(
            f"leave-one-out needs every class in >= 2 trials; short: {thin}"
        )


def _fold_models(dataset: Dataset, features: list[FeatureDescriptor],
                 segmentation: SegmentationConfig, ridge: float):
    """One trained (model, resolved descriptors) pair per held-out trial.

    Training uses clean data only, so the same fold models can score any
    noise level. Each trial's clean features are extracted once per distinct
    set of resolved descriptors and shared by every fold that trains on it.
    """
    cache: dict = {}
    return [_train_fold(dataset, features, segmentation, trial.trial_id, ridge, cache)
            for trial in dataset.trials]


def _test_trials(dataset: Dataset, noise_snr_db: float | None,
                 noise_seed: int) -> list[Trial]:
    """The held-out trials as tested: clean, or with WGN in every channel.

    Fold ``i``'s channel ``ch`` draws from the stream keyed by
    (noise_seed, i, ch), so every feature set tested at a level sees the
    same noisy trials.
    """
    if noise_snr_db is None:
        return list(dataset.trials)
    noisy_trials = []
    for fold_idx, held_out in enumerate(dataset.trials):
        noisy = np.empty_like(held_out.data)
        for ch in range(len(held_out.channels)):
            spec = NoiseSpec(snr_db=noise_snr_db,
                             seed=derive_seed(noise_seed, fold_idx, ch))
            noisy[:, ch] = inject_at_snr(held_out.signal(ch, dataset.rate), spec).samples
        noisy_trials.append(Trial(
            trial_id=held_out.trial_id, label=held_out.label,
            subject=held_out.subject, group=held_out.group,
            channels=held_out.channels, data=noisy,
        ))
    return noisy_trials


def _score_folds(dataset: Dataset, fold_models, test_trials: list[Trial],
                 segmentation: SegmentationConfig,
                 vote_window: int) -> ClassificationReport:
    k = len(dataset.classes)
    class_index = {name: i for i, name in enumerate(dataset.classes)}
    confusion = np.zeros((k, k), dtype=int)
    fold_crs = []
    decisions = []
    for (model, resolved), test_trial in zip(fold_models, test_trials):
        test_set = extract_window_set([test_trial], dataset.rate, resolved,
                                      segmentation, dataset.classes)
        scores = lda_scores(model, test_set.features)
        raw = [model.class_names[i] for i in np.argmax(scores, axis=1)]
        smoothed = majority_vote(raw, vote_window)

        true_name = test_trial.label
        true_idx = class_index[true_name]
        predicted = np.array([class_index[name] for name in smoothed], dtype=np.intp)
        confusion[true_idx] += np.bincount(predicted, minlength=k)
        correct = int(np.count_nonzero(predicted == true_idx))
        decisions.extend(
            DecisionRecord(trial_id=test_trial.trial_id, window_start_ms=start,
                           true_label=true_name, raw_label=raw_label, mv_label=mv_label)
            for start, raw_label, mv_label in zip(test_set.window_start_ms.tolist(),
                                                  raw, smoothed))
        fold_crs.append((test_trial.trial_id, 100.0 * correct / len(test_set)))

    total = int(confusion.sum())
    cr = 100.0 * float(np.trace(confusion)) / total
    return ClassificationReport(
        class_names=list(dataset.classes), cr=cr, confusion=confusion,
        fold_crs=fold_crs, decisions=decisions,
    )


def leave_one_out(dataset: Dataset, features: list[FeatureDescriptor],
                  segmentation: SegmentationConfig | None = None, *,
                  vote_window: int = DEFAULT_VOTE_WINDOW,
                  ridge: float = DEFAULT_RIDGE,
                  noise_snr_db: float | None = None,
                  noise_seed: int = 0) -> ClassificationReport:
    """Leave-one-trial-out validation with majority-vote post-processing.

    With ``noise_snr_db`` set, each held-out trial is tested after WGN
    injection into its raw channels (training stays clean); the noise stream
    is keyed by (noise_seed, fold index, channel), so results are
    reproducible and all feature sets evaluated at a level share the noise.
    """
    if segmentation is None:
        segmentation = SegmentationConfig()
    _validate_folds(dataset)
    models = _fold_models(dataset, features, segmentation, ridge)
    return _score_folds(dataset, models, _test_trials(dataset, noise_snr_db, noise_seed),
                        segmentation, vote_window)


@dataclass
class CrTable:
    """Classification rate per (feature set, noise level); levels use None = clean."""

    set_names: list[str]
    levels: list[float | None]
    cr: np.ndarray                                   # (n_sets, n_levels)
    reports: dict[tuple[str, str], ClassificationReport]

    @staticmethod
    def level_label(level: float | None) -> str:
        return "clean" if level is None else f"{level:g}dB"


def evaluate_feature_sets(dataset: Dataset,
                          feature_sets: dict[str, list[FeatureDescriptor]],
                          noise_levels, segmentation: SegmentationConfig | None = None,
                          *, vote_window: int = DEFAULT_VOTE_WINDOW,
                          ridge: float = DEFAULT_RIDGE, seed: int = 0) -> CrTable:
    """Score every feature set at every noise level (None or an SNR in dB).

    Models always train on clean data; the noise stream at a level is shared
    across feature sets so their scores face identical interference.
    """
    if segmentation is None:
        segmentation = SegmentationConfig()
    levels = list(noise_levels)
    if not feature_sets or not levels:
        raise ValueError("need at least one feature set and one noise level")
    _validate_folds(dataset)
    set_names = list(feature_sets)
    models = [_fold_models(dataset, feature_sets[name], segmentation, ridge)
              for name in set_names]
    cr = np.empty((len(set_names), len(levels)))
    cells = {}
    for l_idx, level in enumerate(levels):
        test_trials = _test_trials(dataset, level, derive_seed(seed, l_idx))
        for s_idx in range(len(set_names)):
            cells[s_idx, l_idx] = _score_folds(dataset, models[s_idx], test_trials,
                                               segmentation, vote_window)
            cr[s_idx, l_idx] = cells[s_idx, l_idx].cr
    reports = {(name, CrTable.level_label(level)): cells[s_idx, l_idx]
               for s_idx, name in enumerate(set_names)
               for l_idx, level in enumerate(levels)}
    return CrTable(set_names=set_names, levels=levels, cr=cr, reports=reports)


def table_to_csv(table: CrTable, path, config: dict | None = None) -> Path:
    """Write the CR table (rows = sets, columns = noise levels) as CSV."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature_set"] + [CrTable.level_label(l) for l in table.levels])
        for i, name in enumerate(table.set_names):
            writer.writerow([name] + [f"{v:.4f}" for v in table.cr[i]])
    if config is not None:
        sidecar = path.with_suffix(path.suffix + ".config.json")
        sidecar.write_text(json.dumps(config, indent=2) + "\n")
    return path


def report_to_dict(report: ClassificationReport) -> dict:
    return {
        "classification_rate": report.cr,
        "class_names": report.class_names,
        "confusion": report.confusion.tolist(),
        "fold_crs": [{"trial_id": t, "cr": c} for t, c in report.fold_crs],
    }


def table_to_json(table: CrTable, path, config: dict | None = None) -> Path:
    """Full JSON report: config, CR grid, and per-cell fold/confusion detail."""
    path = Path(path)
    payload = {
        "config": config or {},
        "levels": [CrTable.level_label(l) for l in table.levels],
        "sets": table.set_names,
        "classification_rate": {
            name: {CrTable.level_label(l): table.cr[i, j]
                   for j, l in enumerate(table.levels)}
            for i, name in enumerate(table.set_names)
        },
        "cells": {
            f"{name}@{label}": report_to_dict(rep)
            for (name, label), rep in table.reports.items()
        },
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def decisions_to_csv(report: ClassificationReport, path) -> Path:
    """Decision stream CSV: window_start_ms, true_label, raw_label, mv_label.

    Rows appear fold by fold in trial order, each fold's windows in time order.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_start_ms", "true_label", "raw_label", "mv_label"])
        for rec in report.decisions:
            writer.writerow([f"{rec.window_start_ms:g}", rec.true_label,
                             rec.raw_label, rec.mv_label])
    return path

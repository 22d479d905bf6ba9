"""LDA, majority vote, leave-one-out validation, and feature-set scoring."""
import csv
from collections import Counter
from dataclasses import fields, replace
from functools import reduce
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from myobench import recognition, registry
from myobench.dataio import (ClassSpec, Dataset, SynthConfig, Trial, default_class_specs,
                             load_dataset, save_dataset, synthesize_emg)
from myobench.noise import derive_seed
from myobench.recognition import (DEFAULT_RIDGE, CrTable, _test_trials, _train_folds,
                                  decisions_to_csv, evaluate_feature_sets, extract_window_set,
                                  lda_scores, lda_train, leave_one_out, majority_vote)
from myobench.registry import (extract, extract_segments, feature_set, parse_features,
                               peak_amplitude, resolve_hemg_peak)
from myobench.signals import SegmentationConfig, segment
from wgn_reference import reference_injection


def scan_peak(signals):
    """The largest peak |amplitude| of the signals, one at a time; a NaN peak is skipped."""
    return reduce(max, (float(np.max(np.abs(x))) for x in signals), 0.0)


def small_dataset(n_classes=2, trials_per_class=2, seed=0, channels=1, trial_ms=1500):
    return synthesize_emg(SynthConfig(
        classes=tuple(default_class_specs(n_classes)), channels=channels,
        trials_per_class=trials_per_class, trial_ms=trial_ms, seed=seed))


SEG = SegmentationConfig(window_ms=256, slide_ms=64)


def counter_majority_vote(stream, vote_window):
    """Reference modal filter: one Counter per position."""
    stream = list(stream)
    half = vote_window // 2
    out = []
    for i in range(len(stream)):
        votes = Counter(stream[max(0, i - half):i + half + 1])
        top = max(votes.values())
        winners = [label for label, c in votes.items() if c == top]
        out.append(winners[0] if len(winners) == 1 else stream[i])
    return out


def tied_windows(stream, vote_window):
    """The number of positions of ``stream`` whose window has no unique mode."""
    half = vote_window // 2
    ties = 0
    for i in range(len(stream)):
        counts = Counter(stream[max(0, i - half):i + half + 1]).values()
        ties += list(counts).count(max(counts)) > 1
    return ties


def reference_score_folds(dataset, folds, tested_trials, vote_window):
    """Per-window scoring: each held-out trial of ``tested_trials`` extracted
    on its own over its fold's resolved descriptors, one (trial_id, start,
    true, raw, mv) label record per window, voted by the Counter reference."""
    k = len(dataset.classes)
    class_index = {name: i for i, name in enumerate(dataset.classes)}
    confusion = np.zeros((k, k), dtype=int)
    fold_crs = []
    decisions = []
    for trial, tested, (model, resolved, _) in zip(dataset.trials, tested_trials, folds):
        test = extract_window_set([tested], dataset.rate, resolved, SEG, dataset.classes)
        scores = lda_scores(model, test.features)
        raw = [model.class_names[i] for i in np.argmax(scores, axis=1)]
        smoothed = counter_majority_vote(raw, vote_window)

        true_idx = class_index[trial.label]
        predicted = np.array([class_index[name] for name in smoothed], dtype=np.intp)
        confusion[true_idx] += np.bincount(predicted, minlength=k)
        correct = int(np.count_nonzero(predicted == true_idx))
        decisions.extend(
            (trial.trial_id, start, trial.label, raw_label, mv_label)
            for start, raw_label, mv_label in zip(test.window_start_ms.tolist(),
                                                  raw, smoothed))
        fold_crs.append((trial.trial_id, 100.0 * correct / len(test)))

    cr = 100.0 * float(np.trace(confusion)) / int(confusion.sum())
    return cr, confusion, fold_crs, decisions


def reference_decisions_csv(decisions, path):
    """The decision CSV as csv.writer writes it, one row per record."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_start_ms", "true_label", "raw_label", "mv_label"])
        for _, start, true_label, raw_label, mv_label in decisions:
            writer.writerow([f"{start:g}", true_label, raw_label, mv_label])
    return path


def top_class(model, x):
    """The class of the largest discriminant for one feature vector."""
    return model.class_names[int(np.argmax(lda_scores(model, x)))]


def fold_model(dataset, features, held_out):
    """The model and resolved descriptors of the fold that holds out trial index ``held_out``."""
    folds, *_ = _train_folds(dataset, [features], [held_out], SEG)
    model, resolved, _ = folds[0][0]
    return model, resolved


def scaled_trial(trial, factor):
    return Trial(trial_id=trial.trial_id, label=trial.label,
                 subject=trial.subject, group=trial.group, channels=trial.channels,
                 data=trial.data * factor)


def assert_same_model(a, b):
    for attr in ("means", "covariance", "priors", "_coef", "_intercept"):
        np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr))


# Every family, with parameters that change what its kernel computes; the
# 8-sample windows split into mavslp's 2 and 4 segments.
EVERY_FAMILY = parse_features(
    "iemg,mav,mmav1,mmav2,mavslp:segments=2,mavslp:segments=4,ssi,var,rms,wl,"
    "zc:threshold=0,zc:threshold=0.3,ssc:threshold=0,ssc:threshold=0.05,"
    "wamp:threshold=0,wamp:threshold=0.5,hemg:bins=1:limit=1,hemg:bins=3:limit=0.5,"
    "hemg:bins=4:limit=2,ar:order=1,ar:order=3,mnf:dc=0,mnf,mdf:dc=0,mdf,mmnf:dc=0,"
    "mmnf,mmdf:dc=0,mmdf")
BLOCK_SEG = SegmentationConfig(window_ms=8, slide_ms=2)  # at 1 kHz: 8-sample windows


def noise_trials(seed, lengths, channels):
    rng = np.random.default_rng(seed)
    return [Trial(trial_id=f"t{i}", label="a" if i % 2 else "b", subject="s", group="g",
                  channels=[f"ch{c}" for c in range(channels)],
                  data=rng.standard_normal((n, channels)))
            for i, n in enumerate(lengths)]


def per_channel_rows(extract_channel, trials, descriptors, seg, rate=1000.0):
    """The feature matrix from one extraction per channel and trial."""
    return np.vstack([np.hstack([extract_channel(descriptors, t.data[:, ch], rate, seg)
                                 for ch in range(len(t.channels))]) for t in trials])


def extract_windows(descriptors, samples, rate, seg):
    """The matrix path on the signal's windows: no stacked intermediates."""
    return extract(descriptors, segment(samples, rate, seg), rate)


class TestBlockExtraction:
    """Stacked blocks give each channel what extracting it alone gives, bit for bit."""

    @given(channels=st.integers(1, 3), lengths=st.lists(st.sampled_from([12, 20, 30]),
                                                          min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1), budget=st.integers(1, 400),
           order=st.permutations(range(len(EVERY_FAMILY))))
    # Channels of 3 windows (24 window samples) in blocks of three: the first
    # block ends inside trial 1; trial 2's channels (12 windows, 96 window
    # samples) exceed the budget, so each forms a block of its own.
    @example(channels=2, lengths=[12, 12, 30], seed=1, budget=72,
             order=list(range(len(EVERY_FAMILY))))
    @example(channels=1, lengths=[12], seed=2, budget=1, order=list(range(len(EVERY_FAMILY))))
    @settings(max_examples=60, deadline=None)
    def test_blocks_equal_one_signal_at_a_time(self, channels, lengths, seed, budget, order):
        lengths = lengths[:max(1, 6 // channels)]  # 1 to 6 signals
        trials = noise_trials(seed, lengths, channels)
        descriptors = [EVERY_FAMILY[i] for i in order]
        with patch.object(registry, "_BLOCK_SAMPLES", budget):
            windows = extract_window_set(trials, 1000.0, descriptors, BLOCK_SEG, ["a", "b"])
        for extract_channel in (extract_segments, extract_windows):
            np.testing.assert_array_equal(
                windows.features, per_channel_rows(extract_channel, trials, descriptors,
                                                   BLOCK_SEG))

    def test_trials_of_two_lengths_equal_the_stacked_per_trial_sets(self):
        trials = noise_trials(5, [30, 20, 20, 30, 12], channels=2)
        descriptors = parse_features("rms,wamp:threshold=0.5,hemg:limit=2,ar:order=2,mmnf")
        whole = extract_window_set(trials, 1000.0, descriptors, BLOCK_SEG, ["a", "b"])
        parts = [extract_window_set([t], 1000.0, descriptors, BLOCK_SEG, ["a", "b"])
                 for t in trials]
        np.testing.assert_array_equal(whole.features, np.vstack([p.features for p in parts]))
        np.testing.assert_array_equal(whole.labels, np.concatenate([p.labels for p in parts]))
        np.testing.assert_array_equal(whole.window_start_ms,
                                      np.concatenate([p.window_start_ms for p in parts]))
        assert whole.trial_ids == [tid for p in parts for tid in p.trial_ids]
        assert whole.feature_names == parts[0].feature_names
        # 8-sample windows every 2 samples: 12, 7, 7, 12 and 3 windows
        assert whole.trial_rows.tolist() == [0, 12, 19, 26, 38, 41]
        for i, p in enumerate(parts):
            assert p.trial_rows.tolist() == [0, len(p)]
            np.testing.assert_array_equal(
                whole.features[whole.trial_rows[i]:whole.trial_rows[i + 1]], p.features)

    def test_a_short_trial_or_a_mixed_layout_is_rejected(self):
        trials = noise_trials(6, [20, 6], channels=2)
        with pytest.raises(ValueError, match="signal too short to segment"):
            extract_window_set(trials, 1000.0, parse_features("rms"), BLOCK_SEG, ["a", "b"])
        mixed = noise_trials(6, [20], channels=2) + noise_trials(7, [20], channels=1)
        with pytest.raises(ValueError, match="one channel layout"):
            extract_window_set(mixed, 1000.0, parse_features("rms"), BLOCK_SEG, ["a", "b"])

    def test_a_label_outside_the_class_names_is_named(self):
        trials = noise_trials(6, [20, 20], channels=1)
        trials[1] = replace(trials[1], label="hand_open")
        with patch.object(recognition, "_columns") as stack:
            with pytest.raises(ValueError,
                               match="^trial t1: label 'hand_open' is not a class name$"):
                extract_window_set(trials, 1000.0, parse_features("rms"), BLOCK_SEG,
                                   ["a", "b"])
        stack.assert_not_called()  # refused before any extraction

    def test_the_first_faulty_signal_is_named_from_one_extraction(self):
        # Trials t0..t2 of 2 channels stack into one block. t1's ch1 is all
        # zero (AR singular, no spectral mass) and t2's ch0 holds a NaN (no
        # histogram bin, no spectral mass): t1's ch1 comes first in (trial,
        # channel) order, and its first faulty descriptor in order names it.
        trials = noise_trials(8, [20, 20, 20], channels=2)
        trials[1].data[:, 1] = 0.0
        trials[2].data[5, 0] = np.nan
        calls = []

        def counted(descriptors, stack, width, slide, rate):
            calls.append(stack.shape)
            return registry._columns(descriptors, stack, width, slide, rate)

        for features, message in [
            ("rms,hemg:limit=2,ar,mnf", "window is identically zero; autocorrelation is singular"),
            ("rms,mnf,ar", "spectrum has no mass; mean/median frequency undefined"),
        ]:
            calls.clear()
            with patch.object(recognition, "_columns", counted):
                with pytest.raises(ValueError, match=f"^trial t1, channel ch1: {message}$"):
                    extract_window_set(trials, 1000.0, parse_features(features), BLOCK_SEG,
                                       ["a", "b"])
            assert calls == [(6, 20)]
        trials[1].data[:, 1] = 1.0  # now only t2's NaN is a fault
        with pytest.raises(ValueError,
                           match="^trial t2, channel ch0: window holds a non-finite sample$"):
            extract_window_set(trials, 1000.0, parse_features("rms,hemg:limit=2,mnf"), BLOCK_SEG,
                               ["a", "b"])


class TestInPlaceBlocks:
    """A block of one trial's channels is read from that trial's samples, in place."""

    # 2 trials of 3 channels, 9 s at 1 kHz: 137 windows of 256 samples per
    # channel, so two channels (70,144 window samples) overflow a block.
    CHANNEL_SAMPLES = 137 * 256

    @pytest.fixture(scope="class")
    def trials(self, tmp_path_factory):
        dataset = small_dataset(n_classes=2, trials_per_class=1, seed=4, channels=3,
                                trial_ms=9000)
        return load_dataset(save_dataset(dataset, tmp_path_factory.mktemp("long"))).trials

    @pytest.mark.parametrize("budget, shapes, in_place", [
        (registry._BLOCK_SAMPLES, [(1, 8960)] * 6, True),   # each channel fills a block
        (3 * CHANNEL_SAMPLES, [(3, 8960)] * 2, True),       # one block per trial
        (6 * CHANNEL_SAMPLES, [(6, 8960)], False),          # one block over both trials
    ], ids=["channel", "trial", "both-trials"])
    def test_one_trial_blocks_share_its_memory(self, trials, budget, shapes, in_place):
        stacks = []

        def recorded(descriptors, stack, width, slide, rate):
            stacks.append(stack)
            return registry._columns(descriptors, stack, width, slide, rate)

        descriptors = parse_features("rms,mav,wl,zc,hemg:limit=200,ar:order=2,mnf,mmdf")
        with patch.object(registry, "_BLOCK_SAMPLES", budget), \
                patch.object(recognition, "_columns", recorded):
            windows = extract_window_set(trials, 1000.0, descriptors, SEG,
                                         ["hand_open", "hand_close"])
        assert [stack.shape for stack in stacks] == shapes
        for stack in stacks:
            owners = [np.shares_memory(stack, t.data) for t in trials]
            assert owners.count(True) == (1 if in_place else 0)
        np.testing.assert_array_equal(
            windows.features, per_channel_rows(extract_segments, trials, descriptors, SEG))


class TestLdaTrain:
    def test_symmetric_1d_boundary_at_zero(self):
        X = [[-1.02], [-0.98], [-1.0], [0.98], [1.02], [1.0]]
        model = lda_train(X, [0, 0, 0, 1, 1, 1], ["neg", "pos"])
        assert top_class(model, [-0.1]) == "neg"
        assert top_class(model, [0.1]) == "pos"

    def test_means_match_per_class_sample_means(self):
        rng = np.random.default_rng(20)
        X = np.vstack([rng.normal(0, 1, (30, 3)), rng.normal(4, 1, (25, 3))])
        labels = np.array([0] * 30 + [1] * 25)
        model = lda_train(X, labels, ["a", "b"])
        np.testing.assert_array_equal(model.means[0], X[:30].mean(axis=0))
        np.testing.assert_array_equal(model.means[1], X[30:].mean(axis=0))
        np.testing.assert_allclose(model.priors, [30 / 55, 25 / 55])

    def test_class_missing_from_the_training_data(self):
        # Classes 0 and 2 present, class 1 absent: the model covers the two present.
        X = np.array([[0.0, 1.0], [0.5, 1.5], [0.2, 0.9], [4.0, 3.0], [4.5, 3.5]])
        labels = np.array([0, 0, 0, 2, 2])
        model = lda_train(X, labels, ["a", "b", "c"])
        assert model.class_names == ["a", "c"]
        np.testing.assert_array_equal(model.means[0], X[:3].mean(axis=0))
        np.testing.assert_array_equal(model.means[1], X[3:].mean(axis=0))
        np.testing.assert_array_equal(model.priors, [3 / 5, 2 / 5])
        assert top_class(model, [4.2, 3.2]) == "c"

    def test_needs_two_windows_per_class(self):
        with pytest.raises(ValueError, match="at least 2"):
            lda_train([[0.0], [1.0], [2.0]], [0, 1, 1], ["a", "b"])

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="2 classes"):
            lda_train([[0.0], [1.0]], [0, 0], ["a", "b"])

    def test_constant_features_are_refused(self):
        # A zero pooled covariance has no trace to scale the ridge by.
        with pytest.raises(ValueError, match="^features have zero variance; "
                                             "covariance is degenerate$"):
            lda_train([[1.0, 2.0]] * 2 + [[3.0, 4.0]] * 2, [0, 0, 1, 1], ["a", "b"])

    def test_constant_features_are_refused_at_zero_ridge(self):
        # The zero trace is checked whatever the ridge, before the solve.
        with pytest.raises(ValueError, match="^features have zero variance; "
                                             "covariance is degenerate$"):
            lda_train([[1.0, 2.0]] * 2 + [[3.0, 4.0]] * 2, [0, 0, 1, 1], ["a", "b"], ridge=0)

    def test_collinear_features_are_refused_at_zero_ridge(self):
        # [x, 2x] with small whole x: the pooled covariance is exactly singular.
        x = np.array([1.0, 2.0, 4.0, 7.0, 3.0, 5.0])
        features, labels = np.c_[x, 2 * x], [0, 0, 0, 1, 1, 1]
        with pytest.raises(ValueError, match="^pooled within-class covariance is singular"):
            lda_train(features, labels, ["a", "b"], ridge=0)
        assert lda_train(features, labels, ["a", "b"]).class_names == ["a", "b"]

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            lda_train([[np.nan], [1.0], [0.5], [0.2]], [0, 0, 1, 1], ["a", "b"])

    def test_a_1d_matrix_or_a_label_per_row_missing_is_rejected(self):
        with pytest.raises(ValueError, match="2-D matrix"):
            lda_train([0.0, 0.1, 1.0, 1.1], [0, 0, 1, 1], ["a", "b"])
        with pytest.raises(ValueError, match="labels must match row count"):
            lda_train([[0.0], [0.1], [1.0], [1.1]], [0, 0, 1], ["a", "b"])

    @pytest.mark.parametrize("labels, bad", [([0, 0, 5, 5], 5), ([0, 0, -1, -1], -1),
                                             ([0, 2, 1, 1], 2)])
    def test_a_label_outside_the_class_names_is_rejected(self, labels, bad):
        with pytest.raises(ValueError, match=f"^label {bad} is not an index into 2 class names$"):
            lda_train([[0.0], [0.1], [1.0], [1.1]], labels, ["a", "b"])


class TestLdaPredict:
    def test_class_mean_maps_to_its_class(self):
        rng = np.random.default_rng(21)
        X = np.vstack([rng.normal(-5, 0.5, (20, 2)), rng.normal(5, 0.5, (20, 2))])
        labels = np.array([0] * 20 + [1] * 20)
        model = lda_train(X, labels, ["a", "b"])
        assert top_class(model, model.means[0]) == "a"
        assert top_class(model, model.means[1]) == "b"

    def test_midpoint_tie_breaks_to_lowest_index(self):
        X = [[-1.1], [-0.9], [0.9], [1.1]]  # means exactly -1 and +1
        model = lda_train(X, [0, 0, 1, 1], ["first", "second"], ridge=0.0)
        assert top_class(model, [0.0]) == "first"

    def test_identical_class_distributions_fall_to_tie_break(self):
        X = [[1.0], [2.0], [1.0], [2.0]]
        model = lda_train(X, [0, 0, 1, 1], ["a", "b"])
        assert top_class(model, [1.5]) == "a"

    def test_well_separated_blobs_above_99_percent(self):
        rng = np.random.default_rng(22)
        train_a = rng.normal(0.0, 1.0, (250, 2))
        train_b = rng.normal(6.0, 1.0, (250, 2))  # 6 sigma apart
        X = np.vstack([train_a, train_b])
        labels = np.array([0] * 250 + [1] * 250)
        model = lda_train(X, labels, ["a", "b"])
        test = np.vstack([rng.normal(0.0, 1.0, (250, 2)), rng.normal(6.0, 1.0, (250, 2))])
        truth = np.array([0] * 250 + [1] * 250)
        pred = np.argmax(lda_scores(model, test), axis=1)
        assert np.mean(pred == truth) >= 0.99

    def test_dimension_mismatch_rejected(self):
        model = lda_train([[0.0], [0.1], [1.0], [1.1]], [0, 0, 1, 1], ["a", "b"])
        with pytest.raises(ValueError, match="expected 1 features"):
            lda_scores(model, [0.0, 1.0])

    def test_affine_invariance_at_zero_ridge(self):
        rng = np.random.default_rng(23)
        X = np.vstack([rng.normal(0, 1, (40, 2)), rng.normal(5, 1, (40, 2))])
        labels = np.array([0] * 40 + [1] * 40)
        test = rng.normal(2.5, 2.0, (200, 2))
        M = np.array([[2.0, 0.3], [-0.5, 1.5]])
        b = np.array([7.0, -4.0])
        base = lda_train(X, labels, ["a", "b"], ridge=0.0)
        mapped = lda_train(X @ M.T + b, labels, ["a", "b"], ridge=0.0)
        pred_base = np.argmax(lda_scores(base, test), axis=1)
        pred_mapped = np.argmax(lda_scores(mapped, test @ M.T + b), axis=1)
        np.testing.assert_array_equal(pred_base, pred_mapped)


class TestMajorityVote:
    def test_hand_example(self):
        assert majority_vote(list("AABAA"), 3) == list("AAAAA")

    def test_identities(self):
        assert majority_vote(["x"] * 7, 5) == ["x"] * 7
        stream = list("ABCABC")
        assert majority_vote(stream, 1) == stream

    def test_tie_keeps_raw_label(self):
        assert majority_vote(list("AB"), 3) == list("AB")
        assert majority_vote(list("ABBA"), 3) == list("ABBA")

    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            majority_vote(list("AAA"), 2)

    @given(st.lists(st.sampled_from("ABC"), min_size=1, max_size=40),
           st.sampled_from([1, 3, 5, 7]))
    @settings(max_examples=100, deadline=None)
    def test_never_invents_labels(self, stream, window):
        out = majority_vote(stream, window)
        assert len(out) == len(stream)
        half = window // 2
        for i, label in enumerate(out):
            assert label in stream[max(0, i - half):i + half + 1]

    @given(st.lists(st.integers(0, 4), max_size=60),
           st.sampled_from([1, 3, 5, 7, 9, 11]))
    @example([], 5)
    @settings(max_examples=300, deadline=None)
    def test_matches_counter_reference(self, stream, window):
        assert majority_vote(stream, window) == counter_majority_vote(stream, window)


class TestLeaveOneOut:
    def test_identical_trials_score_100(self):
        base = small_dataset(n_classes=2, trials_per_class=1, seed=1)
        trials = []
        for t in base.trials:
            for copy_idx in (1, 2):
                trials.append(Trial(
                    trial_id=f"{t.trial_id}_copy{copy_idx}", label=t.label,
                    subject=t.subject, group=t.group, channels=t.channels,
                    data=t.data.copy()))
        dataset = Dataset(classes=base.classes, rate=base.rate, trials=trials)
        report = leave_one_out(dataset, parse_features("rms,mmnf"), SEG)
        assert report.cr == 100.0

    def test_each_window_tested_exactly_once(self):
        dataset = small_dataset(n_classes=2, trials_per_class=2, seed=2)
        features = parse_features("rms")
        report = leave_one_out(dataset, features, SEG)
        assert len(report.fold_crs) == len(dataset.trials)
        ws = extract_window_set(dataset.trials, dataset.rate, features, SEG,
                                dataset.classes)
        assert len(report.decisions) == len(ws)
        assert int(report.confusion.sum()) == len(ws)

    def test_confusion_accounting(self):
        dataset = small_dataset(n_classes=3, trials_per_class=2, seed=3)
        report = leave_one_out(dataset, parse_features("rms,mmnf"), SEG)
        assert report.cr == pytest.approx(
            100.0 * np.trace(report.confusion) / report.confusion.sum())
        # Rows sum to the number of windows of each true class.
        features = parse_features("rms,mmnf")
        ws = extract_window_set(dataset.trials, dataset.rate, features, SEG,
                                dataset.classes)
        per_class = np.bincount(ws.labels, minlength=len(dataset.classes))
        np.testing.assert_array_equal(report.confusion.sum(axis=1), per_class)

    def test_confusion_and_fold_crs_count_the_decision_stream(self):
        # Shuffled labels leave errors in every row, so off-diagonal cells count too.
        dataset = small_dataset(n_classes=3, trials_per_class=3, seed=5)
        labels = [t.label for t in dataset.trials]
        np.random.default_rng(1).shuffle(labels)
        shuffled = Dataset(
            classes=dataset.classes, rate=dataset.rate,
            trials=[Trial(trial_id=t.trial_id, label=lab, subject=t.subject,
                          group=t.group, channels=t.channels, data=t.data)
                    for t, lab in zip(dataset.trials, labels)])
        report = leave_one_out(shuffled, parse_features("rms,mmnf"), SEG, vote_window=3)
        dec = report.decisions
        confusion = np.zeros_like(report.confusion)
        fold_crs = []
        for trial, a, b in zip(shuffled.trials, dec.offsets[:-1], dec.offsets[1:]):
            hits = []
            for true, mv in zip(dec.true[a:b], dec.mv[a:b]):
                assert report.class_names[true] == trial.label
                confusion[true, mv] += 1
                hits.append(mv == true)
            fold_crs.append((trial.trial_id, 100.0 * sum(hits) / len(hits)))
        assert dec.offsets[-1] == len(dec)
        assert np.count_nonzero(confusion - np.diag(np.diag(confusion))) > 0
        np.testing.assert_array_equal(report.confusion, confusion)
        assert report.fold_crs == fold_crs

    def test_decision_streams_compare_every_column(self):
        dataset = small_dataset(n_classes=2, trials_per_class=2, seed=7)
        decisions = leave_one_out(dataset, parse_features("rms"), SEG).decisions
        assert decisions == replace(decisions)
        assert decisions != [decisions]
        for column in fields(decisions):
            changed = getattr(decisions, column.name).copy()
            changed[-1] += 1
            assert decisions != replace(decisions, **{column.name: changed})

    def test_permuted_labels_score_at_chance(self):
        dataset = small_dataset(n_classes=4, trials_per_class=6, seed=4)
        rng = np.random.default_rng(0)
        labels = [t.label for t in dataset.trials]
        rng.shuffle(labels)
        shuffled = Dataset(
            classes=dataset.classes, rate=dataset.rate,
            trials=[Trial(trial_id=t.trial_id, label=lab, subject=t.subject,
                          group=t.group, channels=t.channels, data=t.data)
                    for t, lab in zip(dataset.trials, labels)])
        report = leave_one_out(shuffled, parse_features("rms,mmnf"), SEG,
                               vote_window=1)
        assert report.cr == pytest.approx(25.0, abs=5.0)

    def test_single_trial_rejected(self):
        dataset = small_dataset(n_classes=2, trials_per_class=1, seed=5)
        lonely = Dataset(classes=dataset.classes, rate=dataset.rate,
                         trials=dataset.trials[:1])
        with pytest.raises(ValueError, match="at least 2 trials"):
            leave_one_out(lonely, parse_features("rms"), SEG)

    def test_class_with_one_trial_rejected(self):
        dataset = small_dataset(n_classes=2, trials_per_class=1, seed=6)
        with pytest.raises(ValueError, match=">= 2 trials"):
            leave_one_out(dataset, parse_features("rms"), SEG)

    def test_deterministic_under_noise(self):
        dataset = small_dataset(n_classes=2, trials_per_class=2, seed=7)
        features = parse_features("rms,mmnf")
        a = leave_one_out(dataset, features, SEG, noise_snr_db=10.0, noise_seed=5)
        b = leave_one_out(dataset, features, SEG, noise_snr_db=10.0, noise_seed=5)
        assert a.cr == b.cr
        np.testing.assert_array_equal(a.confusion, b.confusion)
        assert a.decisions == b.decisions

    def test_held_out_trial_never_shapes_the_model(self):
        # Mutation test: distorting the held-out trial's raw data must leave
        # the fold's trained model bit-identical.
        dataset = small_dataset(n_classes=2, trials_per_class=2, seed=8)
        features = parse_features("hemg,wamp,mmnf")
        held_out = dataset.trials[0].trial_id
        model_a, _ = fold_model(dataset, features, 0)
        mutated_trials = [
            Trial(trial_id=t.trial_id, label=t.label, subject=t.subject,
                  group=t.group, channels=t.channels,
                  data=t.data * 5.0 + 3.0 if t.trial_id == held_out else t.data)
            for t in dataset.trials
        ]
        mutated = Dataset(classes=dataset.classes, rate=dataset.rate,
                          trials=mutated_trials)
        model_b, _ = fold_model(mutated, features, 0)
        np.testing.assert_array_equal(model_a.means, model_b.means)
        np.testing.assert_array_equal(model_a.covariance, model_b.covariance)
        np.testing.assert_array_equal(model_a.priors, model_b.priors)

    def test_held_out_trial_never_shapes_the_model_through_leave_one_out(
            self, monkeypatch):
        # Distort fold 0's held-out trial and go through the shared fold
        # path leave_one_out takes: fold 0's model is the first one fitted.
        dataset = small_dataset(n_classes=2, trials_per_class=2, seed=8)
        features = parse_features("hemg,wamp,mmnf")
        fitted = []

        def recording_lda_train(features, labels, class_names, ridge=DEFAULT_RIDGE):
            fitted.append(lda_train(features, labels, class_names, ridge=ridge))
            return fitted[-1]

        monkeypatch.setattr(recognition, "lda_train", recording_lda_train)
        leave_one_out(dataset, features, SEG)
        model_a = fitted[0]
        mutated = Dataset(classes=dataset.classes, rate=dataset.rate,
                          trials=[scaled_trial(dataset.trials[0], 5.0)]
                          + dataset.trials[1:])
        fitted.clear()
        leave_one_out(mutated, features, SEG)
        assert_same_model(model_a, fitted[0])


class TestCachedFolds:
    """Folds and feature sets share each trial's extraction and still give the
    models and reports of a fresh extraction."""

    def peak_dataset(self):
        # Trial 2 is scaled up so it alone holds the global peak: its fold
        # resolves a smaller HEMG range than every other fold.
        base = small_dataset(n_classes=2, trials_per_class=3, seed=12, channels=2)
        trials = list(base.trials)
        trials[2] = scaled_trial(trials[2], 3.0)
        return Dataset(classes=base.classes, rate=base.rate, trials=trials)

    def test_every_fold_matches_brute_force(self):
        dataset = self.peak_dataset()
        features = parse_features("mmnf,hemg,wamp")
        folds, *_ = _train_folds(dataset, [features, parse_features("rms,hemg:bins=5")],
                                 range(len(dataset.trials)), SEG)
        limits = set()
        for i, (trial, (model, resolved, _)) in enumerate(zip(dataset.trials, folds[0])):
            fresh_model, fresh_resolved = fold_model(dataset, features, i)
            assert resolved == fresh_resolved
            assert_same_model(model, fresh_model)
            # The same fold, resolved and extracted from the raw training trials.
            train = [t for t in dataset.trials if t is not trial]
            brute = resolve_hemg_peak(features, scan_peak(t.data[:, ch] for t in train
                                                          for ch in range(len(t.channels))))
            assert resolved == brute
            fresh = extract_window_set(train, dataset.rate, brute, SEG, dataset.classes)
            assert_same_model(model, lda_train(fresh.features, fresh.labels, dataset.classes))
            limits.add(tuple(resolved))
        assert len(limits) == 2

    @pytest.mark.parametrize("nan_at", [None, (2, 1), (4, 0), (1, 1)])
    def test_fold_peaks_equal_the_scalar_scan(self, nan_at):
        peaks = np.random.default_rng(30).uniform(1.0, 50.0, (6, 2))
        peaks[1, 0] = 80.0  # trial 1 holds the peak
        if nan_at is not None:
            peaks[nan_at] = np.nan  # a channel with a NaN sample peaks at NaN
        train = np.arange(6) != np.arange(6)[:, np.newaxis]
        # Two samples per channel, the peak and a smaller one of opposite sign.
        fold_peaks = peak_amplitude([np.vstack([-p, p / 2]) for p in peaks], train)
        hemg = parse_features("hemg")
        for mask, peak in zip(train, fold_peaks.tolist()):
            assert resolve_hemg_peak(hemg, peak) == \
                resolve_hemg_peak(hemg, scan_peak(peaks[mask].ravel()))
        # Every other fold trains on trial 1; its own fold resolves from the rest.
        assert fold_peaks[0] == 80.0
        assert fold_peaks[1] == np.nanmax(np.delete(peaks, 1, axis=0)) < 80.0

    def test_all_zero_fold_still_raises(self):
        base = small_dataset(n_classes=2, trials_per_class=2, seed=12)
        trials = [base.trials[0]] + [scaled_trial(t, 0.0) for t in base.trials[1:]]
        dataset = Dataset(classes=base.classes, rate=base.rate, trials=trials)
        with pytest.raises(ValueError, match="all zero"):
            _train_folds(dataset, [parse_features("hemg")], range(len(trials)), SEG)

    def test_feature_set_cells_equal_leave_one_out(self):
        dataset = self.peak_dataset()
        sets = {"robust": parse_features("mmnf,hemg,wamp"),
                "amplitude": parse_features("rms,wl"),
                # a and b share wamp with each other and hemg with robust.
                "a": parse_features("hemg,wamp"),
                "b": parse_features("wamp,rms")}
        levels = [None, 20.0, 10.0]
        table = evaluate_feature_sets(dataset, sets, levels, SEG, seed=4)
        assert list(table.reports) == [(name, table.level_label(level))
                                       for name in sets for level in levels]
        for s_idx, (name, features) in enumerate(sets.items()):
            for l_idx, level in enumerate(levels):
                direct = leave_one_out(dataset, features, SEG, noise_snr_db=level,
                                       noise_seed=derive_seed(4, l_idx))
                cell = table.reports[name, table.level_label(level)]
                assert table.cr[s_idx, l_idx] == direct.cr == cell.cr
                np.testing.assert_array_equal(cell.confusion, direct.confusion)
                assert cell.fold_crs == direct.fold_crs
                assert cell.decisions == direct.decisions

    @pytest.mark.parametrize("set_names", [["robust"], ["hudgins", "oskoei", "robust"]])
    def test_one_extraction_per_trial_and_level(self, monkeypatch, set_names):
        dataset = self.peak_dataset()
        levels = [[]]  # the (trial ids, descriptors) of each call, level by level

        def counting_extract(trials, rate, descriptors, *args):
            levels[-1].append(([t.trial_id for t in trials], descriptors))
            return extract_window_set(trials, rate, descriptors, *args)

        def marking_test_trials(*args):
            levels.append([])
            return _test_trials(*args)

        monkeypatch.setattr(recognition, "extract_window_set", counting_extract)
        monkeypatch.setattr(recognition, "_test_trials", marking_test_trials)
        sets = dict(map(feature_set, set_names))
        evaluate_feature_sets(dataset, sets, [None, 20.0, 10.0], SEG, seed=1)
        ids = [t.trial_id for t in dataset.trials]
        # one call per level, over every trial once, in trial order
        assert [[trial_ids for trial_ids, _ in calls] for calls in levels] == [[ids]] * 3
        # every level extracts one union: trial 2's fold resolves its own HEMG
        # range, so every trial also gets that range's columns
        unions = [descriptors for calls in levels for _, descriptors in calls]
        assert unions == [unions[0]] * 3
        assert [d.name for d in unions[0]].count("hemg") == 2

    def test_noisy_trials_equal_inject_at_snr(self):
        dataset = small_dataset(n_classes=2, trials_per_class=2, seed=13, channels=3)
        level_seed = derive_seed(6, 1)
        noisy = _test_trials(dataset, 15.0, level_seed)
        assert [t.trial_id for t in noisy] == [t.trial_id for t in dataset.trials]
        for fold, (trial, tested) in enumerate(zip(dataset.trials, noisy)):
            assert (tested.label, tested.channels) == (trial.label, trial.channels)
            for ch in range(len(trial.channels)):
                seed = derive_seed(level_seed, fold, ch)
                expected = reference_injection(trial.data[:, ch], 15.0, seed)
                np.testing.assert_array_equal(tested.data[:, ch], expected)

    def test_non_finite_snr_rejected(self):
        dataset = small_dataset(n_classes=2, trials_per_class=2, seed=14)
        with pytest.raises(ValueError, match="snr_db must be finite"):
            leave_one_out(dataset, parse_features("rms"), SEG, noise_snr_db=np.inf)
        with pytest.raises(ValueError, match="^SNR -4000 dB is too low"):
            leave_one_out(dataset, parse_features("rms"), SEG, noise_snr_db=-4000.0)


class TestDecisionStreamOracle:
    """Class-code scoring and the decision CSVs give what per-window label
    records written through csv.writer give."""

    @staticmethod
    def quoted_dataset(spike_trial=None):
        # Names that csv must quote, overlapping bands so that decisions mix,
        # and a declared class no trial has, so every model's class list
        # skips dataset code 0.
        specs = (ClassSpec(name="hand, open", band=(30.0, 140.0), amplitude=50.0),
                 ClassSpec(name='say "hi"', band=(80.0, 200.0), amplitude=50.0),
                 ClassSpec(name="plain", band=(150.0, 300.0), amplitude=50.0))
        base = synthesize_emg(SynthConfig(classes=specs, channels=2, trials_per_class=2,
                                          trial_ms=1500, seed=15))
        if spike_trial is not None:
            # One sample at 10x the class RMS: every fold that trains on this
            # trial resolves a HEMG range of 500, the fold that holds it out
            # one of 205.1, and the hemg set's decisions on that fold depend
            # on which range it is scored at.
            base.trials[spike_trial].data[200, 0] = 500.0
        return Dataset(classes=["unused"] + base.classes, rate=base.rate,
                       trials=base.trials)

    @pytest.mark.parametrize("vote_window, levels, tied, spike_trial", [
        (5, [None, 20.0], False, None),
        (1, [None, 10.0], False, None),
        (3, [0.0, -5.0], True, None),     # mixed decisions: some windows tie
        (5, [20.0, 10.0], False, None),   # no clean level
        (5, [None, 20.0], False, 3),      # one fold's range differs from the others'
    ])
    def test_reports_and_csv_bytes_equal_the_per_window_loop(
            self, monkeypatch, tmp_path, vote_window, levels, tied, spike_trial):
        dataset = self.quoted_dataset(spike_trial)
        oracle = []
        score = recognition._score_folds

        def scoring_both(folds, *args):
            # sets are scored level by level; the oracle draws its own noisy trials
            l_idx = len(oracle) // len(sets)
            tested = (dataset.trials if levels[l_idx] is None
                      else _test_trials(dataset, levels[l_idx], derive_seed(3, l_idx)))
            oracle.append(reference_score_folds(dataset, folds, tested, vote_window))
            return score(folds, *args)

        monkeypatch.setattr(recognition, "_score_folds", scoring_both)
        # hemg alone: its decisions move with the HEMG range each fold resolves
        # (205.1, or 180.3 for the fold holding out the peak trial, on the
        # unspiked data), where the robust set's do not.
        sets = {"robust": parse_features("mmnf,hemg,wamp"), "amp": parse_features("rms,wl"),
                "hemg": parse_features("hemg")}
        table = evaluate_feature_sets(dataset, sets, levels, SEG, vote_window=vote_window,
                                      seed=3)
        paths = decisions_to_csv(table, tmp_path / "new")
        cells = [(name, table.level_label(level)) for level in levels for name in sets]
        assert len(oracle) == len(cells)
        assert paths == [tmp_path / f"new_decisions_{name}_{label}.csv"
                         for name, label in table.reports]
        ties = 0
        for (name, label), (cr, confusion, fold_crs, records) in zip(cells, oracle):
            report = table.reports[name, label]
            assert report.cr == cr
            np.testing.assert_array_equal(report.confusion, confusion)
            assert report.fold_crs == fold_crs
            assert len(report.decisions) == len(records)
            expected = reference_decisions_csv(records, tmp_path / f"ref_{name}_{label}.csv")
            got = tmp_path / f"new_decisions_{name}_{label}.csv"
            assert got.read_bytes() == expected.read_bytes()
            for trial in dataset.trials:
                ties += tied_windows([r[3] for r in records if r[0] == trial.trial_id],
                                     vote_window)
        assert b'"hand, open"' in got.read_bytes() and b'"say ""hi"""' in got.read_bytes()
        assert ties > 0 or not tied


class TestSeparability:
    def test_disjoint_bands_separate_on_mean_frequency_alone(self):
        # Two classes whose spectra do not overlap: the power-spectrum
        # centroid by itself should be enough for near-perfect recognition.
        from myobench.dataio import ClassSpec
        specs = (
            ClassSpec(name="hand_open", band=(30.0, 120.0), amplitude=50.0),
            ClassSpec(name="hand_close", band=(250.0, 400.0), amplitude=50.0),
        )
        dataset = synthesize_emg(SynthConfig(classes=specs, channels=1,
                                             trials_per_class=3, trial_ms=1500,
                                             seed=11))
        report = leave_one_out(dataset, parse_features("mnf"), SEG)
        assert report.cr >= 95.0


class TestEvaluateFeatureSets:
    def test_table_shape_and_clean_column(self):
        dataset = small_dataset(n_classes=2, trials_per_class=2, seed=9)
        sets = {
            "robust": parse_features("hemg,wamp,mmnf"),
            "amplitude": parse_features("rms"),
            "spectral": parse_features("mmnf,mdf"),
        }
        levels = [None, 20.0, 15.0, 10.0]
        table = evaluate_feature_sets(dataset, sets, levels, SEG, seed=1)
        assert table.cr.shape == (3, 4)
        assert np.all((table.cr >= 0) & (table.cr <= 100))
        clean_direct = leave_one_out(dataset, sets["robust"], SEG)
        assert table.cr[0, 0] == clean_direct.cr

    @pytest.mark.parametrize("levels, repeated", [
        ([None, 20.0, None], "clean"),
        ([20.0, 20], "20dB"),
        ([0.0, -0.0], "-0dB"),
    ])
    def test_repeated_level_label_rejected(self, levels, repeated):
        dataset = small_dataset(n_classes=2, trials_per_class=2, seed=10)
        with pytest.raises(ValueError, match=f"noise level {repeated} is repeated"):
            evaluate_feature_sets(dataset, {"a": parse_features("rms")}, levels, SEG)

    @pytest.mark.parametrize("level, label", [
        (None, "clean"), (20.0, "20dB"), (20, "20dB"), (-5.0, "-5dB"), (2.5, "2.5dB"),
        (20.000001, "20.000001dB"), (1 / 3, "0.3333333333333333dB"),
        (1234567.0, "1234567.0dB"), (np.float64(20.000001), "20.000001dB")])
    def test_level_label_reads_back_as_its_level(self, level, label):
        assert CrTable.level_label(level) == label
        if level is not None:
            assert float(label[:-len("dB")]) == level

    @pytest.mark.parametrize("vote_window", [4, 0, -3])
    def test_bad_vote_window_fails_before_any_extraction(self, monkeypatch, vote_window):
        dataset = small_dataset(n_classes=2, trials_per_class=2, seed=10)
        calls = []
        monkeypatch.setattr(recognition, "extract_window_set",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="odd positive count"):
            evaluate_feature_sets(dataset, {"a": parse_features("rms")}, [None, 20.0], SEG,
                                  vote_window=vote_window)
        with pytest.raises(ValueError, match="odd positive count"):
            leave_one_out(dataset, parse_features("rms"), SEG, vote_window=vote_window)
        assert calls == []

    def test_requires_sets_and_levels(self):
        dataset = small_dataset(n_classes=2, trials_per_class=2, seed=10)
        with pytest.raises(ValueError):
            evaluate_feature_sets(dataset, {}, [None], SEG)
        with pytest.raises(ValueError):
            evaluate_feature_sets(dataset, {"a": parse_features("rms")}, [], SEG)

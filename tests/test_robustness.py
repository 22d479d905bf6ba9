"""Percentage-error benchmark: counting, determinism, exclusions, trends."""
import csv
import json
import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from scipy import signal as sps

from myobench import noise, registry, robustness
from myobench.cli import _parse_sweep
from myobench.dataio import (Dataset, SynthConfig, Trial, csv_rows, default_class_specs,
                             synthesize_emg, write_output)
from myobench.noise import derive_seed
from myobench.registry import (default_panel, extract, make_descriptor, parse_features,
                               resolve_hemg_peak)
from myobench.robustness import (GridRow, RobustnessConfig, grid_csv_rows, grid_json_rows,
                                 percentage_error, run_grid)
from myobench.signals import SegmentationConfig
from myobench.time_features import rms
from wgn_reference import reference_injection


def band_limited(rng, n=256, band=(20.0, 450.0), amp=50.0, rate=1000.0):
    sos = sps.butter(4, band, btype="bandpass", fs=rate, output="sos")
    x = sps.sosfiltfilt(sos, rng.standard_normal(n + 512))[256:256 + n]
    return x * (amp / np.sqrt(np.mean(x * x)))


# At 1 kHz the default segmentation cuts 256-sample windows, so a 256-sample
# one-channel trial is one record of the grid.
SEG = SegmentationConfig()


def record_trial(samples, trial_id, motion, group="strong"):
    """A one-channel trial of ``samples``; at 256 samples, one record."""
    return Trial(trial_id=trial_id, label=motion, subject="s0", group=group,
                 channels=["ch1"], data=np.asarray(samples)[:, np.newaxis])


def records_dataset(trials):
    """A 1 kHz dataset of one-channel trials, whose records run_grid takes in order."""
    return Dataset(classes=sorted({t.label for t in trials}), rate=1000.0, trials=list(trials))


def make_records(rng, count=2, amp=50.0):
    return records_dataset([record_trial(band_limited(rng, amp=amp), f"r{i}", f"m{i % 2}")
                            for i in range(count)])


def zero_draws(words, out):
    """``noise.fill_wgn`` with every draw zero: each noisy copy is its clean signal."""
    out.fill(0.0)
    return out


def reference_rows(dataset, features, cfg):
    """Brute-force grid: one reference injection per noisy copy, one extract per feature.

    Every trial of ``dataset`` is one record: one channel, one window. Each
    (record, feature) pair's PEs are listed in (SNR, repetition) order and
    pooled per (feature, group, motion, SNR) cell in record order. A feature
    whose extraction raises, or whose scalar component is out of range,
    excludes the record, and so does a record of zero power (its SNR is
    undefined) for every feature. The HEMG range is the largest record
    peak, a NaN peak skipped.
    """
    records = dataset.trials
    assert all(r.data.shape == (SEG.window_samples(dataset.rate), 1) for r in records)
    peak = reduce(max, (float(np.max(np.abs(r.data))) for r in records), 0.0)
    features = resolve_hemg_peak(features, peak)
    reps = cfg.repetitions
    pes = {}  # (feature index, record index) -> (SNR, repetition) PE matrix
    for r_idx, record in enumerate(records):
        samples = record.data[:, 0]
        if not np.any(samples):
            continue
        copies = [samples]
        for s_idx, snr in enumerate(cfg.snr_grid):
            stream_seed = derive_seed(cfg.seed, r_idx, s_idx)
            for rep in range(reps):
                copies.append(reference_injection(samples, snr, stream_seed, rep))
        matrix = np.vstack(copies)
        for d_idx, desc in enumerate(features):
            try:
                values = extract([desc], matrix, dataset.rate)
                if not 1 <= desc.scalar_component <= values.shape[1]:
                    raise ValueError("scalar component out of range")
                values = values[:, desc.scalar_component - 1]
                pes[d_idx, r_idx] = percentage_error(values[0], values[1:]).reshape(-1, reps)
            except ValueError:
                pass
    rows = []
    for d_idx in sorted(range(len(features)), key=lambda d: features[d].name):
        desc = features[d_idx]
        for group, motion in sorted({(r.group, r.label) for r in records}):
            members = [i for i, r in enumerate(records) if (r.group, r.label) == (group, motion)]
            for s_idx in sorted(range(len(cfg.snr_grid)), key=lambda s: -cfg.snr_grid[s]):
                cell, excluded = [], 0
                for r_idx in members:
                    if (d_idx, r_idx) not in pes:
                        excluded += reps
                        continue
                    cell.extend(pes[d_idx, r_idx][s_idx])
                cell = np.array(cell)
                rows.append(GridRow(
                    feature=desc.name, parameters=desc.param_text, group=group,
                    motion=motion, snr_db=cfg.snr_grid[s_idx],
                    mean_pe=float(np.mean(cell)) if cell.size else float("nan"),
                    std_pe=float(np.std(cell)) if cell.size else float("nan"),
                    n=int(cell.size), excluded=excluded,
                ))
    return rows


def same_rows(got, want):
    """Exact row equality, with NaN equal to NaN (an all-excluded cell)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.__dict__.keys() == w.__dict__.keys()
        for key, value in w.__dict__.items():
            if isinstance(value, float) and np.isnan(value):
                assert np.isnan(getattr(g, key)), (key, g, w)
            else:
                assert getattr(g, key) == value, (key, g, w)


class TestPercentageError:
    def test_hand_values(self):
        assert percentage_error(10.0, 9.0) == pytest.approx(10.0)
        assert percentage_error(10.0, 12.0) == pytest.approx(20.0)
        assert percentage_error(5.0, 5.0) == 0.0

    def test_zero_clean_rejected(self):
        with pytest.raises(ValueError, match="zero clean"):
            percentage_error(0.0, 1.0)


class TestRunGrid:
    def test_single_cell_counting(self):
        rng = np.random.default_rng(1)
        records = make_records(rng, count=1)
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=1, seed=0)
        grid = run_grid(records, parse_features("rms"), cfg, SEG)
        assert len(grid.rows) == 1
        row = grid.rows[0]
        assert (row.feature, row.snr_db, row.n, row.excluded) == ("rms", 20.0, 1, 0)
        assert row.mean_pe >= 0

    @pytest.mark.parametrize("tokens", ["rms,zc,rms", "wamp:threshold=10,wamp:threshold=10.0"])
    def test_a_repeated_descriptor_is_refused(self, tokens, monkeypatch):
        # The CLI refuses one before the load; a caller of run_grid gets the same check.
        monkeypatch.setattr(robustness, "segment", None)  # refused before any window is cut
        records = make_records(np.random.default_rng(1), count=1)
        with pytest.raises(ValueError, match=r"^a feature \(or sweep value\) is listed twice$"):
            run_grid(records, parse_features(tokens), RobustnessConfig(), SEG)

    def test_dry_run_gives_zero_pe(self, monkeypatch):
        monkeypatch.setattr(noise, "fill_wgn", zero_draws)
        rng = np.random.default_rng(2)
        records = make_records(rng, count=2)
        cfg = RobustnessConfig(snr_grid=(20.0, 0.0), repetitions=3, seed=0)
        grid = run_grid(records, default_panel(), cfg, SEG)
        for row in grid.rows:
            assert row.mean_pe == 0.0
            assert row.std_pe == 0.0

    def test_bit_exact_determinism(self):
        rng = np.random.default_rng(3)
        records = make_records(rng, count=3)
        cfg = RobustnessConfig(snr_grid=(20.0, 10.0, 0.0), repetitions=4, seed=99)
        first = run_grid(records, default_panel(), cfg, SEG)
        second = run_grid(records, default_panel(), cfg, SEG)
        assert first.rows == second.rows

    def test_more_noise_more_error_for_rms(self):
        rng = np.random.default_rng(4)
        records = make_records(rng, count=1)
        cfg = RobustnessConfig(snr_grid=(20.0, 0.0), repetitions=30, seed=0)
        grid = run_grid(records, parse_features("rms"), cfg, SEG)
        by_snr = {row.snr_db: row.mean_pe for row in grid.rows}
        assert by_snr[0.0] > by_snr[20.0]

    def test_pe_non_negative_everywhere(self):
        rng = np.random.default_rng(5)
        records = make_records(rng, count=2)
        cfg = RobustnessConfig(snr_grid=(10.0, 3.0), repetitions=5, seed=1)
        grid = run_grid(records, default_panel(), cfg, SEG)
        assert all(row.mean_pe >= 0 for row in grid.rows)

    def test_monotone_trend_with_one_violation_allowed(self):
        rng = np.random.default_rng(6)
        records = make_records(rng, count=4)
        cfg = RobustnessConfig(repetitions=15, seed=7)
        grid = run_grid(records, default_panel(), cfg, SEG)
        series: dict[str, dict[float, list]] = {}
        for row in grid.rows:
            series.setdefault(row.feature + row.parameters, {}) \
                  .setdefault(row.snr_db, []).append((row.mean_pe, row.n))
        for key, by_snr in series.items():
            snrs = sorted(by_snr, reverse=True)
            means = []
            for s in snrs:
                cells = by_snr[s]
                total = sum(n for _, n in cells)
                means.append(sum(m * n for m, n in cells) / total if total else 0.0)
            violations = sum(1 for a, b in zip(means, means[1:]) if b < a - 1e-9)
            assert violations <= 1, f"{key}: {means}"

    def test_zero_clean_cells_are_excluded_not_fatal(self):
        # Threshold far above the signal peak: clean WAMP count is 0.
        rng = np.random.default_rng(8)
        records = make_records(rng, count=1, amp=1.0)
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=5, seed=0)
        grid = run_grid(records, [make_descriptor("wamp", {"threshold": 1e6})], cfg, SEG)
        row = grid.rows[0]
        assert row.n == 0
        assert row.excluded == 5
        assert np.isnan(row.mean_pe)

    def test_non_finite_clean_sample_is_an_error(self):
        rng = np.random.default_rng(11)
        records = make_records(rng, count=3)
        records.trials[1].data[10, 0] = np.nan
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=1, seed=0)
        with pytest.raises(ValueError, match="^trial r1, channel ch1: non-finite samples$"):
            run_grid(records, parse_features("rms"), cfg, SEG)

    def test_zero_power_record_is_excluded_for_every_feature(self):
        # Appended last, the flat record leaves every other record's noise
        # stream and the hemg range as they were.
        rng = np.random.default_rng(15)
        records = make_records(rng, count=3)
        flat = record_trial(np.zeros(256), "flat", "m0")
        cfg = RobustnessConfig(snr_grid=(10.0, 20.0, 0.0), repetitions=3, seed=4)
        base = run_grid(records, default_panel(), cfg, SEG)
        grid = run_grid(records_dataset(records.trials + [flat]), default_panel(), cfg, SEG)
        assert len(grid.rows) == len(base.rows)
        for row, before in zip(grid.rows, base.rows):
            extra = 3 if row.motion == "m0" else 0
            same_rows([row], [replace(before, excluded=before.excluded + extra)])

    @pytest.mark.parametrize("tokens", ["rms,hemg:bins=1,mmnf", "rms,mavslp,hemg:bins=1,mmnf"])
    def test_out_of_range_component_excludes_only_its_feature(self, tokens):
        # Without mavslp the joint extraction succeeds; with it (256 samples
        # do not split into 3 segments) each feature is extracted on its own.
        records = make_records(np.random.default_rng(21), count=3)
        features = parse_features(tokens)  # hemg's scalar component 2 of 1 bin
        cfg = RobustnessConfig(snr_grid=(20.0, 5.0), repetitions=3, seed=6)
        grid = run_grid(records, features, cfg, SEG)
        same_rows(grid.rows, reference_rows(records, features, cfg))
        assert grid.unscored.pop(grid.features[-2].label) == \
            "scalar component 2 out of range for 1 components"
        if "mavslp" in tokens:
            assert grid.unscored.pop("mavslp") == \
                "window of 256 samples does not divide into 3 equal segments"
        assert grid.unscored == {}
        assert {row.feature for row in grid.rows if row.n} == {"rms", "mmnf"}

    def test_unscored_reasons(self):
        rng = np.random.default_rng(22)
        flat = records_dataset([record_trial(np.zeros(256), f"flat{i}", "m0")
                                for i in range(2)])
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=2, seed=0)
        grid = run_grid(flat, parse_features("rms,mmnf"), cfg, SEG)
        assert grid.unscored == {"rms": "signal power is zero; SNR is undefined",
                                 "mmnf": "signal power is zero; SNR is undefined"}
        grid = run_grid(make_records(rng, count=2, amp=1.0),
                        parse_features("rms,wamp:threshold=1e6"), cfg, SEG)
        assert grid.unscored == {"wamp(threshold=1e+06)": "its clean value is zero"}
        assert run_grid(make_records(rng, count=2), default_panel(), cfg, SEG).unscored == {}

    def test_group_filter(self):
        rng = np.random.default_rng(9)
        records = records_dataset(make_records(rng, count=2).trials + [
            record_trial(band_limited(rng, amp=10.0), "w0", "m0", group="weak")])
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=1, seed=0,
                               groups=("weak",))
        grid = run_grid(records, parse_features("rms"), cfg, SEG)
        assert {row.group for row in grid.rows} == {"weak"}

    def test_lower_amplitude_suffers_more_at_fixed_noise_power(self):
        # Same absolute noise on a weak and a strong signal: the weak one's
        # feature moves further in relative terms.
        rng = np.random.default_rng(10)
        strong = band_limited(rng, amp=100.0)
        weak = band_limited(rng, amp=10.0)
        sigma = 5.0
        pes = {}
        for name, sig in [("strong", strong), ("weak", weak)]:
            clean = rms(sig)
            samples = [
                percentage_error(clean, rms(sig + sigma * rng.standard_normal(len(sig))))
                for _ in range(40)
            ]
            pes[name] = np.mean(samples)
        assert pes["weak"] > pes["strong"]


class TestGridOracle:
    """run_grid against the brute-force loop, row for row and bit for bit."""

    def test_default_panel(self):
        records = make_records(np.random.default_rng(17), count=4)
        cfg = RobustnessConfig(snr_grid=(20.0, 5.0, 0.0), repetitions=3, seed=23)
        same_rows(run_grid(records, default_panel(), cfg, SEG).rows,
                  reference_rows(records, default_panel(), cfg))

    def test_hemg_bins_sweep(self):
        records = make_records(np.random.default_rng(18), count=3)
        cfg = RobustnessConfig(snr_grid=(15.0, 3.0), repetitions=4, seed=5)
        grid = run_grid(records, _parse_sweep("hemg:bins=3,5,7,9,11")[1], cfg, SEG)
        bins = [make_descriptor("hemg", {"bins": b}) for b in (3, 5, 7, 9, 11)]
        same_rows(grid.rows, reference_rows(records, bins, cfg))

    def test_failing_feature_excludes_only_itself(self):
        # 256 samples do not split into 7 segments, so the joint extraction
        # raises and each feature is extracted on its own.
        records = make_records(np.random.default_rng(19), count=2)
        features = parse_features("rms,mavslp:segments=7")
        with pytest.raises(ValueError):
            extract(features, records.trials[0].data[:, 0], 1000.0)
        cfg = RobustnessConfig(snr_grid=(20.0, 0.0), repetitions=3, seed=8)
        grid = run_grid(records, features, cfg, SEG)
        same_rows(grid.rows, reference_rows(records, features, cfg))
        rms_alone = run_grid(records, parse_features("rms"), cfg, SEG)
        same_rows([row for row in grid.rows if row.feature == "rms"], rms_alone.rows)
        assert all(row.n == 0 for row in grid.rows if row.feature == "mavslp")

    def test_wide_seed_many_reps_unsorted_grid(self):
        # A base seed past 64 bits, more repetitions than the default ten,
        # and a grid whose levels are not listed in falling order.
        records = make_records(np.random.default_rng(20), count=3)
        cfg = RobustnessConfig(snr_grid=(3.0, 20.0, 0.0, 10.0), repetitions=12,
                               seed=2**64 + 5)
        same_rows(run_grid(records, default_panel(), cfg, SEG).rows,
                  reference_rows(records, default_panel(), cfg))


    def test_a_row_reduction_is_the_reduction_of_the_row(self):
        # run_grid takes every cell's mean and std as one row of a matrix, so
        # numpy must reduce a row of a C-contiguous matrix exactly as it
        # reduces that row alone; its pairwise sums switch at 8 and 128 values.
        rng = np.random.default_rng(40)
        for n in [*range(1, 40), 60, 100, 127, 128, 129, 200, 255, 256, 257, 600, 1000, 2401]:
            matrix = rng.random((6, n)) * 10.0 ** rng.integers(-3, 4, (6, 1))
            assert np.mean(matrix, axis=-1).tolist() == [float(np.mean(row)) for row in matrix]
            assert np.std(matrix, axis=-1).tolist() == [float(np.std(row)) for row in matrix]


def layout_records(rng, layout):
    """One record per letter: ``n`` band-limited, ``c`` constant nonzero, ``0`` all zero."""
    records = []
    for i, kind in enumerate(layout):
        samples = {"n": lambda: band_limited(rng), "c": lambda: np.full(256, 3.0),
                   "0": lambda: np.zeros(256)}[kind]()
        records.append(record_trial(samples, f"{kind}{i}", f"m{i % 2}"))
    return records_dataset(records)


def blocked_and_alone(monkeypatch, records, features, cfg):
    """run_grid under the default budget and with each record a block of its own,
    with the record count of every extraction call of each run."""
    calls = []
    copies = 1 + len(cfg.snr_grid) * cfg.repetitions  # a record's rows

    def counted(features, rows, width, slide, rate):
        assert len(rows) % copies == 0
        calls[-1].append(len(rows) // copies)
        return registry._columns(features, rows, width, slide, rate)

    with monkeypatch.context() as patch:
        patch.setattr(robustness, "_columns", counted)
        calls.append([])
        blocked = run_grid(records, features, cfg, SEG)
        patch.setattr(registry, "_BLOCK_SAMPLES", 1)
        calls.append([])
        alone = run_grid(records, features, cfg, SEG)
    return blocked, alone, calls


class TestBlocks:
    """Records extracted in stacked blocks score what one-record blocks score."""

    FEATURES = "rms,zc,mnf:dc=0,mmnf,hemg,ar,wamp:threshold=1e6"

    def test_blocks_equal_one_record_blocks(self, monkeypatch):
        # 61 rows of 256 samples: at most 4 records per default block. The
        # constant records fail mnf:dc=0 (their clean spectrum has no mass
        # without DC), which marks their rows, not their block, and their
        # clean zc is zero. Blocks: [c0 n1 c2 n3] with a constant record at
        # the start and inside; the flat 04 alone, kept out of every block;
        # [n5 n6 n7 c8] ending in one; then the partial [n9 c10]. Each is
        # one extraction call.
        records = layout_records(np.random.default_rng(30), "cncn0nnncnc")
        cfg = RobustnessConfig(seed=12)
        blocked, alone, calls = blocked_and_alone(monkeypatch, records,
                                                  parse_features(self.FEATURES), cfg)
        assert calls == [[4, 4, 2], [1] * 10]
        same_rows(blocked.rows, alone.rows)
        assert blocked.unscored == alone.unscored == \
            {"wamp(threshold=1e+06)": "its clean value is zero"}
        zc = [row for row in blocked.rows if row.feature == "zc"]
        assert [(row.motion, row.excluded) for row in zc if row.snr_db == 0.0] == \
            [("m0", 5 * 10), ("m1", 0)]  # c0, c2, 04, c8 and c10, all m0
        # a block that extracts jointly gives what one-record blocks give
        rms = records_dataset([records.trials[i] for i in (1, 3, 5, 6, 7, 9)])
        blocked, alone, calls = blocked_and_alone(monkeypatch, rms, parse_features("rms"),
                                                  cfg)
        assert calls == [[4, 2], [1] * 6]
        same_rows(blocked.rows, alone.rows)

    @pytest.mark.parametrize("layout, reason", [
        ("c0c", "spectrum has no mass; mean/median frequency undefined"),
        ("0cc", "signal power is zero; SNR is undefined"),
    ])
    def test_unscored_reason_is_the_first_records(self, monkeypatch, layout, reason):
        records = layout_records(np.random.default_rng(31), layout)
        cfg = RobustnessConfig(snr_grid=(20.0, 0.0), repetitions=2, seed=1)
        blocked, alone, _ = blocked_and_alone(monkeypatch, records,
                                              parse_features("mnf:dc=0,rms"), cfg)
        same_rows(blocked.rows, alone.rows)
        assert blocked.unscored == alone.unscored == {"mnf(dc=0)": reason}

    def test_one_add_wgn_call_per_block_of_nonzero_power(self, monkeypatch):
        # Blocks [c0 n1 c2 n3], [04], [n5 n6 n7 c8] and [n9 c10]: the flat 04
        # draws nothing, and each other block's copies come from one call.
        records = layout_records(np.random.default_rng(30), "cncn0nnncnc")
        cfg = RobustnessConfig(seed=12)
        calls = []

        def counted(clean, factors, words, out):
            calls.append((clean.shape, words.shape, out.shape))
            return noise.add_wgn(clean, factors, words, out)

        monkeypatch.setattr(robustness, "add_wgn", counted)
        grid = run_grid(records, parse_features("rms,zc"), cfg, SEG)
        assert calls == [((n, 256), (n, 60, 4), (n, 60, 256)) for n in (4, 4, 2)]
        same_rows(grid.rows, reference_rows(records, parse_features("rms,zc"), cfg))

    def test_a_fault_of_some_records_splits_no_block(self, monkeypatch):
        # The constant records' spectra have no mass without DC. That used to
        # fail their blocks' joint extraction and send each such block through
        # one extraction per record, then one per (record, descriptor). Now
        # each block is one call, and only the constant records are left out.
        records = layout_records(np.random.default_rng(30), "cncn0nnncnc")
        cfg = RobustnessConfig(seed=12)
        features = parse_features("rms,mnf:dc=0,ar")
        calls = []

        def counted(features, rows, width, slide, rate):
            calls.append(rows.shape)
            return registry._columns(features, rows, width, slide, rate)

        monkeypatch.setattr(robustness, "_columns", counted)
        grid = run_grid(records, features, cfg, SEG)
        assert calls == [(n * 61, 256) for n in (4, 4, 2)]  # the flat 04 is no block
        same_rows(grid.rows, reference_rows(records, features, cfg))
        mnf = [(row.motion, row.n, row.excluded) for row in grid.rows
               if row.feature == "mnf" and row.snr_db == 0.0]
        assert mnf == [("m0", 10, 50), ("m1", 50, 0)]  # m0 keeps n6 alone
        assert grid.unscored == {}

    def test_a_descriptor_no_width_can_take_splits_no_block(self, monkeypatch):
        # mavslp's 3 segments do not split a 256-sample window. It used to
        # fail each block's joint extraction, and so every record's, which
        # sent the panel through one extract call per (record, descriptor).
        dataset = synthesize_emg(SynthConfig(classes=tuple(default_class_specs(4)), seed=7))
        cfg = RobustnessConfig(max_windows=4)
        panel = run_grid(dataset, default_panel(), cfg, SEG)
        calls = []

        def counted(features, rows, width, slide, rate):
            calls.append(rows.shape)
            return registry._columns(features, rows, width, slide, rate)

        monkeypatch.setattr(robustness, "_columns", counted)
        grid = run_grid(dataset, default_panel() + parse_features("mavslp"), cfg, SEG)
        assert calls == [(4 * 61, 256)] * 48  # 192 records, 4 to a block
        same_rows([row for row in grid.rows if row.feature != "mavslp"], panel.rows)
        mavslp = [row for row in grid.rows if row.feature == "mavslp"]
        assert {(row.n, row.excluded) for row in mavslp} == {(0, 48 * 10)}  # per motion
        assert grid.unscored == {
            "mavslp": "window of 256 samples does not divide into 3 equal segments"}


class TestSweep:
    def test_wamp_threshold_sweep_has_five_slices(self):
        rng = np.random.default_rng(11)
        records = make_records(rng, count=1)
        cfg = RobustnessConfig(snr_grid=(20.0, 10.0), repetitions=2, seed=0)
        sweep, descriptors = _parse_sweep("wamp:threshold=10,20,30,40,50")
        grid = run_grid(records, descriptors, cfg, SEG)
        assert len({row.parameters for row in grid.rows}) == 5
        assert sweep["values"] == [10, 20, 30, 40, 50]

    def test_hemg_bin_sweep(self):
        rng = np.random.default_rng(12)
        records = make_records(rng, count=1)
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=1, seed=0)
        grid = run_grid(records, _parse_sweep("hemg:bins=3,5,7,9,11")[1], cfg, SEG)
        assert len({row.parameters for row in grid.rows}) == 5

    def test_ar_order_sweep(self):
        rng = np.random.default_rng(13)
        records = make_records(rng, count=1)
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=1, seed=0)
        grid = run_grid(records, _parse_sweep("ar:order=1..10")[1], cfg, SEG)
        assert len({row.parameters for row in grid.rows}) == 10


class TestRecordsFromDataset:
    def test_window_records(self, monkeypatch):
        dataset = synthesize_emg(SynthConfig(
            classes=tuple(default_class_specs(2)), channels=2,
            trials_per_class=1, trial_ms=1000, seed=0))
        blocks = []

        def counted(features, rows, width, slide, rate):
            blocks.append((rows.shape, rate))
            return registry._columns(features, rows, width, slide, rate)

        monkeypatch.setattr(robustness, "_columns", counted)

        def record_count(max_windows):
            blocks.clear()
            cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=1, max_windows=max_windows)
            run_grid(dataset, parse_features("rms"), cfg, SegmentationConfig())
            # each record's rows: its clean window and one noisy copy
            assert all(shape[0] % 2 == 0 and shape[1:] == (256,) and rate == dataset.rate
                       for shape, rate in blocks)
            return sum(shape[0] // 2 for shape, _ in blocks)

        assert record_count(1) == 2 * 2  # trials x channels, one window each
        assert record_count(None) == 2 * 2 * 12
        with pytest.raises(ValueError, match="no trial records"):
            record_count(0)
        with pytest.raises(ValueError, match="max_windows"):
            RobustnessConfig(max_windows=-1)

    def test_hemg_range_is_the_peak_of_the_kept_windows(self):
        # The trial's peak lies in its last window, past the one kept.
        samples = band_limited(np.random.default_rng(41), n=512)
        samples[400] = 10.0 * np.max(np.abs(samples))
        dataset = records_dataset([record_trial(samples, "r0", "m0")])
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=1, max_windows=1)
        grid = run_grid(dataset, parse_features("hemg"), cfg, SEG)
        assert grid.features[0].param_dict["limit"] == float(np.max(np.abs(samples[:256])))
        every = run_grid(dataset, parse_features("hemg"), replace(cfg, max_windows=None), SEG)
        assert every.features[0].param_dict["limit"] == samples[400]

    def test_records_are_numbered_after_the_groups_filter(self):
        # Strong and weak trials alternate, and the strong ones hold the peak:
        # a weak run draws each weak record's noise, and takes its hemg range,
        # as a dataset of the weak trials alone does.
        rng = np.random.default_rng(42)
        trials = [record_trial(band_limited(rng, amp=10.0 if i % 2 else 50.0), f"r{i}",
                               f"m{i // 2 % 2}", group="weak" if i % 2 else "strong")
                  for i in range(6)]
        cfg = RobustnessConfig(snr_grid=(20.0, 0.0), repetitions=3, seed=5)
        weak = run_grid(records_dataset(trials), default_panel(),
                        replace(cfg, groups=("weak",)), SEG)
        alone = run_grid(records_dataset(trials[1::2]), default_panel(), cfg, SEG)
        same_rows(weak.rows, alone.rows)
        assert weak.features == alone.features

    def test_non_finite_window_names_its_trial_and_channel(self):
        # Three trials of two channels, four windows each. Only kept windows
        # are checked, and the first record that holds a NaN or an infinity
        # names the error.
        rng = np.random.default_rng(43)
        trials = [Trial(trial_id=f"t{i}", label="m0", subject="s0", group="strong",
                        channels=["emg1", "emg2"],
                        data=np.stack([band_limited(rng, n=448) for _ in range(2)], axis=1))
                  for i in range(3)]
        trials[1].data[300, 1] = np.inf  # in windows 1 to 3 of t1's emg2
        trials[2].data[0, 0] = np.nan  # in window 0 of t2's emg1
        dataset = Dataset(classes=["m0"], rate=1000.0, trials=trials)
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=1, max_windows=1)
        with pytest.raises(ValueError, match="^trial t2, channel emg1: non-finite samples$"):
            run_grid(dataset, parse_features("rms"), cfg, SEG)
        with pytest.raises(ValueError, match="^trial t1, channel emg2: non-finite samples$"):
            run_grid(dataset, parse_features("rms"), replace(cfg, max_windows=None), SEG)


class TestEmission:
    def test_csv_and_json_outputs(self, tmp_path):
        rng = np.random.default_rng(14)
        records = make_records(rng, count=1)
        cfg = RobustnessConfig(snr_grid=(20.0, 10.0), repetitions=2, seed=3)
        grid = run_grid(records, parse_features("rms,mmnf"), cfg, SEG)
        config = {"repetitions": 2, "seed": 3}

        csv_path = write_output(tmp_path / "out" / "grid.csv", csv_rows(grid_csv_rows(grid)),
                                config)
        with csv_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["feature", "parameters", "group", "motion",
                                 "snr_db", "mean_pe", "std_pe", "n", "excluded"]
        assert len(rows) == len(grid.rows)
        assert csv_path.read_bytes().count(b"\r\n") == len(grid.rows) + 1
        sidecar = (tmp_path / "out" / "grid.csv.config.json").read_text()
        assert sidecar == json.dumps(config, indent=2) + "\n"

        payload = {"config": config, "rows": [vars(row) for row in grid.rows]}
        json_path = write_output(tmp_path / "out" / "grid.json", payload)
        assert json.loads(json_path.read_text()) == json.loads(json.dumps(payload))
        assert [GridRow(**row) for row in json.loads(json_path.read_text())["rows"]] \
            == grid.rows
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            ["grid.csv", "grid.csv.config.json", "grid.json"]


    def test_close_levels_are_written_apart(self):
        # :g writes 20.000001 as 20; a level it does not write exactly gets its repr.
        cfg = RobustnessConfig(snr_grid=(20.0, 20.000001, 1 / 3), repetitions=1, seed=3)
        grid = run_grid(make_records(np.random.default_rng(16), count=1),
                        parse_features("rms"), cfg, SEG)
        assert [row[4] for row in grid_csv_rows(grid)] == \
            ["snr_db", "20.000001", "20", "0.3333333333333333"]

    def test_cells_without_pe_are_null_in_json(self, tmp_path):
        rng = np.random.default_rng(15)
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=1, seed=3)
        # 3 segments do not split a 256-sample window: every mavslp cell has n == 0
        grid = run_grid(make_records(rng, count=1), parse_features("rms,mavslp"), cfg, SEG)
        with pytest.raises(ValueError):
            write_output(tmp_path / "nan.json", {"rows": [vars(row) for row in grid.rows]})
        assert not (tmp_path / "nan.json").exists()
        rows = grid_json_rows(grid)
        assert [row["n"] for row in rows] == [row.n for row in grid.rows]
        for row, grid_row in zip(rows, grid.rows):
            if grid_row.n == 0:
                assert (row["mean_pe"], row["std_pe"]) == (None, None)
                assert math.isnan(grid_row.mean_pe)
            else:
                assert row == vars(grid_row)
        assert any(row.n == 0 for row in grid.rows) and any(row.n > 0 for row in grid.rows)
        write_output(tmp_path / "grid.json", {"rows": rows})


class TestConfigValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            RobustnessConfig(snr_grid=())

    def test_zero_reps_rejected(self):
        with pytest.raises(ValueError):
            RobustnessConfig(repetitions=0)

    def test_non_finite_snr_rejected_unless_dry_run(self):
        for level in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="snr_db must be finite"):
                RobustnessConfig(snr_grid=(20.0, level))
        with pytest.raises(ValueError, match="^SNR -4000 dB is too low"):
            RobustnessConfig(snr_grid=(20.0, -4000.0))
        # The dry run that once let a non-finite level through is gone.
        with pytest.raises(TypeError, match="dry_run"):
            RobustnessConfig(snr_grid=(20.0, float("inf")), dry_run=True)

    @pytest.mark.parametrize("snr_grid, level", [
        ((20, 20), "20"), ((20.0, 20), "20"), ((0.0, -0.0), "-0"), ((5.0, 20.0, 5.0), "5"),
    ])
    def test_repeated_level_rejected(self, snr_grid, level):
        # Levels are compared as floats: 20 and 20.0, or 0 and -0, are one level.
        with pytest.raises(ValueError, match=f"^SNR level {level} dB is repeated$"):
            RobustnessConfig(snr_grid=snr_grid)
        assert RobustnessConfig(snr_grid=(20.0, 20.000001)).snr_grid == (20.0, 20.000001)

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="no trial records"):
            run_grid(records_dataset([]), parse_features("rms"), RobustnessConfig(), SEG)

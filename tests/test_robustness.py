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
from myobench.dataio import (SynthConfig, csv_rows, default_class_specs, synthesize_emg,
                             write_output)
from myobench.noise import derive_seed
from myobench.registry import (default_panel, extract, make_descriptor, parse_features,
                               resolve_hemg_peak)
from myobench.robustness import (GridRow, RobustnessConfig, TrialRecord, grid_csv_rows,
                                 grid_json_rows, percentage_error, records_from_dataset,
                                 run_grid)
from myobench.signals import SegmentationConfig
from myobench.time_features import rms
from wgn_reference import reference_injection


def band_limited(rng, n=256, band=(20.0, 450.0), amp=50.0, rate=1000.0):
    sos = sps.butter(4, band, btype="bandpass", fs=rate, output="sos")
    x = sps.sosfiltfilt(sos, rng.standard_normal(n + 512))[256:256 + n]
    return x * (amp / np.sqrt(np.mean(x * x)))


def make_records(rng, count=2, amp=50.0):
    return [
        TrialRecord(samples=band_limited(rng, amp=amp), rate=1000.0, motion=f"m{i % 2}",
                    group="strong", trial_id=f"r{i}")
        for i in range(count)
    ]


def zero_draws(words, out):
    """``noise.fill_wgn`` with every draw zero: each noisy copy is its clean signal."""
    out.fill(0.0)
    return out


def reference_rows(records, features, cfg):
    """Brute-force grid: one reference injection per noisy copy, one extract per feature.

    Each (record, feature) pair's PEs are listed in (SNR, repetition) order
    and pooled per cell in record order, as run_grid lays them out. A
    feature whose extraction raises, or whose scalar component is out of
    range, excludes the record, and so does a record of zero power (its SNR
    is undefined) for every feature. The HEMG range is the largest record
    peak, a NaN peak skipped.
    """
    peak = reduce(max, (float(np.max(np.abs(r.samples))) for r in records), 0.0)
    features = resolve_hemg_peak(features, peak)
    reps = cfg.repetitions
    pes = {}  # (feature index, record index) -> (SNR, repetition) PE matrix
    for r_idx, record in enumerate(records):
        if not np.any(record.samples):
            continue
        copies = [record.samples]
        for s_idx, snr in enumerate(cfg.snr_grid):
            stream_seed = derive_seed(cfg.seed, r_idx, s_idx)
            for rep in range(reps):
                copies.append(reference_injection(record.samples, snr, stream_seed, rep))
        matrix = np.vstack(copies)
        for d_idx, desc in enumerate(features):
            try:
                values = extract([desc], matrix, record.rate)
                if not 1 <= desc.scalar_component <= values.shape[1]:
                    raise ValueError("scalar component out of range")
                values = values[:, desc.scalar_component - 1]
                pes[d_idx, r_idx] = percentage_error(values[0], values[1:]).reshape(-1, reps)
            except ValueError:
                pass
    rows = []
    for d_idx in sorted(range(len(features)), key=lambda d: features[d].name):
        desc = features[d_idx]
        for group, motion in sorted({(r.group, r.motion) for r in records}):
            members = [i for i, r in enumerate(records) if (r.group, r.motion) == (group, motion)]
            for snr in sorted(set(cfg.snr_grid), reverse=True):
                columns = [s for s, level in enumerate(cfg.snr_grid) if level == snr]
                cell, excluded = [], 0
                for r_idx in members:
                    if (d_idx, r_idx) not in pes:
                        excluded += len(columns) * reps
                        continue
                    for s_idx in columns:
                        cell.extend(pes[d_idx, r_idx][s_idx])
                cell = np.array(cell)
                rows.append(GridRow(
                    feature=desc.name, parameters=desc.param_text, group=group,
                    motion=motion, snr_db=snr,
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
        grid = run_grid(records, parse_features("rms"), cfg)
        assert len(grid.rows) == 1
        row = grid.rows[0]
        assert (row.feature, row.snr_db, row.n, row.excluded) == ("rms", 20.0, 1, 0)
        assert row.mean_pe >= 0

    def test_dry_run_gives_zero_pe(self, monkeypatch):
        monkeypatch.setattr(noise, "fill_wgn", zero_draws)
        rng = np.random.default_rng(2)
        records = make_records(rng, count=2)
        cfg = RobustnessConfig(snr_grid=(20.0, 0.0), repetitions=3, seed=0)
        grid = run_grid(records, default_panel(), cfg)
        for row in grid.rows:
            assert row.mean_pe == 0.0
            assert row.std_pe == 0.0

    def test_bit_exact_determinism(self):
        rng = np.random.default_rng(3)
        records = make_records(rng, count=3)
        cfg = RobustnessConfig(snr_grid=(20.0, 10.0, 0.0), repetitions=4, seed=99)
        first = run_grid(records, default_panel(), cfg)
        second = run_grid(records, default_panel(), cfg)
        assert first.rows == second.rows

    def test_more_noise_more_error_for_rms(self):
        rng = np.random.default_rng(4)
        records = make_records(rng, count=1)
        cfg = RobustnessConfig(snr_grid=(20.0, 0.0), repetitions=30, seed=0)
        grid = run_grid(records, parse_features("rms"), cfg)
        by_snr = {row.snr_db: row.mean_pe for row in grid.rows}
        assert by_snr[0.0] > by_snr[20.0]

    def test_pe_non_negative_everywhere(self):
        rng = np.random.default_rng(5)
        records = make_records(rng, count=2)
        cfg = RobustnessConfig(snr_grid=(10.0, 3.0), repetitions=5, seed=1)
        grid = run_grid(records, default_panel(), cfg)
        assert all(row.mean_pe >= 0 for row in grid.rows)

    def test_monotone_trend_with_one_violation_allowed(self):
        rng = np.random.default_rng(6)
        records = make_records(rng, count=4)
        cfg = RobustnessConfig(repetitions=15, seed=7)
        grid = run_grid(records, default_panel(), cfg)
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
        grid = run_grid(records, [make_descriptor("wamp", {"threshold": 1e6})], cfg)
        row = grid.rows[0]
        assert row.n == 0
        assert row.excluded == 5
        assert np.isnan(row.mean_pe)

    def test_non_finite_clean_sample_is_an_error(self):
        rng = np.random.default_rng(11)
        records = make_records(rng, count=3)
        records[1].samples[10] = np.nan
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=1, seed=0)
        with pytest.raises(ValueError, match="record r1 has non-finite samples"):
            run_grid(records, parse_features("rms"), cfg)

    def test_zero_power_record_is_excluded_for_every_feature(self):
        # Appended last, the flat record leaves every other record's noise
        # stream and the hemg range as they were.
        rng = np.random.default_rng(15)
        records = make_records(rng, count=3)
        flat = TrialRecord(samples=np.zeros(256), rate=1000.0, motion="m0",
                           group="strong", trial_id="flat")
        cfg = RobustnessConfig(snr_grid=(20.0, 10.0, 20.0), repetitions=3, seed=4)
        base = run_grid(records, default_panel(), cfg)
        grid = run_grid(records + [flat], default_panel(), cfg)
        assert len(grid.rows) == len(base.rows)
        for row, before in zip(grid.rows, base.rows):
            extra = 0
            if row.motion == "m0":
                extra = 3 * (2 if row.snr_db == 20.0 else 1)
            same_rows([row], [replace(before, excluded=before.excluded + extra)])

    @pytest.mark.parametrize("tokens", ["rms,hemg:bins=1,mmnf", "rms,mavslp,hemg:bins=1,mmnf"])
    def test_out_of_range_component_excludes_only_its_feature(self, tokens):
        # Without mavslp the joint extraction succeeds; with it (256 samples
        # do not split into 3 segments) each feature is extracted on its own.
        records = make_records(np.random.default_rng(21), count=3)
        features = parse_features(tokens)  # hemg's scalar component 2 of 1 bin
        cfg = RobustnessConfig(snr_grid=(20.0, 5.0), repetitions=3, seed=6)
        grid = run_grid(records, features, cfg)
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
        flat = [TrialRecord(samples=np.zeros(256), rate=1000.0, motion="m0",
                            group="strong", trial_id=f"flat{i}") for i in range(2)]
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=2, seed=0)
        grid = run_grid(flat, parse_features("rms,mmnf"), cfg)
        assert grid.unscored == {"rms": "signal power is zero; SNR is undefined",
                                 "mmnf": "signal power is zero; SNR is undefined"}
        grid = run_grid(make_records(rng, count=2, amp=1.0),
                        parse_features("rms,wamp:threshold=1e6"), cfg)
        assert grid.unscored == {"wamp(threshold=1e+06)": "its clean value is zero"}
        assert run_grid(make_records(rng, count=2), default_panel(), cfg).unscored == {}

    def test_group_filter(self):
        rng = np.random.default_rng(9)
        records = make_records(rng, count=2) + [
            TrialRecord(samples=band_limited(rng, amp=10.0), rate=1000.0, motion="m0",
                        group="weak", trial_id="w0")
        ]
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=1, seed=0,
                               groups=("weak",))
        grid = run_grid(records, parse_features("rms"), cfg)
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
        same_rows(run_grid(records, default_panel(), cfg).rows,
                  reference_rows(records, default_panel(), cfg))

    def test_hemg_bins_sweep(self):
        records = make_records(np.random.default_rng(18), count=3)
        cfg = RobustnessConfig(snr_grid=(15.0, 3.0), repetitions=4, seed=5)
        grid = run_grid(records, _parse_sweep("hemg:bins=3,5,7,9,11")[1], cfg)
        bins = [make_descriptor("hemg", {"bins": b}) for b in (3, 5, 7, 9, 11)]
        same_rows(grid.rows, reference_rows(records, bins, cfg))

    def test_failing_feature_excludes_only_itself(self):
        # 256 samples do not split into 7 segments, so the joint extraction
        # raises and each feature is extracted on its own.
        records = make_records(np.random.default_rng(19), count=2)
        features = parse_features("rms,mavslp:segments=7")
        with pytest.raises(ValueError):
            extract(features, records[0].samples, 1000.0)
        cfg = RobustnessConfig(snr_grid=(20.0, 0.0), repetitions=3, seed=8)
        grid = run_grid(records, features, cfg)
        same_rows(grid.rows, reference_rows(records, features, cfg))
        rms_alone = run_grid(records, parse_features("rms"), cfg)
        same_rows([row for row in grid.rows if row.feature == "rms"], rms_alone.rows)
        assert all(row.n == 0 for row in grid.rows if row.feature == "mavslp")

    def test_wide_seed_many_reps_repeated_level(self):
        # A base seed past 64 bits, more repetitions than the default ten,
        # and a repeated SNR level whose columns pool into one cell.
        records = make_records(np.random.default_rng(20), count=3)
        cfg = RobustnessConfig(snr_grid=(10.0, 0.0, 10.0), repetitions=12, seed=2**64 + 5)
        same_rows(run_grid(records, default_panel(), cfg).rows,
                  reference_rows(records, default_panel(), cfg))


    @pytest.mark.parametrize("snr_grid", [(20.0, 5.0, 0.0), (10.0, 10.0, 0.0)])
    def test_two_lengths_and_a_zero_power_record(self, snr_grid):
        # Clean powers are taken per length, and the zero-power record
        # between the lengths is left out of every cell. At (10, 10, 0) the
        # 10 dB rows pool two grid columns: twice as long as the 0 dB rows.
        lengths = [256, 256, 256, 200, 200, 200, 200]
        records = layout_records(np.random.default_rng(21), "nnn0nnn", lengths)
        cfg = RobustnessConfig(snr_grid=snr_grid, repetitions=5, seed=9)
        grid = run_grid(records, default_panel(), cfg)
        same_rows(grid.rows, reference_rows(records, default_panel(), cfg))
        rms = [row for row in grid.rows if row.feature == "rms" and row.motion == "m1"]
        assert [(row.snr_db, row.n, row.excluded) for row in rms] == \
            [(10.0, 2 * 5 * 2, 2 * 5), (0.0, 2 * 5, 5)] if snr_grid[0] == 10.0 else \
            [(20.0, 2 * 5, 5), (5.0, 2 * 5, 5), (0.0, 2 * 5, 5)]

    def test_a_row_reduction_is_the_reduction_of_the_row(self):
        # run_grid takes every cell's mean and std as one row of a matrix, so
        # numpy must reduce a row of a C-contiguous matrix exactly as it
        # reduces that row alone; its pairwise sums switch at 8 and 128 values.
        rng = np.random.default_rng(40)
        for n in [*range(1, 40), 60, 100, 127, 128, 129, 200, 255, 256, 257, 600, 1000, 2401]:
            matrix = rng.random((6, n)) * 10.0 ** rng.integers(-3, 4, (6, 1))
            assert np.mean(matrix, axis=-1).tolist() == [float(np.mean(row)) for row in matrix]
            assert np.std(matrix, axis=-1).tolist() == [float(np.std(row)) for row in matrix]


def layout_records(rng, layout, lengths=None, rates=None):
    """One record per letter: ``n`` band-limited, ``c`` constant nonzero, ``0`` all zero."""
    records = []
    for i, kind in enumerate(layout):
        n = 256 if lengths is None else lengths[i]
        rate = 1000.0 if rates is None else rates[i]
        samples = {"n": lambda: band_limited(rng, n=n, rate=rate),
                   "c": lambda: np.full(n, 3.0), "0": lambda: np.zeros(n)}[kind]()
        records.append(TrialRecord(samples=samples, rate=rate, motion=f"m{i % 2}",
                                   group="strong", trial_id=f"{kind}{i}"))
    return records


def blocked_and_alone(monkeypatch, records, features, cfg):
    """run_grid under the default budget and with each record a block of its own,
    with the record count of every `_scalar_values` call of each run."""
    calls = []
    scalar_values = robustness._scalar_values

    def counted(features, picks, in_range, block, rate):
        calls[-1].append(len(block))
        return scalar_values(features, picks, in_range, block, rate)

    with monkeypatch.context() as patch:
        patch.setattr(robustness, "_scalar_values", counted)
        calls.append([])
        blocked = run_grid(records, features, cfg)
        patch.setattr(registry, "_BLOCK_SAMPLES", 1)
        calls.append([])
        alone = run_grid(records, features, cfg)
    return blocked, alone, calls


class TestBlocks:
    """Records extracted in stacked blocks score what one-record blocks score."""

    FEATURES = "rms,zc,mnf:dc=0,mmnf,hemg,ar,wamp:threshold=1e6"

    def test_blocks_equal_one_record_blocks(self, monkeypatch):
        # 61 rows of 256 samples: at most 4 records per default block. The
        # constant records fail mnf:dc=0 (their clean spectrum has no mass
        # without DC), which sends their block to one record at a time, and
        # their clean zc is zero. Blocks: [c0 n1 c2 n3] with a constant
        # record at the start and inside; the flat 04 alone, kept out of
        # every block; [n5 n6 n7 c8] ending in one; then the partial [n9 c10].
        records = layout_records(np.random.default_rng(30), "cncn0nnncnc")
        cfg = RobustnessConfig(seed=12)
        blocked, alone, calls = blocked_and_alone(monkeypatch, records,
                                                  parse_features(self.FEATURES), cfg)
        assert calls == [[4, 1, 1, 1, 1, 4, 1, 1, 1, 1, 2, 1, 1], [1] * 10]
        same_rows(blocked.rows, alone.rows)
        assert blocked.unscored == alone.unscored == \
            {"wamp(threshold=1e+06)": "its clean value is zero"}
        zc = [row for row in blocked.rows if row.feature == "zc"]
        assert [(row.motion, row.excluded) for row in zc if row.snr_db == 0.0] == \
            [("m0", 5 * 10), ("m1", 0)]  # c0, c2, 04, c8 and c10, all m0
        # a block that extracts jointly gives what one-record blocks give
        rms = [records[i] for i in (1, 3, 5, 6, 7, 9)]
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

    def test_blocks_split_where_the_length_or_rate_changes(self, monkeypatch):
        lengths = [256, 256, 200, 200, 200, 256, 256, 256]
        rates = [1000.0] * 5 + [2000.0, 2000.0, 1000.0]
        records = layout_records(np.random.default_rng(32), "n" * 8, lengths, rates)
        features = parse_features(self.FEATURES)
        cfg = RobustnessConfig(snr_grid=(20.0, 5.0), repetitions=3, seed=4)
        blocked, alone, calls = blocked_and_alone(monkeypatch, records, features, cfg)
        assert calls == [[2, 3, 2, 1], [1] * 8]
        same_rows(blocked.rows, alone.rows)
        assert blocked.unscored == alone.unscored
        same_rows(blocked.rows, reference_rows(records, features, cfg))


class TestSweep:
    def test_wamp_threshold_sweep_has_five_slices(self):
        rng = np.random.default_rng(11)
        records = make_records(rng, count=1)
        cfg = RobustnessConfig(snr_grid=(20.0, 10.0), repetitions=2, seed=0)
        sweep, descriptors = _parse_sweep("wamp:threshold=10,20,30,40,50")
        grid = run_grid(records, descriptors, cfg)
        assert len({row.parameters for row in grid.rows}) == 5
        assert sweep["values"] == [10, 20, 30, 40, 50]

    def test_hemg_bin_sweep(self):
        rng = np.random.default_rng(12)
        records = make_records(rng, count=1)
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=1, seed=0)
        grid = run_grid(records, _parse_sweep("hemg:bins=3,5,7,9,11")[1], cfg)
        assert len({row.parameters for row in grid.rows}) == 5

    def test_ar_order_sweep(self):
        rng = np.random.default_rng(13)
        records = make_records(rng, count=1)
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=1, seed=0)
        grid = run_grid(records, _parse_sweep("ar:order=1..10")[1], cfg)
        assert len({row.parameters for row in grid.rows}) == 10


class TestRecordsFromDataset:
    def test_window_records(self):
        dataset = synthesize_emg(SynthConfig(
            classes=tuple(default_class_specs(2)), channels=2,
            trials_per_class=1, trial_ms=1000, seed=0))
        records = records_from_dataset(dataset, SegmentationConfig(), max_windows=1)
        assert len(records) == 2 * 2  # trials x channels, one window each
        assert all(len(r.samples) == 256 and r.rate == dataset.rate for r in records)
        all_windows = records_from_dataset(dataset, SegmentationConfig(), max_windows=None)
        assert len(all_windows) == 2 * 2 * 12
        with pytest.raises(ValueError, match="max_windows"):
            records_from_dataset(dataset, SegmentationConfig(), max_windows=-1)


class TestEmission:
    def test_csv_and_json_outputs(self, tmp_path):
        rng = np.random.default_rng(14)
        records = make_records(rng, count=1)
        cfg = RobustnessConfig(snr_grid=(20.0, 10.0), repetitions=2, seed=3)
        grid = run_grid(records, parse_features("rms,mmnf"), cfg)
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


    def test_cells_without_pe_are_null_in_json(self, tmp_path):
        rng = np.random.default_rng(15)
        cfg = RobustnessConfig(snr_grid=(20.0,), repetitions=1, seed=3)
        # 3 segments do not split a 256-sample window: every mavslp cell has n == 0
        grid = run_grid(make_records(rng, count=1), parse_features("rms,mavslp"), cfg)
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

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="no trial records"):
            run_grid([], parse_features("rms"), RobustnessConfig())

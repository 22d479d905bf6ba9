"""Dataset round-trips, loader validation, the parse cache, and the synthesizer."""
import hashlib
import io
import json
import os
import re

import numpy as np
import pytest

from myobench.dataio import (ClassSpec, Dataset, DatasetError, SynthConfig, Trial,
                             default_class_specs, load_dataset, save_dataset,
                             synthesize_emg)
from myobench.signals import SegmentationConfig, amplitude_spectrum, segment
from myobench.time_features import rms


def tiny_dataset():
    rng = np.random.default_rng(3)
    trials = [
        Trial(trial_id=f"t{i}", label="hand_open" if i % 2 else "hand_close",
              subject="s1", group="strong", channels=["ch1", "ch2"],
              data=rng.standard_normal((40, 2)) * 12.345678901234)
        for i in range(4)
    ]
    return Dataset(classes=["hand_close", "hand_open"], rate=1000.0, trials=trials)


class TestRoundTrip:
    def test_save_then_load_is_bit_exact(self, tmp_path):
        dataset = tiny_dataset()
        manifest = save_dataset(dataset, tmp_path / "d")
        loaded = load_dataset(manifest)
        assert loaded.classes == dataset.classes
        assert loaded.rate == dataset.rate
        assert len(loaded.trials) == len(dataset.trials)
        for a, b in zip(loaded.trials, dataset.trials):
            assert (a.trial_id, a.label, a.subject, a.group) == \
                   (b.trial_id, b.label, b.subject, b.group)
            assert a.channels == b.channels
            np.testing.assert_array_equal(a.data, b.data)

    def test_a_trial_holds_its_samples_channel_major(self):
        rows = np.arange(12.0).reshape(4, 3)
        trial = Trial(trial_id="x", label="rest", subject="", group="",
                      channels=["a", "b", "c"], data=rows)
        assert rows.flags.c_contiguous and trial.data.flags.f_contiguous
        assert trial.data.shape == rows.shape
        assert trial.data.tobytes() == rows.tobytes()
        synthesized = synthesize_emg(SynthConfig(classes=tuple(default_class_specs(1)),
                                                 channels=3, trials_per_class=1, trial_ms=500))
        assert synthesized.trials[0].data.flags.f_contiguous

    @pytest.mark.parametrize("data", [np.zeros(6), np.zeros((6, 3)), np.zeros((2, 3, 2))],
                             ids=["1-D", "3 channels", "3-D"])
    def test_a_trial_needs_one_column_per_channel(self, data):
        with pytest.raises(ValueError, match=r"^trial data must be \(n_samples, n_channels\)$"):
            Trial(trial_id="x", label="rest", subject="", group="", channels=["a", "b"],
                  data=data)

    def test_loaded_channel_count(self, tmp_path):
        manifest = save_dataset(tiny_dataset(), tmp_path / "d")
        loaded = load_dataset(manifest)
        assert [len(t.channels) for t in loaded.trials] == [2] * len(loaded.trials)

    def test_extreme_doubles_round_trip_bit_exact(self, tmp_path):
        extremes = [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                    -1.7976931348623157e308, -0.0, 0.0, 1 / 3, -2 / 3]
        extremes += [m * 10.0 ** e for e in range(-300, 301, 25) for m in (1.0, -7.3)]
        data = np.array(extremes + [0.1] * (len(extremes) % 2)).reshape(-1, 2)
        dataset = Dataset(classes=["rest"], rate=1000.0, trials=[
            Trial(trial_id="x", label="rest", subject="", group="",
                  channels=["a", "b"], data=data),
            Trial(trial_id="y", label="rest", subject="", group="",
                  channels=["a", "b"], data=data[::-1]),
        ])
        loaded = load_dataset(save_dataset(dataset, tmp_path / "d"))
        for a, b in zip(loaded.trials, dataset.trials):
            assert a.data.tobytes() == b.data.tobytes()

    def test_samples_render_as_repr(self, tmp_path):
        data = np.array([[-0.0, 5e-324], [0.1, 1e-05], [1e16, -0.0]])
        dataset = Dataset(classes=["rest"], rate=1000.0, trials=[
            Trial(trial_id="x", label="rest", subject="", group="",
                  channels=["a", "b"], data=data)])
        save_dataset(dataset, tmp_path / "d")
        text = (tmp_path / "d" / "x.csv").read_text()
        assert text == "a,b\n-0.0,5e-324\n0.1,1e-05\n1e+16,-0.0\n"
        assert text.splitlines()[1:] == [",".join(repr(float(v)) for v in row) for row in data]


class TestLoaderErrors:
    def write_manifest(self, tmp_path, **overrides):
        dataset = tiny_dataset()
        manifest_path = save_dataset(dataset, tmp_path / "d")
        manifest = json.loads(manifest_path.read_text())
        manifest.update(overrides)
        manifest_path.write_text(json.dumps(manifest))
        return manifest_path, manifest

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="manifest not found"):
            load_dataset(tmp_path / "nope.json")

    def test_manifest_must_be_an_object(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[1, 2]")
        with pytest.raises(DatasetError, match="^manifest must be a JSON object$"):
            load_dataset(path)

    def test_files_that_are_not_utf8_text(self, tmp_path):
        path, manifest = self.write_manifest(tmp_path)
        trial_file = path.parent / manifest["trials"][0]["path"]
        trial_file.write_bytes(b"ch1,ch2\n\xff\xfe,1.0\n")
        with pytest.raises(DatasetError, match="trial file is not UTF-8 text: .*"
                                               + re.escape(trial_file.name)):
            load_dataset(path)
        path.write_bytes(b"\xff{}")
        with pytest.raises(DatasetError, match="manifest is not valid JSON"):
            load_dataset(path)

    def test_missing_trial_file(self, tmp_path):
        path, manifest = self.write_manifest(tmp_path)
        manifest["trials"][0]["path"] = "absent.csv"
        path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="missing trial file.*absent.csv"):
            load_dataset(path)

    def test_unknown_label(self, tmp_path):
        path, manifest = self.write_manifest(tmp_path)
        manifest["trials"][0]["label"] = "jazz_hands"
        path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="unknown label.*jazz_hands"):
            load_dataset(path)

    def test_rate_mismatch(self, tmp_path):
        path, manifest = self.write_manifest(tmp_path)
        manifest["trials"][0]["sampling_rate_hz"] = 3000.0
        path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="rate mismatch"):
            load_dataset(path)

    def test_non_numeric_sample(self, tmp_path):
        path, manifest = self.write_manifest(tmp_path)
        trial_file = path.parent / manifest["trials"][0]["path"]
        lines = trial_file.read_text().splitlines()
        lines[3] = "oops," + lines[3].split(",")[1]
        trial_file.write_text("\n".join(lines))
        with pytest.raises(DatasetError, match="non-numeric"):
            load_dataset(path)

    def test_channel_name_mismatch(self, tmp_path):
        path, manifest = self.write_manifest(tmp_path)
        manifest["trials"][0]["channels"] = ["left", "right"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="channel names"):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["path", "label", "channels"])
    def test_trial_entry_missing_key(self, tmp_path, key):
        path, manifest = self.write_manifest(tmp_path)
        del manifest["trials"][1][key]
        path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match=f"trial entry 1: missing required key '{key}'"):
            load_dataset(path)

    def test_repeated_class_name(self, tmp_path):
        path, _ = self.write_manifest(
            tmp_path, classes=["hand_close", "hand_open", "hand_close"])
        with pytest.raises(DatasetError, match="manifest repeats class name 'hand_close'"):
            load_dataset(path)

    @pytest.mark.parametrize("rate", [-5, 0, float("inf"), float("nan"), "fast", None])
    def test_rate_must_be_positive_and_finite(self, tmp_path, rate):
        path, _ = self.write_manifest(tmp_path, sampling_rate_hz=rate)
        with pytest.raises(DatasetError, match="positive finite"):
            load_dataset(path)

    @pytest.mark.parametrize("name", [["hand_open"], 5, None, {"name": "x"}])
    def test_class_name_must_be_a_string(self, tmp_path, name):
        path, _ = self.write_manifest(tmp_path, classes=["hand_close", "hand_open", name])
        message = f"manifest class 2: expected a string, got {name!r}"
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            load_dataset(path)

    @pytest.mark.parametrize("key, value", [
        ("path", 5), ("path", ["t1.csv"]), ("label", ["hand_open"]), ("label", 1),
        ("subject", 3), ("group", ["strong"]), ("channels", 5), ("channels", "ch1,ch2"),
    ])
    def test_trial_field_of_the_wrong_json_type(self, tmp_path, key, value):
        path, manifest = self.write_manifest(tmp_path)
        manifest["trials"][1][key] = value
        path.write_text(json.dumps(manifest))
        kind = "a list" if key == "channels" else "a string"
        message = f"trial entry 1: {key!r} must be {kind}, got {value!r}"
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            load_dataset(path)

    def test_bool_rate_is_not_a_number(self, tmp_path):
        path, _ = self.write_manifest(tmp_path, sampling_rate_hz=True)
        with pytest.raises(DatasetError, match="^sampling_rate_hz must be a positive "
                                               "finite number, got True$"):
            load_dataset(path)
        for rate in (1.0, 1000.0):  # True == 1.0: a bool would pass as a 1 Hz rate
            path, manifest = self.write_manifest(tmp_path, sampling_rate_hz=rate)
            manifest["trials"][0]["sampling_rate_hz"] = True
            path.write_text(json.dumps(manifest))
            with pytest.raises(DatasetError, match=r"^trial t0\.csv: rate mismatch \(True Hz"):
                load_dataset(path)

    def test_rate_must_be_a_json_number(self, tmp_path):
        # A string that float() reads as 1000 Hz is not a JSON number.
        path, _ = self.write_manifest(tmp_path, sampling_rate_hz="1e3")
        with pytest.raises(DatasetError, match="^sampling_rate_hz must be a positive "
                                               "finite number, got '1e3'$"):
            load_dataset(path)
        path, manifest = self.write_manifest(tmp_path, sampling_rate_hz=1000.0)
        manifest["trials"][0]["sampling_rate_hz"] = " 1000 "
        path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match=r"^trial t0\.csv: rate mismatch \( 1000  Hz"):
            load_dataset(path)

    def test_rate_too_large_for_a_float_names_its_entry(self, tmp_path):
        huge = 10 ** 400
        path, _ = self.write_manifest(tmp_path, sampling_rate_hz=huge)
        with pytest.raises(DatasetError, match="^manifest: sampling_rate_hz is an integer "
                                               "too large for a float$"):
            load_dataset(path)
        path, manifest = self.write_manifest(tmp_path, sampling_rate_hz=1000.0)
        manifest["trials"][0]["sampling_rate_hz"] = huge
        path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match=r"^trial t0\.csv: sampling_rate_hz is an "
                                               "integer too large for a float$"):
            load_dataset(path)

    def edit_trial_rows(self, tmp_path, edit):
        """Apply ``edit`` to the first trial file's lines; return (manifest, file)."""
        path, manifest = self.write_manifest(tmp_path)
        trial_file = path.parent / manifest["trials"][0]["path"]
        lines = trial_file.read_text().splitlines()
        edit(lines)
        trial_file.write_text("\n".join(lines) + "\n")
        return path, trial_file

    @pytest.mark.parametrize("row, problem", [
        ("1.0,2.0,3.0", "expected 2 values, got 3"),
        ("1.0", "expected 2 values, got 1"),
        ("# comment,1.0", "non-numeric"),
        ("1.0,", "non-numeric"),
        ("1_000,2.0", "non-numeric"),
    ])
    def test_bad_row_names_its_file_line(self, tmp_path, row, problem):
        # A blank line before the bad row: the reported line is the file's
        # line number, not the count of data rows.
        def edit(lines):
            lines[3] = ""
            lines[6] = row
        path, trial_file = self.edit_trial_rows(tmp_path, edit)
        where = re.escape(str(trial_file))
        with pytest.raises(DatasetError, match=f"{where}:7: {problem}"):
            load_dataset(path)

    @pytest.mark.parametrize("row", ["1.0,2.0,3.0", "1.0"])
    def test_ragged_first_row_names_its_file_line(self, tmp_path, row):
        def edit(lines):
            lines[1] = row
        path, trial_file = self.edit_trial_rows(tmp_path, edit)
        where = re.escape(str(trial_file))
        with pytest.raises(DatasetError, match=f"{where}:2: expected 2 values"):
            load_dataset(path)

    def test_every_row_ragged_names_the_first(self, tmp_path):
        def edit(lines):
            lines[1:] = [cells.split(",")[0] for cells in lines[1:]]
        path, trial_file = self.edit_trial_rows(tmp_path, edit)
        where = re.escape(str(trial_file))
        with pytest.raises(DatasetError, match=f"{where}:2: expected 2 values, got 1"):
            load_dataset(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        def edit(lines):
            lines.insert(2, "")
            lines.append("")
        path, _ = self.edit_trial_rows(tmp_path, edit)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.trials[0].data, tiny_dataset().trials[0].data)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_sample_names_its_file_line_and_channel(self, tmp_path, cell):
        # A blank line before it, as above, and a later NaN that is not the first.
        def edit(lines):
            lines[3] = ""
            lines[6] = "1.0," + cell
            lines[9] = "nan,1.0"
        path, trial_file = self.edit_trial_rows(tmp_path, edit)
        where = re.escape(f"{trial_file}:7: non-finite sample '{cell}' in channel 'ch2'")
        with pytest.raises(DatasetError, match=f"^{where}$"):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["classes", "sampling_rate_hz", "trials"])
    def test_manifest_missing_key(self, tmp_path, key):
        path, manifest = self.write_manifest(tmp_path)
        del manifest[key]
        path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match=f"^manifest missing required key '{key}'$"):
            load_dataset(path)

    def test_empty_trial_file(self, tmp_path):
        path, manifest = self.write_manifest(tmp_path)
        trial_file = path.parent / manifest["trials"][0]["path"]
        trial_file.write_bytes(b"")
        with pytest.raises(DatasetError,
                           match=f"^trial file is empty: {re.escape(str(trial_file))}$"):
            load_dataset(path)

    def test_header_only_file_has_no_samples(self, tmp_path):
        def edit(lines):
            del lines[1:]
        path, _ = self.edit_trial_rows(tmp_path, edit)
        with pytest.raises(DatasetError, match="no samples"):
            load_dataset(path)


def cache_entries(data_dir) -> list[str]:
    cache = data_dir / ".myobench-cache"
    return sorted(p.name for p in cache.iterdir()) if cache.exists() else []


def entry_name(trial_file) -> str:
    return f"{trial_file.name}.{hashlib.sha256(trial_file.read_bytes()).hexdigest()}.npy"


def no_loadtxt(*args, **kwargs):
    raise AssertionError("np.loadtxt called on a warm cache")


def npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    return buf.getvalue()


class TestParseCache:
    def saved(self, tmp_path):
        """A saved tiny dataset: (manifest path, first trial file)."""
        manifest = save_dataset(tiny_dataset(), tmp_path / "d")
        return manifest, manifest.parent / "t0.csv"

    def test_warm_load_equals_cold_and_skips_parsing(self, tmp_path, monkeypatch):
        manifest, _ = self.saved(tmp_path)
        cold = load_dataset(manifest)
        assert cache_entries(manifest.parent) == sorted(
            entry_name(manifest.parent / f"t{i}.csv") for i in range(4))
        monkeypatch.setattr(np, "loadtxt", no_loadtxt)
        warm = load_dataset(manifest)
        for a, b in zip(cold.trials, warm.trials):
            assert a.data.dtype == b.data.dtype == np.float64
            assert np.array_equal(a.data, b.data)

    def test_entries_and_loads_are_channel_major(self, tmp_path):
        manifest, _ = self.saved(tmp_path)
        cold = load_dataset(manifest)
        warm = load_dataset(manifest)
        for entry in (manifest.parent / ".myobench-cache").iterdir():
            assert np.load(entry, allow_pickle=False).flags.f_contiguous
        for a, b in zip(cold.trials, warm.trials):
            assert a.data.flags.f_contiguous and b.data.flags.f_contiguous

    def test_csv_edited_in_place_is_parsed_again(self, tmp_path):
        manifest, trial_file = self.saved(tmp_path)
        load_dataset(manifest)
        text = trial_file.read_text()
        digit = next(i for i in range(text.index("\n"), len(text)) if text[i] in "123456789")
        edited = text[:digit] + ("1" if text[digit] != "1" else "2") + text[digit + 1:]
        trial_file.write_text(edited)
        assert trial_file.stat().st_size == len(text.encode())
        expected = np.loadtxt(trial_file, delimiter=",", skiprows=1, ndmin=2)
        assert not np.array_equal(expected, tiny_dataset().trials[0].data)
        np.testing.assert_array_equal(load_dataset(manifest).trials[0].data, expected)
        entries = cache_entries(manifest.parent)
        assert [e for e in entries if e.startswith("t0.csv.")] == [entry_name(trial_file)]

    def test_entry_of_a_renamed_csv_is_dropped(self, tmp_path):
        manifest, trial_file = self.saved(tmp_path)
        load_dataset(manifest)
        renamed = trial_file.rename(trial_file.with_name("t0-renamed.csv"))
        doc = json.loads(manifest.read_text())
        assert doc["trials"][0]["path"] == trial_file.name
        doc["trials"][0]["path"] = renamed.name
        manifest.write_text(json.dumps(doc))
        load_dataset(manifest)
        csvs = sorted(manifest.parent.glob("*.csv"))
        assert [c.name for c in csvs] == ["t0-renamed.csv", "t1.csv", "t2.csv", "t3.csv"]
        assert cache_entries(manifest.parent) == sorted(entry_name(c) for c in csvs)

    @pytest.mark.parametrize("corrupt", [
        lambda data, raw: raw[:-8],                      # truncated
        lambda data, raw: b"",                           # empty
        lambda data, raw: b"not an npy file",
        lambda data, raw: npy_bytes(data[:, :1]),        # too few columns
        lambda data, raw: npy_bytes(data[:0]),           # no rows
        lambda data, raw: npy_bytes(data.ravel()),       # 1-D
        lambda data, raw: npy_bytes(data.astype(np.float32)),
        lambda data, raw: npy_bytes(data.astype(">f8")),
        lambda data, raw: npy_bytes(np.ascontiguousarray(data)),  # as older versions wrote it
    ], ids=["truncated", "empty", "not-npy", "columns", "rows", "1d", "float32", "big-endian",
            "row-major"])
    def test_unusable_entry_is_parsed_again_and_rewritten(self, tmp_path, corrupt):
        manifest, trial_file = self.saved(tmp_path)
        load_dataset(manifest)
        entry = manifest.parent / ".myobench-cache" / entry_name(trial_file)
        original = tiny_dataset().trials[0].data
        entry.write_bytes(corrupt(original, entry.read_bytes()))
        loaded = load_dataset(manifest).trials[0].data
        assert loaded.tobytes() == original.tobytes()
        assert loaded.flags.f_contiguous
        assert entry.read_bytes() == npy_bytes(original)

    def test_failed_cache_write_still_loads(self, tmp_path, monkeypatch):
        manifest, _ = self.saved(tmp_path)

        def refuse(src, dst):
            raise OSError(30, "Read-only file system")
        monkeypatch.setattr(os, "replace", refuse)
        loaded = load_dataset(manifest)
        for a, b in zip(loaded.trials, tiny_dataset().trials):
            assert a.data.tobytes() == b.data.tobytes()
        assert cache_entries(manifest.parent) == []

    def test_malformed_csv_keeps_its_error_and_writes_no_entry(self, tmp_path):
        manifest, trial_file = self.saved(tmp_path)
        load_dataset(manifest)
        before = cache_entries(manifest.parent)
        lines = trial_file.read_text().splitlines()
        lines[6] = "1.0,2.0,3.0"
        trial_file.write_text("\n".join(lines) + "\n")
        where = re.escape(str(trial_file))
        with pytest.raises(DatasetError, match=f"^{where}:7: expected 2 values, got 3$"):
            load_dataset(manifest)
        assert cache_entries(manifest.parent) == before

    def test_non_finite_sample_fails_parsed_or_cached_and_is_not_stored(self, tmp_path,
                                                                        monkeypatch):
        manifest, trial_file = self.saved(tmp_path)
        load_dataset(manifest)
        before = cache_entries(manifest.parent)
        lines = trial_file.read_text().splitlines()
        lines[4] = "nan," + lines[4].split(",")[1]
        trial_file.write_text("\n".join(lines) + "\n")
        message = f"^{re.escape(str(trial_file))}:5: non-finite sample 'nan' in channel 'ch1'$"
        with pytest.raises(DatasetError, match=message):
            load_dataset(manifest)
        assert cache_entries(manifest.parent) == before
        # An entry for these bytes written by a version without the check.
        samples = tiny_dataset().trials[0].data.copy(order="F")
        samples[3, 0] = np.nan
        (manifest.parent / ".myobench-cache" / entry_name(trial_file)).write_bytes(
            npy_bytes(samples))
        monkeypatch.setattr(np, "loadtxt", no_loadtxt)
        with pytest.raises(DatasetError, match=message):
            load_dataset(manifest)


class TestSynthesize:
    def test_same_seed_is_bit_identical(self):
        cfg = SynthConfig(classes=tuple(default_class_specs(2)), channels=2,
                          trials_per_class=2, trial_ms=500, seed=77)
        a, b = synthesize_emg(cfg), synthesize_emg(cfg)
        for ta, tb in zip(a.trials, b.trials):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        base = dict(classes=tuple(default_class_specs(1)), channels=1,
                    trials_per_class=1, trial_ms=500)
        a = synthesize_emg(SynthConfig(seed=1, **base))
        b = synthesize_emg(SynthConfig(seed=2, **base))
        assert not np.array_equal(a.trials[0].data, b.trials[0].data)

    def test_spectral_mass_stays_in_band(self):
        spec = ClassSpec(name="hand_open", band=(20.0, 450.0), amplitude=1.0)
        cfg = SynthConfig(classes=(spec,), channels=1, trials_per_class=3,
                          trial_ms=2000, seed=5)
        dataset = synthesize_emg(cfg)
        for trial in dataset.trials:
            freqs, amplitudes = amplitude_spectrum(trial.data[:, 0], dataset.rate)
            power = amplitudes ** 2
            outside = (freqs < 20.0) | (freqs > 450.0)
            assert power[outside].sum() < 0.05 * power.sum()

    def test_trials_hit_the_class_amplitude(self):
        spec = ClassSpec(name="hand_open", band=(30.0, 200.0), amplitude=42.0)
        dataset = synthesize_emg(SynthConfig(classes=(spec,), channels=2,
                                             trials_per_class=2, trial_ms=1000, seed=6))
        for trial in dataset.trials:
            for ch in range(2):
                assert rms(trial.data[:, ch]) == pytest.approx(42.0, rel=1e-9)

    def test_window_rms_is_stationary(self):
        # 256 ms windows stay within 30% of the class amplitude scale.
        specs = default_class_specs(4)
        dataset = synthesize_emg(SynthConfig(classes=tuple(specs), channels=1,
                                             trials_per_class=2, trial_ms=3000, seed=8))
        by_name = {s.name: s for s in specs}
        cfg = SegmentationConfig(window_ms=256, slide_ms=64)
        for trial in dataset.trials:
            amp = by_name[trial.label].amplitude
            for window in segment(trial.data[:, 0], dataset.rate, cfg):
                assert abs(rms(window) - amp) < 0.30 * amp

    def test_group_tags_and_labels(self):
        dataset = synthesize_emg(SynthConfig(classes=tuple(default_class_specs(4)),
                                             channels=1, trials_per_class=1,
                                             trial_ms=500, seed=9))
        groups = {t.label: t.group for t in dataset.trials}
        assert set(groups.values()) == {"strong", "weak"}
        assert all(t.label in dataset.classes for t in dataset.trials)

    def test_degenerate_band_rejected(self):
        with pytest.raises(ValueError, match="degenerate band"):
            ClassSpec(name="x", band=(100.0, 100.0), amplitude=1.0)
        with pytest.raises(ValueError, match="10-500"):
            ClassSpec(name="x", band=(5.0, 100.0), amplitude=1.0)

    def test_band_must_clear_nyquist(self):
        spec = ClassSpec(name="x", band=(10.0, 300.0), amplitude=1.0)
        with pytest.raises(ValueError, match="Nyquist"):
            SynthConfig(classes=(spec,), rate=500.0)

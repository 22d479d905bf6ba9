"""CLI surface: command wiring, reproducibility, exit codes, output files."""
import csv
import json
import os
import shutil
import subprocess
import sys
import weakref
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import myobench
from myobench import cli, dataio, registry
from myobench.cli import main
from myobench.dataio import (ClassSpec, DatasetError, SynthConfig, load_dataset,
                             save_dataset, synthesize_emg)
from myobench.recognition import extract_window_set
from myobench.registry import parse_features, resolve_hemg_peak
from myobench.signals import SegmentationConfig


@pytest.fixture()
def runner():
    return CliRunner()


def synth_args(out, classes=2, trials=2, duration=1200, seed=7):
    return ["synth", "--classes", str(classes), "--channels", "2",
            "--trials", str(trials), "--duration-ms", str(duration),
            "--seed", str(seed), "--out", str(out)]


@pytest.fixture()
def dataset_dir(tmp_path, runner):
    out = tmp_path / "data"
    result = runner.invoke(main, synth_args(out))
    assert result.exit_code == 0, result.output
    return out


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs every command about a second of import; only
    # synthesis needs it.
    code = "import sys, myobench.cli; print('scipy.signal' in sys.modules)"
    src = Path(myobench.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("command", ["synth", "robustness", "classify"])
def test_negative_seed_is_usage_error(runner, tmp_path, command):
    # The manifest does not exist, so exit 2 shows the check ran before loading.
    if command == "synth":
        args = synth_args(tmp_path / "d", seed=-1)
    else:
        args = [command, "--data", str(tmp_path / "ghost.json"), "--seed", "-1",
                "--out", str(tmp_path / "o")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Invalid value for '--seed': -1" in result.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command, option", [
    ("extract", "--window-ms"), ("robustness", "--window-ms"), ("classify", "--window-ms"),
    ("synth", "--duration-ms"), ("synth", "--rate"),
])
def test_non_finite_length_or_rate_is_usage_error(runner, dataset_dir, tmp_path, command,
                                                  option, value):
    if command == "synth":
        args = synth_args(tmp_path / "d")
    else:
        args = [command, "--data", str(dataset_dir / "manifest.json"),
                "--out", str(tmp_path / "o")]
    result = runner.invoke(main, args + [option, value])
    assert result.exit_code == 2, result.output
    assert "must be positive and finite" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("command", ["extract", "robustness", "classify"])
def test_window_that_is_not_a_length_is_usage_error_before_loading(runner, tmp_path, command):
    # The manifest does not exist, so exit 2 shows the check ran before loading.
    result = runner.invoke(main, [command, "--data", str(tmp_path / "ghost.json"),
                                  "--window-ms", "inf", "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert "window length must be positive and finite, got inf ms" in result.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["extract", "robustness", "classify"])
def test_slide_of_no_whole_samples_is_usage_error(runner, dataset_dir, tmp_path, command):
    result = runner.invoke(main, [command, "--data", str(dataset_dir / "manifest.json"),
                                  "--slide-ms", "64.3", "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert "slide of 64.3 ms is not an integer number of samples at 1000.0 Hz" \
        in " ".join(result.output.split())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("command", ["extract", "robustness", "classify"])
def test_window_of_one_sample_is_usage_error(runner, dataset_dir, tmp_path, command):
    # 1 ms at 1 kHz is a whole sample, but a window needs at least two.
    result = runner.invoke(main, [command, "--data", str(dataset_dir / "manifest.json"),
                                  "--window-ms", "1", "--slide-ms", "1",
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert "window of 1.0 ms is only 1 samples; need >= 2" in " ".join(result.output.split())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("command", ["extract", "robustness", "classify"])
def test_rate_too_large_for_a_float_is_runtime_error(runner, dataset_dir, tmp_path, command):
    manifest_path = dataset_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["sampling_rate_hz"] = 10 ** 400
    manifest_path.write_text(json.dumps(manifest))
    result = runner.invoke(main, [command, "--data", str(manifest_path),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.strip() == \
        "Error: manifest: sampling_rate_hz is an integer too large for a float"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("command", ["extract", "robustness", "classify"])
@pytest.mark.parametrize("edit, message", [
    (lambda m: m["classes"].append(["rest"]),
     "manifest class 2: expected a string, got ['rest']"),
    (lambda m: m["trials"][0].update(path=5), "trial entry 0: 'path' must be a string, got 5"),
], ids=["class-list", "path-int"])
def test_manifest_value_of_the_wrong_json_type_is_runtime_error(
        runner, dataset_dir, tmp_path, command, edit, message):
    manifest_path = dataset_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    result = runner.invoke(main, [command, "--data", str(manifest_path),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.strip() == f"Error: {message}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("error", [ValueError, DatasetError])
@pytest.mark.parametrize("command, call", [("extract", "extract_window_set"),
                                           ("robustness", "run_grid"),
                                           ("classify", "evaluate_feature_sets")])
def test_runtime_error_of_a_command_is_exit_1_without_a_traceback(
        runner, dataset_dir, tmp_path, monkeypatch, command, call, error):
    def fail(*args, **kwargs):
        raise error("boom")
    monkeypatch.setattr(cli, call, fail)
    result = runner.invoke(main, [command, "--data", str(dataset_dir / "manifest.json"),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output == "Error: boom\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("args, message", [
    (["extract", "--features", "mavslp"],
     "window of 256 samples does not divide into 3 equal segments"),
    (["extract", "--features", "ar:order=300"], "AR order 300 needs more than 256 samples"),
    (["extract", "--window-ms", "3", "--slide-ms", "1", "--features", "mmav1"],
     "need a 1-D window or (windows, samples) matrix of at least 4 samples"),
    (["classify", "--sets", "m=mavslp"],
     "window of 256 samples does not divide into 3 equal segments"),
], ids=["mavslp", "ar-order", "mmav1-width", "classify-mavslp"])
def test_a_feature_the_window_width_cannot_take_names_no_channel(
        runner, dataset_dir, tmp_path, args, message):
    # The fault lies in the features and the window width, not in the data
    # of any trial or channel.
    result = runner.invoke(main, [*args[:1], "--data", str(dataset_dir / "manifest.json"),
                                  *args[1:], "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output == f"Error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


class TestSynth:
    def test_writes_manifest_and_trials(self, runner, tmp_path):
        out = tmp_path / "d"
        result = runner.invoke(main, synth_args(out, classes=3, trials=2))
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["trials"]) == 6
        for entry in manifest["trials"]:
            assert (out / entry["path"]).exists()
        assert (out / "manifest.json.config.json").exists()

    def test_same_flags_same_bytes(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, synth_args(a)).exit_code == 0
        assert runner.invoke(main, synth_args(b)).exit_code == 0
        for path_a in sorted(a.iterdir()):
            path_b = b / path_a.name
            assert path_a.read_text() == path_b.read_text()

    def test_invalid_band_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, synth_args(tmp_path / "d", classes=1)
                               + ["--band", "nonsense"])
        assert result.exit_code == 2

    def test_band_count_mismatch(self, runner, tmp_path):
        result = runner.invoke(main, synth_args(tmp_path / "d", classes=2)
                               + ["--band", "20-100"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("options, message", [
        (["--amplitude", "0", "--amplitude", "1"], "amplitude must be positive"),
        (["--amplitude", "-5", "--amplitude", "nan"], "amplitude must be positive"),
        (["--band", "10-5", "--band", "20-100"], "degenerate band"),
        (["--band", "5-600", "--band", "20-100"], "outside 10-500 Hz"),
        (["--classes", "0"], "need at least one class"),
    ])
    def test_bad_class_option_is_usage_error(self, runner, tmp_path, options, message):
        result = runner.invoke(main, synth_args(tmp_path / "d", classes=2) + options)
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not list(tmp_path.iterdir())

    def test_zero_channels_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, synth_args(tmp_path / "d") + ["--channels", "0"])
        assert result.exit_code == 2, result.output
        assert "channels and trials_per_class must be >= 1" in result.output
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option", ["--duration-ms", "--rate"])
    def test_trial_too_long_for_an_array_is_usage_error(self, runner, tmp_path, option):
        # 1e300 fails before anything is allocated; never try a large but
        # allocatable length here.
        result = runner.invoke(main, synth_args(tmp_path / "d") + [option, "1e300"])
        assert result.exit_code == 2, result.output
        assert "--duration-ms" in result.output and "--rate" in result.output
        assert "too many for an array" in result.output
        assert not list(tmp_path.iterdir())

    def test_unallocatable_trial_is_runtime_error(self, runner, tmp_path):
        # 1e17 samples pass the intp check, and numpy refuses the 1.4 EiB
        # table before allocating anything; never try a large but
        # allocatable length here.
        result = runner.invoke(main, ["synth", "--classes", "1", "--trials", "1",
                                      "--duration-ms", "1e17", "--out", str(tmp_path / "d")])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("Error: ") and result.output.count("\n") == 1
        assert "--duration-ms" in result.output and "--rate" in result.output
        assert not list(tmp_path.iterdir())


def zero_second_channel(trial_csv):
    """Rewrite a two-channel trial CSV with every ``ch2`` sample zero."""
    lines = trial_csv.read_text().splitlines()
    lines[1:] = [line.split(",")[0] + ",0.0" for line in lines[1:]]
    trial_csv.write_text("\n".join(lines) + "\n")


def reference_extract_csv(dataset, windows, path):
    """The extract CSV as csv.writer writes it, one row per window."""
    trials = {t.trial_id: t for t in dataset.trials}
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial_id", "label", "group", "window_start_ms",
                         *windows.feature_names])
        row_ids = [trial_id for trial_id, count in zip(windows.trial_ids,
                                                       np.diff(windows.trial_rows))
                   for _ in range(count)]
        for trial_id, start, values in zip(row_ids, windows.window_start_ms,
                                           windows.features, strict=True):
            trial = trials[trial_id]
            writer.writerow([trial_id, trial.label, trial.group, f"{start:g}",
                             *(f"{v:.10g}" for v in values)])
    return path


class TestExtract:
    def test_bytes_equal_csv_writer_rows(self, runner, tmp_path):
        # Class names, trial ids and a group that csv must quote.
        specs = (ClassSpec(name="hand, open", band=(30.0, 140.0), amplitude=50.0),
                 ClassSpec(name='say "hi"', band=(150.0, 300.0), amplitude=0.02,
                           group="weak, low"))
        manifest = save_dataset(synthesize_emg(SynthConfig(
            classes=specs, channels=2, trials_per_class=2, trial_ms=1200, seed=16)),
            tmp_path / "data")
        features = "rms,wamp,hemg:bins=4,ar:order=2,mmnf"
        out = tmp_path / "features.csv"
        result = runner.invoke(main, ["extract", "--data", str(manifest),
                                      "--features", features, "--out", str(out)])
        assert result.exit_code == 0, result.output
        dataset = load_dataset(manifest)
        peak = reduce(max, (float(np.max(np.abs(t.data[:, ch]))) for t in dataset.trials
                            for ch in range(len(t.channels))), 0.0)
        descriptors = resolve_hemg_peak(parse_features(features), peak)
        windows = extract_window_set(dataset.trials, dataset.rate, descriptors,
                                     SegmentationConfig(), dataset.classes)
        expected = reference_extract_csv(dataset, windows, tmp_path / "expected.csv")
        assert out.read_bytes() == expected.read_bytes()
        assert b'"say ""hi""_01","say ""hi""","weak, low",' in out.read_bytes()

    def test_a_window_that_fails_extraction_is_named(self, runner, dataset_dir, tmp_path):
        zero_second_channel(dataset_dir / "hand_open_02.csv")
        out = tmp_path / "f.csv"
        result = runner.invoke(main, [
            "extract", "--data", str(dataset_dir / "manifest.json"), "--features", "rms,ar",
            "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == ("Error: trial hand_open_02, channel ch2: "
                                 "window is identically zero; autocorrelation is singular\n")
        assert not out.exists()

    def test_feature_columns_per_channel(self, runner, dataset_dir, tmp_path):
        out = tmp_path / "features.csv"
        result = runner.invoke(main, [
            "extract", "--data", str(dataset_dir / "manifest.json"),
            "--features", "rms,mmnf", "--window-ms", "256", "--slide-ms", "64",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        with out.open() as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        feature_cols = [c for c in header if ":" in c]
        assert len(feature_cols) == 2 * 2  # 2 features x 2 channels
        # One row per window: 1200 ms trials -> 15 windows each, 4 trials.
        assert len(rows) - 1 == 15 * 4
        assert (tmp_path / "features.csv.config.json").exists()

    def test_unknown_feature_is_usage_error(self, runner, dataset_dir, tmp_path):
        result = runner.invoke(main, [
            "extract", "--data", str(dataset_dir / "manifest.json"),
            "--features", "glitter", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert "valid names" in result.output

    @pytest.mark.parametrize("token, message", [
        ("ar:order=2.5", "order must be a whole number"),
        ("hemg:bins=3.7", "bins must be a whole number"),
        ("mavslp:segments=4.9", "segments must be a whole number"),
        ("ar:order=inf", "order must be a whole number"),
        ("mnf:dc=0.5", "dc must be 0 or 1"),
        ("mnf:dc=5", "dc must be 0 or 1"),
    ])
    def test_bad_count_parameter_is_usage_error(self, runner, dataset_dir, tmp_path, token,
                                                message):
        result = runner.invoke(main, [
            "extract", "--data", str(dataset_dir / "manifest.json"),
            "--features", f"rms,{token}", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert f"{token}: {message}" in result.output
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("token, message", [
        ("hemg:bins=0", "bins must be at least 1"),
        ("hemg:bins=-2", "bins must be at least 1"),
        ("ar:order=0", "order must be at least 1"),
        ("mavslp:segments=1", "segments must be at least 2"),
        ("wamp:threshold=-1", "threshold must be non-negative"),
        ("zc:threshold=nan", "threshold must be non-negative"),
        ("ssc:threshold=nan", "threshold must be non-negative"),
        ("wamp:threshold=nan", "threshold must be non-negative"),
        ("hemg:limit=-1", "limit must be positive and finite"),
        ("hemg:limit=1e+308", "the bin width 2*limit/bins must be positive and finite, got inf"),
    ])
    def test_bad_parameter_is_usage_error_before_loading(self, runner, tmp_path, token,
                                                         message):
        # The manifest does not exist, so exit 2 shows the check ran before loading.
        result = runner.invoke(main, [
            "extract", "--data", str(tmp_path / "ghost.json"),
            "--features", f"rms,{token}", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert f"{token}: {message}" in result.output
        assert not list(tmp_path.iterdir())

    def test_missing_dataset_is_runtime_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "extract", "--data", str(tmp_path / "no.json"),
            "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 1

    def test_empty_trial_list_is_runtime_error(self, runner, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"classes": ["rest"], "sampling_rate_hz": 1000.0, "trials": []}))
        result = runner.invoke(main, [
            "extract", "--data", str(manifest), "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.strip() == "Error: no trials to extract features from"

    def test_nan_sample_is_runtime_error(self, runner, dataset_dir, tmp_path):
        trial_csv = sorted(dataset_dir.glob("*.csv"))[0]
        lines = trial_csv.read_text().splitlines()
        lines[10] = "nan," + lines[10].split(",", 1)[1]
        trial_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "extract", "--data", str(dataset_dir / "manifest.json"), "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.strip() == \
            f"Error: {trial_csv}:11: non-finite sample 'nan' in channel 'ch1'"
        assert not out.exists()

    def test_nan_sample_fails_hemg(self, runner, dataset_dir, tmp_path):
        # The NaN used to land in bin 0 of the first windows' histograms, with
        # exit 0; it now fails the load, before any feature reads it.
        trial_csv = sorted(dataset_dir.glob("*.csv"))[0]
        lines = trial_csv.read_text().splitlines()
        lines[10] = "nan," + lines[10].split(",", 1)[1]
        trial_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "extract", "--data", str(dataset_dir / "manifest.json"),
            "--features", "hemg", "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.strip() == \
            f"Error: {trial_csv}:11: non-finite sample 'nan' in channel 'ch1'"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_sample_fails_hemg(self, runner, dataset_dir, tmp_path, value):
        # The peak that sets the histogram range would be infinite too; the
        # load refuses the sample first.
        trial_csv = sorted(dataset_dir.glob("*.csv"))[1]
        lines = trial_csv.read_text().splitlines()
        lines[10] = value + "," + lines[10].split(",", 1)[1]
        trial_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "extract", "--data", str(dataset_dir / "manifest.json"),
            "--features", "rms,hemg", "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.strip() == \
            f"Error: {trial_csv}:11: non-finite sample '{value}' in channel 'ch1'"
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda m, d: m["trials"][0].pop("path"),
         "trial entry 0: missing required key 'path'"),
        (lambda m, d: m.update(sampling_rate_hz=-5),
         "sampling_rate_hz must be a positive finite number, got -5"),
        (lambda m, d: m.update(trials=5), "manifest 'trials' must be a list, got 5"),
        (lambda m, d: m.update(trials=[1]), "trial entry 0: expected an object, got 1"),
        (lambda m, d: m.update(classes=5), "manifest 'classes' must be a list, got 5"),
        (lambda m, d: m["trials"][0].update(sampling_rate_hz="x"),
         "trial hand_open_01.csv: rate mismatch (x Hz declared vs 1000.0 Hz dataset)"),
        (lambda m, d: m["trials"][0].update(path="."),
         "cannot read trial file {data}: Is a directory"),
        (lambda m, d: m["trials"][1].update(path="./hand_open_01.csv"),
         "trial ids must be unique"),
        (lambda m, d: ((d / "mono.csv").write_text("ch1\n1.0\n2.0\n"),
                       m["trials"][0].update(path="mono.csv", channels=["ch1"])),
         "trial hand_open_02 channels ['ch1', 'ch2'] differ from ['ch1']; "
         "datasets need a uniform layout"),
    ])
    def test_bad_manifest_is_runtime_error(self, runner, dataset_dir, tmp_path,
                                           edit, message):
        manifest_path = dataset_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        edit(manifest, dataset_dir)
        manifest_path.write_text(json.dumps(manifest))
        result = runner.invoke(main, [
            "extract", "--data", str(manifest_path), "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.strip() == f"Error: {message.format(data=dataset_dir)}"

    def test_a_fault_of_the_manifest_comes_before_any_sample(self, runner, dataset_dir,
                                                              tmp_path):
        # Trial 0 holds a NaN, and trial 2 repeats trial 1's id: the manifest
        # is checked whole before any trial file is read.
        trial_csv = dataset_dir / "hand_open_01.csv"
        lines = trial_csv.read_text().splitlines()
        lines[10] = "nan," + lines[10].split(",", 1)[1]
        trial_csv.write_text("\n".join(lines) + "\n")
        manifest_path = dataset_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["trials"][2]["path"] = "./hand_open_02.csv"
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["extract", "--data", str(manifest_path), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.strip() == "Error: trial ids must be unique"
        assert not out.exists()


class TestStreamedExtract:
    """extract reads the trials in groups of at least ``registry._BLOCK_SAMPLES``
    window samples, and keeps only the group it is extracting."""

    def run(self, runner, manifest, features, out):
        result = runner.invoke(main, ["extract", "--data", str(manifest),
                                      "--features", features, "--out", str(out)])
        assert result.exit_code == 0, result.output
        return out.read_bytes(), Path(f"{out}.config.json").read_bytes()

    @pytest.mark.parametrize("features", ["rms,mav,wl", "rms,mmnf,hemg", "hemg:limit=200,wl"])
    def test_groups_of_any_size_write_the_same_bytes(self, runner, dataset_dir, tmp_path,
                                                     monkeypatch, features):
        # Each of the 4 trials holds 15 windows x 256 samples x 2 channels =
        # 7,680 window samples: the default budget makes one group of them,
        # 15,360 makes two, and 1 makes each trial a group.
        manifest = dataset_dir / "manifest.json"
        calls = []

        def counted(trials, *args):
            calls[-1] += 1
            return extract_window_set(trials, *args)

        monkeypatch.setattr(cli, "extract_window_set", counted)
        outputs = []
        for budget, groups in [(registry._BLOCK_SAMPLES, 1), (2 * 7680, 2), (1, 4)]:
            monkeypatch.setattr(registry, "_BLOCK_SAMPLES", budget)
            calls.append(0)
            outputs.append(self.run(runner, manifest, features, tmp_path / f"{budget}.csv"))
            assert calls[-1] == groups
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("features, alive", [
        ("rms,mav,wl", [1, 1, 1, 1]),        # one trial at a time
        ("hemg:limit=200,wl", [1, 1, 1, 1]),  # a given range needs no peak
        ("rms,hemg", [1, 2, 3, 4]),          # the range needs every trial's peak first
    ])
    def test_only_the_group_in_hand_is_kept(self, runner, dataset_dir, tmp_path,
                                             monkeypatch, features, alive):
        refs, counts = [], []
        read_trial = dataio._read_trial

        def recorded(*args):
            trial = read_trial(*args)
            refs.append(weakref.ref(trial))
            counts.append(sum(ref() is not None for ref in refs))
            return trial

        monkeypatch.setattr(dataio, "_read_trial", recorded)
        monkeypatch.setattr(registry, "_BLOCK_SAMPLES", 1)  # every trial is over the budget
        self.run(runner, dataset_dir / "manifest.json", features, tmp_path / "x.csv")
        assert counts == alive

    def test_the_segmentation_is_checked_before_any_trial_is_read(self, runner, dataset_dir,
                                                                   tmp_path):
        for trial_csv in dataset_dir.glob("*.csv"):
            trial_csv.unlink()
        result = runner.invoke(main, ["extract", "--data", str(dataset_dir / "manifest.json"),
                                      "--slide-ms", "64.3", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2, result.output
        assert "slide of 64.3 ms is not an integer number of samples at 1000.0 Hz" \
            in " ".join(result.output.split())

    @pytest.mark.parametrize("budget", [registry._BLOCK_SAMPLES, 1])
    @pytest.mark.parametrize("fault", ["nan", "missing"])
    def test_a_fault_of_the_last_trial_writes_nothing(self, runner, dataset_dir, tmp_path,
                                                       monkeypatch, budget, fault):
        monkeypatch.setattr(registry, "_BLOCK_SAMPLES", budget)
        trial_csv = dataset_dir / "hand_close_02.csv"  # the manifest's last trial
        if fault == "nan":
            lines = trial_csv.read_text().splitlines()
            lines[10] = lines[10].split(",", 1)[0] + ",nan"
            trial_csv.write_text("\n".join(lines) + "\n")
            message = f"{trial_csv}:11: non-finite sample 'nan' in channel 'ch2'"
        else:
            trial_csv.unlink()
            message = f"missing trial file: {trial_csv}"
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "extract", "--data", str(dataset_dir / "manifest.json"), "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.strip() == f"Error: {message}"
        assert not list(tmp_path.glob("x.csv*"))


class TestRobustness:
    def test_default_panel_covers_the_representatives(self, runner, dataset_dir, tmp_path):
        out = tmp_path / "grid"
        result = runner.invoke(main, [
            "robustness", "--data", str(dataset_dir / "manifest.json"),
            "--snr", "20,10", "--reps", "2", "--seed", "1",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        with (tmp_path / "grid.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["feature"] for r in rows} == {
            "rms", "zc", "wamp", "ssc", "hemg", "ar", "mnf", "mdf", "mmnf", "mmdf"}
        payload = json.loads((tmp_path / "grid.json").read_text())
        assert payload["config"]["snr_grid_db"] == [20.0, 10.0]

    @pytest.mark.parametrize("prefix", ["run.v2", "grid.csv"])
    def test_out_is_a_prefix_even_with_a_dot(self, runner, dataset_dir, tmp_path, prefix):
        out = tmp_path / "out" / prefix
        result = runner.invoke(main, [
            "robustness", "--data", str(dataset_dir / "manifest.json"),
            "--features", "rms", "--snr", "20", "--reps", "1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output.startswith(f"wrote {out}.csv and {out}.json (")
        assert sorted(f.name for f in out.parent.iterdir()) == [
            f"{prefix}.csv", f"{prefix}.csv.config.json", f"{prefix}.json"]

    def test_cell_counting(self, runner, dataset_dir, tmp_path):
        result = runner.invoke(main, [
            "robustness", "--data", str(dataset_dir / "manifest.json"),
            "--features", "rms", "--snr", "20,15,10,5,3,0", "--reps", "10",
            "--out", str(tmp_path / "g")])
        assert result.exit_code == 0, result.output
        with (tmp_path / "g.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        # 2 trials x 2 channels = 4 records per motion, 10 reps each:
        # 8 records x 6 SNRs x 10 reps = 480 PE samples over 12 cells.
        assert len(rows) == 2 * 6
        assert sum(int(r["n"]) for r in rows) == 8 * 6 * 10

    def test_sweep_slices(self, runner, dataset_dir, tmp_path):
        result = runner.invoke(main, [
            "robustness", "--data", str(dataset_dir / "manifest.json"),
            "--sweep", "wamp:threshold=10..50:10", "--snr", "20", "--reps", "1",
            "--out", str(tmp_path / "s")])
        assert result.exit_code == 0, result.output
        with (tmp_path / "s.csv").open() as fh:
            params = {r["parameters"] for r in csv.DictReader(fh)}
        assert params == {"threshold=10", "threshold=20", "threshold=30",
                          "threshold=40", "threshold=50"}

    def test_nan_sample_is_runtime_error(self, runner, dataset_dir, tmp_path):
        trial_csv = dataset_dir / "hand_close_01.csv"
        lines = trial_csv.read_text().splitlines()
        lines[10] = "nan," + lines[10].split(",", 1)[1]
        trial_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "grid"
        result = runner.invoke(main, [
            "robustness", "--data", str(dataset_dir / "manifest.json"),
            "--reps", "2", "--snr", "20,10", "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.strip() == \
            f"Error: {trial_csv}:11: non-finite sample 'nan' in channel 'ch1'"
        assert not (tmp_path / "grid.csv").exists()

    def test_zero_power_window_is_excluded_not_fatal(self, runner, dataset_dir, tmp_path):
        trial_csv = dataset_dir / "hand_close_01.csv"
        lines = trial_csv.read_text().splitlines()
        for i in range(1, 301):
            lines[i] = "0.0," + lines[i].split(",", 1)[1]
        trial_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "grid"
        result = runner.invoke(main, [
            "robustness", "--data", str(dataset_dir / "manifest.json"),
            "--features", "rms,hemg", "--reps", "2", "--snr", "20,10", "--out", str(out)])
        assert result.exit_code == 0, result.output
        with (tmp_path / "grid.csv").open() as fh:
            rows = [r for r in csv.DictReader(fh) if r["motion"] == "hand_close"]
        # hand_close: 2 trials x 2 channels, one window each; ch1 of trial 01 is flat.
        assert len(rows) == 4
        assert {(r["n"], r["excluded"]) for r in rows} == {("6", "2")}

    def test_feature_without_evidence_is_runtime_error(self, runner, dataset_dir, tmp_path):
        # 256-sample windows do not split into mavslp's default 3 segments,
        # so every record is excluded; the run used to exit 0 with NaN means.
        out = tmp_path / "grid"
        result = runner.invoke(main, [
            "robustness", "--data", str(dataset_dir / "manifest.json"),
            "--features", "mavslp", "--reps", "2", "--snr", "20,10", "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.strip() == (
            "Error: mavslp: every record excluded (window of 256 samples does not divide "
            f"into 3 equal segments); wrote {out}.csv and {out}.json anyway")

    def test_only_the_unscored_features_are_named(self, runner, dataset_dir, tmp_path):
        out = tmp_path / "grid"
        result = runner.invoke(main, [
            "robustness", "--data", str(dataset_dir / "manifest.json"),
            "--features", "rms,wamp:threshold=1e6,mavslp:segments=4", "--reps", "2",
            "--snr", "20", "--out", str(out)])
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "Error: wamp(threshold=1e+06): every record excluded (its clean value is zero); "
            "wrote ")
        with (tmp_path / "grid.csv").open() as fh:
            counts = {(r["feature"], r["n"], r["excluded"]) for r in csv.DictReader(fh)}
        # 2 classes x 2 trials x 2 channels, one window each: 4 records per motion.
        assert counts == {("rms", "8", "0"), ("mavslp", "8", "0"), ("wamp", "0", "8")}

    def test_json_writes_null_where_a_cell_has_no_pe(self, runner, dataset_dir, tmp_path):
        # mavslp's default 3 segments do not split 256-sample windows, so its
        # cells have n == 0 and no mean or spread.
        out = tmp_path / "grid"
        result = runner.invoke(main, [
            "robustness", "--data", str(dataset_dir / "manifest.json"),
            "--features", "rms,mavslp", "--reps", "1", "--snr", "20", "--out", str(out)])
        assert result.exit_code == 1  # mavslp is unscored; the grid is written anyway

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        rows = json.loads((tmp_path / "grid.json").read_text(), parse_constant=reject)["rows"]
        empty = [row for row in rows if row["n"] == 0]
        assert {row["feature"] for row in empty} == {"mavslp"}
        assert all(row["mean_pe"] is None and row["std_pe"] is None for row in empty)
        assert all(isinstance(row["mean_pe"], float) for row in rows if row["n"] > 0)
        with (tmp_path / "grid.csv").open() as fh:
            empty_csv = [r for r in csv.DictReader(fh) if r["n"] == "0"]
        assert len(empty_csv) == len(empty)
        assert {(r["mean_pe"], r["std_pe"]) for r in empty_csv} == {("nan", "nan")}

    @pytest.mark.parametrize("option", [
        ["--features", "rms,wamp,rms"],
        ["--features", "wamp:threshold=10,WAMP"],
        ["--sweep", "wamp:threshold=10,10"],
        ["--sweep", "hemg:bins=3,5,3.0"],
    ])
    def test_repeated_feature_is_usage_error_before_loading(self, runner, tmp_path, option):
        # The manifest does not exist, so exit 2 shows the check ran before loading.
        result = runner.invoke(main, [
            "robustness", "--data", str(tmp_path / "ghost.json"), *option,
            "--out", str(tmp_path / "grid")])
        assert result.exit_code == 2
        assert "a feature (or sweep value) is listed twice" in result.output
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option, message", [
        (["--snr", "20,inf"], "snr_db must be finite"),
        (["--reps", "0"], "need at least one repetition"),
        (["--snr=-4000"], "SNR -4000 dB is too low: 10^(-SNR/10) overflows a float"),
        (["--snr", "20,20"], "SNR level 20 dB is repeated"),
        (["--snr", "10,0,-0"], "SNR level -0 dB is repeated"),
    ])
    def test_bad_grid_shape_is_runtime_error(self, runner, dataset_dir, tmp_path,
                                             option, message):
        result = runner.invoke(main, [
            "robustness", "--data", str(dataset_dir / "manifest.json"), *option,
            "--out", str(tmp_path / "grid")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.strip() == f"Error: {message}"

    @pytest.mark.parametrize("option, message", [
        (["--snr", "20,inf"], "snr_db must be finite"),
        (["--reps", "0"], "need at least one repetition"),
        (["--snr=-4000"], "SNR -4000 dB is too low: 10^(-SNR/10) overflows a float"),
        (["--snr", "20,20"], "SNR level 20 dB is repeated"),
        (["--snr", "10,0,-0"], "SNR level -0 dB is repeated"),
    ])
    def test_bad_grid_shape_is_reported_before_loading(self, runner, tmp_path, option,
                                                       message):
        # The manifest does not exist, so the grid's error shows it was checked first.
        result = runner.invoke(main, [
            "robustness", "--data", str(tmp_path / "ghost.json"), *option,
            "--out", str(tmp_path / "grid")])
        assert result.exit_code == 1
        assert result.output.strip() == f"Error: {message}"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option, message", [
        (["--snr", ","], "bad --snr: empty SNR grid"),
        (["--snr", "20,abc"], "bad --snr: could not convert string to float: 'abc'"),
        (["--sweep", "wamp:threshold=10,20", "--features", "rms"],
         "--sweep and --features are mutually exclusive"),
    ])
    def test_bad_grid_or_panel_option_is_usage_error_before_loading(self, runner, tmp_path,
                                                                    option, message):
        # The manifest does not exist, so exit 2 shows the check ran before loading.
        result = runner.invoke(main, [
            "robustness", "--data", str(tmp_path / "ghost.json"), *option,
            "--out", str(tmp_path / "grid")])
        assert result.exit_code == 2
        assert message in result.output
        assert not list(tmp_path.iterdir())

    def test_negative_max_windows_is_usage_error(self, runner, dataset_dir, tmp_path):
        result = runner.invoke(main, [
            "robustness", "--data", str(dataset_dir / "manifest.json"),
            "--max-windows", "-1", "--out", str(tmp_path / "grid")])
        assert result.exit_code == 2
        assert "--max-windows" in result.output
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("sweep, message", [
        ("wamp=threshold", "sweep must look like 'wamp:threshold=10..50:10'"),
        ("wamp:threshold=50..10:10", "sweep must look like 'wamp:threshold=10..50:10'"),
        ("hemg:bins=3.5,5", "hemg:bins=3.5: bins must be a whole number"),
        ("hemg:bins=0,3", "hemg:bins=0: bins must be at least 1"),
        ("ar:order=0..2", "ar:order=0: order must be at least 1"),
        ("wamp:threshold=-10..10:10", "wamp:threshold=-10: threshold must be non-negative"),
        ("glitter:bins=1,2", "unknown feature 'glitter'"),
        ("wamp:bins=1,2", "feature 'wamp' has no parameter 'bins'"),
        ("wamp:threshold=0..inf:1", "sweep must look like 'wamp:threshold=10..50:10'"),
        ("wamp:threshold=0..1e300:1e-300", "sweep must look like 'wamp:threshold=10..50:10'"),
    ])
    def test_bad_sweep_is_usage_error(self, runner, tmp_path, sweep, message):
        # The manifest does not exist, so exit 2 shows the check ran before loading.
        result = runner.invoke(main, [
            "robustness", "--data", str(tmp_path / "ghost.json"),
            "--sweep", sweep, "--out", str(tmp_path / "s")])
        assert result.exit_code == 2
        assert message in result.output
        assert not list(tmp_path.iterdir())


class TestClassify:
    def test_table_shape_and_outputs(self, runner, dataset_dir, tmp_path):
        out = tmp_path / "clf"
        result = runner.invoke(main, [
            "classify", "--data", str(dataset_dir / "manifest.json"),
            "--sets", "hudgins,oskoei,robust", "--noise", "clean,20,15,10",
            "--seed", "3", "--out", str(out)])
        assert result.exit_code == 0, result.output
        with Path(f"{out}_table.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature_set", "clean", "20dB", "15dB", "10dB"]
        assert [r[0] for r in rows[1:]] == ["hudgins", "oskoei", "robust"]
        assert len(rows[1:]) * (len(rows[0]) - 1) == 12
        robust_clean = float(rows[3][1])
        assert robust_clean >= 95.0
        report = json.loads(Path(f"{out}_report.json").read_text())
        assert report["config"]["seed"] == 3
        assert len(report["cells"]) == 12
        decisions = list(tmp_path.glob("clf_decisions_*.csv"))
        assert len(decisions) == 12
        with decisions[0].open() as fh:
            header = next(csv.reader(fh))
        assert header == ["window_start_ms", "true_label", "raw_label", "mv_label"]

    def test_seven_row_table(self, runner, dataset_dir, tmp_path):
        # Four single-feature sets plus the three multi-feature sets.
        out = tmp_path / "full"
        result = runner.invoke(main, [
            "classify", "--data", str(dataset_dir / "manifest.json"),
            "--sets", "hemg1=hemg,wl1=wl,wamp1=wamp,mmnf1=mmnf,"
                      "hudgins,oskoei,robust",
            "--noise", "clean,20,15,10", "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(Path(f"{out}_report.json").read_text())
        assert len(report["sets"]) == 7
        assert len(report["cells"]) == 28

    def test_close_noise_levels_get_their_own_outputs(self, runner, dataset_dir, tmp_path):
        # 20 and 20.000001 share the label 20dB under :g; each needs its own
        # column, report cell and decision file.
        out = tmp_path / "close"
        result = runner.invoke(main, [
            "classify", "--data", str(dataset_dir / "manifest.json"), "--sets", "hudgins",
            "--noise", "20,20.000001", "--out", str(out)])
        assert result.exit_code == 0, result.output
        with Path(f"{out}_table.csv").open() as fh:
            assert next(csv.reader(fh)) == ["feature_set", "20dB", "20.000001dB"]
        report = json.loads(Path(f"{out}_report.json").read_text())
        assert report["levels"] == ["20dB", "20.000001dB"]
        assert sorted(report["cells"]) == ["hudgins@20.000001dB", "hudgins@20dB"]
        assert sorted(p.name for p in tmp_path.glob("close_decisions_*.csv")) == [
            "close_decisions_hudgins_20.000001dB.csv", "close_decisions_hudgins_20dB.csv"]

    def test_classify_leaves_numpy_ma_unloaded(self, dataset_dir, tmp_path):
        # np.unique imports numpy.ma on first use, about 15 ms of every classify.
        code = ("import sys; from myobench.cli import main; "
                "main(sys.argv[1:], standalone_mode=False); "
                "print('numpy.ma' in sys.modules)")
        src = Path(myobench.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-c", code, "classify",
             "--data", str(dataset_dir / "manifest.json"), "--sets", "hudgins,robust",
             "--noise", "clean,10", "--out", str(tmp_path / "c")],
            capture_output=True, text=True, check=True, env=env).stdout
        assert out.strip().splitlines()[-1] == "False"

    def test_a_noise_level_too_low_for_a_float_is_runtime_error(self, runner, dataset_dir,
                                                                tmp_path):
        # 10^(4000/10) overflows: an error message, not an OverflowError's traceback.
        result = runner.invoke(main, [
            "classify", "--data", str(dataset_dir / "manifest.json"), "--sets", "hudgins",
            "--noise=clean,-4000", "--out", str(tmp_path / "c")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == "Error: SNR -4000 dB is too low: 10^(-SNR/10) overflows a float\n"

    def test_a_channel_of_zero_power_is_named(self, runner, dataset_dir, tmp_path):
        zero_second_channel(dataset_dir / "hand_close_02.csv")
        result = runner.invoke(main, [
            "classify", "--data", str(dataset_dir / "manifest.json"), "--sets", "r=rms+mav",
            "--noise", "clean,10", "--out", str(tmp_path / "c")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == ("Error: trial hand_close_02, channel ch2: "
                                 "signal power is zero; SNR is undefined\n")

    def test_a_window_that_fails_extraction_is_named(self, runner, dataset_dir, tmp_path):
        # The default sets' AR fails on the zero channel's clean windows,
        # before any noise is drawn.
        zero_second_channel(dataset_dir / "hand_open_02.csv")
        result = runner.invoke(main, [
            "classify", "--data", str(dataset_dir / "manifest.json"), "--noise", "clean,10",
            "--out", str(tmp_path / "c")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == ("Error: trial hand_open_02, channel ch2: "
                                 "window is identically zero; autocorrelation is singular\n")

    def test_missing_dataset_path(self, runner, tmp_path):
        result = runner.invoke(main, [
            "classify", "--data", str(tmp_path / "ghost.json"),
            "--out", str(tmp_path / "c")])
        assert result.exit_code == 1

    def test_repeated_class_name_is_runtime_error(self, runner, dataset_dir, tmp_path):
        manifest_path = dataset_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["classes"].append(manifest["classes"][0])
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "c"
        result = runner.invoke(main, [
            "classify", "--data", str(manifest_path), "--sets", "hudgins",
            "--noise", "clean", "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.strip() == \
            f"Error: manifest repeats class name {manifest['classes'][0]!r}"
        assert not Path(f"{out}_table.csv").exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--noise", "clean,clean,20,20.0", "noise level clean is repeated"),
        ("--noise", "10,20,20.0", "noise level 20dB is repeated"),
        ("--sets", "hudgins,hudgins", "feature set 'hudgins' is repeated"),
        ("--sets", "a=rms,a=mav", "feature set 'a' is repeated"),
        ("--vote", "4", "odd positive count, got 4"),
        ("--vote", "0", "odd positive count, got 0"),
        ("--vote", "-3", "odd positive count, got -3"),
        ("--sets", "x=ar:order=inf", "ar:order=inf: order must be a whole number"),
        ("--sets", "x=rms+mmnf:dc=2", "mmnf:dc=2: dc must be 0 or 1"),
        ("--sets", "x/../../x=rms", "feature set name 'x/../../x' contains a path separator"),
        ("--sets", "hudgins,a/b=rms", "feature set name 'a/b' contains a path separator"),
        ("--sets", "=rms", "a feature set name is empty"),
        ("--sets", " , ", "empty feature-set list"),
        ("--noise", ",", "empty noise-level list"),
    ])
    def test_bad_option_is_usage_error_before_loading(self, runner, tmp_path, option,
                                                      value, message):
        # The manifest does not exist, so exit 2 shows the check ran before loading.
        out = tmp_path / "c"
        result = runner.invoke(main, ["classify", "--data", str(tmp_path / "ghost.json"),
                                      option, value, "--out", str(out)])
        assert result.exit_code == 2
        assert message in result.output
        assert not list(tmp_path.iterdir())

    def test_unknown_set_is_usage_error(self, runner, dataset_dir, tmp_path):
        result = runner.invoke(main, [
            "classify", "--data", str(dataset_dir / "manifest.json"),
            "--sets", "imaginary", "--out", str(tmp_path / "c")])
        assert result.exit_code == 2


# Each command's resolved configuration, key by key in the order it is written.
CONFIG_KEYS = {
    "synth": ["command", "seed", "rate_hz", "channels", "trials_per_class", "duration_ms",
              "classes"],
    "extract": ["command", "data", "features", "window_ms", "slide_ms"],
    "robustness": ["snr_grid_db", "repetitions", "seed", "groups", "features", "command",
                   "data", "window_ms", "slide_ms", "max_windows"],
    "sweep": ["snr_grid_db", "repetitions", "seed", "groups", "features", "sweep", "command",
              "data", "window_ms", "slide_ms", "max_windows"],
    "classify": ["command", "data", "sets", "noise", "vote_window", "window_ms", "slide_ms",
                 "seed"],
}


def test_outputs_do_not_depend_on_the_parse_cache(runner, dataset_dir, tmp_path, monkeypatch):
    """extract, robustness and classify write the same bytes, sidecars included,
    on a cold cache, on a warm one, and when cache entries cannot be written."""
    manifest = str(dataset_dir / "manifest.json")
    cache = dataset_dir / ".myobench-cache"
    commands = [
        ["extract", "--data", manifest, "--features", "rms,hemg,mnf", "--out", "{out}/f.csv"],
        ["robustness", "--data", manifest, "--features", "rms,zc,mmnf", "--snr", "20,5",
         "--reps", "2", "--max-windows", "2", "--out", "{out}/grid"],
        ["classify", "--data", manifest, "--sets", "hudgins", "--noise", "clean,10",
         "--out", "{out}/clf"],
    ]

    def run_all(out, before_each=lambda: None):
        for args in commands:
            before_each()
            result = runner.invoke(main, [a.format(out=out) for a in args])
            assert result.exit_code == 0, result.output
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    cold = run_all(tmp_path / "cold", lambda: shutil.rmtree(cache, ignore_errors=True))
    assert len(cold) == 10
    assert len(list(cache.iterdir())) == 4  # one entry per trial
    with monkeypatch.context() as patch:
        patch.setattr(np, "loadtxt", None)  # a warm load parses no text
        warm = run_all(tmp_path / "warm")

    def refuse(src, dst):
        raise OSError(28, "No space left on device")
    shutil.rmtree(cache)
    monkeypatch.setattr(os, "replace", refuse)
    failing = run_all(tmp_path / "failing")
    assert list(cache.iterdir()) == []
    assert cold == warm == failing


def test_files_are_utf8_whatever_the_locale(runner, tmp_path):
    """A dataset whose names are not ASCII loads, and extract writes the same
    bytes, under an ASCII locale as under the default one."""
    rng = np.random.default_rng(3)
    trials = [dataio.Trial(f"t{i}", label, "s1", "g1", ["canal_ã", "ch2"],
                           rng.normal(size=(1200, 2)))
              for i, label in enumerate(["flexão", "extensão"])]
    data_dir = tmp_path / "data"
    manifest = save_dataset(dataio.Dataset(["flexão", "extensão"], 1000.0, trials), data_dir)
    # by hand, as a user might: raw UTF-8 rather than json's \u escapes
    raw = json.dumps(json.loads(manifest.read_text(encoding="utf-8")), ensure_ascii=False)
    manifest.write_bytes(raw.encode("utf-8"))
    assert "ã".encode("utf-8") in manifest.read_bytes()

    code = "import sys; from myobench.cli import main; main(sys.argv[1:])"
    src = Path(myobench.__file__).parents[1]
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    args = ["extract", "--data", str(manifest), "--features", "rms,zc", "--out"]
    ascii_run = subprocess.run([sys.executable, "-c", code, *args, str(tmp_path / "c.csv")],
                               capture_output=True, text=True, env=env)
    assert ascii_run.returncode == 0, ascii_run.stderr
    result = runner.invoke(main, [*args, str(tmp_path / "default.csv")])
    assert result.exit_code == 0, result.output
    for suffix in ("", ".config.json"):
        assert ((tmp_path / f"c.csv{suffix}").read_bytes()
                == (tmp_path / f"default.csv{suffix}").read_bytes())
    assert "canal_ã".encode("utf-8") in (tmp_path / "c.csv").read_bytes()


def sidecar(path) -> dict:
    return json.loads(Path(f"{path}.config.json").read_text())


class TestConfigContract:
    """Every CSV output's sidecar, and every JSON output's embedded block, holds
    its command's whole configuration; a run's two copies are equal."""

    def test_synth_and_extract_keys(self, runner, dataset_dir, tmp_path):
        config = sidecar(dataset_dir / "manifest.json")
        assert list(config) == CONFIG_KEYS["synth"]
        assert (config["seed"], config["channels"], config["trials_per_class"]) == (7, 2, 2)
        out = tmp_path / "f.csv"
        manifest = str(dataset_dir / "manifest.json")
        result = runner.invoke(main, ["extract", "--data", manifest, "--features", "rms,hemg",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert sidecar(out) == {"command": "extract", "data": manifest,
                                "features": "rms,hemg", "window_ms": 256.0, "slide_ms": 64.0}
        assert list(sidecar(out)) == CONFIG_KEYS["extract"]

    @pytest.mark.parametrize("options, keys", [
        (["--groups", "weak"], "robustness"),
        (["--sweep", "hemg:bins=3,5"], "sweep"),
    ])
    def test_robustness_sidecar_equals_embedded_config(self, runner, dataset_dir, tmp_path,
                                                       options, keys):
        out = tmp_path / "grid"
        result = runner.invoke(main, [
            "robustness", "--data", str(dataset_dir / "manifest.json"), "--snr", "20,10",
            "--reps", "2", "--max-windows", "2", *options, "--out", str(out)])
        assert result.exit_code == 0, result.output
        config = json.loads((tmp_path / "grid.json").read_text())["config"]
        assert sidecar(tmp_path / "grid.csv") == config
        assert list(config) == CONFIG_KEYS[keys]
        assert (config["snr_grid_db"], config["repetitions"], config["max_windows"]) == \
            ([20.0, 10.0], 2, 2)
        # The features are the scored descriptors, each HEMG range resolved.
        hemg = [f["parameters"] for f in config["features"] if f["name"] == "hemg"]
        assert hemg and not any("auto" in p for p in hemg)
        if keys == "sweep":
            assert config["sweep"] == {"feature": "hemg", "parameter": "bins",
                                       "values": [3.0, 5.0]}
        else:
            assert config["groups"] == ["weak"]

    def test_classify_sidecar_equals_report_config(self, runner, dataset_dir, tmp_path):
        out = tmp_path / "run" / "clf"  # the writer makes the directory
        manifest = str(dataset_dir / "manifest.json")
        result = runner.invoke(main, ["classify", "--data", manifest, "--sets", "robust",
                                      "--noise", "clean,10", "--seed", "4", "--out", str(out)])
        assert result.exit_code == 0, result.output
        config = json.loads(Path(f"{out}_report.json").read_text())["config"]
        assert sidecar(f"{out}_table.csv") == config == {
            "command": "classify", "data": manifest, "sets": "robust", "noise": "clean,10",
            "vote_window": 5, "window_ms": 256.0, "slide_ms": 64.0, "seed": 4}
        assert list(config) == CONFIG_KEYS["classify"]
        # The decision CSVs carry no sidecar of their own.
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "clf_decisions_robust_10dB.csv", "clf_decisions_robust_clean.csv",
            "clf_report.json", "clf_table.csv", "clf_table.csv.config.json"]

"""The package's public surface: one name per concept, and the documented names."""
import importlib
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import myobench
from myobench.cli import main
from myobench.registry import FEATURE_NAMES, extract, make_descriptor

README = Path(__file__).parents[1] / "README.md"

# Names that repeated a path the package keeps, with what replaces each.
REMOVED = [
    ("freq_features", "SpectralMoments"),   # extract(parse_features("mnf,mdf,mmnf,mmdf"), ...)
    ("freq_features", "spectral_moments"),
    ("freq_features", "ArModel"),           # ar_coefficients returns the coefficients
    ("recognition", "train_fold"),          # recognition._train_folds
    ("noise", "stream_wgn"),                # noise.fill_wgn on one row
    ("noise", "NoiseSpec"),                 # inject_at_snr(samples, snr_db, seed, repetition)
    ("noise", "generate_wgn"),              # noise.fill_wgn of stream_words([seed], [rep])[0]
    ("noise", "snr_sigma"),                 # noise.add_wgn scales each copy
    ("registry", "resolve_hemg_limit"),     # resolve_hemg_peak(..., peak_amplitude(...))
    ("robustness", "sweep_parameters"),     # run_grid over one descriptor per value
    ("robustness", "grid_to_csv"),          # dataio.write_output(csv_rows(grid_csv_rows))
    ("robustness", "grid_to_json"),         # dataio.write_output of the JSON payload
    ("robustness", "TrialRecord"),          # run_grid takes a dataset's windows as records
    ("robustness", "records_from_dataset"),  # RobustnessConfig.max_windows and run_grid
    ("recognition", "table_to_csv"),        # dataio.write_output(csv_rows(table_csv_rows))
    ("recognition", "table_to_json"),       # dataio.write_output(table_payload)
    ("recognition", "report_to_dict"),      # recognition.table_payload
    ("signals", "Spectrum"),                # amplitude_spectrum's (freqs, amplitudes)
    ("signals", "PowerSpectrum"),           # the moments square the amplitudes
    ("signals", "power_spectrum"),
    ("signals", "Signal"),                  # a sample array plus a rate argument
    ("dataio", "decimate"),                 # no command or README example used it
]
REMOVED_MEMBERS = [
    ("registry", "FeatureDescriptor", "scalarize"),  # robustness._scalar_picks
    ("dataio", "Dataset", "channel_count"),
    ("recognition", "LdaModel", "dim"),
    ("robustness", "RobustnessConfig", "dry_run"),  # a zero-draw stub in the tests
    ("dataio", "Trial", "signal"),                  # trial.data[:, channel]
]

EXPORTED = """
    SegmentationConfig segment segment_offsets amplitude_spectrum
    iemg mav mmav1 mmav2 mavslp ssi var rms wl zc ssc wamp hemg
    ar_coefficients mnf mdf mmnf mmdf
    signal_power inject_at_snr
    FeatureDescriptor FEATURE_NAMES FEATURE_SETS extract extract_segments make_descriptor
    parse_feature parse_features feature_set default_panel
    RobustnessConfig RobustnessGrid percentage_error run_grid
    LabeledWindowSet LdaModel ClassificationReport CrTable lda_train lda_scores
    majority_vote extract_window_set leave_one_out evaluate_feature_sets
    Dataset Trial DatasetError ClassSpec SynthConfig default_class_specs load_dataset
    save_dataset synthesize_emg
""".split()


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_name_is_gone(module, name):
    assert not hasattr(myobench, name)
    assert not hasattr(importlib.import_module(f"myobench.{module}"), name)


@pytest.mark.parametrize("module, owner, member", REMOVED_MEMBERS)
def test_removed_member_is_gone(module, owner, member):
    assert not hasattr(getattr(importlib.import_module(f"myobench.{module}"), owner), member)


def test_every_exported_name_resolves():
    missing = [name for name in EXPORTED if not hasattr(myobench, name)]
    assert missing == []


def test_readme_quick_start_imports_resolve():
    text = README.read_text()
    block = re.search(r"from myobench import \(([^)]*)\)", text)
    assert block is not None
    names = [n.strip() for n in block.group(1).split(",") if n.strip()]
    assert "extract" in names
    assert [n for n in names if not hasattr(myobench, n)] == []


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    block = re.search(r"## Quick start \(library\)\s*```python\n(.*?)```", README.read_text(),
                      re.S)
    assert block is not None
    np.savetxt(tmp_path / "channel.txt", np.random.default_rng(7).standard_normal(3000) * 50.0)
    monkeypatch.chdir(tmp_path)
    exec(compile(block.group(1), str(README), "exec"), {})


def test_readme_cli_quick_start_runs(tmp_path, monkeypatch):
    block = re.search(r"## Quick start \(CLI\)\s*```sh\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    text = re.sub(r"\\\n\s*", " ", block.group(1))  # join continued lines
    commands = [shlex.split(line) for line in text.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert {args[0] for args in commands} == {"myobench"}
    assert {args[1] for args in commands} == {"synth", "extract", "robustness", "classify"}
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    for args in commands:
        result = runner.invoke(main, args[1:])
        assert result.exit_code == 0, (args, result.output)


# Parameters the feature functions and their descriptors both get; the
# spectral moments also take the sampling rate.
FEATURE_PARAMS = {"hemg": {"limit": 60.0}, "ar": {"order": 3}}
SPECTRAL = ("mnf", "mdf", "mmnf", "mmdf")
COUNTS = ("zc", "ssc", "wamp", "hemg")
VECTORS = ("mavslp", "hemg", "ar")


@pytest.mark.parametrize("shape", [(240,), (5, 240)], ids=["window", "matrix"])
@pytest.mark.parametrize("name", FEATURE_NAMES)
def test_feature_function_is_its_extract_column(name, shape):
    x = np.random.default_rng(16).standard_normal(shape) * 25.0
    params = FEATURE_PARAMS.get(name, {})
    function = getattr(myobench, "ar_coefficients" if name == "ar" else name)
    got = function(x, 1000.0, **params) if name in SPECTRAL else function(x, **params)
    expected = extract([make_descriptor(name, params)], x, 1000.0)
    if name not in VECTORS:
        expected = expected[:, 0]
    if x.ndim == 1:
        expected = expected[0]
    kind = int if name in COUNTS else float
    if np.ndim(expected) == 0:  # a scalar feature of one window: a Python number
        assert type(got) is kind
        assert got == expected
    else:
        assert isinstance(got, np.ndarray)
        assert got.dtype == kind
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", FEATURE_NAMES)
def test_feature_function_refuses_a_non_finite_sample(name, bad):
    x = np.random.default_rng(0).standard_normal(240)
    x[5] = bad
    params = FEATURE_PARAMS.get(name, {})
    function = getattr(myobench, "ar_coefficients" if name == "ar" else name)
    with pytest.raises(ValueError, match="^window holds a non-finite sample$"):
        function(x, 1000.0, **params) if name in SPECTRAL else function(x, **params)

"""The package's public surface: one name per concept, and the documented names."""
import importlib
import re
from pathlib import Path

import pytest

import myobench

README = Path(__file__).parents[1] / "README.md"

# Names that repeated a path the package keeps, with what replaces each.
REMOVED = [
    ("freq_features", "SpectralMoments"),   # extract(parse_features("mnf,mdf,mmnf,mmdf"), ...)
    ("freq_features", "spectral_moments"),
    ("freq_features", "ArModel"),           # ar_coefficients returns the coefficients
    ("recognition", "train_fold"),          # recognition._train_folds
    ("noise", "stream_wgn"),                # noise.fill_wgn on one row
    ("registry", "resolve_hemg_limit"),     # resolve_hemg_peak(..., peak_amplitude(...))
    ("robustness", "sweep_parameters"),     # run_grid over one descriptor per value
    ("robustness", "grid_to_csv"),          # dataio.write_output(csv_rows(grid_csv_rows))
    ("robustness", "grid_to_json"),         # dataio.write_output of the JSON payload
    ("recognition", "table_to_csv"),        # dataio.write_output(csv_rows(table_csv_rows))
    ("recognition", "table_to_json"),       # dataio.write_output(table_payload)
    ("recognition", "report_to_dict"),      # recognition.table_payload
]
REMOVED_MEMBERS = [
    ("registry", "FeatureDescriptor", "scalarize"),  # robustness._scalar_picks
    ("signals", "Signal", "duration_ms"),
    ("signals", "Spectrum", "bins"),
    ("signals", "PowerSpectrum", "bins"),
    ("dataio", "Dataset", "channel_count"),
    ("recognition", "LdaModel", "dim"),
    ("robustness", "RobustnessConfig", "dry_run"),  # a zero-draw stub in the tests
]

EXPORTED = """
    Signal SegmentationConfig Spectrum PowerSpectrum segment segment_offsets
    amplitude_spectrum power_spectrum
    iemg mav mmav1 mmav2 mavslp ssi var rms wl zc ssc wamp hemg
    ar_coefficients mnf mdf mmnf mmdf
    NoiseSpec generate_wgn signal_power inject_at_snr
    FeatureDescriptor FEATURE_NAMES FEATURE_SETS extract extract_segments make_descriptor
    parse_feature parse_features feature_set default_panel
    RobustnessConfig RobustnessGrid TrialRecord percentage_error run_grid
    records_from_dataset
    LabeledWindowSet LdaModel ClassificationReport CrTable lda_train lda_scores
    majority_vote extract_window_set leave_one_out evaluate_feature_sets
    Dataset Trial DatasetError ClassSpec SynthConfig default_class_specs load_dataset
    save_dataset decimate synthesize_emg
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

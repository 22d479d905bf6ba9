"""myobench: sEMG feature extraction, WGN robustness benchmarking, and
windowed LDA gesture recognition."""

__version__ = "0.1.0"

from .signals import SegmentationConfig, segment, segment_offsets, amplitude_spectrum
from .time_features import (iemg, mav, mmav1, mmav2, mavslp, ssi, var, rms, wl,
                            zc, ssc, wamp, hemg)
from .freq_features import ar_coefficients, mnf, mdf, mmnf, mmdf
from .noise import signal_power, inject_at_snr
from .registry import (FeatureDescriptor, FEATURE_NAMES, FEATURE_SETS, extract,
                       extract_segments, make_descriptor, parse_feature, parse_features,
                       feature_set, default_panel)
from .robustness import RobustnessConfig, RobustnessGrid, percentage_error, run_grid
from .recognition import (LabeledWindowSet, LdaModel, ClassificationReport,
                          CrTable, lda_train, lda_scores,
                          majority_vote, extract_window_set,
                          leave_one_out, evaluate_feature_sets)
from .dataio import (Dataset, Trial, DatasetError, ClassSpec, SynthConfig,
                     default_class_specs, load_dataset, save_dataset,
                     synthesize_emg)

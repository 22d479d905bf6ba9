"""Feature descriptors: parsing, defaults, computation, scalarization."""
import ast
import functools
import inspect
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myobench import freq_features as ff
from myobench import registry
from myobench.freq_features import ar_coefficients
from myobench.registry import (FEATURE_NAMES, FEATURE_SETS, FeatureDescriptor, default_panel,
                               extract, extract_segments, feature_set, make_descriptor,
                               parse_feature, parse_features, peak_amplitude,
                               resolve_hemg_peak)
from myobench.robustness import _scalar_picks
from myobench.signals import SegmentationConfig, segment
from myobench.time_features import hemg, rms, ssc, wamp, zc


class TestParsing:
    def test_plain_name_gets_defaults(self):
        desc = parse_feature("wamp")
        assert desc.name == "wamp"
        assert desc.param_dict == {"threshold": 10.0}
        assert desc.label == "wamp"

    def test_parameter_override_shows_in_label(self):
        desc = parse_feature("wamp:threshold=25")
        assert desc.param_dict == {"threshold": 25.0}
        assert desc.label == "wamp(threshold=25)"

    def test_int_params_coerced(self):
        desc = parse_feature("ar:order=2")
        assert desc.param_dict == {"order": 2}
        assert desc.component_count() == 2

    @pytest.mark.parametrize("token", ["ar:order=2.5", "hemg:bins=3.7", "mavslp:segments=4.9",
                                       "ar:order=inf", "ar:order=-inf", "hemg:bins=nan"])
    def test_count_parameters_must_be_whole(self, token):
        with pytest.raises(ValueError, match="^" + re.escape(token) + ": .* a whole number$"):
            parse_feature(token)

    @pytest.mark.parametrize("token", ["mnf:dc=0.5", "mnf:dc=5", "mdf:dc=-1", "mmdf:dc=inf",
                                       "mmnf:dc=nan"])
    def test_dc_must_be_zero_or_one(self, token):
        with pytest.raises(ValueError, match="^" + re.escape(token) + ": dc must be 0 or 1$"):
            parse_feature(token)

    @pytest.mark.parametrize("token, must_be", [
        ("hemg:bins=0", "bins must be at least 1"),
        ("hemg:bins=-2", "bins must be at least 1"),
        ("ar:order=0", "order must be at least 1"),
        ("mavslp:segments=1", "segments must be at least 2"),
        ("wamp:threshold=-1", "threshold must be non-negative"),
        ("zc:threshold=nan", "threshold must be non-negative"),
        ("ssc:threshold=-inf", "threshold must be non-negative"),
        ("hemg:limit=-1", "limit must be positive and finite"),
        ("hemg:limit=0", "limit must be positive and finite"),
        ("hemg:limit=inf", "limit must be positive and finite"),
        ("hemg:limit=nan", "limit must be positive and finite"),
        ("hemg:limit=1e+308", "the bin width 2*limit/bins must be positive and finite, got inf"),
    ])
    def test_parameters_outside_their_domain(self, token, must_be):
        with pytest.raises(ValueError, match="^" + re.escape(f"{token}: {must_be}") + "$"):
            parse_feature(token)

    def test_domain_edges_accepted(self):
        for name, key, value in [("hemg", "bins", 1), ("ar", "order", 1),
                                 ("mavslp", "segments", 2), ("wamp", "threshold", 0.0),
                                 ("zc", "threshold", float("inf")), ("hemg", "limit", 1e-300),
                                 ("hemg", "limit", np.finfo(float).max / 2)]:
            assert make_descriptor(name, {key: value}).param_dict[key] == value

    @pytest.mark.parametrize("bins, limit, width", [
        (3, np.nextafter(np.finfo(float).max / 2, np.inf), "inf"),  # 2 * limit overflows
        (5, 5e-324, "0"),  # 2 * 5e-324 / 5 rounds to 0
    ])
    def test_a_hemg_bin_width_must_be_positive_and_finite(self, bins, limit, width):
        # The edge search needs a finite, monotone bin formula over [-limit, limit].
        message = (f"hemg:limit={limit:g}: the bin width 2*limit/bins must be positive and "
                   f"finite, got {width}")
        for build in (lambda: make_descriptor("hemg", {"bins": bins, "limit": limit}),
                      lambda: make_descriptor("hemg", {"bins": bins}).resolved(limit),
                      lambda: hemg(np.zeros(4), bins=bins, limit=limit)):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                build()

    def test_whole_valued_counts_accepted(self):
        assert parse_feature("ar:order=2.0").param_dict == {"order": 2}
        assert parse_feature("mmnf:dc=0").param_dict == {"dc": 0}
        assert make_descriptor("hemg", {"bins": 5.0}).param_dict["bins"] == 5
        with pytest.raises(ValueError, match="whole number"):
            make_descriptor("ar", {"order": 1.5})  # the sweep path

    @pytest.mark.parametrize("name, key, value", [
        ("wamp", "threshold", None), ("hemg", "bins", None), ("hemg", "bins", "3"),
        ("ar", "order", True), ("mnf", "dc", False), ("hemg", "limit", "1.0"),
        ("zc", "threshold", [10.0]), ("mavslp", "segments", 3j),
    ])
    def test_a_parameter_value_must_be_a_number(self, name, key, value):
        # Only a parameter resolved from the data (hemg's limit) may be None.
        params = {**make_descriptor(name).param_dict, key: value}
        message = f"{name}:{key}={value!r}: {key} must be a number"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            FeatureDescriptor(name, tuple(sorted(params.items())))

    @pytest.mark.parametrize("name, params", [
        ("wamp", (("threshold", 10.0), ("threshold", 20.0))),
        ("hemg", (("bins", 3), ("bins", 3), ("limit", 1.0))),
    ])
    def test_a_parameter_given_twice_is_refused(self, name, params):
        key = params[0][0]
        with pytest.raises(ValueError, match=f"^feature '{name}' has parameter '{key}' twice$"):
            FeatureDescriptor(name, params)

    @pytest.mark.parametrize("call, message", [
        (lambda x: wamp(x, "10"), "wamp:threshold='10': threshold must be a number"),
        (lambda x: ar_coefficients(x, order=True), "ar:order=True: order must be a number"),
        (lambda x: hemg(x, limit=None), "hemg descriptor used before its range was resolved"),
    ], ids=["string", "bool", "none"])
    def test_a_public_function_converts_only_real_numbers(self, call, message):
        x = np.random.default_rng(0).normal(size=64)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call(x)

    def test_numpy_scalars_are_numbers(self):
        x = np.random.default_rng(0).normal(size=64)
        np.testing.assert_array_equal(hemg(x, bins=np.int64(3), limit=np.float32(2)),
                                      hemg(x, 3, 2.0))
        order = make_descriptor("ar", {"order": np.int32(2)}).param_dict["order"]
        assert order == 2 and type(order) is int

    def test_a_descriptor_built_directly_converts_real_numbers(self):
        # Stored as make_descriptor stores them: an int for a count or dc, else a float.
        built = FeatureDescriptor("ar", (("order", np.int64(2)),))
        assert built == make_descriptor("ar", {"order": 2})
        assert type(built.param_dict["order"]) is int
        built = FeatureDescriptor("wamp", (("threshold", np.float32(20)),))
        assert built.params == (("threshold", 20.0),)
        assert type(built.param_dict["threshold"]) is float
        assert built.label == "wamp(threshold=20)" and built.param_text == "threshold=20"
        assert FeatureDescriptor("mnf", (("dc", np.int8(0)),)).param_dict == {"dc": 0}

    def test_an_int_too_large_for_a_float_names_its_parameter(self):
        x = np.random.default_rng(0).normal(size=64)
        message = "wamp:threshold: threshold is too large for a float"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            wamp(x, 10**400)
        with pytest.raises(ValueError, match="^ar:order: order is too large"):
            FeatureDescriptor("ar", (("order", 10**5000),))

    def test_a_descriptor_checks_its_parameters_however_it_is_built(self):
        with pytest.raises(ValueError, match="^ar:order=0: order must be at least 1$"):
            FeatureDescriptor("ar", (("order", 0),))
        with pytest.raises(ValueError, match="^ar:order=1.5: order must be a whole number$"):
            FeatureDescriptor("ar", (("order", 1.5),))
        with pytest.raises(ValueError, match="feature 'rms' has no parameter 'bins'"):
            FeatureDescriptor("rms", (("bins", 3),))
        with pytest.raises(ValueError, match=re.escape("needs parameters ['bins', 'limit']")):
            FeatureDescriptor("hemg", (("bins", 3),))
        with pytest.raises(ValueError, match="valid names"):
            FeatureDescriptor("sparkle")
        with pytest.raises(ValueError, match="^hemg:limit=inf: limit must be positive"):
            parse_feature("hemg").resolved(float("inf"))
        assert FeatureDescriptor("hemg", (("bins", 3), ("limit", None))).needs_resolution()

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match="valid names.*rms"):
            parse_feature("sparkle")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="no parameter"):
            parse_feature("rms:threshold=1")

    def test_malformed_parameter(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_feature("wamp:threshold")
        with pytest.raises(ValueError, match="non-numeric"):
            parse_feature("wamp:threshold=lots")

    def test_feature_list(self):
        descs = parse_features("rms, mmnf ,ar:order=2")
        assert [d.name for d in descs] == ["rms", "mmnf", "ar"]
        with pytest.raises(ValueError):
            parse_features("  ,")


class TestCompute:
    def test_scalar_feature_matches_function(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(256) * 20
        desc = parse_feature("rms")
        np.testing.assert_allclose(extract([desc], x, 1000.0)[0], [rms(x)])

    def test_threshold_passes_through(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(256) * 20
        desc = parse_feature("wamp:threshold=15")
        assert extract([desc], x, 1000.0)[0][0] == wamp(x, 15.0)

    def test_ar_returns_coefficient_vector(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(256)
        desc = parse_feature("ar:order=3")
        np.testing.assert_array_equal(extract([desc], x, 1000.0)[0], ar_coefficients(x, 3))

    def test_hemg_requires_resolution(self):
        desc = parse_feature("hemg")
        assert desc.needs_resolution()
        with pytest.raises(ValueError, match="resolved"):
            extract([desc], np.ones(8), 1000.0)[0]
        resolved = desc.resolved(3.0)
        np.testing.assert_array_equal(
            extract([resolved], np.array([-2.5, 0.1, 2.9, 0.2]), 1000.0)[0], [1, 2, 1])

    def test_hemg_explicit_limit_skips_resolution(self):
        desc = parse_feature("hemg:bins=5:limit=2.0")
        assert not desc.needs_resolution()
        assert desc.component_count() == 5

    def test_spectral_dc_flag(self):
        t = np.arange(256) / 1000.0
        x = np.sin(2 * np.pi * 125.0 * t) + 0.5  # DC offset
        with_dc = extract([parse_feature("mmnf")], x, 1000.0)[0][0]
        without = extract([parse_feature("mmnf:dc=0")], x, 1000.0)[0][0]
        assert without > with_dc

    def test_component_names(self):
        assert parse_feature("rms").component_names() == ["rms"]
        assert parse_feature("mavslp").component_names() == \
            ["mavslp[1]", "mavslp[2]"]


# All 18 features, with repeated thresholds and several orders, segment
# counts, bin counts and DC settings, so the shared intermediates serve
# descriptors of one family with different parameters.
MIXED = parse_features(
    "zc,ar:order=3,ssc,wamp,mnf,iemg,zc:threshold=0,wamp:threshold=25,mav,mmav1,"
    "mmav2,mavslp,mavslp:segments=4,ssi,var,rms,wl,ssc:threshold=0,hemg:limit=40,"
    "mmnf,mdf,mmdf,ar:order=1,zc:threshold=35,ssc:threshold=120,wamp:threshold=0,"
    "hemg:bins=5:limit=25,mmnf:dc=0,mdf:dc=0,ar:order=6,mnf:dc=0,mmdf:dc=0")


class TestJointExtraction:
    """A mixed descriptor list gives exactly each descriptor's columns alone."""

    def windows(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((7, 240)) * 20
        x[:, 100:104] = x[:, 99:100]  # repeated samples: zero differences
        x[3] = np.round(x[3] / 10) * 10  # many equal neighbours
        return x

    def test_covers_every_feature(self):
        assert {d.name for d in MIXED} == set(FEATURE_NAMES)

    @pytest.mark.parametrize("two_d", [True, False])
    def test_columns_equal_single_descriptor_extraction(self, two_d):
        x = self.windows() if two_d else self.windows()[2]
        joint = extract(MIXED, x, 1000.0)
        starts = np.cumsum([0] + [d.component_count() for d in MIXED])
        assert joint.shape == ((7 if two_d else 1), starts[-1])
        for desc, lo, hi in zip(MIXED, starts[:-1], starts[1:]):
            alone = extract([desc], x, 1000.0)
            assert np.array_equal(joint[:, lo:hi], alone), desc.label

    @pytest.mark.parametrize("seed", range(6))
    def test_a_row_of_a_matrix_gets_its_value_alone(self, seed):
        # With dc=0 the moments drop the DC bin; each row's remaining bins
        # must still be summed in the order the row alone is summed in.
        x = np.random.default_rng(seed).standard_normal((5, 64)) * 20
        descriptors = parse_features("mnf:dc=0,mdf:dc=0,mmnf:dc=0,mmdf:dc=0,mnf,mmnf")
        joint = extract(descriptors, x, 1000.0)
        for i, row in enumerate(x):
            assert np.array_equal(joint[i], extract(descriptors, row, 1000.0)[0]), i

    def test_a_row_of_a_column_major_matrix_gets_its_value_alone(self):
        # The float sums of a matrix whose windows are not contiguous must add
        # each window's samples in the order the window alone adds them.
        x = np.random.default_rng(0).standard_normal((40, 64))
        descriptors = parse_features("iemg,mav,ssi,var,rms,wl,mmav1,mavslp:segments=4")
        joint = extract(descriptors, np.asfortranarray(x), 1000.0)
        alone = np.vstack([extract(descriptors, row, 1000.0) for row in x])
        assert joint.tobytes() == alone.tobytes()

    def test_counters_match_their_definitions(self):
        # The counters read shared differences; ssc's curvature product is
        # rebuilt from them, so check it against the definition, zero
        # differences and a zero threshold included.
        for x in self.windows():
            left, right = x[1:-1] - x[:-2], x[1:-1] - x[2:]
            jump = np.abs(x[1:] - x[:-1])
            for threshold in (0.0, 10.0, 30.0):
                assert ssc(x, threshold) == np.count_nonzero(left * right >= threshold)
                assert zc(x, threshold) == np.count_nonzero(
                    (x[:-1] * x[1:] < 0) & (jump >= threshold))
                assert wamp(x, threshold) == np.count_nonzero(jump >= threshold)

    def test_a_window_stack_of_three_axes_is_refused(self):
        with pytest.raises(ValueError, match=r"^need a 1-D window or a \(windows, samples\) "
                                             "matrix$"):
            extract(parse_features("rms"), np.ones((2, 3, 16)), 1000.0)

    def test_short_windows_still_fail(self):
        for token, samples in [("wl", 1), ("zc", 1), ("wamp", 1), ("ssc", 2)]:
            with pytest.raises(ValueError, match="at least"):
                extract(parse_features(f"rms,{token}"), np.ones((2, samples)), 1000.0)
        assert_rejected_when_built("ssc", "threshold", -1.0)


class TestUndefinedRows:
    """A row a kernel cannot define gets NaN and a fault code; the others stay as they are."""

    def rows(self, seed):
        return np.random.default_rng(seed).standard_normal((5, 64)) * 20

    @pytest.mark.parametrize("token, bad_row, code", [
        ("ar:order=3", np.zeros(64), ff._SINGULAR),
        ("ar:order=8", np.full(64, 1e-161), ff._COLLAPSED),  # r_0 > 0, but underflows
        ("mnf:dc=0", np.full(64, 3.0), ff._NO_MASS),
        ("mmdf:dc=0", np.full(64, 3.0), ff._NO_MASS),
        ("hemg:limit=30", np.where(np.arange(64) == 9, np.nan, 1.0), registry._NON_FINITE),
    ])
    @pytest.mark.parametrize("at", [0, 2, 5])
    def test_only_the_faulty_row_is_marked(self, token, bad_row, code, at):
        good = self.rows(at)
        x = np.insert(good, at, bad_row, axis=0)
        descriptors = parse_features(f"rms,{token},wl")
        values, codes = registry._columns(descriptors, x, 64, 64, 1000.0)
        every = code == registry._NON_FINITE  # a non-finite sample marks every descriptor
        expected = np.zeros((6, 3), dtype=int)
        expected[at, slice(None) if every else 1] = code
        np.testing.assert_array_equal(codes, expected)
        count = descriptors[1].component_count()
        assert np.isnan(values[at, 1:1 + count]).all()
        assert np.isnan(values[at]).all() == every
        assert not np.isnan(np.delete(values, at, axis=0)).any()
        assert np.array_equal(np.delete(values, at, axis=0), extract(descriptors, good, 1000.0))
        with pytest.raises(ValueError, match="^" + re.escape(registry._FAULTS[code]) + "$"):
            extract(descriptors, x, 1000.0)

    def test_a_zero_window_outranks_a_collapsed_one_in_any_order(self):
        zero, tiny = np.zeros(64), np.full(64, 1e-161)
        good = self.rows(9)
        ar = parse_features("ar:order=8")
        for x in (np.vstack([zero, tiny, good]), np.vstack([tiny, good, zero])):
            codes = registry._columns(ar, x, 64, 64, 1000.0)[1][:, 0]
            assert sorted(codes[:2].tolist() + codes[-1:].tolist()) == \
                [0, ff._COLLAPSED, ff._SINGULAR]
            with pytest.raises(ValueError, match="^window is identically zero; "
                                                 "autocorrelation is singular$"):
                extract(ar, x, 1000.0)
        with pytest.raises(ValueError, match="^prediction error collapsed to zero; "
                                             "window is degenerate$"):
            extract(ar, np.vstack([good, tiny]), 1000.0)

    def test_the_first_faulty_descriptor_names_the_fault(self):
        x = np.vstack([self.rows(3), np.zeros(64)])
        for features, message in [("rms,mnf,ar", "spectrum has no mass"),
                                  ("rms,ar,mnf", "window is identically zero")]:
            with pytest.raises(ValueError, match="^" + message):
                extract(parse_features(features), x, 1000.0)
            assert registry._fault(registry._columns(parse_features(features), x, 64, 64,
                                                     1000.0)[1]).startswith(message)
        assert registry._fault(registry._columns(parse_features("rms,ar"), self.rows(3),
                                                 64, 64, 1000.0)[1]) is None


def assert_rejected_when_built(name, key, value):
    """A bad parameter set by `replace`, around `make_descriptor`, fails when
    the descriptor is built, with the message `parse_feature` gives for it."""
    token = f"{name}:{key}={value:g}"
    with pytest.raises(ValueError) as parsed:
        parse_feature(token)
    desc = make_descriptor(name)
    with pytest.raises(ValueError) as replaced:
        replace(desc, params=tuple(sorted({**desc.param_dict, key: value}.items())))
    assert str(replaced.value) == str(parsed.value)
    assert str(replaced.value).startswith(token + ": ")


def outcome(compute):
    """The feature matrix, or the message of the ValueError raised instead."""
    try:
        return compute()
    except ValueError as exc:
        return str(exc)


def assert_same_outcome(got, expected):
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        assert got.shape == expected.shape
        assert np.array_equal(got, expected, equal_nan=True)


def windows_outcome(descriptors, samples, cfg, rate=1000.0):
    """What `extract` gives on a contiguous copy of the signal's windows."""
    return outcome(lambda: extract(descriptors, np.array(segment(samples, rate, cfg)), rate))


# Every family with non-default parameters: zero and clamping thresholds and
# limits, 1-5 HEMG bins, AR orders 1-4, both DC settings, and MAVSLP segment
# counts that may not divide the window.
_PARAMS = {
    "iemg": {}, "mav": {}, "mmav1": {}, "mmav2": {}, "ssi": {}, "var": {}, "rms": {}, "wl": {},
    "mavslp": {"segments": st.integers(2, 5)},
    "zc": {"threshold": st.sampled_from([0.0, 0.5, 1.0, 10.0])},
    "ssc": {"threshold": st.sampled_from([0.0, 0.25, 1.0, 30.0])},
    "wamp": {"threshold": st.sampled_from([0.0, 0.5, 1.0, 10.0])},
    "hemg": {"bins": st.integers(1, 5), "limit": st.sampled_from([0.1, 0.5, 1.0, 3.0, 50.0])},
    "ar": {"order": st.integers(1, 4)},
    "mnf": {"dc": st.integers(0, 1)}, "mdf": {"dc": st.integers(0, 1)},
    "mmnf": {"dc": st.integers(0, 1)}, "mmdf": {"dc": st.integers(0, 1)},
}
descriptor_st = st.sampled_from(sorted(_PARAMS)).flatmap(
    lambda name: st.fixed_dictionaries(_PARAMS[name]).map(
        lambda params: make_descriptor(name, params)))


class TestExtractSegments:
    """Shared intermediates over a signal give exactly what `extract` gives on
    its windows, values and errors alike."""

    def test_covers_every_family(self):
        assert set(_PARAMS) == set(FEATURE_NAMES)

    @given(descriptors=st.lists(descriptor_st, min_size=1, max_size=6),
           width=st.integers(2, 24), slide_step=st.integers(0, 23),
           windows=st.integers(0, 6), tail=st.integers(0, 23),
           channels=st.integers(1, 3), quantum=st.sampled_from([0.0, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_extract_on_the_windows(self, descriptors, width, slide_step, windows,
                                           tail, channels, quantum, seed):
        slide = 1 + slide_step % width          # 1..width, dividing the width or not
        n = max((windows - 1) * slide + width + tail % slide, 1) if windows else width - 1
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, channels))
        if quantum:  # repeated samples: zero differences, ties and zeros
            data = np.round(data / quantum) * quantum
        signal = data[:, -1]  # a strided column when channels > 1
        cfg = SegmentationConfig(window_ms=float(width), slide_ms=float(slide))
        assert_same_outcome(outcome(lambda: extract_segments(descriptors, signal, 1000.0, cfg)),
                            windows_outcome(descriptors, signal, cfg))

    @pytest.mark.parametrize("width, slide", [(16, 16), (16, 4), (16, 5), (16, 1), (3, 2)])
    def test_one_window_and_a_partial_tail(self, width, slide):
        rng = np.random.default_rng(width + slide)
        descriptors = [make_descriptor(name, {"limit": 1.0} if name == "hemg" else {})
                       for name in FEATURE_NAMES if name != "mavslp"]
        cfg = SegmentationConfig(window_ms=float(width), slide_ms=float(slide))
        for n in (width, width + slide - 1, 3 * slide + width, 3 * slide + width + slide - 1):
            signal = rng.standard_normal(n)
            got = outcome(lambda: extract_segments(descriptors, signal, 1000.0, cfg))
            assert_same_outcome(got, windows_outcome(descriptors, signal, cfg))

    def test_errors_match(self):
        cfg = SegmentationConfig(window_ms=12.0, slide_ms=5.0)
        x = np.random.default_rng(3).standard_normal(40)
        with_nan = x.copy()
        with_nan[20] = np.nan
        cases = [(parse_features("rms,wl"), x[:11], "signal too short"),
                 (parse_features("rms,hemg:limit=1"), with_nan,
                  "window holds a non-finite sample"),
                 (parse_features("mav,mavslp:segments=5"), x, "does not divide")]
        for descriptors, samples, message in cases:
            got = outcome(lambda: extract_segments(descriptors, samples, 1000.0, cfg))
            assert message in got
            assert got == windows_outcome(descriptors, samples, cfg)
        assert_rejected_when_built("ssc", "threshold", -1.0)
        assert_rejected_when_built("hemg", "bins", 0)
        for token, width, message in [("mmav1", 3.0, "at least 4"), ("ssc", 2.0, "at least 3")]:
            short = SegmentationConfig(window_ms=width, slide_ms=1.0)
            got = outcome(lambda: extract_segments(parse_features(token), x, 1000.0, short))
            assert message in got
            assert got == windows_outcome(parse_features(token), x, short)

    def test_nan_in_the_trailing_partial_window_is_never_read(self):
        cfg = SegmentationConfig(window_ms=12.0, slide_ms=5.0)
        x = np.random.default_rng(4).standard_normal(40)  # windows cover x[:37]
        x[37:] = np.nan
        descriptors = [make_descriptor(name, {"limit": 1.0} if name == "hemg" else
                                       {"segments": 4} if name == "mavslp" else {})
                       for name in FEATURE_NAMES]
        got = extract_segments(descriptors, x, 1000.0, cfg)
        assert np.isfinite(got).all()
        assert_same_outcome(got, windows_outcome(descriptors, x, cfg))


class TestStacks:
    """Each signal of a stack gets, row for row and bit for bit, what
    `extract_segments` gives it alone: its values, or its error."""

    @given(params=st.tuples(*(st.fixed_dictionaries(_PARAMS[name]) for name in FEATURE_NAMES)),
           per_segment=st.integers(3, 8), slide_step=st.integers(0, 39),
           windows=st.integers(1, 6), tail=st.integers(0, 39), signals=st.integers(1, 4),
           strided=st.booleans(), quantum=st.sampled_from([0.0, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_each_row_gets_what_its_signal_gets_alone(self, params, per_segment, slide_step,
                                                      windows, tail, signals, strided,
                                                      quantum, seed):
        # every family at once, on windows that mavslp's segments divide and
        # that hold more samples than the highest AR order
        descriptors = [make_descriptor(name, p) for name, p in zip(FEATURE_NAMES, params)]
        width = per_segment * params[FEATURE_NAMES.index("mavslp")]["segments"]
        slide = 1 + slide_step % width
        n = (windows - 1) * slide + width + tail % slide
        data = np.random.default_rng(seed).standard_normal((n, signals))
        if quantum:  # repeated samples: zero differences, ties and all-zero windows
            data = np.round(data / quantum) * quantum
        stack = data.T if strided else np.ascontiguousarray(data.T)
        cfg = SegmentationConfig(window_ms=float(width), slide_ms=float(slide))
        values, codes = registry._columns(descriptors, stack[:, :n - tail % slide], width,
                                          slide, 1000.0)
        assert codes.shape == (signals * windows, len(descriptors))
        values, codes = values.reshape(signals, windows, -1), codes.reshape(signals, windows, -1)
        for row, signal in enumerate(stack):
            alone = outcome(lambda: extract_segments(descriptors, signal, 1000.0, cfg))
            if isinstance(alone, str):
                assert registry._fault(codes[row]) == alone
            else:
                assert registry._fault(codes[row]) is None
                assert values[row].shape == alone.shape
                assert values[row].tobytes() == alone.tobytes()

    @given(params=st.tuples(*(st.fixed_dictionaries(_PARAMS[name]) for name in FEATURE_NAMES)),
           per_segment=st.integers(3, 8), slide_step=st.integers(0, 39),
           windows=st.integers(1, 6), signals=st.integers(1, 4), strided=st.booleans(),
           quantum=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**32 - 1),
           planted=st.lists(st.tuples(st.integers(0, 2**16),
                                      st.sampled_from([np.nan, np.inf, -np.inf])),
                            min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_a_non_finite_sample_marks_its_windows_in_every_descriptor(
            self, params, per_segment, slide_step, windows, signals, strided, quantum, seed,
            planted):
        descriptors = [make_descriptor(name, p) for name, p in zip(FEATURE_NAMES, params)]
        width = per_segment * params[FEATURE_NAMES.index("mavslp")]["segments"]
        slide = 1 + slide_step % width
        n = (windows - 1) * slide + width
        data = np.random.default_rng(seed).standard_normal((n, signals))
        if quantum:  # zero differences, ties and all-zero windows, which kernels refuse
            data = np.round(data / quantum) * quantum
        bad = data.copy()
        for at, value in planted:
            bad[at % n, at // n % signals] = value
        stacks = [x.T if strided else np.ascontiguousarray(x.T) for x in (data, bad)]
        (good_values, good_codes), (values, codes) = (
            registry._columns(descriptors, stack, width, slide, 1000.0) for stack in stacks)
        starts = np.arange(windows) * slide
        holds = np.array([not np.isfinite(signal[a:a + width]).all()
                          for signal in stacks[1] for a in starts])
        assert holds.any()
        assert (codes[holds] == registry._NON_FINITE).all()
        assert np.isnan(values[holds]).all()
        np.testing.assert_array_equal(codes[~holds], good_codes[~holds])
        assert values[~holds].tobytes() == good_values[~holds].tobytes()


class TestScalarize:
    def test_defaults(self):
        assert parse_feature("hemg").scalar_component == 2
        assert parse_feature("ar").scalar_component == 1
        assert parse_feature("rms").scalar_component == 1

    def test_hemg_scalarizes_to_bin_two(self):
        desc = parse_feature("hemg").resolved(3.0)
        values = extract([desc], np.array([-2.5, 0.1, 2.9, 0.2]), 1000.0)[0]
        picks, reasons = _scalar_picks([desc], 4)
        assert reasons == {}
        assert values[picks[0]] == 2.0

    def test_out_of_range_component(self):
        desc = parse_feature("hemg:bins=1:limit=1")  # scalar component 2 of 1 bin
        _, reasons = _scalar_picks([parse_feature("wamp"), desc], 4)
        assert list(reasons) == [1]
        assert "out of range" in reasons[1]


class TestFamilyRecords:
    """Each family is one `_FAMILIES` record; nothing else names it."""

    def test_only_the_registry_names_a_family(self):
        # A string constant or dict(...) keyword equal to a family name outside
        # the keys of the _FAMILIES literal and the first argument of a public
        # wrapper's _feature(...) call is a second place that decides for it.
        found = []
        for path in sorted(Path(registry.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            allowed = set()
            for node in ast.walk(tree):
                if (isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Dict)
                        and getattr(node.target, "id", None) == "_FAMILIES"):
                    allowed.update(map(id, node.value.keys))
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_feature"
                        and node.args):
                    allowed.add(id(node.args[0]))
            for node in ast.walk(tree):
                names = []
                if isinstance(node, ast.Constant) and id(node) not in allowed:
                    names = [node.value]
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
                    names = [keyword.arg for keyword in node.keywords]
                found += [f"{path.name}:{node.lineno}: {name}" for name in names
                          if isinstance(name, str) and name in FEATURE_NAMES]
        assert found == []

    @pytest.mark.parametrize("name", FEATURE_NAMES)
    def test_a_record_agrees_with_its_kernel(self, name):
        family = registry._FAMILIES[name]
        kernel_params = list(inspect.signature(family.kernel).parameters)[1:]
        assert sorted(kernel_params) == sorted(family.params)
        for intermediate in family.reads:  # a misspelt name would only be recomputed
            assert isinstance(vars(registry._Intermediates).get(intermediate),
                              functools.cached_property)
        desc = make_descriptor(name, {"limit": 1.0} if name == "hemg" else {})
        x = np.random.default_rng(9).standard_normal((3, 24))
        values = extract([desc], x, 1000.0)
        assert values.shape == (3, desc.component_count())
        assert 1 <= desc.scalar_component <= desc.component_count()  # at the defaults
        if family.counts:
            assert np.array_equal(values, np.round(values))


class TestSetsAndPanel:
    def test_aliases(self):
        name, descs = feature_set("hudgins")
        assert name == "hudgins"
        assert [d.name for d in descs] == ["mav", "wl", "zc", "ssc"]
        name, descs = feature_set("oskoei")
        assert [(d.name, d.param_dict.get("order")) for d in descs] == \
            [("rms", None), ("ar", 2)]
        name, descs = feature_set("robust")
        assert [d.name for d in descs] == ["hemg", "wamp", "mmnf"]
        assert set(FEATURE_SETS) == {"hudgins", "oskoei", "robust"}

    def test_custom_set_definition(self):
        name, descs = feature_set("mine=rms+ar:order=2")
        assert name == "mine"
        assert [d.name for d in descs] == ["rms", "ar"]

    def test_unknown_alias(self):
        with pytest.raises(ValueError, match="unknown feature set"):
            feature_set("fancy")

    def test_default_panel_covers_the_representatives(self):
        labels = [d.label for d in default_panel()]
        assert labels == ["rms", "zc", "wamp", "ssc", "hemg", "ar",
                          "mnf", "mdf", "mmnf", "mmdf"]


class TestResolveLimit:
    def test_uses_peak_of_clean_data(self):
        descs = parse_features("hemg,rms")
        signals = [np.array([1.0, -4.5, 2.0]), np.array([0.5, 3.0])]
        resolved = resolve_hemg_peak(descs, peak_amplitude(signals)[0])
        assert resolved[0].param_dict["limit"] == 4.5
        assert resolved[1] is descs[1]

    def test_all_zero_data_rejected(self):
        with pytest.raises(ValueError, match="all zero"):
            resolve_hemg_peak(parse_features("hemg"), peak_amplitude([np.zeros(5)])[0])

    def test_infinite_peak_rejected(self):
        with pytest.raises(ValueError, match="^hemg needs finite samples$"):
            resolve_hemg_peak(parse_features("hemg"),
                              peak_amplitude([np.array([1.0, -np.inf])])[0])

    def test_no_hemg_is_a_passthrough(self):
        descs = parse_features("rms,mmnf")
        assert resolve_hemg_peak(descs, peak_amplitude([])[0]) == descs
        assert resolve_hemg_peak(descs, 0.0) == descs

    def test_nan_signal_is_skipped(self):
        descs = parse_features("hemg")
        peak = peak_amplitude([np.array([1.0, np.nan, 9.0]), np.array([2.0])])[0]
        assert resolve_hemg_peak(descs, peak) == resolve_hemg_peak(descs, 2.0)
        with pytest.raises(ValueError, match="all zero"):
            resolve_hemg_peak(descs, 0.0)

    def test_channel_peaks_pool_per_fold(self):
        trials = [np.array([[1.0, -7.0], [2.0, 3.0]]),
                  np.array([[np.nan, 4.0], [-5.0, 1.0]]),  # its first channel is skipped
                  np.array([[0.5, 0.25]])]
        assert peak_amplitude(trials).tolist() == [7.0]
        train = np.arange(3) != np.arange(3)[:, np.newaxis]
        assert peak_amplitude(trials, train).tolist() == [4.0, 7.0, 7.0]

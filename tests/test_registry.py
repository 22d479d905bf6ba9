"""Feature descriptors: parsing, defaults, computation, scalarization."""
import numpy as np
import pytest

from myobench.freq_features import ar_coefficients
from myobench.registry import (FEATURE_NAMES, FEATURE_SETS, default_panel, extract,
                               feature_set, parse_feature, parse_features,
                               resolve_hemg_limit)
from myobench.time_features import rms, ssc, wamp, zc


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
        np.testing.assert_allclose(desc.compute(x, 1000.0), [rms(x)])

    def test_threshold_passes_through(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(256) * 20
        desc = parse_feature("wamp:threshold=15")
        assert desc.compute(x, 1000.0)[0] == wamp(x, 15.0)

    def test_ar_returns_coefficient_vector(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(256)
        desc = parse_feature("ar:order=3")
        np.testing.assert_array_equal(desc.compute(x, 1000.0),
                                      ar_coefficients(x, 3).coefficients)

    def test_hemg_requires_resolution(self):
        desc = parse_feature("hemg")
        assert desc.needs_resolution()
        with pytest.raises(ValueError, match="resolved"):
            desc.compute(np.ones(8), 1000.0)
        resolved = desc.resolved(3.0)
        np.testing.assert_array_equal(
            resolved.compute(np.array([-2.5, 0.1, 2.9, 0.2]), 1000.0), [1, 2, 1])

    def test_hemg_explicit_limit_skips_resolution(self):
        desc = parse_feature("hemg:bins=5:limit=2.0")
        assert not desc.needs_resolution()
        assert desc.component_count() == 5

    def test_spectral_dc_flag(self):
        t = np.arange(256) / 1000.0
        x = np.sin(2 * np.pi * 125.0 * t) + 0.5  # DC offset
        with_dc = parse_feature("mmnf").compute(x, 1000.0)[0]
        without = parse_feature("mmnf:dc=0").compute(x, 1000.0)[0]
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

    def test_short_windows_still_fail(self):
        for token, samples in [("wl", 1), ("zc", 1), ("wamp", 1), ("ssc", 2)]:
            with pytest.raises(ValueError, match="at least"):
                extract(parse_features(f"rms,{token}"), np.ones((2, samples)), 1000.0)
        with pytest.raises(ValueError, match="non-negative"):
            extract(parse_features("wl,ssc:threshold=-1"), np.ones((2, 8)), 1000.0)


class TestScalarize:
    def test_defaults(self):
        assert parse_feature("hemg").scalar_component == 2
        assert parse_feature("ar").scalar_component == 1
        assert parse_feature("rms").scalar_component == 1

    def test_hemg_scalarizes_to_bin_two(self):
        desc = parse_feature("hemg").resolved(3.0)
        values = desc.compute(np.array([-2.5, 0.1, 2.9, 0.2]), 1000.0)
        assert desc.scalarize(values) == 2.0

    def test_out_of_range_component(self):
        from dataclasses import replace
        desc = replace(parse_feature("rms"), scalar_component=4)
        with pytest.raises(ValueError, match="out of range"):
            desc.scalarize(np.array([1.0]))


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
        resolved = resolve_hemg_limit(descs, signals)
        assert resolved[0].param_dict["limit"] == 4.5
        assert resolved[1] is descs[1]

    def test_all_zero_data_rejected(self):
        with pytest.raises(ValueError, match="all zero"):
            resolve_hemg_limit(parse_features("hemg"), [np.zeros(5)])

    def test_no_hemg_is_a_passthrough(self):
        descs = parse_features("rms,mmnf")
        assert resolve_hemg_limit(descs, []) == descs

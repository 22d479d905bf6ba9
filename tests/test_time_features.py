"""Time-domain features: hand values, loop oracles, and algebraic properties."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myobench import time_features
from myobench.registry import _FAMILIES, extract, extract_segments, make_descriptor
from myobench.signals import SegmentationConfig, segment
from myobench.time_features import (hemg, iemg, mav, mavslp, mmav1, mmav2, rms, ssc, ssi, var,
                                    wamp, wl, zc)

# ---------------------------------------------------------------- oracles
# Deliberately written as plain loops over 1-based formulas; these are the
# references the vectorized implementations must match.


def oracle_iemg(x):
    return sum(abs(v) for v in x)


def oracle_mav(x):
    return oracle_iemg(x) / len(x)


def oracle_mmav1(x):
    n = len(x)
    total = 0.0
    for i, v in enumerate(x, start=1):
        w = 1.0 if 0.25 * n <= i <= 0.75 * n else 0.5
        total += w * abs(v)
    return total / n


def oracle_mmav2(x):
    n = len(x)
    total = 0.0
    for i, v in enumerate(x, start=1):
        if 0.25 * n <= i <= 0.75 * n:
            w = 1.0
        elif i < 0.25 * n:
            w = 4.0 * i / n
        else:
            w = 4.0 * (n - i) / n
        total += w * abs(v)
    return total / n


def oracle_mavslp(x, k):
    n = len(x) // k
    mavs = [oracle_mav(x[j * n:(j + 1) * n]) for j in range(k)]
    return [mavs[j + 1] - mavs[j] for j in range(k - 1)]


def oracle_ssi(x):
    return sum(v * v for v in x)


def oracle_var(x):
    return oracle_ssi(x) / (len(x) - 1)


def oracle_rms(x):
    return math.sqrt(oracle_ssi(x) / len(x))


def oracle_wl(x):
    return sum(abs(x[i + 1] - x[i]) for i in range(len(x) - 1))


def oracle_zc(x, th):
    return sum(1 for i in range(len(x) - 1)
               if x[i] * x[i + 1] < 0 and abs(x[i] - x[i + 1]) >= th)


def oracle_ssc(x, th):
    return sum(1 for i in range(1, len(x) - 1)
               if (x[i] - x[i - 1]) * (x[i] - x[i + 1]) >= th)


def oracle_wamp(x, th):
    return sum(1 for i in range(len(x) - 1) if abs(x[i] - x[i + 1]) >= th)


def oracle_hemg(x, b, r):
    counts = [0] * b
    width = 2.0 * r / b
    for v in x:
        idx = int(math.floor((v + r) / width))
        counts[min(max(idx, 0), b - 1)] += 1
    return counts


def random_window(rng, n=256, scale=30.0):
    return rng.standard_normal(n) * scale


# ---------------------------------------------------------------- hand values

class TestHandValues:
    def test_iemg(self):
        assert iemg([0, 0, 0]) == 0
        assert iemg([1, -2, 3]) == 6

    def test_mav(self):
        assert mav([1, -2, 3]) == pytest.approx(2.0)
        assert mav([4.5] * 10) == pytest.approx(4.5)
        assert mav([-4.5] * 10) == pytest.approx(4.5)

    def test_mmav1(self):
        # N=4: weights [1, 1, 1, 0.5]
        assert mmav1([2, 2, 2, 2]) == pytest.approx(1.75)
        assert mmav1([0.0] * 16) == 0

    def test_mmav2(self):
        # N=8, all ones: weights [0.5, 1, 1, 1, 1, 1, 0.5, 0]
        assert mmav2([1.0] * 8) == pytest.approx(0.75)
        assert mmav2([0.0] * 8) == 0

    def test_mavslp(self):
        halves = [2.0, 2.0, 2.0, 5.0, 5.0, 5.0]
        np.testing.assert_allclose(mavslp(halves, segments=2), [3.0])
        np.testing.assert_allclose(mavslp([3.0] * 12, segments=4), [0, 0, 0])

    def test_ssi_var(self):
        assert ssi([1, -2, 3]) == pytest.approx(14.0)
        assert ssi([0, 0]) == 0
        assert var([1, -2, 3]) == pytest.approx(7.0)
        assert var([0, 0, 0]) == 0

    def test_rms(self):
        assert rms([1, -2, 3]) == pytest.approx(math.sqrt(14 / 3), abs=1e-9)
        assert rms([1, -2, 3]) == pytest.approx(2.160247, abs=1e-6)
        assert rms([-3.2] * 5) == pytest.approx(3.2)

    def test_wl(self):
        assert wl([1, -2, 3]) == pytest.approx(8.0)
        assert wl([7.0] * 9) == 0

    def test_zc(self):
        assert zc([1, -1, 1, -1], threshold=0.5) == 3
        assert zc([1, -1, 1, -1], threshold=3.0) == 0
        assert zc([1, 2, 3, 4], threshold=0.0) == 0

    def test_ssc(self):
        assert ssc([0, 2, 0, 2, 0], threshold=1.0) == 3
        assert ssc(np.arange(10.0), threshold=0.5) == 0

    def test_wamp(self):
        assert wamp([0, 3, 0], threshold=2.0) == 2
        assert wamp([5.0] * 6, threshold=1.0) == 0

    def test_hemg(self):
        np.testing.assert_array_equal(
            hemg([-2.5, 0.1, 2.9, 0.2], bins=3, limit=3.0), [1, 2, 1])
        np.testing.assert_array_equal(hemg([0.0] * 7, bins=3, limit=1.0), [0, 7, 0])

    def test_hemg_clamps_outliers(self):
        np.testing.assert_array_equal(
            hemg([-100.0, 100.0, 0.0], bins=3, limit=1.0), [1, 1, 1])

    @pytest.mark.parametrize("far", [1e300, np.finfo(float).max])
    def test_hemg_far_outlier_lands_in_the_top_bin(self, far):
        # A scaled index past int64 used to wrap to INT64_MIN and land in bin 0.
        np.testing.assert_array_equal(hemg([far, 0.5, -0.5], bins=3, limit=1.0),
                                      hemg([2.0, 0.5, -0.5], bins=3, limit=1.0))
        np.testing.assert_array_equal(hemg([far, 0.5, -0.5], bins=3, limit=1.0), [1, 0, 2])
        np.testing.assert_array_equal(hemg([-far, 0.5], bins=3, limit=1e-3), [1, 0, 1])


# ---------------------------------------------------------------- oracle sweep

class TestOracles:
    def test_scalar_features_match_loop_oracles(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            x = random_window(rng)
            assert iemg(x) == pytest.approx(oracle_iemg(x), rel=1e-12)
            assert mav(x) == pytest.approx(oracle_mav(x), rel=1e-12)
            assert mmav1(x) == pytest.approx(oracle_mmav1(x), rel=1e-12)
            assert mmav2(x) == pytest.approx(oracle_mmav2(x), rel=1e-12)
            assert ssi(x) == pytest.approx(oracle_ssi(x), rel=1e-12)
            assert var(x) == pytest.approx(oracle_var(x), rel=1e-12)
            assert rms(x) == pytest.approx(oracle_rms(x), rel=1e-12)
            assert wl(x) == pytest.approx(oracle_wl(x), rel=1e-12)

    def test_counters_match_loop_oracles_exactly(self):
        rng = np.random.default_rng(2025)
        for _ in range(25):
            x = random_window(rng)
            for th in (0.0, 10.0, 30.0):
                assert zc(x, th) == oracle_zc(x, th)
                assert ssc(x, th) == oracle_ssc(x, th)
                assert wamp(x, th) == oracle_wamp(x, th)

    def test_mavslp_matches_oracle(self):
        rng = np.random.default_rng(2026)
        x = random_window(rng)
        np.testing.assert_allclose(mavslp(x, segments=4), oracle_mavslp(x, 4),
                                   rtol=1e-12)

    def test_hemg_matches_oracle(self):
        rng = np.random.default_rng(2027)
        for b in (1, 3, 9):
            x = random_window(rng)
            counts = hemg(x, bins=b, limit=60.0)
            np.testing.assert_array_equal(counts, oracle_hemg(x, b, 60.0))
            assert counts.sum() == len(x)


# ---------------------------------------------------------------- HEMG bin edges

def hemg_bin_index(x, bins, limit):
    """Each sample's bin by the array formula: clip to +-limit, shift, divide
    by the bin width, floor, and clamp +limit's index into the top bin."""
    scaled = np.clip(np.asarray(x, dtype=float), -limit, limit)
    scaled += limit
    scaled /= 2.0 * limit / bins
    return np.minimum(np.floor(scaled).astype(np.int64), bins - 1)


def hemg_counts_oracle(rows, bins, limit):
    """Each row's count per bin: every sample's bin index, offset by its row,
    histogrammed by one bincount."""
    rows = np.atleast_2d(rows)
    idx = hemg_bin_index(rows, bins, limit) + bins * np.arange(len(rows))[:, np.newaxis]
    return np.bincount(idx.ravel(), minlength=len(rows) * bins).reshape(len(rows), bins)


HEMG_LIMITS = [1e-3, 0.3, 1.0, 7.0, 123.456, 200.0, 1e300, 4e307]


def ulps(x, steps):
    """The doubles ``steps`` ulps above (or below, for negative steps) x."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.sign(steps) * np.inf)
    return x


def hemg_edge_samples(bins, limit):
    """Samples at every bin edge and one ulp below it, within 3 ulps of every
    nominal boundary -limit + j * width, at, inside and beyond +-limit, and
    +-0.0."""
    width = 2.0 * limit / bins
    edges = [e for e in time_features._hemg_edges(bins, limit) if np.isfinite(e)]
    nominal = [ulps(-limit + j * width, k) for j in range(1, bins) for k in range(-3, 4)]
    far = np.finfo(float).max
    return np.array(edges + [np.nextafter(e, -np.inf) for e in edges] + nominal
                    + [limit, -limit, ulps(limit, -1), ulps(-limit, 1), ulps(limit, 1),
                       ulps(-limit, -1), 1.5 * limit, -1.5 * limit, far, -far, 0.0, -0.0])


class TestHemgEdges:
    """HEMG counts each window's samples at or above every bin edge; the
    counts equal the array formula's bin indices histogrammed."""

    @pytest.mark.parametrize("limit", HEMG_LIMITS)
    def test_each_edge_is_the_least_double_of_its_bin(self, limit):
        for bins in range(1, 12):
            edges = time_features._hemg_edges(bins, limit)
            assert len(edges) == bins - 1
            for j, edge in enumerate(edges, 1):
                below, at = hemg_bin_index([np.nextafter(edge, -np.inf), edge], bins, limit)
                assert below < j <= at, (bins, j, edge)

    def test_an_edge_past_the_top_bin_is_inf(self):
        # 9 bins of 3.5e-323 are narrower than the subnormal spacing: +limit
        # scales into bin 7, so no sample reaches bin 8.
        assert hemg_bin_index([3.5e-323], 9, 3.5e-323)[0] == 7
        assert time_features._hemg_edges(9, 3.5e-323)[-1] == np.inf
        x = hemg_edge_samples(9, 3.5e-323)
        np.testing.assert_array_equal(hemg(x, bins=9, limit=3.5e-323),
                                      hemg_counts_oracle(x, 9, 3.5e-323)[0])

    @pytest.mark.parametrize("limit", HEMG_LIMITS)
    def test_the_scalar_bin_is_the_array_formula(self, limit):
        for bins in range(1, 12):
            x = hemg_edge_samples(bins, limit)
            assert [time_features._hemg_bin(float(v), bins, limit) for v in x] == \
                hemg_bin_index(x, bins, limit).tolist()

    @pytest.mark.parametrize("limit", HEMG_LIMITS)
    def test_window_matrix_and_overlapping_windows_match_the_oracle(self, limit):
        rng = np.random.default_rng(int(limit % 1000))
        cfg = SegmentationConfig(window_ms=8.0, slide_ms=3.0)  # 8 samples every 3 at 1 kHz
        for bins in range(1, 12):
            x = hemg_edge_samples(bins, limit)
            signal = np.concatenate([x, rng.permutation(x)])
            rows = signal[:signal.size // 8 * 8].reshape(-1, 8)
            descriptor = [make_descriptor("hemg", {"bins": bins, "limit": limit})]
            np.testing.assert_array_equal(extract(descriptor, rows, 1000.0),
                                          hemg_counts_oracle(rows, bins, limit))
            windows = np.array(segment(signal, 1000.0, cfg))
            np.testing.assert_array_equal(extract_segments(descriptor, signal, 1000.0, cfg),
                                          hemg_counts_oracle(windows, bins, limit))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
           st.integers(1, 11), st.sampled_from(HEMG_LIMITS))
    @settings(max_examples=200, deadline=None)
    def test_random_finite_samples_match_the_oracle(self, values, bins, limit):
        np.testing.assert_array_equal(hemg(values, bins=bins, limit=limit),
                                      hemg_counts_oracle(values, bins, limit)[0])


# ---------------------------------------------------------------- properties

class TestProperties:
    def test_amplitude_scaling_homogeneity(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = random_window(rng, n=int(rng.integers(8, 200)))
            c = float(rng.uniform(0.05, 10.0))
            for f in (iemg, mav, mmav1, mmav2, rms, wl):
                assert f(c * x) == pytest.approx(c * f(x), rel=1e-9)
            for f in (ssi, var):
                assert f(c * x) == pytest.approx(c * c * f(x), rel=1e-9)
            for f in (zc, ssc, wamp):
                assert f(c * x, 0.0) == f(x, 0.0)

    def test_definitional_identities(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            x = random_window(rng, n=100)
            assert mav(x) == pytest.approx(iemg(x) / len(x), rel=1e-15)
            assert var(x) == pytest.approx(ssi(x) / (len(x) - 1), rel=1e-15)
            assert rms(x) == pytest.approx(math.sqrt(ssi(x) / len(x)), rel=1e-15)

    def test_threshold_counters_non_increasing(self):
        rng = np.random.default_rng(33)
        x = random_window(rng)
        for f in (zc, ssc, wamp):
            counts = [f(x, th) for th in np.linspace(0, 80, 17)]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=60),
           st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_hemg_sums_to_n_and_ignores_order(self, values, bins):
        counts = hemg(values, bins=bins, limit=25.0)
        assert counts.sum() == len(values)
        np.testing.assert_array_equal(counts, hemg(values[::-1], bins=bins, limit=25.0))

    def test_zero_window_zeroes_every_feature(self):
        x = np.zeros(12)
        assert iemg(x) == mav(x) == mmav1(x) == mmav2(x) == 0
        assert ssi(x) == var(x) == rms(x) == wl(x) == 0
        assert zc(x, 1.0) == ssc(x, 1.0) == wamp(x, 1.0) == 0
        np.testing.assert_array_equal(mavslp(x, segments=3), [0, 0])
        np.testing.assert_array_equal(hemg(x, bins=3, limit=1.0), [0, 12, 0])


# ---------------------------------------------------------------- the registry path

_THRESHOLDS = st.sampled_from([0.0, 0.5, 1.0, 10.0])
PUBLIC = [(iemg, {}), (mav, {}), (mmav1, {}), (mmav2, {}), (ssi, {}), (var, {}), (rms, {}),
          (wl, {}), (zc, {"threshold": _THRESHOLDS}), (ssc, {"threshold": _THRESHOLDS}),
          (wamp, {"threshold": _THRESHOLDS}), (mavslp, {"segments": st.integers(2, 4)}),
          (hemg, {"bins": st.integers(1, 5), "limit": st.sampled_from([0.5, 1.0, 3.0])})]
COUNTERS = (zc, ssc, wamp)


class TestRegistryPath:
    """Each function gives exactly `extract`'s column of its descriptor, in
    the shape and type the function documents."""

    def test_covers_every_function(self):
        # the time-domain families are those whose record gives a shortest window
        assert {function.__name__ for function, _ in PUBLIC} == \
            {name for name, family in _FAMILIES.items() if family.min_samples}

    @given(case=st.sampled_from(PUBLIC).flatmap(
               lambda case: st.tuples(st.just(case[0]), st.fixed_dictionaries(case[1]))),
           rows=st.integers(0, 3), width=st.sampled_from([12, 24, 36]),
           quantum=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_extract_column(self, case, rows, width, quantum, seed):
        function, params = case
        x = np.random.default_rng(seed).standard_normal((rows, width))
        if quantum:  # ties, zeros and zero differences
            x = np.round(x / quantum) * quantum
        column = extract([make_descriptor(function.__name__, params)], x, 1.0)
        vector = function in (mavslp, hemg)
        dtype = int if function in COUNTERS or function is hemg else float

        matrix = function(x, **params)
        assert isinstance(matrix, np.ndarray) and matrix.dtype == dtype
        assert matrix.shape == ((rows, column.shape[1]) if vector else (rows,))
        assert np.array_equal(matrix.reshape(column.shape), column)
        for row, expected in zip(x, column):
            one = function(row, **params)
            if vector:
                assert isinstance(one, np.ndarray) and one.dtype == dtype
                assert np.array_equal(one, expected)
            else:
                assert type(one) is dtype
                assert one == expected[0]


# ---------------------------------------------------------------- errors

class TestErrors:
    def test_negative_thresholds_rejected(self):
        x = [1.0, -1.0, 1.0]
        for f in (zc, ssc, wamp):
            for threshold in (-0.5, float("nan")):  # every comparison with NaN is false
                with pytest.raises(ValueError, match="non-negative"):
                    f(x, threshold)

    def test_mavslp_rejects_ragged_split(self):
        with pytest.raises(ValueError, match="divide"):
            mavslp(np.ones(10), segments=3)
        with pytest.raises(ValueError):
            mavslp(np.ones(10), segments=1)

    def test_hemg_rejects_bad_params(self):
        with pytest.raises(ValueError):
            hemg([1.0], bins=0, limit=1.0)
        with pytest.raises(ValueError):
            hemg([1.0], bins=3, limit=0.0)

    def test_counts_must_be_whole(self):
        # The descriptor checks a count before anything converts it to an int.
        with pytest.raises(ValueError, match="^hemg:bins=3.7: bins must be a whole number$"):
            hemg([1.0, 2.0], bins=3.7)
        with pytest.raises(ValueError,
                           match="^mavslp:segments=2.5: segments must be a whole number$"):
            mavslp(np.ones(10), segments=2.5)
        np.testing.assert_array_equal(hemg([0.5, -0.5], bins=2.0), [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hemg_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="^window holds a non-finite sample$"):
            hemg([0.5, bad, -0.5], bins=3, limit=1.0)
        with pytest.raises(ValueError, match="^window holds a non-finite sample$"):
            hemg(np.array([[0.5, 0.1], [0.2, bad]]), bins=3, limit=1.0)

    def test_short_windows_rejected(self):
        # every family with a shortest window, one sample short of it, as a
        # window and as a matrix
        for name, family in _FAMILIES.items():
            if family.min_samples:
                for short in (np.ones(family.min_samples - 1),
                              np.ones((2, family.min_samples - 1))):
                    with pytest.raises(ValueError,
                                       match=f"of at least {family.min_samples} samples$"):
                        getattr(time_features, name)(short)
        with pytest.raises(ValueError):
            var([1.0])
        with pytest.raises(ValueError):
            wl([1.0])
        with pytest.raises(ValueError):
            ssc([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            mmav1([1.0, 2.0, 3.0])

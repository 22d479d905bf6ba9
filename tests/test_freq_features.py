"""AR estimation and spectral moments: hand values, consistency, properties."""
import numpy as np
import pytest
from scipy.signal import lfilter

from myobench import freq_features as ff
from myobench.freq_features import ar_coefficients, mdf, mmdf, mmnf, mnf
from myobench.registry import extract, parse_features
from myobench.signals import amplitude_spectrum

MOMENTS = parse_features("mnf,mdf,mmnf,mmdf")


def simulate_ar(coeffs, n, rng, burn=1024):
    """Drive x_n = -sum(a_i x_{n-i}) + w_n with unit white noise."""
    w = rng.standard_normal(n + burn)
    x = lfilter([1.0], np.concatenate(([1.0], coeffs)), w)
    return x[burn:]


def is_stationary(coefficients):
    """True when every root of z^p + a_1 z^(p-1) + ... + a_p lies inside the unit circle."""
    return bool(np.all(np.abs(np.roots(np.concatenate(([1.0], coefficients)))) < 1.0))


def residual_variance(x, coefficients):
    """The fit's prediction-error power r_0 + sum(a_i r_i) (Yule-Walker, biased r_k)."""
    r = [np.dot(x[:len(x) - k], x[k:]) / len(x) for k in range(len(coefficients) + 1)]
    return r[0] + np.dot(coefficients, r[1:])


def moments(x, rate=1000.0):
    """{name: value} of the four moments of one window, from one extraction."""
    return dict(zip(("mnf", "mdf", "mmnf", "mmdf"), extract(MOMENTS, x, rate)[0].tolist()))


class TestArCoefficients:
    def test_order_one_closed_form(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(500)
        coefficients = ar_coefficients(x, order=1)
        r0 = np.dot(x, x) / len(x)
        r1 = np.dot(x[:-1], x[1:]) / len(x)
        assert coefficients.shape == (1,)
        assert coefficients[0] == pytest.approx(-r1 / r0, abs=1e-12)

    def test_recovers_ar1_process(self):
        rng = np.random.default_rng(12)
        x = simulate_ar([-0.9], 4096, rng)  # x_n = 0.9 x_{n-1} + w_n
        coefficients = ar_coefficients(x, order=1)
        assert coefficients[0] == pytest.approx(-0.9, abs=0.05)
        assert residual_variance(x, coefficients) > 0

    def test_white_noise_has_tiny_lag1(self):
        rng = np.random.default_rng(13)
        assert abs(ar_coefficients(rng.standard_normal(4096), order=1)[0]) < 0.05

    @pytest.mark.parametrize("roots", [
        [0.7],
        [0.6, -0.5],
        [0.6, -0.4, 0.3],
        [0.7, -0.5, 0.4, -0.3],
    ])
    def test_round_trip_recovers_coefficients(self, roots):
        # True process built from roots inside the unit circle, so the
        # generating model is stationary by construction.
        true = np.poly(roots)[1:]
        rng = np.random.default_rng(len(roots))
        x = simulate_ar(true, 8192, rng)
        coefficients = ar_coefficients(x, order=len(true))
        assert coefficients.shape == (len(true),)
        np.testing.assert_allclose(coefficients, true, atol=0.1)
        assert is_stationary(coefficients)

    def test_estimates_are_always_stationary(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            x = rng.standard_normal(256) * rng.uniform(0.1, 40)
            for p in (1, 2, 4, 10):
                assert is_stationary(ar_coefficients(x, order=p))

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            ar_coefficients(np.zeros(64), order=1)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            ar_coefficients(np.ones(8), order=8)
        with pytest.raises(ValueError):
            ar_coefficients(np.ones(8), order=0)


class TestSpectralMomentHandValues:
    # Hand-built spectra go straight to the two moment kernels that every
    # moment runs: the centroid (mnf over A_j^2, mmnf over A_j) and the
    # median bin (mdf over A_j^2, mmdf over A_j).
    def test_single_line_degenerates_to_its_frequency(self):
        freqs = np.array([0.0, 100.0, 200.0])
        amplitudes = np.array([0.0, 0.0, 2.0])
        powers = amplitudes ** 2
        assert (ff._centroid(freqs, powers, 1) == ff._median_bin(freqs, powers, 1)
                == ff._centroid(freqs, amplitudes, 1) == ff._median_bin(freqs, amplitudes, 1)
                == 200.0)

    def test_mnf_symmetry_and_weighting(self):
        freqs = np.array([100.0, 200.0])
        assert ff._centroid(freqs, np.array([3.0, 3.0]), 1) == pytest.approx(150.0)
        amplitudes = np.array([1.0, 3.0])
        assert ff._centroid(freqs, amplitudes ** 2, 1) == pytest.approx(190.0)
        assert ff._centroid(freqs, amplitudes, 1) == pytest.approx(175.0)

    def test_mdf_flat_and_stepped(self):
        flat = np.array([100.0, 200, 300, 400, 500])
        assert ff._median_bin(flat, np.ones(5), 1) == 300.0
        stepped = np.array([100.0, 200.0, 300.0])
        assert ff._median_bin(stepped, np.array([1.0, 1.0, 2.0]), 1) == 200.0

    def test_mmdf_flat_and_stepped(self):
        flat = np.array([10.0, 20, 30, 40, 50, 60, 70])
        assert ff._median_bin(flat, np.ones(7), 1) == 40.0
        stepped = np.array([100.0, 200.0, 300.0])
        assert ff._median_bin(stepped, np.array([1.0, 1.0, 2.0]), 1) == 200.0

    def test_flat_amplitude_gives_mean_frequency(self):
        freqs = np.linspace(0, 500, 33)
        assert ff._centroid(freqs, np.ones(33), 1) == pytest.approx(np.mean(freqs))

    def test_all_zero_spectrum_rejected(self):
        freqs = np.array([1.0, 2.0])
        for moment in (ff._centroid, ff._median_bin):
            with pytest.raises(ValueError, match="no mass"):
                moment(freqs, np.zeros(2), 1)
        for feature in (mnf, mdf, mmnf, mmdf):
            with pytest.raises(ValueError, match="no mass"):
                feature(np.zeros(64), 1000.0)


class TestMomentProperties:
    def test_scale_invariance(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            x = rng.standard_normal(128) * rng.uniform(0.01, 30)
            c = float(rng.uniform(0.1, 20))
            a, b = moments(x), moments(c * x)
            assert a["mnf"] == pytest.approx(b["mnf"], rel=1e-9)
            assert a["mdf"] == b["mdf"]
            assert a["mmnf"] == pytest.approx(b["mmnf"], rel=1e-9)
            assert a["mmdf"] == b["mmdf"]

    def test_moments_stay_on_frequency_axis(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            x = rng.standard_normal(200)
            for value in moments(x).values():
                assert 0.0 <= value <= 500.0

    def test_median_bin_splits_cumulative_weight(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            x = rng.standard_normal(128)
            freqs, amplitudes = amplitude_spectrum(x, 1000.0)
            for weights, med in [
                (amplitudes, mmdf(x, 1000.0)),
                (amplitudes ** 2, mdf(x, 1000.0)),
            ]:
                idx = int(np.where(freqs == med)[0][0])
                total = weights.sum()
                assert weights[:idx].sum() < 0.5 * total
                assert weights[:idx + 1].sum() >= 0.5 * total

    def test_dc_exclusion_flag(self):
        freqs, amplitudes = np.array([0.0, 100.0]), np.array([3.0, 1.0])
        assert ff._centroid(freqs, amplitudes, 1) == pytest.approx(25.0)
        assert ff._centroid(freqs, amplitudes, 0) == pytest.approx(100.0)
        assert ff._median_bin(freqs, amplitudes, 0) == 100.0
        x = 5.0 + np.sin(2 * np.pi * 125.0 * np.arange(256) / 1000.0)  # DC plus bin 32
        assert mmnf(x, 1000.0) < 20.0
        assert mmnf(x, 1000.0, dc=0) == pytest.approx(125.0)
        assert mdf(x, 1000.0, dc=0) == 125.0


class TestSpectralMomentsBundle:
    def test_exact_bin_sinusoid(self):
        t = np.arange(256) / 1000.0
        x = np.sin(2 * np.pi * 125.0 * t)
        m = moments(x)
        assert m["mnf"] == pytest.approx(125.0, abs=1e-6)
        assert m["mdf"] == 125.0
        assert m["mmnf"] == pytest.approx(125.0, abs=1e-6)
        assert m["mmdf"] == 125.0

    def test_white_noise_moments_near_quarter_rate(self):
        rng = np.random.default_rng(54)
        sums = np.zeros(4)
        trials = 30
        for _ in range(trials):
            sums += list(moments(rng.standard_normal(4096)).values())
        means = sums / trials
        np.testing.assert_allclose(means, 250.0, rtol=0.10)

    def test_matches_individual_calls(self):
        rng = np.random.default_rng(55)
        x = rng.standard_normal(300)
        m = moments(x)
        assert m["mnf"] == mnf(x, 1000.0)
        assert m["mdf"] == mdf(x, 1000.0)
        assert m["mmnf"] == mmnf(x, 1000.0)
        assert m["mmdf"] == mmdf(x, 1000.0)

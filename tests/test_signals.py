"""Segmentation and spectrum estimation against independent oracles."""
import numpy as np
import pytest

from myobench.signals import (SegmentationConfig, Signal, amplitude_spectrum,
                              power_spectrum, segment, segment_offsets)


def naive_amplitude_spectrum(x, rate):
    """O(N^2) DFT-sum reference with the same one-sided energy folding."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    m = n // 2 + 1
    amps = np.empty(m)
    freqs = np.empty(m)
    for j in range(m):
        re = sum(x[k] * np.cos(-2.0 * np.pi * j * k / n) for k in range(n))
        im = sum(x[k] * np.sin(-2.0 * np.pi * j * k / n) for k in range(n))
        mag = np.sqrt(re * re + im * im) / np.sqrt(n)
        if j != 0 and not (n % 2 == 0 and j == n // 2):
            mag *= np.sqrt(2.0)
        amps[j] = mag
        freqs[j] = j * rate / n
    return freqs, amps


class TestSegment:
    def test_window_count_and_starts(self):
        sig = Signal(np.arange(1000, dtype=float), 1000.0)
        cfg = SegmentationConfig(window_ms=256, slide_ms=64)
        windows = segment(sig, cfg)
        assert windows.shape == (12, 256)
        assert list(segment_offsets(sig, cfg)) == list(range(0, 705, 64))

    def test_exact_fit_gives_one_window(self):
        sig = Signal(np.arange(256, dtype=float), 1000.0)
        windows = segment(sig, SegmentationConfig(window_ms=256, slide_ms=64))
        assert windows.shape == (1, 256)
        np.testing.assert_array_equal(windows[0], sig.samples)

    def test_too_short_reports_lengths(self):
        sig = Signal(np.arange(255, dtype=float), 1000.0)
        with pytest.raises(ValueError, match="255.*256"):
            segment(sig, SegmentationConfig(window_ms=256, slide_ms=64))

    def test_windows_copy_signal_slices(self):
        sig = Signal(np.arange(1000, dtype=float), 1000.0)
        cfg = SegmentationConfig(window_ms=100, slide_ms=50)
        windows = segment(sig, cfg)
        for k, off in enumerate(segment_offsets(sig, cfg)):
            np.testing.assert_array_equal(windows[k], sig.samples[off:off + 100])

    def test_shift_consistency(self):
        # Window k equals window k-1 of the signal with one slide chopped off.
        rng = np.random.default_rng(7)
        sig = Signal(rng.standard_normal(2000), 1000.0)
        cfg = SegmentationConfig(window_ms=256, slide_ms=64)
        shifted = Signal(sig.samples[64:], 1000.0)
        full = segment(sig, cfg)
        tail = segment(shifted, cfg)
        np.testing.assert_array_equal(full[1:], tail[: full.shape[0] - 1])

    def test_non_integer_window_rejected(self):
        sig = Signal(np.arange(1000, dtype=float), 3000.0)
        with pytest.raises(ValueError, match="integer"):
            segment(sig, SegmentationConfig(window_ms=100.1, slide_ms=50))

    def test_invalid_slide_rejected(self):
        with pytest.raises(ValueError):
            SegmentationConfig(window_ms=256, slide_ms=0)
        with pytest.raises(ValueError):
            SegmentationConfig(window_ms=256, slide_ms=300)


class TestAmplitudeSpectrum:
    def test_exact_bin_sinusoid_is_a_single_line(self):
        rate, n = 1000.0, 256
        t = np.arange(n) / rate
        x = np.sin(2 * np.pi * 125.0 * t)  # bin 32 exactly
        spec = amplitude_spectrum(x, rate)
        peak = int(np.argmax(spec.amplitudes))
        assert spec.freqs[peak] == pytest.approx(125.0)
        others = np.delete(spec.amplitudes, peak)
        assert np.all(others < 1e-9 * spec.amplitudes[peak])

    def test_zero_window_is_all_zero(self):
        spec = amplitude_spectrum(np.zeros(64), 1000.0)
        assert np.all(spec.amplitudes == 0)

    @pytest.mark.parametrize("n", [64, 65])
    def test_matches_naive_dft_oracle(self, n):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(n)
        spec = amplitude_spectrum(x, 1000.0)
        freqs, amps = naive_amplitude_spectrum(x, 1000.0)
        np.testing.assert_allclose(spec.freqs, freqs, rtol=1e-12)
        scale = np.max(amps)
        np.testing.assert_allclose(spec.amplitudes / scale, amps / scale, atol=1e-9)

    def test_parseval_on_random_windows(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(2, 300))
            x = rng.standard_normal(n) * rng.uniform(0.1, 50)
            ps = power_spectrum(amplitude_spectrum(x, 1000.0))
            energy = np.sum(x * x)
            assert np.sum(ps.powers) == pytest.approx(energy, rel=1e-6)

    def test_amplitudes_scale_linearly(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(128)
        base = amplitude_spectrum(x, 1000.0).amplitudes
        for c in [0.1, 2.0, 17.5]:
            scaled = amplitude_spectrum(c * x, 1000.0).amplitudes
            np.testing.assert_allclose(scaled, c * base, rtol=1e-12, atol=1e-12)

    def test_axis_spans_zero_to_nyquist(self):
        spec = amplitude_spectrum(np.ones(256), 1000.0)
        assert spec.freqs[0] == 0.0
        assert spec.freqs[-1] == 500.0
        assert spec.freqs.size == spec.amplitudes.size == 129

    def test_signal_input_carries_its_rate(self):
        sig = Signal(np.ones(100), 2000.0)
        assert amplitude_spectrum(sig).freqs[-1] == 1000.0

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            amplitude_spectrum(np.ones(1), 1000.0)


class TestPowerSpectrum:
    def test_zeros(self):
        ps = power_spectrum(amplitude_spectrum(np.zeros(6), 1000.0))
        assert np.all(ps.powers == 0)

    def test_squares_amplitudes(self):
        from myobench.signals import Spectrum
        spec = Spectrum(freqs=np.array([100.0, 200.0]), amplitudes=np.array([1.0, 3.0]))
        ps = power_spectrum(spec)
        np.testing.assert_array_equal(ps.powers, [1.0, 9.0])
        np.testing.assert_array_equal(ps.freqs, spec.freqs)

    def test_random_matches_elementwise_square(self):
        rng = np.random.default_rng(99)
        spec = amplitude_spectrum(rng.standard_normal(200), 1000.0)
        ps = power_spectrum(spec)
        np.testing.assert_array_equal(ps.powers, spec.amplitudes ** 2)

"""Segmentation and spectrum estimation against independent oracles, plus
the input checks the entry points share: one sampling-rate check, and a
1-D (one channel) sample array."""
import numpy as np
import pytest

from myobench.freq_features import mmdf, mnf
from myobench.noise import inject_at_snr
from myobench.registry import extract_segments, parse_features
from myobench.signals import (SegmentationConfig, amplitude_spectrum, segment,
                              segment_offsets)


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
        x = np.arange(1000, dtype=float)
        cfg = SegmentationConfig(window_ms=256, slide_ms=64)
        windows = segment(x, 1000.0, cfg)
        assert windows.shape == (12, 256)
        assert list(segment_offsets(x.size, 1000.0, cfg)) == list(range(0, 705, 64))

    def test_exact_fit_gives_one_window(self):
        x = np.arange(256, dtype=float)
        windows = segment(x, 1000.0, SegmentationConfig(window_ms=256, slide_ms=64))
        assert windows.shape == (1, 256)
        np.testing.assert_array_equal(windows[0], x)

    def test_too_short_reports_lengths(self):
        x = np.arange(255, dtype=float)
        with pytest.raises(ValueError, match="255.*256"):
            segment(x, 1000.0, SegmentationConfig(window_ms=256, slide_ms=64))

    def test_windows_copy_signal_slices(self):
        x = np.arange(1000, dtype=float)
        cfg = SegmentationConfig(window_ms=100, slide_ms=50)
        windows = segment(x, 1000.0, cfg)
        for k, off in enumerate(segment_offsets(x.size, 1000.0, cfg)):
            np.testing.assert_array_equal(windows[k], x[off:off + 100])

    def test_shift_consistency(self):
        # Window k equals window k-1 of the signal with one slide chopped off.
        rng = np.random.default_rng(7)
        x = rng.standard_normal(2000)
        cfg = SegmentationConfig(window_ms=256, slide_ms=64)
        full = segment(x, 1000.0, cfg)
        tail = segment(x[64:], 1000.0, cfg)
        np.testing.assert_array_equal(full[1:], tail[: full.shape[0] - 1])

    def test_non_integer_window_rejected(self):
        x = np.arange(1000, dtype=float)
        with pytest.raises(ValueError, match="integer"):
            segment(x, 3000.0, SegmentationConfig(window_ms=100.1, slide_ms=50))

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
        freqs, amplitudes = amplitude_spectrum(x, rate)
        peak = int(np.argmax(amplitudes))
        assert freqs[peak] == pytest.approx(125.0)
        others = np.delete(amplitudes, peak)
        assert np.all(others < 1e-9 * amplitudes[peak])

    def test_zero_window_is_all_zero(self):
        _, amplitudes = amplitude_spectrum(np.zeros(64), 1000.0)
        assert np.all(amplitudes == 0)

    @pytest.mark.parametrize("n", [64, 65])
    def test_matches_naive_dft_oracle(self, n):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(n)
        got_freqs, got_amps = amplitude_spectrum(x, 1000.0)
        freqs, amps = naive_amplitude_spectrum(x, 1000.0)
        np.testing.assert_allclose(got_freqs, freqs, rtol=1e-12)
        scale = np.max(amps)
        np.testing.assert_allclose(got_amps / scale, amps / scale, atol=1e-9)

    def test_parseval_on_random_windows(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(2, 300))
            x = rng.standard_normal(n) * rng.uniform(0.1, 50)
            _, amplitudes = amplitude_spectrum(x, 1000.0)
            energy = np.sum(x * x)
            assert np.sum(amplitudes ** 2) == pytest.approx(energy, rel=1e-6)

    def test_amplitudes_scale_linearly(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(128)
        _, base = amplitude_spectrum(x, 1000.0)
        for c in [0.1, 2.0, 17.5]:
            _, scaled = amplitude_spectrum(c * x, 1000.0)
            np.testing.assert_allclose(scaled, c * base, rtol=1e-12, atol=1e-12)

    def test_axis_spans_zero_to_nyquist(self):
        freqs, amplitudes = amplitude_spectrum(np.ones(256), 1000.0)
        assert freqs[0] == 0.0
        assert freqs[-1] == 500.0
        assert freqs.size == amplitudes.size == 129

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            amplitude_spectrum(np.ones(1), 1000.0)



class TestSampleInput:
    CFG = SegmentationConfig(window_ms=64, slide_ms=32)

    @pytest.mark.parametrize("rate", [-1000.0, 0.0, float("nan"), float("inf")])
    def test_bad_rate_is_refused_by_every_entry_point(self, rate):
        x = np.random.default_rng(0).standard_normal(256)
        features = parse_features("rms,mnf")
        calls = {
            "mnf": lambda: mnf(x, rate),
            "mmdf": lambda: mmdf(x, rate),
            "amplitude_spectrum": lambda: amplitude_spectrum(x, rate),
            "segment": lambda: segment(x, rate, self.CFG),
            "segment_offsets": lambda: segment_offsets(x.size, rate, self.CFG),
            "extract_segments": lambda: extract_segments(features, x, rate, self.CFG),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError) as caught:
                call()
            assert str(caught.value) == \
                f"sampling rate must be positive and finite, got {rate}", name

    @pytest.mark.parametrize("shape", [(2, 256), (256, 1)])
    def test_two_dimensional_samples_are_refused(self, shape):
        x = np.ones(shape)
        with pytest.raises(ValueError, match="^segment needs a 1-D sample array$"):
            segment(x, 1000.0, self.CFG)
        with pytest.raises(ValueError, match="^extract_segments needs a 1-D sample array$"):
            extract_segments(parse_features("rms"), x, 1000.0, self.CFG)
        with pytest.raises(ValueError, match="^inject_at_snr needs a 1-D sample array$"):
            inject_at_snr(x, 10.0, seed=1)

"""Signal container, sliding-window segmentation, and spectrum estimation.

Everything downstream (time-domain features, spectral moments, the noise
benchmark, the recognition pipeline) works on the primitives defined here:
a sampled signal, fixed-length windows cut from it, and a one-sided DFT
amplitude spectrum whose normalization is pinned so that the summed power
spectrum equals the signal energy (Parseval).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass
class Signal:
    """One channel of sampled amplitude (mV) with its sampling rate (Hz)."""

    samples: np.ndarray
    rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("signal needs a 1-D sample array with at least one sample")
        if not self.rate > 0:
            raise ValueError(f"sampling rate must be positive, got {self.rate}")

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class SegmentationConfig:
    """Sliding-window parameters in milliseconds.

    The window length must map to an integer number of samples (>= 2) at the
    signal's sampling rate, and so must the slide; both are checked when the
    config is applied to a concrete rate.
    """

    window_ms: float = 256.0
    slide_ms: float = 64.0

    def __post_init__(self):
        if not 0 < self.window_ms < np.inf:  # NaN fails too
            raise ValueError("window length must be positive and finite")
        if not 0 < self.slide_ms <= self.window_ms:
            raise ValueError("slide must satisfy 0 < slide <= window length")

    def window_samples(self, rate: float) -> int:
        return _ms_to_samples(self.window_ms, rate, "window", minimum=2)

    def slide_samples(self, rate: float) -> int:
        return _ms_to_samples(self.slide_ms, rate, "slide", minimum=1)


def _ms_to_samples(ms: float, rate: float, what: str, minimum: int) -> int:
    exact = ms * rate / 1000.0
    n = int(round(exact))
    if abs(exact - n) > 1e-9:
        raise ValueError(
            f"{what} of {ms} ms is not an integer number of samples at {rate} Hz"
        )
    if n < minimum:
        raise ValueError(f"{what} of {ms} ms is only {n} samples; need >= {minimum}")
    return n


def segment_offsets(signal: Signal, cfg: SegmentationConfig) -> np.ndarray:
    """Start indices (in samples) of every full window; trailing partial dropped."""
    w = cfg.window_samples(signal.rate)
    s = cfg.slide_samples(signal.rate)
    n = len(signal)
    if n < w:
        raise ValueError(
            f"signal too short to segment: {n} samples, window needs {w}"
        )
    count = (n - w) // s + 1
    return np.arange(count) * s


def segment(signal: Signal, cfg: SegmentationConfig) -> np.ndarray:
    """Cut a signal into sliding windows.

    Returns a read-only (n_windows, window_samples) view of the signal's
    samples; nothing is copied. Window k starts at sample k * slide; any
    trailing samples that do not fill a window are discarded.
    """
    segment_offsets(signal, cfg)  # raises when the signal is too short
    windows = sliding_window_view(signal.samples, cfg.window_samples(signal.rate))
    return windows[::cfg.slide_samples(signal.rate)]


@dataclass
class Spectrum:
    """One-sided amplitude spectrum: A_j (mV per bin) on frequency axis f_j (Hz).

    ``amplitudes`` holds one spectrum, or one row per window over the shared
    frequency axis.
    """

    freqs: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        self.freqs, self.amplitudes = _on_axis(self.freqs, self.amplitudes, "amplitudes")
        if np.any(self.amplitudes < 0):
            raise ValueError("amplitudes must be non-negative")

    @classmethod
    def _unchecked(cls, freqs: np.ndarray, amplitudes: np.ndarray) -> "Spectrum":
        """A spectrum whose arrays are valid by construction, built without the checks."""
        spectrum = cls.__new__(cls)
        spectrum.freqs, spectrum.amplitudes = freqs, amplitudes
        return spectrum


@dataclass
class PowerSpectrum:
    """One-sided power spectrum: P_j = A_j^2 on the same frequency axis."""

    freqs: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        self.freqs, self.powers = _on_axis(self.freqs, self.powers, "powers")


def _on_axis(freqs, values, what: str):
    freqs = np.asarray(freqs, dtype=float)
    values = np.asarray(values, dtype=float)
    if freqs.ndim != 1 or values.ndim not in (1, 2) or values.shape[-1:] != freqs.shape:
        raise ValueError(f"freqs must be 1-D and {what} 1-D or 2-D over the same bins")
    return freqs, values


def amplitude_spectrum(window, rate: float | None = None) -> Spectrum:
    """One-sided DFT magnitude spectrum of a window (rectangular taper).

    Bins run j = 0..floor(N/2) so the axis spans [0, rate/2]. Amplitudes are
    scaled so that sum(A_j^2) == sum(x_n^2): the two-sided energy of each
    interior bin is folded into its one-sided value (factor sqrt(2)), while
    the DC bin and, for even N, the Nyquist bin appear once and get no fold.

    Accepts a Signal (rate taken from it), or a bare window or
    (windows, samples) matrix plus ``rate``; a matrix gives one spectrum row
    per window.
    """
    if isinstance(window, Signal):
        samples, rate = window.samples, window.rate
    else:
        samples = np.asarray(window, dtype=float)
        if rate is None:
            raise ValueError("rate is required when window is a bare sample array")
    if samples.ndim not in (1, 2) or samples.shape[-1] < 2:
        raise ValueError("spectrum needs a window (or window matrix) of at least 2 samples")
    n = samples.shape[-1]
    mags = np.abs(np.fft.rfft(samples, axis=-1))
    mags /= np.sqrt(n)
    fold = np.full(mags.shape[-1], np.sqrt(2.0))
    fold[0] = 1.0
    if n % 2 == 0:
        fold[-1] = 1.0
    mags *= fold
    # Magnitudes times positive folds on rfftfreq's axis: nothing to check.
    return Spectrum._unchecked(np.fft.rfftfreq(n, d=1.0 / rate), mags)


def power_spectrum(spectrum: Spectrum) -> PowerSpectrum:
    """Square the amplitude of each bin; the frequency axis is unchanged."""
    return PowerSpectrum(freqs=spectrum.freqs, powers=spectrum.amplitudes ** 2)

"""Sliding-window segmentation and spectrum estimation.

Everything downstream (time-domain features, spectral moments, the noise
benchmark, the recognition pipeline) works on the primitives defined here:
fixed-length windows cut from a 1-D sample array, and a one-sided DFT
amplitude spectrum whose normalization is pinned so that the summed power
spectrum equals the signal energy (Parseval). Samples are plain arrays, and
an entry point that needs the sampling rate (Hz) takes it as a ``rate``
argument, checked by `_check_rate` wherever it is used. The spectrum is a
plain ``(freqs, amplitudes)`` pair; the spectral moments square the
amplitudes for their power-weighted forms (see `freq_features`).

Windows are viewed one way: `_windows` gives a read-only strided view of
every whole window along an array's last axis, with no copy. `segment` cuts
a signal's windows with it, and `registry` cuts the windows of each
intermediate it computes over a stack of signals (or of window rows).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided


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
            raise ValueError(f"window length must be positive and finite, got {self.window_ms} ms")
        if not 0 < self.slide_ms <= self.window_ms:
            raise ValueError("slide must satisfy 0 < slide <= window length, "
                             f"got {self.slide_ms} ms for {self.window_ms} ms")

    def window_samples(self, rate: float) -> int:
        return _ms_to_samples(self.window_ms, rate, "window", minimum=2)

    def slide_samples(self, rate: float) -> int:
        return _ms_to_samples(self.slide_ms, rate, "slide", minimum=1)


def _check_rate(rate: float) -> None:
    if not 0 < rate < np.inf:  # NaN fails too
        raise ValueError(f"sampling rate must be positive and finite, got {rate}")


def _ms_to_samples(ms: float, rate: float, what: str, minimum: int) -> int:
    _check_rate(rate)
    exact = ms * rate / 1000.0
    n = int(round(exact))
    if abs(exact - n) > 1e-9:
        raise ValueError(
            f"{what} of {ms} ms is not an integer number of samples at {rate} Hz"
        )
    if n < minimum:
        raise ValueError(f"{what} of {ms} ms is only {n} samples; need >= {minimum}")
    return n


def segment_offsets(n_samples: int, rate: float, cfg: SegmentationConfig) -> np.ndarray:
    """Start indices (in samples) of every full window over ``n_samples``
    samples at ``rate`` Hz; a trailing partial window is dropped."""
    w = cfg.window_samples(rate)
    s = cfg.slide_samples(rate)
    if n_samples < w:
        raise ValueError(
            f"signal too short to segment: {n_samples} samples, window needs {w}"
        )
    count = (n_samples - w) // s + 1
    return np.arange(count) * s


def segment(samples, rate: float, cfg: SegmentationConfig) -> np.ndarray:
    """Cut a 1-D sample array, sampled at ``rate`` Hz, into sliding windows.

    Returns a read-only (n_windows, window_samples) view of the samples
    (of a float copy when they are not float); nothing else is copied.
    Window k starts at sample k * slide; any trailing samples that do not
    fill a window are discarded.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError("segment needs a 1-D sample array")
    segment_offsets(samples.size, rate, cfg)  # raises when the signal is too short
    return _windows(samples, cfg.window_samples(rate), cfg.slide_samples(rate))


def _windows(values, width: int, slide: int) -> np.ndarray:
    """A read-only view of every whole window of ``width`` samples, one
    every ``slide``, along the last axis: (..., windows, width)."""
    count = (values.shape[-1] - width) // slide + 1
    step = values.strides[-1]
    return as_strided(values, values.shape[:-1] + (count, width),
                      values.strides[:-1] + (slide * step, step), writeable=False)


def amplitude_spectrum(window, rate: float):
    """One-sided DFT magnitude spectrum of a window (rectangular taper).

    Returns ``(freqs, amplitudes)``: bins j = 0..floor(N/2) on an axis that
    spans [0, rate/2], and their amplitudes A_j (mV per bin), scaled so that
    sum(A_j^2) == sum(x_n^2): the two-sided energy of each interior bin is
    folded into its one-sided value (factor sqrt(2)), while the DC bin and,
    for even N, the Nyquist bin appear once and get no fold. A
    (windows, samples) matrix gives one row of amplitudes per window over
    the shared axis.
    """
    _check_rate(rate)
    samples = np.asarray(window, dtype=float)
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
    return np.fft.rfftfreq(n, d=1.0 / rate), mags

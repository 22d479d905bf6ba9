"""Time-domain sEMG feature extractors.

Thirteen amplitude- and event-based features computed over a window of
samples x_1..x_N. Every function reduces over the last axis: one 1-D window
gives a scalar, except ``mavslp`` (k-1 slope values) and ``hemg`` (one count
per histogram bin); a (windows, samples) matrix gives one such result per
row.

Threshold units are the same as the sample units (mV as stored); the usual
working range for the event counters is 10-50 mV depending on amplifier gain.
"""
from __future__ import annotations

import numpy as np

# Robustness-suite defaults: ZC and WAMP work best gated at 10 mV, SSC at 30 mV.
DEFAULT_ZC_THRESHOLD = 10.0
DEFAULT_SSC_THRESHOLD = 30.0
DEFAULT_WAMP_THRESHOLD = 10.0
DEFAULT_MAVSLP_SEGMENTS = 3
DEFAULT_HEMG_BINS = 3


def _window(x, min_len: int = 1) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] < min_len:
        raise ValueError(
            f"need a 1-D window or (windows, samples) matrix of at least {min_len} samples"
        )
    return x


def _per_window(values, cast=float):
    """A single window's 0-d result as a Python scalar; per-row results as is."""
    return cast(values) if np.ndim(values) == 0 else values


def iemg(window) -> float:
    """Integrated EMG: sum of absolute sample values."""
    x = _window(window)
    return _per_window(np.sum(np.abs(x), axis=-1))


def mav(window) -> float:
    """Mean absolute value: iemg / N."""
    x = _window(window)
    return _per_window(np.mean(np.abs(x), axis=-1))


def mmav1(window) -> float:
    """MAV with a stepped weighting window.

    Samples in the central half of the window (0.25N <= n <= 0.75N, 1-based)
    get weight 1, the rest weight 0.5.
    """
    x = _window(window, min_len=4)
    n = x.shape[-1]
    idx = np.arange(1, n + 1, dtype=float)
    w = np.where((0.25 * n <= idx) & (idx <= 0.75 * n), 1.0, 0.5)
    return _per_window(np.mean(w * np.abs(x), axis=-1))


def mmav2(window) -> float:
    """MAV with a continuous (ramped) weighting window.

    Central half weighted 1; the leading quarter ramps up as 4n/N and the
    trailing quarter ramps down as 4(N-n)/N, so weights stay non-negative and
    taper smoothly to the window edges.
    """
    x = _window(window, min_len=4)
    n = x.shape[-1]
    idx = np.arange(1, n + 1, dtype=float)
    w = np.where(
        (0.25 * n <= idx) & (idx <= 0.75 * n),
        1.0,
        np.where(idx < 0.25 * n, 4.0 * idx / n, 4.0 * (n - idx) / n),
    )
    return _per_window(np.mean(w * np.abs(x), axis=-1))


def mavslp(window, segments: int = DEFAULT_MAVSLP_SEGMENTS) -> np.ndarray:
    """Differences between MAVs of consecutive equal sub-segments.

    The window is split into ``segments`` equal parts (its length must divide
    evenly); returns the segments-1 values MAV_{i+1} - MAV_i.
    """
    x = _window(window)
    k = int(segments)
    if k < 2:
        raise ValueError("mavslp needs at least 2 segments")
    if x.shape[-1] % k != 0:
        raise ValueError(
            f"window of {x.shape[-1]} samples does not divide into {k} equal segments"
        )
    mavs = np.abs(x).reshape(x.shape[:-1] + (k, -1)).mean(axis=-1)
    return np.diff(mavs, axis=-1)


def ssi(window) -> float:
    """Simple square integral: total energy sum(x_n^2)."""
    x = _window(window)
    return _per_window(np.sum(x * x, axis=-1))


def var(window) -> float:
    """Signal power as sum(x_n^2) / (N-1); no mean subtraction (EMG is ~zero-mean)."""
    x = _window(window, min_len=2)
    return _per_window(np.sum(x * x, axis=-1) / (x.shape[-1] - 1))


def rms(window) -> float:
    """Root mean square amplitude."""
    x = _window(window)
    return _per_window(np.sqrt(np.mean(x * x, axis=-1)))


def wl(window) -> float:
    """Waveform length: cumulative absolute sample-to-sample change."""
    x = _window(window, min_len=2)
    return _per_window(_wl(np.abs(_diff(x))))


def zc(window, threshold: float = DEFAULT_ZC_THRESHOLD) -> int:
    """Zero crossings: sign changes whose jump clears the threshold.

    Counts n where x_n * x_{n+1} < 0 and |x_n - x_{n+1}| >= threshold; the
    amplitude gate suppresses crossings caused by background noise.
    """
    x = _window(window, min_len=2)
    return _per_window(_zc(x, np.abs(_diff(x)), threshold), int)


def ssc(window, threshold: float = DEFAULT_SSC_THRESHOLD) -> int:
    """Slope sign changes among consecutive sample triples.

    Counts interior n where (x_n - x_{n-1}) * (x_n - x_{n+1}) >= threshold,
    i.e. local turns whose curvature product clears the gate.
    """
    x = _window(window, min_len=3)
    return _per_window(_ssc(_diff(x), threshold), int)


def wamp(window, threshold: float = DEFAULT_WAMP_THRESHOLD) -> int:
    """Willison amplitude: adjacent-sample differences at or above the threshold."""
    x = _window(window, min_len=2)
    return _per_window(_wamp(np.abs(_diff(x)), threshold), int)


# The difference-based kernels take the differences (and their magnitudes)
# precomputed, so `registry.extract` computes them once for all of them.

def _diff(x):
    """d_n = x_{n+1} - x_n along the last axis."""
    return x[..., 1:] - x[..., :-1]


def _check_threshold(threshold: float):
    if threshold < 0:
        raise ValueError("threshold must be non-negative")


def _wl(abs_diff):
    return np.sum(abs_diff, axis=-1)


def _zc(x, abs_diff, threshold: float):
    _check_threshold(threshold)
    crossing = x[..., :-1] * x[..., 1:] < 0
    return np.count_nonzero(crossing & (abs_diff >= threshold), axis=-1)


def _ssc(diff, threshold: float):
    # (x_n - x_{n-1}) * (x_n - x_{n+1}) equals -(d_{n-1} * d_n) exactly: IEEE
    # subtraction and multiplication are symmetric in sign.
    _check_threshold(threshold)
    return np.count_nonzero(diff[..., :-1] * diff[..., 1:] <= -threshold, axis=-1)


def _wamp(abs_diff, threshold: float):
    _check_threshold(threshold)
    return np.count_nonzero(abs_diff >= threshold, axis=-1)


def hemg(window, bins: int = DEFAULT_HEMG_BINS, limit: float = 1.0) -> np.ndarray:
    """Amplitude histogram: sample counts in equal-width bins over [-limit, +limit].

    The symmetric range is supplied rather than taken per window so counts
    stay comparable across windows; samples outside it are clamped into the
    nearest edge bin, so the counts always sum to N. A non-finite sample has
    no bin and is rejected.
    """
    x = _window(window)
    b = int(bins)
    if b < 1:
        raise ValueError("hemg needs at least 1 bin")
    if not limit > 0:
        raise ValueError("hemg range limit must be positive")
    if not np.isfinite(x).all():
        raise ValueError("hemg needs finite samples")
    # Clamp in float first: a far-out sample's bin index would overflow int64.
    scaled = np.clip(x, -limit, limit)
    scaled += limit
    scaled /= 2.0 * limit / b
    idx = np.floor(scaled, out=scaled).astype(int)
    np.minimum(idx, b - 1, out=idx)  # a sample at +limit scales to b, past the top bin
    # Offset each row's bin indices so one bincount histograms every row.
    rows = idx.reshape(-1, idx.shape[-1])
    rows += b * np.arange(rows.shape[0])[:, None]
    counts = np.bincount(rows.ravel(), minlength=rows.shape[0] * b)
    return counts.reshape(x.shape[:-1] + (b,))

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

# The fewest samples a window needs, per feature.
_MIN_SAMPLES = dict(iemg=1, mav=1, mmav1=4, mmav2=4, mavslp=1, ssi=1, var=2, rms=1, wl=2,
                    zc=2, ssc=3, wamp=2, hemg=1)


def _window(x, feature: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    _check_length(x.shape[-1] if x.ndim in (1, 2) else -1, _MIN_SAMPLES[feature])
    return x


def _check_length(samples: int, min_len: int):
    if samples < min_len:
        raise ValueError(
            f"need a 1-D window or (windows, samples) matrix of at least {min_len} samples"
        )


def _per_window(values, cast=float):
    """A single window's 0-d result as a Python scalar; per-row results as is."""
    return cast(values) if np.ndim(values) == 0 else values


def iemg(window) -> float:
    """Integrated EMG: sum of absolute sample values."""
    return _per_window(_iemg(np.abs(_window(window, "iemg"))))


def mav(window) -> float:
    """Mean absolute value: iemg / N."""
    return _per_window(_mav(np.abs(_window(window, "mav"))))


def mmav1(window) -> float:
    """MAV with a stepped weighting window.

    Samples in the central half of the window (0.25N <= n <= 0.75N, 1-based)
    get weight 1, the rest weight 0.5.
    """
    return _per_window(_mmav1(np.abs(_window(window, "mmav1"))))


def mmav2(window) -> float:
    """MAV with a continuous (ramped) weighting window.

    Central half weighted 1; the leading quarter ramps up as 4n/N and the
    trailing quarter ramps down as 4(N-n)/N, so weights stay non-negative and
    taper smoothly to the window edges.
    """
    return _per_window(_mmav2(np.abs(_window(window, "mmav2"))))


def mavslp(window, segments: int = DEFAULT_MAVSLP_SEGMENTS) -> np.ndarray:
    """Differences between MAVs of consecutive equal sub-segments.

    The window is split into ``segments`` equal parts (its length must divide
    evenly); returns the segments-1 values MAV_{i+1} - MAV_i.
    """
    return _mavslp(np.abs(_window(window, "mavslp")), segments)


def ssi(window) -> float:
    """Simple square integral: total energy sum(x_n^2)."""
    x = _window(window, "ssi")
    return _per_window(_ssi(x * x))


def var(window) -> float:
    """Signal power as sum(x_n^2) / (N-1); no mean subtraction (EMG is ~zero-mean)."""
    x = _window(window, "var")
    return _per_window(_var(x * x))


def rms(window) -> float:
    """Root mean square amplitude."""
    x = _window(window, "rms")
    return _per_window(_rms(x * x))


def wl(window) -> float:
    """Waveform length: cumulative absolute sample-to-sample change."""
    x = _window(window, "wl")
    return _per_window(_wl(np.abs(_diff(x))))


def zc(window, threshold: float = DEFAULT_ZC_THRESHOLD) -> int:
    """Zero crossings: sign changes whose jump clears the threshold.

    Counts n where x_n * x_{n+1} < 0 and |x_n - x_{n+1}| >= threshold; the
    amplitude gate suppresses crossings caused by background noise.
    """
    x = _window(window, "zc")
    events = _crossings(x) & _jumps(np.abs(_diff(x)), threshold)
    return _per_window(np.count_nonzero(events, axis=-1), int)


def ssc(window, threshold: float = DEFAULT_SSC_THRESHOLD) -> int:
    """Slope sign changes among consecutive sample triples.

    Counts interior n where (x_n - x_{n-1}) * (x_n - x_{n+1}) >= threshold,
    i.e. local turns whose curvature product clears the gate.
    """
    x = _window(window, "ssc")
    events = _turns(_slope_products(_diff(x)), threshold)
    return _per_window(np.count_nonzero(events, axis=-1), int)


def wamp(window, threshold: float = DEFAULT_WAMP_THRESHOLD) -> int:
    """Willison amplitude: adjacent-sample differences at or above the threshold."""
    x = _window(window, "wamp")
    return _per_window(np.count_nonzero(_jumps(np.abs(_diff(x)), threshold), axis=-1), int)


def hemg(window, bins: int = DEFAULT_HEMG_BINS, limit: float = 1.0) -> np.ndarray:
    """Amplitude histogram: sample counts in equal-width bins over [-limit, +limit].

    The symmetric range is supplied rather than taken per window so counts
    stay comparable across windows; samples outside it are clamped into the
    nearest edge bin, so the counts always sum to N. A non-finite sample has
    no bin and is rejected.
    """
    return _bin_counts(_hemg_bins(_window(window, "hemg"), bins, limit), int(bins))


# The kernels below take elementwise intermediates precomputed: |x|, x^2, the
# differences d_n = x_{n+1} - x_n and their magnitudes, each event mask and
# the HEMG bin index. The public features above compute them per window;
# `registry.extract_segments` computes each once over a whole signal and
# hands every kernel its windows of them, so overlapping windows share one
# pass. A float kernel reduces each window's values in the order a copy of
# that window would; an event mask is counted per window by the caller.

def _diff(x):
    """d_n = x_{n+1} - x_n along the last axis."""
    return x[..., 1:] - x[..., :-1]


def _check_threshold(threshold: float):
    if not threshold >= 0:  # NaN fails this too
        raise ValueError("threshold must be non-negative")


def _iemg(abs_x):
    return np.sum(abs_x, axis=-1)


def _mav(abs_x):
    return np.mean(abs_x, axis=-1)


def _mmav1(abs_x):
    n = abs_x.shape[-1]
    idx = np.arange(1, n + 1, dtype=float)
    w = np.where((0.25 * n <= idx) & (idx <= 0.75 * n), 1.0, 0.5)
    return np.mean(w * abs_x, axis=-1)


def _mmav2(abs_x):
    n = abs_x.shape[-1]
    idx = np.arange(1, n + 1, dtype=float)
    w = np.where(
        (0.25 * n <= idx) & (idx <= 0.75 * n),
        1.0,
        np.where(idx < 0.25 * n, 4.0 * idx / n, 4.0 * (n - idx) / n),
    )
    return np.mean(w * abs_x, axis=-1)


def _mavslp(abs_x, segments: int):
    k = int(segments)
    if k < 2:
        raise ValueError("mavslp needs at least 2 segments")
    if abs_x.shape[-1] % k != 0:
        raise ValueError(
            f"window of {abs_x.shape[-1]} samples does not divide into {k} equal segments"
        )
    mavs = abs_x.reshape(abs_x.shape[:-1] + (k, -1)).mean(axis=-1)
    return np.diff(mavs, axis=-1)


def _ssi(squares):
    return np.sum(squares, axis=-1)


def _var(squares):
    return np.sum(squares, axis=-1) / (squares.shape[-1] - 1)


def _rms(squares):
    return np.sqrt(np.mean(squares, axis=-1))


def _wl(abs_diff):
    return np.sum(abs_diff, axis=-1)


def _crossings(x):
    """Sign changes between neighbours, x_n * x_{n+1} < 0 (zc's ungated events)."""
    return x[..., :-1] * x[..., 1:] < 0


def _jumps(abs_diff, threshold: float):
    """|d_n| >= threshold: wamp's events, and zc's amplitude gate."""
    _check_threshold(threshold)
    return abs_diff >= threshold


def _slope_products(diff):
    # (x_n - x_{n-1}) * (x_n - x_{n+1}) equals -(d_{n-1} * d_n) exactly: IEEE
    # subtraction and multiplication are symmetric in sign.
    return diff[..., :-1] * diff[..., 1:]


def _turns(slope_products, threshold: float):
    """ssc's events: interior turns whose curvature product clears the threshold."""
    _check_threshold(threshold)
    return slope_products <= -threshold


def _hemg_bins(x, bins: int, limit: float):
    """Each sample's histogram bin in [0, bins) over [-limit, +limit]."""
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
    return idx


def _bin_counts(idx, bins: int):
    """Each row's sample count per bin."""
    # Offset each row's bin indices so one bincount histograms every row.
    rows = idx.reshape(-1, idx.shape[-1]) + bins * np.arange(idx.size // idx.shape[-1])[:, None]
    counts = np.bincount(rows.ravel(), minlength=rows.shape[0] * bins)
    return counts.reshape(idx.shape[:-1] + (bins,))


def _bin_events(idx, bins: int):
    """One mask per bin, on a new axis before the samples: idx == j."""
    return idx[..., np.newaxis, :] == np.arange(bins)[:, np.newaxis]

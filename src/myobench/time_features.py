"""Time-domain sEMG feature extractors.

Thirteen amplitude- and event-based features computed over a window of
samples x_1..x_N. Every function reduces over the last axis: one 1-D window
gives a scalar, except ``mavslp`` (k-1 slope values) and ``hemg`` (one count
per histogram bin); a (windows, samples) matrix gives one such result per
row. Each function is one ``registry.extract`` call, so it gives exactly the
column that the CLI, the robustness grid and the recognition pipeline get.

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


def _feature(name: str, window, rate: float = 1.0, **params):
    """``registry.extract`` of one descriptor, in the shape and type of a feature.

    A 1-D window gives a Python float (an int for zc, ssc and wamp), or a
    vector for ``mavslp``, ``hemg`` and ``ar``; a matrix gives one such
    result per row. HEMG counts are ints. Only the spectral moments read
    ``rate``.
    """
    # Imported here: the registry imports this module for its kernels.
    from .registry import extract, make_descriptor
    values = extract([make_descriptor(name, params)], window, rate)
    if name in ("zc", "ssc", "wamp", "hemg"):
        values = values.astype(int)
    if name not in ("mavslp", "hemg", "ar"):
        values = values[:, 0]
    if np.ndim(window) != 1:
        return values
    return values[0] if values.ndim == 2 else values[0].item()


def iemg(window) -> float:
    """Integrated EMG: sum of absolute sample values."""
    return _feature("iemg", window)


def mav(window) -> float:
    """Mean absolute value: iemg / N."""
    return _feature("mav", window)


def mmav1(window) -> float:
    """MAV with a stepped weighting window.

    Samples in the central half of the window (0.25N <= n <= 0.75N, 1-based)
    get weight 1, the rest weight 0.5.
    """
    return _feature("mmav1", window)


def mmav2(window) -> float:
    """MAV with a continuous (ramped) weighting window.

    Central half weighted 1; the leading quarter ramps up as 4n/N and the
    trailing quarter ramps down as 4(N-n)/N, so weights stay non-negative and
    taper smoothly to the window edges.
    """
    return _feature("mmav2", window)


def mavslp(window, segments: int = DEFAULT_MAVSLP_SEGMENTS) -> np.ndarray:
    """Differences between MAVs of consecutive equal sub-segments.

    The window is split into ``segments`` equal parts (its length must divide
    evenly); returns the segments-1 values MAV_{i+1} - MAV_i.
    """
    return _feature("mavslp", window, segments=segments)


def ssi(window) -> float:
    """Simple square integral: total energy sum(x_n^2)."""
    return _feature("ssi", window)


def var(window) -> float:
    """Variance as sum(x_n^2) / (N-1); no mean subtraction (EMG is ~zero-mean)."""
    return _feature("var", window)


def rms(window) -> float:
    """Root mean square amplitude."""
    return _feature("rms", window)


def wl(window) -> float:
    """Waveform length: cumulative absolute sample-to-sample change."""
    return _feature("wl", window)


def zc(window, threshold: float = DEFAULT_ZC_THRESHOLD) -> int:
    """Zero crossings: sign changes whose jump clears the threshold.

    Counts n where x_n * x_{n+1} < 0 and |x_n - x_{n+1}| >= threshold; the
    amplitude gate suppresses crossings caused by background noise.
    """
    return _feature("zc", window, threshold=threshold)


def ssc(window, threshold: float = DEFAULT_SSC_THRESHOLD) -> int:
    """Slope sign changes among consecutive sample triples.

    Counts interior n where (x_n - x_{n-1}) * (x_n - x_{n+1}) >= threshold,
    i.e. local turns whose curvature product clears the gate.
    """
    return _feature("ssc", window, threshold=threshold)


def wamp(window, threshold: float = DEFAULT_WAMP_THRESHOLD) -> int:
    """Willison amplitude: adjacent-sample differences at or above the threshold."""
    return _feature("wamp", window, threshold=threshold)


def hemg(window, bins: int = DEFAULT_HEMG_BINS, limit: float = 1.0) -> np.ndarray:
    """Amplitude histogram: sample counts in equal-width bins over [-limit, +limit].

    The symmetric range is supplied rather than taken per window so counts
    stay comparable across windows; samples outside it are clamped into the
    nearest edge bin, so the counts always sum to N. A non-finite sample has
    no bin and is rejected.
    """
    return _feature("hemg", window, bins=bins, limit=limit)


# The kernels below take elementwise intermediates precomputed: |x|, the
# differences d_n = x_{n+1} - x_n, the products of neighbouring differences
# and the HEMG bin index. `registry` computes each once over its source (a
# window matrix, or a whole signal whose overlapping windows share one pass)
# and hands every kernel its windows of them. A float kernel reduces each
# window's values in the order a copy of that window would; an event mask is
# counted per window by the caller. Parameters arrive checked: a
# `registry.FeatureDescriptor` cannot hold a value outside its domain.

def _diff(x):
    """d_n = x_{n+1} - x_n along the last axis."""
    return x[..., 1:] - x[..., :-1]


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
    if abs_x.shape[-1] % k != 0:
        raise ValueError(
            f"window of {abs_x.shape[-1]} samples does not divide into {k} equal segments"
        )
    mavs = abs_x.reshape(abs_x.shape[:-1] + (k, abs_x.shape[-1] // k)).mean(axis=-1)
    return np.diff(mavs, axis=-1)


def _crossings(x):
    """Sign changes between neighbours, x_n * x_{n+1} < 0 (zc's ungated events)."""
    return x[..., :-1] * x[..., 1:] < 0


def _slope_products(diff):
    # (x_n - x_{n-1}) * (x_n - x_{n+1}) equals -(d_{n-1} * d_n) exactly: IEEE
    # subtraction and multiplication are symmetric in sign.
    return diff[..., :-1] * diff[..., 1:]


def _hemg_bins(x, bins: int, limit: float):
    """Each sample's histogram bin in [0, bins) over [-limit, +limit]."""
    b = int(bins)
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

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

import functools
import math
import struct

import numpy as np

# Robustness-suite defaults: ZC and WAMP work best gated at 10 mV, SSC at 30 mV.
DEFAULT_ZC_THRESHOLD = 10.0
DEFAULT_SSC_THRESHOLD = 30.0
DEFAULT_WAMP_THRESHOLD = 10.0
DEFAULT_MAVSLP_SEGMENTS = 3
DEFAULT_HEMG_BINS = 3


def _feature(name: str, window, rate: float = 1.0, **params):
    """``registry.extract`` of one descriptor, in the shape and type of a feature.

    A 1-D window gives a Python float (an int for a family that counts
    events), or a vector for a family whose record gives a component count
    (mavslp, hemg, and ar even at order 1); a matrix gives one such result
    per row. Only the spectral moments read ``rate``.
    """
    # Imported here: the registry imports this module for its kernels.
    from .registry import _FAMILIES, extract, make_descriptor
    values = extract([make_descriptor(name, params)], window, rate)
    family = _FAMILIES[name]
    if family.counts:
        values = values.astype(int)
    if family.size is None:
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
    nearest edge bin, so the counts always sum to N.
    """
    return _feature("hemg", window, bins=bins, limit=limit)


# The kernels below take elementwise intermediates precomputed: |x|, the
# differences d_n = x_{n+1} - x_n, the products of neighbouring differences
# and the HEMG edge masks. `registry` computes each once over its stack of
# signals (whose overlapping windows share one pass; a window matrix is the
# stack with one window per row) and hands every kernel its windows of them.
# A float kernel reduces each window's values in the order a copy of that
# window would; an event mask is summed per window by
# `registry._Intermediates.counts`, which hemg's kernel calls once per bin
# edge. Parameters arrive checked: a `registry.FeatureDescriptor` cannot hold
# a value outside its domain.

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
    k = int(segments)  # `registry._check_width` has checked that k divides the window
    mavs = abs_x.reshape(abs_x.shape[:-1] + (k, abs_x.shape[-1] // k)).mean(axis=-1)
    return np.diff(mavs, axis=-1)


def _crossings(x):
    """Sign changes between neighbours, x_n * x_{n+1} < 0 (zc's ungated events)."""
    return x[..., :-1] * x[..., 1:] < 0


def _slope_products(diff):
    # (x_n - x_{n-1}) * (x_n - x_{n+1}) equals -(d_{n-1} * d_n) exactly: IEEE
    # subtraction and multiplication are symmetric in sign.
    return diff[..., :-1] * diff[..., 1:]


def _hemg_bin(x: float, bins: int, limit: float) -> int:
    """One sample's histogram bin in [0, bins) over [-limit, +limit]."""
    # Clamp first, so a far-out sample counts in an edge bin.
    scaled = min(max(x, -limit), limit) + limit
    scaled /= 2.0 * limit / bins
    return min(math.floor(scaled), bins - 1)  # +limit scales to bins, past the top bin


_SIGN = 1 << 63
_BITS, _FLOAT = struct.Struct("<Q"), struct.Struct("<d")


def _ordinal(x: float) -> int:
    """x's rank among the doubles: consecutive doubles have consecutive ranks,
    and -0.0 ranks with 0.0."""
    (bits,) = _BITS.unpack(_FLOAT.pack(x))
    return bits if bits < _SIGN else _SIGN - bits


def _double(rank: int) -> float:
    """The double of an `_ordinal` rank."""
    return _FLOAT.unpack(_BITS.pack(rank if rank >= 0 else _SIGN - rank))[0]


@functools.lru_cache(maxsize=256)
def _hemg_edges(bins: int, limit: float) -> tuple[float, ...]:
    """The lower edges e_1 .. e_{bins-1}: e_j is the least double whose bin is j or more.

    Each step of `_hemg_bin` (clamp, shift, divide, floor, clamp) is
    non-decreasing in x under IEEE rounding, so a sample's bin is j or more
    exactly when the sample is e_j or more. Each edge is found by bisection
    over the doubles in [-limit, +limit], whose bins run from 0 to that of
    +limit; a bin that +limit does not reach has the edge inf, which no
    finite sample reaches. A `registry.FeatureDescriptor` keeps 2 * limit
    finite and the bin width above 0, so the formula is finite there.
    """
    edges = []
    lo, top = _ordinal(-limit), _ordinal(limit)  # the bin of lo stays below j
    top_bin = _hemg_bin(limit, bins, limit)
    for j in range(1, top_bin + 1):
        hi = top
        # e_j lies within a few doubles of -limit + j * width, so narrow the
        # search to 2**6 doubles on either side of that where the bins allow.
        near = _ordinal(-limit + j * (2.0 * limit / bins))
        if lo < near - 2**6 and _hemg_bin(_double(near - 2**6), bins, limit) < j:
            lo = near - 2**6
        if near + 2**6 < hi and _hemg_bin(_double(near + 2**6), bins, limit) >= j:
            hi = near + 2**6
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _hemg_bin(_double(mid), bins, limit) >= j:
                hi = mid
            else:
                lo = mid
        edges.append(_double(hi))
    return tuple(edges) + (math.inf,) * (bins - 1 - top_bin)


def _hemg(s, bins: int, limit: float):
    """Each window's sample count per bin, as a (windows, bins) matrix.

    ``s`` is a `registry._Intermediates`, whose samples are all finite. A
    window's count in bin j is its count of samples at or above e_j minus
    its count at or above e_{j+1}, with every sample at or above e_0 and
    none at or above e_bins.
    """
    at_least = np.empty((s.total, bins + 1), dtype=np.intp)
    at_least[:, 0], at_least[:, bins] = s.width, 0
    for j, edge in enumerate(_hemg_edges(bins, limit), 1):
        at_least[:, j] = s.counts(s.source >= edge).reshape(-1)
    return at_least[:, :-1] - at_least[:, 1:]

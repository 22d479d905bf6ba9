"""Frequency-domain sEMG features: AR coefficients and spectral moments.

The autoregressive model follows the convention

    x_n = -sum_{i=1..p} a_i * x_{n-i} + w_n

so a process generated as x_n = phi * x_{n-1} + w_n estimates a_1 ~ -phi.
Coefficients come from the autocorrelation (Yule-Walker) equations solved with
the Levinson-Durbin recursion, which keeps the fitted model stationary.

The four spectral moments are the mean and median frequency computed on the
power spectrum (mnf, mdf) and their modified counterparts computed on the
amplitude spectrum (mmnf, mmdf). The amplitude-based pair is the
noise-robust variant: squaring the spectrum amplifies bin-to-bin variation,
so moments of A_j move less under broadband noise than moments of A_j^2.

Every feature takes one window or a (windows, samples) matrix and is one
``registry.extract`` call on its descriptor, as the time-domain features
are: a 1-D window gives a float (the coefficient vector for
``ar_coefficients``), a matrix one result per row. The moments take the
sampling rate that sets their frequency axis, and ``dc=0`` leaves the DC
bin out of them. To get several moments of the same windows from one
spectrum, name them in one ``registry.extract`` call, e.g.
``parse_features("mnf,mdf,mmnf,mmdf")``: it computes the spectrum and its
square once and shares them.
"""
from __future__ import annotations

import numpy as np

from .time_features import _feature

# The fault codes of the rows a kernel here cannot define (0: defined);
# `registry._FAULTS` holds their messages, and time_features' code is 1.
_NO_MASS, _COLLAPSED, _SINGULAR = 2, 3, 4


def ar_coefficients(window, order: int = 1) -> np.ndarray:
    """Fit an AR(order) model by Yule-Walker / Levinson-Durbin.

    Returns the (order,) coefficients a_1..a_p, or one row of them per
    window of a matrix. Uses the biased autocorrelation estimate
    r_k = sum(x_n x_{n+k}) / N with no mean removal, so for order 1 the
    result is exactly a_1 = -r_1/r_0. Raises on an identically-zero window
    (singular autocorrelation) and when order >= window length.
    """
    return _feature("ar", window, order=order)


def levinson_durbin(windows, order: int = 1):
    """AR(order) fit of every row of a (windows, samples) matrix.

    Returns the (windows, order) coefficients a_1..a_p, under the
    conventions of ``ar_coefficients``, and each row's fault code: _SINGULAR
    for an identically-zero row, else _COLLAPSED for one whose prediction
    error reaches zero, else 0. Every dot product runs through BLAS on
    contiguous rows, as ``np.dot`` does for one window, and a faulty row's
    divisor is masked rather than shared, so a row's fit does not depend on
    the rows batched with it.
    """
    x = np.ascontiguousarray(windows, dtype=float)
    p = int(order)
    if x.ndim != 2:
        raise ValueError("need a (windows, samples) matrix")
    n = x.shape[1]  # 1 <= p < n: see `registry._check_width`
    r = np.stack([_row_dots(x[:, :n - k], x[:, k:]) for k in range(p + 1)], axis=1) / n

    r_reversed = r[:, ::-1].copy()  # r_reversed[:, p - k] == r[:, k], contiguous for BLAS
    phi = np.zeros((x.shape[0], p))
    energy = r[:, 0]
    for i in range(1, p + 1):
        acc = r[:, i] - _row_dots(phi[:, : i - 1], r_reversed[:, p - i + 1:p])
        # k is 0 on a row whose energy has collapsed, so its energy stays collapsed
        collapsed = energy <= 0
        k = acc / np.where(collapsed, np.inf, energy)
        phi[:, : i - 1] = phi[:, : i - 1] - k[:, np.newaxis] * phi[:, : i - 1][:, ::-1]
        phi[:, i - 1] = k
        energy = energy * (1.0 - k * k)
    return -phi, np.where(r[:, 0] <= 0, _SINGULAR, np.where(collapsed, _COLLAPSED, 0))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # A stack of vector @ vector products runs np.dot's BLAS kernel per row.
    return (a[:, np.newaxis, :] @ b[:, :, np.newaxis])[:, 0, 0]


def _moment_arrays(freqs, weights, dc):
    # A row without positive mass (or with a NaN in it) gets _NO_MASS and the
    # divisor 1, so it raises no warning and leaves the other rows as they are.
    # Bin 0 is rfftfreq's only zero bin. Slicing it off keeps each row a
    # contiguous run, so a row of a matrix is summed as that row alone is.
    if not dc:
        freqs, weights = freqs[1:], weights[..., 1:]
    total = np.sum(weights, axis=-1)
    mass = total > 0
    return freqs, weights, np.where(mass, total, 1.0), np.where(mass, 0, _NO_MASS)


def _centroid(freqs, weights, dc):
    """Each row's weighted mean frequency, and its fault code."""
    freqs, weights, total, codes = _moment_arrays(freqs, weights, dc)
    return np.sum(freqs * weights, axis=-1) / total, codes


def _median_bin(freqs, weights, dc):
    """Each row's median frequency, and its fault code.

    Discrete rule: smallest bin whose cumulative weight reaches half the
    total; exact half-splits land on the lower-frequency candidate. The
    cumulative sum never decreases, so counting the bins below half the
    total is a per-row searchsorted.
    """
    freqs, weights, total, codes = _moment_arrays(freqs, weights, dc)
    below = np.cumsum(weights, axis=-1) < 0.5 * total[..., np.newaxis]
    idx = np.minimum(np.count_nonzero(below, axis=-1), freqs.size - 1)
    return freqs[idx], codes


def mnf(window, rate: float, dc: int = 1) -> float:
    """Mean frequency: power-weighted centroid sum(f_j P_j) / sum(P_j), P_j = A_j^2."""
    return _feature("mnf", window, rate, dc=dc)


def mdf(window, rate: float, dc: int = 1) -> float:
    """Median frequency: bin splitting the cumulative power in half."""
    return _feature("mdf", window, rate, dc=dc)


def mmnf(window, rate: float, dc: int = 1) -> float:
    """Modified mean frequency: amplitude-weighted centroid sum(f_j A_j) / sum(A_j)."""
    return _feature("mmnf", window, rate, dc=dc)


def mmdf(window, rate: float, dc: int = 1) -> float:
    """Modified median frequency: bin splitting the cumulative amplitude in half."""
    return _feature("mmdf", window, rate, dc=dc)

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

Every feature takes one window (or its spectrum) or a (windows, samples)
matrix (or a spectrum with one row per window) and gives one result per row.
To get several moments of the same windows from one spectrum, name them in
one ``registry.extract`` call, e.g. ``parse_features("mnf,mdf,mmnf,mmdf")``:
it computes the spectrum and its square once and shares them.
"""
from __future__ import annotations

import numpy as np

from .signals import PowerSpectrum, Spectrum


def ar_coefficients(window, order: int = 1) -> np.ndarray:
    """Fit an AR(order) model by Yule-Walker / Levinson-Durbin.

    Returns the (order,) coefficients a_1..a_p. Uses the biased
    autocorrelation estimate r_k = sum(x_n x_{n+k}) / N with no mean
    removal, so for order 1 the result is exactly a_1 = -r_1/r_0. Raises on
    an identically-zero window (singular autocorrelation) and when
    order >= window length.
    """
    x = np.asarray(window, dtype=float)
    if x.ndim != 1:
        raise ValueError("need a 1-D window")
    return levinson_durbin(x[np.newaxis], order)[0]


def levinson_durbin(windows, order: int = 1) -> np.ndarray:
    """AR(order) fit of every row of a (windows, samples) matrix.

    Returns the (windows, order) coefficients a_1..a_p, under the
    conventions of ``ar_coefficients``. Every dot product runs through BLAS
    on contiguous rows, as ``np.dot`` does for one window, so a row's fit
    does not depend on the rows batched with it.
    """
    x = np.ascontiguousarray(windows, dtype=float)
    p = int(order)
    if x.ndim != 2:
        raise ValueError("need a (windows, samples) matrix")
    if p < 1:
        raise ValueError("AR order must be >= 1")
    n = x.shape[1]
    if p >= n:
        raise ValueError(f"AR order {p} needs more than {n} samples")
    r = np.stack([_row_dots(x[:, :n - k], x[:, k:]) for k in range(p + 1)], axis=1) / n
    if np.any(r[:, 0] <= 0):
        raise ValueError("window is identically zero; autocorrelation is singular")

    r_reversed = r[:, ::-1].copy()  # r_reversed[:, p - k] == r[:, k], contiguous for BLAS
    phi = np.zeros((x.shape[0], p))
    energy = r[:, 0]
    for i in range(1, p + 1):
        acc = r[:, i] - _row_dots(phi[:, : i - 1], r_reversed[:, p - i + 1:p])
        if np.any(energy <= 0):
            raise ValueError("prediction error collapsed to zero; window is degenerate")
        k = acc / energy
        phi[:, : i - 1] = phi[:, : i - 1] - k[:, np.newaxis] * phi[:, : i - 1][:, ::-1]
        phi[:, i - 1] = k
        energy = energy * (1.0 - k * k)
    return -phi


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # A stack of vector @ vector products runs np.dot's BLAS kernel per row.
    return (a[:, np.newaxis, :] @ b[:, :, np.newaxis])[:, 0, 0]


def _per_window(values):
    """A single spectrum's 0-d result as a Python float; per-row results as is."""
    return float(values) if np.ndim(values) == 0 else values


def _moment_arrays(freqs, weights, include_dc: bool):
    if not include_dc:
        keep = freqs != 0.0
        freqs, weights = freqs[keep], weights[..., keep]
    total = np.sum(weights, axis=-1)
    if not np.all(total > 0):
        raise ValueError("spectrum has no mass; mean/median frequency undefined")
    return freqs, weights, total


def _centroid(freqs, weights, include_dc: bool) -> float:
    freqs, weights, total = _moment_arrays(freqs, weights, include_dc)
    return _per_window(np.sum(freqs * weights, axis=-1) / total)


def _median_bin(freqs, weights, include_dc: bool) -> float:
    # Discrete rule: smallest bin whose cumulative weight reaches half the
    # total; exact half-splits land on the lower-frequency candidate. The
    # cumulative sum never decreases, so counting the bins below half the
    # total is a per-row searchsorted.
    freqs, weights, total = _moment_arrays(freqs, weights, include_dc)
    below = np.cumsum(weights, axis=-1) < 0.5 * total[..., np.newaxis]
    idx = np.minimum(np.count_nonzero(below, axis=-1), freqs.size - 1)
    return _per_window(freqs[idx])


def mnf(spectrum: PowerSpectrum, include_dc: bool = True) -> float:
    """Mean frequency: power-weighted centroid sum(f_j P_j) / sum(P_j)."""
    return _centroid(spectrum.freqs, spectrum.powers, include_dc)


def mdf(spectrum: PowerSpectrum, include_dc: bool = True) -> float:
    """Median frequency: bin splitting the cumulative power in half."""
    return _median_bin(spectrum.freqs, spectrum.powers, include_dc)


def mmnf(spectrum: Spectrum, include_dc: bool = True) -> float:
    """Modified mean frequency: amplitude-weighted centroid sum(f_j A_j) / sum(A_j)."""
    return _centroid(spectrum.freqs, spectrum.amplitudes, include_dc)


def mmdf(spectrum: Spectrum, include_dc: bool = True) -> float:
    """Modified median frequency: bin splitting the cumulative amplitude in half."""
    return _median_bin(spectrum.freqs, spectrum.amplitudes, include_dc)

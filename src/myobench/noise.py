"""Deterministic white-Gaussian-noise generation and SNR-calibrated injection.

Noise sigma is derived from the realized power of the specific clean signal:

    SNR_dB = 10 log10(P_clean / P_noise)  =>  sigma^2 = P_clean * 10^(-SNR_dB/10)

The generated noise is not rescaled to hit the target power exactly; the
calibration is in expectation, and repeated injections average out the
per-draw variance. Every stream is keyed by (seed, repetition_index) so runs
are reproducible and repetitions are independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import Signal


@dataclass(frozen=True)
class NoiseSpec:
    """One injection: target SNR plus the seed pair naming its noise stream."""

    snr_db: float
    seed: int
    repetition_index: int = 0

    def __post_init__(self):
        if not math.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")
        if self.repetition_index < 0:
            raise ValueError("repetition_index must be >= 0")


def generate_wgn(n: int, seed) -> np.ndarray:
    """n i.i.d. standard-normal draws from a generator seeded by ``seed``.

    ``seed`` may be an int or a sequence of ints (a stream key); equal seeds
    give bit-identical sequences.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    return np.random.default_rng(seed).standard_normal(n)


def signal_power(signal) -> float:
    """Mean square amplitude (1/N) sum(x_n^2); equals rms^2."""
    x = signal.samples if isinstance(signal, Signal) else np.asarray(signal, dtype=float)
    if x.size < 1:
        raise ValueError("need at least one sample")
    return float(np.mean(x * x))


def snr_sigma(p_clean: float, snr_db: float) -> float:
    """Noise standard deviation that puts WGN ``snr_db`` below a clean power."""
    if p_clean <= 0:
        raise ValueError("signal power is zero; SNR is undefined")
    return math.sqrt(p_clean * 10.0 ** (-snr_db / 10.0))


def inject_at_snr(signal: Signal, spec: NoiseSpec) -> Signal:
    """Add WGN scaled for the target SNR; the clean signal is left untouched."""
    sigma = snr_sigma(signal_power(signal), spec.snr_db)
    noise = generate_wgn(len(signal), (spec.seed, spec.repetition_index))
    return Signal(samples=signal.samples + sigma * noise, rate=signal.rate)


def derive_seed(*key: int) -> int:
    """Collapse an integer key path into one 64-bit seed, deterministically."""
    state = np.random.SeedSequence(list(key)).generate_state(1, np.uint64)
    return int(state[0])

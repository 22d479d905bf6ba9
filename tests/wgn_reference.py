"""SNR-calibrated WGN written from its definition, without calling myobench.

The tests compare every noisy copy the package makes with this reference.
"""
import math

import numpy as np


def reference_draws(n, seed, rep=0):
    """The standard-normal stream of key (seed, rep)."""
    return np.random.default_rng((seed, rep)).standard_normal(n)


def reference_injection(x, snr_db, seed, rep=0):
    """``x`` plus the (seed, rep) stream, scaled to lie ``snr_db`` below x's power."""
    x = np.asarray(x, dtype=float)
    sigma = math.sqrt(np.mean(x * x) * 10 ** (-snr_db / 10))
    return x + sigma * reference_draws(x.size, seed, rep)

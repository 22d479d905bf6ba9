"""Deterministic white-Gaussian-noise generation and SNR-calibrated injection.

Noise sigma is derived from the realized power of the specific clean signal:

    SNR_dB = 10 log10(P_clean / P_noise)  =>  sigma^2 = P_clean * 10^(-SNR_dB/10)

The generated noise is not rescaled to hit the target power exactly; the
calibration is in expectation, and repeated injections average out the
per-draw variance. Every stream is keyed by (seed, repetition) so runs are
reproducible and repetitions are independent: it is the standard-normal
stream of ``default_rng((seed, repetition))``.

Every noisy copy, in the robustness grid, the recognition pipeline and
`inject_at_snr`, is made by `add_wgn`. The grid's copy (record r, SNR s,
repetition rep) draws from key ``(derive_seed(seed, r, s), rep)``. Keys are
seeded in one batch: `derive_seeds` and `stream_words` hash every key with
numpy's own SeedSequence algorithm, vectorised over the keys, and `fill_wgn`
hands each precomputed row to ``PCG64``, so every draw is bit-identical to
``default_rng`` on the same key.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np


def signal_power(samples):
    """Mean square amplitude (1/N) sum(x_n^2), rms^2, of each row.

    A 1-D signal gives a float; a matrix gives one power per row (its last
    axis). The rows are reduced from a C-contiguous copy, so a row's power is
    its power as a 1-D signal bit for bit, whatever the matrix's strides.
    """
    x = np.ascontiguousarray(samples, dtype=float)
    if x.size < 1:
        raise ValueError("need at least one sample")
    power = np.mean(x * x, axis=-1)
    return float(power) if x.ndim == 1 else power


ZERO_POWER = "signal power is zero; SNR is undefined"


def snr_factor(snr_db: float) -> float:
    """The noise power per unit of clean power at ``snr_db``: 10^(-snr_db/10).

    A level that is not finite, or so low that the factor overflows a float,
    is a ValueError.
    """
    snr_db = float(snr_db)  # a numpy float's power would overflow to inf, not raise
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"SNR {snr_db:g} dB is too low: 10^(-SNR/10) overflows a float") \
            from None


def derive_seed(*key: int) -> int:
    """Collapse an integer key path into one 64-bit seed, deterministically."""
    state = np.random.SeedSequence(list(key)).generate_state(1, np.uint64)
    return int(state[0])


# numpy.random.SeedSequence's hash with its default 4-word pool. NEP 19 fixes
# this algorithm across numpy versions; tests compare it with SeedSequence.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int):
    """(xor, multiplier) of each successive hash step; they do not depend on the data."""
    while True:
        following = init * mult & _MASK32
        yield np.uint32(init), np.uint32(following)
        init = following


def _hash(values, constants):
    xor, mult = next(constants)
    values = (values ^ xor) * mult
    return values ^ (values >> _XSHIFT)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _key_words(ints):
    """Each int's uint32 words as SeedSequence splits it, zero-padded to the pool.

    Returns the ``(len(ints), 4)`` words (little-endian, at least one word
    per int) and each int's word count.
    """
    ints = ints.tolist() if isinstance(ints, np.ndarray) else [operator.index(v) for v in ints]
    if any(v < 0 for v in ints):
        raise ValueError("stream seeds and repetitions must be non-negative")
    lengths = np.array([max(1, -(-v.bit_length() // 32)) for v in ints], dtype=np.intp)
    words = np.empty((len(ints), _POOL_SIZE), dtype=np.uint32)
    for j in range(_POOL_SIZE):
        words[:, j] = [v >> 32 * j & _MASK32 for v in ints]
    return words, lengths


def _product_entropy(axes):
    """Pool words of every key in the Cartesian product of ``axes``, or None.

    Key ``(a_0[i], a_1[j], ...)`` is its ints' words one after another, then
    zeros: a key shorter than the pool hashes as if padded with zero words.
    Returns an ``(len(a_0), len(a_1), ..., 4)`` uint32 array, or None when a
    key needs more words than the pool holds.
    """
    parts = [_key_words(axis) for axis in axes]
    shape = tuple(len(lengths) for _, lengths in parts)
    entropy = np.zeros(shape + (_POOL_SIZE,), dtype=np.uint32)
    start = np.zeros((), dtype=np.intp)  # where each key prefix's next int begins
    for axis, (words, lengths) in enumerate(parts):
        prefixes = entropy.reshape((start.size,) + shape[axis:] + (_POOL_SIZE,))
        tail = (1,) * (len(shape) - axis - 1)
        # An int's padding zeros land where the next int's words go, and
        # that int overwrites them.
        for first in range(_POOL_SIZE):
            prefixes[start.ravel() == first, ..., first:] = \
                words[:, :_POOL_SIZE - first].reshape(words.shape[:1] + tail + (-1,))
        start = start[..., np.newaxis] + lengths
    if start.size and start.max() > _POOL_SIZE:
        return None
    return entropy


def _generate_state(entropy, n_words: int) -> np.ndarray:
    """``SeedSequence(key).generate_state(n_words, np.uint64)`` of each key's pool words.

    ``entropy`` is ``(..., 4)`` uint32 from `_product_entropy`; returns
    ``(..., n_words)`` uint64.
    """
    flat = entropy.reshape(-1, _POOL_SIZE)
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(flat[:, i], constants) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], constants))
    state = np.empty((len(flat), 2 * n_words), dtype=np.uint32)
    constants = _hash_constants(_INIT_B, _MULT_B)
    for i in range(2 * n_words):
        state[:, i] = _hash(pool[i % _POOL_SIZE], constants)
    # As generate_state(n, np.uint64) does: pair the 32-bit words little-endian.
    words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return words.reshape(entropy.shape[:-1] + (n_words,))


def derive_seeds(*axes) -> np.ndarray:
    """`derive_seed` of every key in the Cartesian product of ``axes``, in one pass.

    Each axis is a sequence of non-negative ints; element ``[i, j, ...]`` of
    the uint64 result is ``derive_seed(axes[0][i], axes[1][j], ...)``. Keys
    wider than the 4-word pool (e.g. a first int of 2**64 or more followed
    by two more) are derived one at a time with `derive_seed`.
    """
    entropy = _product_entropy(axes)
    if entropy is not None:
        return _generate_state(entropy, 1)[..., 0]
    seeds = [derive_seed(*key) for key in itertools.product(*axes)]
    return np.array(seeds, dtype=np.uint64).reshape(tuple(len(axis) for axis in axes))


def stream_words(stream_seeds, reps) -> np.ndarray:
    """Seed-sequence state of every (stream seed, repetition) key, in one pass.

    ``reps`` lists repetition indices (``range(R)`` for a grid). Returns a
    ``(len(stream_seeds), len(reps), 4)`` uint64 array whose row ``[i, j]``
    equals ``np.random.SeedSequence((stream_seeds[i], reps[j]))
    .generate_state(4, np.uint64)``. A key whose words would not fit the
    4-word pool is rejected.
    """
    entropy = _product_entropy((stream_seeds, reps))
    if entropy is None:
        raise ValueError("a (stream seed, repetition) key needs more words "
                         f"than the {_POOL_SIZE}-word seed pool holds")
    return _generate_state(entropy, _POOL_SIZE)


@functools.cache
def _precomputed_seed_type():
    """A seed-sequence type that hands a bit generator one precomputed state row.

    It is built on first use: numpy 2 imports ``numpy.random`` lazily, and
    loading it costs a command that draws no noise (``extract``) about 6 MB.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PrecomputedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != self.words.size or (dtype is not np.uint64
                                              and np.dtype(dtype) != np.uint64):
                raise ValueError("precomputed words serve only generate_state(4, np.uint64)")
            return self.words

    return PrecomputedWords


def fill_wgn(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill each row of ``out`` with draws from its own `stream_words` stream.

    ``words`` holds one state row per row of the (copies, samples) float
    array ``out``; each row is drawn in place, and equals
    ``default_rng((stream seed, repetition)).standard_normal`` of that row's
    key. Returns ``out``.
    """
    seed_type = _precomputed_seed_type()
    for row_words, row in zip(words, out, strict=True):
        np.random.Generator(np.random.PCG64(seed_type(row_words))).standard_normal(out=row)
    return out


def add_wgn(clean, factors, words, out) -> np.ndarray:
    """Write noisy copies of ``clean`` into the rows of ``out``, in place.

    Row k of the (copies, samples) array ``out`` becomes
    ``clean + sqrt(P_clean * factors[k]) * draws``, its draws from the
    stream of state row ``words[k]`` (see `stream_words`) and ``factors[k]``
    a noise power per unit of clean power (`snr_factor`). ``clean`` is one
    signal, or one per row. A clean signal of zero power is a ValueError.
    Returns ``out``.
    """
    power = signal_power(clean)
    if np.any(power == 0):
        raise ValueError(ZERO_POWER)
    fill_wgn(words, out)
    out *= np.sqrt(np.multiply(power, factors))[:, np.newaxis]  # sigma of each row
    out += clean
    return out


def inject_at_snr(samples, snr_db: float, seed: int, repetition: int = 0) -> np.ndarray:
    """``samples`` plus WGN ``snr_db`` below their power; the samples are left untouched.

    The noise is drawn from ``default_rng((seed, repetition))``'s stream. A
    key too wide for the 4-word seed pool, or a negative one, is refused.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:  # a (n, 1) column would broadcast against the draws
        raise ValueError("inject_at_snr needs a 1-D sample array")
    words = stream_words([seed], [repetition])[0]
    return add_wgn(x, [snr_factor(snr_db)], words, np.empty((1, x.size)))[0]

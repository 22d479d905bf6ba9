"""Deterministic white-Gaussian-noise generation and SNR-calibrated injection.

Noise sigma is derived from the realized power of the specific clean signal:

    SNR_dB = 10 log10(P_clean / P_noise)  =>  sigma^2 = P_clean * 10^(-SNR_dB/10)

The generated noise is not rescaled to hit the target power exactly; the
calibration is in expectation, and repeated injections average out the
per-draw variance. Every stream is keyed by (seed, repetition_index) so runs
are reproducible and repetitions are independent.

The robustness grid keys its streams the same way: copy (record r, SNR s,
repetition rep) draws from ``default_rng((derive_seed(seed, r, s), rep))``.
It seeds all of a grid's streams in one batch: `stream_words` hashes every
key with numpy's own SeedSequence algorithm, vectorised over the keys, and
`stream_wgn` hands each precomputed row to ``PCG64``, so every draw is
bit-identical to `generate_wgn` on the same key.
"""
from __future__ import annotations

import functools
import math
import operator
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
    ints = [operator.index(v) for v in ints]
    if any(v < 0 for v in ints):
        raise ValueError("stream seeds and repetitions must be non-negative")
    lengths = np.array([max(1, -(-v.bit_length() // 32)) for v in ints], dtype=np.intp)
    words = np.empty((len(ints), _POOL_SIZE), dtype=np.uint32)
    for j in range(_POOL_SIZE):
        words[:, j] = [v >> 32 * j & _MASK32 for v in ints]
    return words, lengths


def stream_words(stream_seeds, reps) -> np.ndarray:
    """Seed-sequence state of every (stream seed, repetition) key, in one pass.

    ``reps`` lists repetition indices (``range(R)`` for a grid). Returns a
    ``(len(stream_seeds), len(reps), 4)`` uint64 array whose row ``[i, j]``
    equals ``np.random.SeedSequence((stream_seeds[i], reps[j]))
    .generate_state(4, np.uint64)``. A key whose words would not fit the
    4-word pool is rejected.
    """
    seed_words, seed_len = _key_words(stream_seeds)
    rep_words, rep_len = _key_words(reps)
    if seed_len.size and rep_len.size and seed_len.max() + rep_len.max() > _POOL_SIZE:
        raise ValueError("a (stream seed, repetition) key needs more words "
                         f"than the {_POOL_SIZE}-word seed pool holds")
    # A key is its seed's words, then its rep's words, then zeros: a key
    # shorter than the pool hashes as if padded with zero words.
    entropy = np.empty((len(seed_len), len(rep_len), _POOL_SIZE), dtype=np.uint32)
    for length in range(1, _POOL_SIZE):  # a rep takes at least one word
        rows = np.flatnonzero(seed_len == length)
        entropy[rows, :, :length] = seed_words[rows, None, :length]
        entropy[rows, :, length:] = rep_words[:, :_POOL_SIZE - length]

    entropy = entropy.reshape(-1, _POOL_SIZE)
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(entropy[:, i], constants) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], constants))
    state = np.empty((len(entropy), 2 * _POOL_SIZE), dtype=np.uint32)
    constants = _hash_constants(_INIT_B, _MULT_B)
    for i in range(2 * _POOL_SIZE):
        state[:, i] = _hash(pool[i % _POOL_SIZE], constants)
    # As generate_state(4, np.uint64) does: pair the 8 words little-endian.
    words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return words.reshape(len(seed_len), len(rep_len), _POOL_SIZE)


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
            if n_words != self.words.size or np.dtype(dtype) != np.uint64:
                raise ValueError("precomputed words serve only generate_state(4, np.uint64)")
            return self.words

    return PrecomputedWords


def stream_wgn(words: np.ndarray, n: int) -> np.ndarray:
    """n standard-normal draws from the stream of one `stream_words` row.

    Equals ``generate_wgn(n, (stream_seed, rep))`` for that row's key.
    """
    seed_seq = _precomputed_seed_type()(words)
    return np.random.Generator(np.random.PCG64(seed_seq)).standard_normal(n)

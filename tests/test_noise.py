"""WGN generation and SNR-calibrated injection."""
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from myobench.noise import (ZERO_POWER, add_wgn, derive_seed, derive_seeds, fill_wgn,
                            inject_at_snr, level_text, signal_power, snr_factor,
                            stream_words)
from wgn_reference import reference_draws, reference_injection


def measured_snr_db(clean: np.ndarray, noisy: np.ndarray) -> float:
    added = noisy - clean
    return 10.0 * np.log10(np.mean(clean ** 2) / np.mean(added ** 2))


def draws(n, seed, rep=0):
    """`fill_wgn`'s one row of key (seed, rep)."""
    return fill_wgn(stream_words([seed], [rep])[0], np.empty((1, n)))[0]


class TestGenerateWgn:
    def test_standard_normal_statistics(self):
        w = draws(100_000, seed=7)
        assert abs(np.mean(w)) < 0.02
        assert 0.97 <= np.var(w) <= 1.03

    def test_same_seed_is_bit_identical(self):
        np.testing.assert_array_equal(draws(1000, seed=42), draws(1000, seed=42))

    def test_different_seeds_differ(self):
        assert not np.array_equal(draws(1000, seed=1), draws(1000, seed=2))

    def test_stream_keys_are_seeds_too(self):
        np.testing.assert_array_equal(draws(10, 3, 4), reference_draws(10, 3, 4))
        assert not np.array_equal(draws(10, 3, 4), draws(10, 3, 5))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^need at least one sample$"):
            inject_at_snr(np.empty(0), 10.0, seed=1)


class TestSignalPower:
    def test_hand_values(self):
        assert signal_power(np.full(10, 2.0)) == pytest.approx(4.0)
        assert signal_power([1.0, -2.0, 3.0]) == pytest.approx(14.0 / 3.0)

    def test_equals_rms_squared(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(500)
        from myobench.time_features import rms
        assert signal_power(x) == pytest.approx(rms(x) ** 2, rel=1e-12)

    def test_accepts_signal(self):
        # one channel of a (samples, channels) trial: a strided column view
        trial = np.full((5, 2), 3.0)
        assert signal_power(trial[:, 1]) == pytest.approx(9.0)

    @pytest.mark.parametrize("n", [100, 257, 1000, 4099, 12_000])
    def test_each_row_of_a_matrix_is_its_own_power(self, n):
        # A trial's (samples, channels) data, and its transpose: a strided matrix.
        data = np.random.default_rng(n).standard_normal((n, 4)) * [1.0, 50.0, 1e-3, 7.0]
        for matrix in (data.T, np.ascontiguousarray(data.T), data):
            powers = signal_power(matrix)
            assert isinstance(powers, np.ndarray) and powers.shape == matrix.shape[:1]
            for power, row in zip(powers, matrix):
                assert power == float(np.mean(row * row))  # bit for bit
                assert power == signal_power(row)
        assert type(signal_power(data[:, 0])) is float


class TestInjectAtSnr:
    def test_noise_variance_inverts_snr(self):
        # Unit-power signal: 0 dB => sigma^2 = 1, 20 dB => sigma^2 = 0.01.
        rng = np.random.default_rng(9)
        x = rng.standard_normal(200_000)
        sig = x / np.sqrt(np.mean(x * x))
        for snr, expected_var in [(0.0, 1.0), (20.0, 0.01)]:
            noisy = inject_at_snr(sig, snr, seed=5)
            added = noisy - sig
            assert np.var(added) == pytest.approx(expected_var, rel=0.02)

    def test_measured_snr_within_tolerance(self):
        rng = np.random.default_rng(10)
        sig = rng.standard_normal(100_000) * 3.7
        for target in (20.0, 10.0, 0.0):
            noisy = inject_at_snr(sig, target, seed=11)
            assert measured_snr_db(sig, noisy) == pytest.approx(target, abs=0.3)

    def test_mean_snr_over_100_injections(self):
        rng = np.random.default_rng(12)
        sig = rng.standard_normal(100_000)
        measured = [measured_snr_db(sig, inject_at_snr(sig, 10.0, seed=13, repetition=rep))
                    for rep in range(100)]
        assert np.mean(measured) == pytest.approx(10.0, abs=0.1)

    def test_determinism_and_repetition_independence(self):
        sig = np.sin(np.arange(1000) * 0.1) + 0.5
        noisy = inject_at_snr(sig, 5.0, seed=21, repetition=3)
        np.testing.assert_array_equal(noisy, inject_at_snr(sig, 5.0, seed=21, repetition=3))
        assert not np.array_equal(noisy, inject_at_snr(sig, 5.0, seed=21, repetition=4))

    def test_additivity_and_clean_untouched(self):
        sig = np.ones(512)
        before = sig.copy()
        noisy = inject_at_snr(sig, 0.0, seed=2)
        np.testing.assert_array_equal(sig, before)
        diff = noisy - sig
        expected = reference_draws(512, 2, 0)  # sigma is exactly 1 here
        np.testing.assert_allclose(diff, expected, rtol=0, atol=1e-12)
        assert isinstance(noisy, np.ndarray) and noisy.shape == sig.shape

    @pytest.mark.parametrize("seed, rep", [(42, 0), (2**63 + 5, 3), (0, 0), (2**64 - 1, 2**32),
                                           (7, 12345)])
    @pytest.mark.parametrize("snr", [20.0, 3.0, 0.0, -7.5])
    def test_equals_the_reference(self, seed, rep, snr):
        sig = np.random.default_rng(31).standard_normal(777) * 40.0 + 3.0
        np.testing.assert_array_equal(inject_at_snr(sig, snr, seed, rep),
                                      reference_injection(sig, snr, seed, rep))

    def test_zero_power_signal_rejected(self):
        with pytest.raises(ValueError, match="SNR"):
            inject_at_snr(np.zeros(10), 10, seed=1)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="^snr_db must be finite$"):
            inject_at_snr(np.ones(4), float("inf"), seed=1)
        with pytest.raises(ValueError, match="non-negative"):
            inject_at_snr(np.ones(4), 0.0, seed=1, repetition=-1)
        with pytest.raises(ValueError, match="non-negative"):
            inject_at_snr(np.ones(4), 0.0, seed=-1)

    @pytest.mark.parametrize("seed, rep", [(2**128, 0), (2**96, 0), (2**64, 2**32)])
    def test_a_key_wider_than_the_seed_pool_is_refused(self, seed, rep):
        # default_rng takes these keys; the batched stream hash has a 4-word pool.
        message = ("a (stream seed, repetition) key needs more words than the 4-word seed "
                   "pool holds")
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            inject_at_snr(np.ones(4), 0.0, seed, rep)


class TestAddWgn:
    def test_rows_of_one_signal(self):
        clean = np.random.default_rng(5).standard_normal(300) * 20.0
        keys = [(3, 0), (3, 1), (8, 0)]
        snrs = [20.0, 20.0, 0.0]
        words = np.concatenate([stream_words([seed], [rep])[0] for seed, rep in keys])
        out = np.full((3, 300), np.nan)
        assert add_wgn(clean, [snr_factor(s) for s in snrs], words, out) is out
        for row, snr, key in zip(out, snrs, keys):
            np.testing.assert_array_equal(row, reference_injection(clean, snr, *key))

    def test_one_signal_per_row(self):
        # a (channels, samples) trial, one copy of each channel
        trial = np.random.default_rng(6).standard_normal((400, 3)) * [1.0, 30.0, 1e-4]
        words = stream_words([11, 12, 13], [0])
        noisy = add_wgn(trial.T, [snr_factor(5.0)], words, np.empty((3, 1, 400)))
        for ch, (row,) in enumerate(noisy):
            np.testing.assert_array_equal(row, reference_injection(trial[:, ch], 5.0, 11 + ch))

    def test_copies_of_each_signal_equal_the_reference(self):
        # 2 signals x 3 copies: copy k of each signal is at level snrs[k]
        clean = np.random.default_rng(7).standard_normal((2, 250)) * [[3.0], [0.01]]
        snrs = [20.0, 5.0, 0.0]
        words = stream_words([21, 22], [0, 1, 2])
        out = np.full((2, 3, 250), np.nan)
        assert add_wgn(clean, [snr_factor(s) for s in snrs], words, out) is out
        for signal, seed, copies in zip(clean, [21, 22], out):
            for rep, (row, snr) in enumerate(zip(copies, snrs)):
                np.testing.assert_array_equal(row, reference_injection(signal, snr, seed, rep))

    def test_zero_power_is_refused(self):
        clean = np.ones((2, 16))
        clean[1] = 0.0
        with pytest.raises(ValueError, match="^" + re.escape(ZERO_POWER) + "$"):
            add_wgn(clean, [1.0, 1.0], stream_words([1, 2], [0, 1]), np.empty((2, 2, 16)))


class TestLevelText:
    @pytest.mark.parametrize("level, text", [
        (20, "20"), (20.0, "20"), (-3.5, "-3.5"), (0.0, "0"), (-0.0, "-0"), (1e-7, "1e-07"),
        (20.000001, "20.000001"), (1 / 3, "0.3333333333333333"),
        (123456789.0, "123456789.0"), (np.float64(2.5), "2.5"),
    ])
    def test_hand_values(self, level, text):
        assert level_text(level) == text

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_reads_back_as_the_level_and_is_g_where_g_is_exact(self, level):
        text = level_text(level)
        assert float(text) == level
        short = f"{level:g}"
        assert (text == short) == (float(short) == level)


class TestSnrFactor:
    def test_hand_values(self):
        assert snr_factor(0.0) == 1.0
        assert snr_factor(10) == 0.1
        assert snr_factor(-10.0) == 10.0
        assert math.sqrt(4.0 * snr_factor(20.0)) == 0.2

    @pytest.mark.parametrize("level", [float("inf"), float("-inf"), float("nan"), np.nan])
    def test_a_non_finite_level_is_refused(self, level):
        with pytest.raises(ValueError, match="^snr_db must be finite$"):
            snr_factor(level)

    @pytest.mark.parametrize("level", [-4000, -4000.0, np.float64(-4000), -3083.0])
    def test_a_level_whose_factor_overflows_is_refused(self, level):
        # 10 ** 400 overflows a float: a numpy float would give inf, a Python
        # float raises OverflowError; both are the same ValueError here.
        message = f"SNR {float(level):g} dB is too low: 10^(-SNR/10) overflows a float"
        for call in (lambda: snr_factor(level), lambda: inject_at_snr(np.ones(4), level, 1)):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                call()

    def test_the_lowest_levels_that_fit_a_float(self):
        assert snr_factor(-3080.0) == 1e308
        assert snr_factor(4000.0) == 0.0  # no noise at all, and no error


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
        assert 0 <= derive_seed(0) < 2 ** 64


def seed_sequence_words(key):
    return np.random.SeedSequence(key).generate_state(4, np.uint64)


EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]


class TestStreamWords:
    """The batched hash against numpy's own SeedSequence, key by key."""

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
           st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
    @example(EDGE_SEEDS, [0, 1, 2**32 - 1])
    @settings(max_examples=200, deadline=None)
    def test_matches_seed_sequence(self, seeds, reps):
        table = stream_words(seeds, reps)
        assert table.shape == (len(seeds), len(reps), 4) and table.dtype == np.uint64
        for i, seed in enumerate(seeds):
            for j, rep in enumerate(reps):
                np.testing.assert_array_equal(table[i, j], seed_sequence_words((seed, rep)))

    def test_keys_up_to_the_pool_size(self):
        # A 3-word seed with a 1-word rep, and a 2-word seed with a 2-word rep.
        for seeds, reps in [([2**64, 2**96 - 1], [0, 9]), ([2**63, 5], [2**32, 2**64 - 1])]:
            table = stream_words(seeds, reps)
            for i, seed in enumerate(seeds):
                for j, rep in enumerate(reps):
                    np.testing.assert_array_equal(table[i, j],
                                                  seed_sequence_words((seed, rep)))

    @pytest.mark.parametrize("seeds, reps", [
        ([2**96], [0]),       # 4 + 1 words
        ([2**64], [2**32]),   # 3 + 2 words
        ([7, 2**64], [0, 2**32]),
    ])
    def test_key_too_wide_for_the_pool_raises(self, seeds, reps):
        with pytest.raises(ValueError, match="pool"):
            stream_words(seeds, reps)

    def test_negative_key_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            stream_words([-1], [0])

    @pytest.mark.parametrize("seed, rep", [(0, 0), (2**32 - 1, 7), (2**32, 2**32 - 1),
                                           (2**64 - 1, 3), (derive_seed(4, 1, 2), 11)])
    def test_seeded_draws_equal_default_rng(self, seed, rep):
        words = stream_words([seed], [rep])[0, 0]
        drawn = fill_wgn(words[np.newaxis], np.empty((1, 300)))[0]
        np.testing.assert_array_equal(drawn, reference_draws(300, seed, rep))


class TestDeriveSeeds:
    """The batched derive_seed against the scalar one, key by key."""

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
           st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
           st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
    @example(EDGE_SEEDS, [0, 1, 2**32 - 1], [0, 2**32 - 1])
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_derive_seed(self, seeds, records, levels):
        table = derive_seeds(seeds, records, levels)
        assert table.shape == (len(seeds), len(records), len(levels))
        assert table.dtype == np.uint64
        for i, seed in enumerate(seeds):
            for j, r in enumerate(records):
                for k, s in enumerate(levels):
                    assert int(table[i, j, k]) == derive_seed(seed, r, s)

    def test_grid_layout(self):
        table = derive_seeds([5], range(7), range(3))[0]
        assert [[int(v) for v in row] for row in table] == \
            [[derive_seed(5, r, s) for s in range(3)] for r in range(7)]

    @pytest.mark.parametrize("axes", [
        ([2**64], [0, 3], [1]),               # 3 + 1 + 1 words: wider than the pool
        ([2**64 + 5, 9], range(4), range(2)),  # one wide seed among narrow ones
        ([2**128], [7]),                       # 5 + 1 words
    ])
    def test_wide_keys_fall_back_to_derive_seed(self, axes):
        table = derive_seeds(*axes)
        for index in np.ndindex(table.shape):
            key = [list(axis)[i] for axis, i in zip(axes, index)]
            assert int(table[index]) == derive_seed(*key)

    def test_keys_up_to_the_pool_size_need_no_fallback(self):
        # 2 + 1 + 1 words and 1 + 2 + 1 words still fit the pool.
        for axes in [([2**64 - 1], [0, 2**32 - 1], [4]), ([3], [2**32, 2**64 - 1], [0])]:
            table = derive_seeds(*axes)
            for index in np.ndindex(table.shape):
                key = [axis[i] for axis, i in zip(axes, index)]
                assert int(table[index]) == derive_seed(*key)

    def test_negative_key_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            derive_seeds([-1], [0])


class TestFillWgn:
    def test_each_row_is_its_own_stream(self):
        keys = [(0, 0), (2**32, 5), (derive_seed(1, 2, 3), 9)]
        words = np.stack([stream_words([seed], [rep])[0, 0] for seed, rep in keys])
        out = np.full((3, 257), np.nan)
        assert fill_wgn(words, out) is out
        for row, key in zip(out, keys):
            np.testing.assert_array_equal(row, reference_draws(257, *key))

    def test_fills_row_views_in_place(self):
        words = stream_words([4, 8], [0, 1]).reshape(-1, 4)
        matrix = np.zeros((5, 64))
        fill_wgn(words, matrix[1:])
        assert np.all(matrix[0] == 0)
        np.testing.assert_array_equal(matrix[3], reference_draws(64, 8, 0))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_a_row_count_mismatch_raises(self, rows):
        # Fewer words would leave a row of np.empty garbage; more are a caller's slip.
        words = stream_words([4, 8], [0]).reshape(-1, 4)
        message = f"state rows (2,) do not match rows ({rows},)"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            fill_wgn(words, np.empty((rows, 16)))

    def test_fills_rows_whose_leading_axes_cannot_merge_in_place(self):
        # Every other (2, 3, 32) block of a 4-D array: no reshape to one row
        # axis is a view, so a draw into a reshaped copy would be lost.
        big = np.full((2, 4, 3, 32), np.nan)
        out = big[:, ::2]
        assert not np.shares_memory(out.reshape(-1, 32), big)
        seeds = [4, 8, 15, 16]
        words = stream_words(seeds, range(3)).reshape(2, 2, 3, 4)
        assert fill_wgn(words, out) is out
        for i, j, rep in np.ndindex(2, 2, 3):
            np.testing.assert_array_equal(big[i, 2 * j, rep],
                                          reference_draws(32, seeds[2 * i + j], rep))
        assert np.isnan(big[:, 1::2]).all()

    def test_fills_every_row_of_any_leading_shape(self):
        words = stream_words([4, 8], [0, 1, 2])
        out = fill_wgn(words, np.full((2, 3, 40), np.nan))
        for i, seed in enumerate([4, 8]):
            for rep in range(3):
                np.testing.assert_array_equal(out[i, rep], reference_draws(40, seed, rep))
        for shape in [(3, 2, 40), (2, 2, 40), (2, 4, 40)]:  # the signals, or the copies
            with pytest.raises(ValueError, match=re.escape("state rows (2, 3) do not match")):
                fill_wgn(words, np.empty(shape))

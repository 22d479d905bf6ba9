"""WGN generation and SNR-calibrated injection."""
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from myobench.noise import (NoiseSpec, derive_seed, derive_seeds, fill_wgn, generate_wgn,
                            inject_at_snr, signal_power, snr_factor, snr_sigma, stream_words)


def measured_snr_db(clean: np.ndarray, noisy: np.ndarray) -> float:
    added = noisy - clean
    return 10.0 * np.log10(np.mean(clean ** 2) / np.mean(added ** 2))


class TestGenerateWgn:
    def test_standard_normal_statistics(self):
        w = generate_wgn(100_000, seed=7)
        assert abs(np.mean(w)) < 0.02
        assert 0.97 <= np.var(w) <= 1.03

    def test_same_seed_is_bit_identical(self):
        np.testing.assert_array_equal(generate_wgn(1000, seed=42),
                                      generate_wgn(1000, seed=42))

    def test_different_seeds_differ(self):
        assert not np.array_equal(generate_wgn(1000, seed=1), generate_wgn(1000, seed=2))

    def test_stream_keys_are_seeds_too(self):
        np.testing.assert_array_equal(generate_wgn(10, seed=(3, 4)),
                                      generate_wgn(10, seed=(3, 4)))
        assert not np.array_equal(generate_wgn(10, seed=(3, 4)),
                                  generate_wgn(10, seed=(3, 5)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_wgn(0, seed=1)


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


class TestInjectAtSnr:
    def test_noise_variance_inverts_snr(self):
        # Unit-power signal: 0 dB => sigma^2 = 1, 20 dB => sigma^2 = 0.01.
        rng = np.random.default_rng(9)
        x = rng.standard_normal(200_000)
        sig = x / np.sqrt(np.mean(x * x))
        for snr, expected_var in [(0.0, 1.0), (20.0, 0.01)]:
            noisy = inject_at_snr(sig, NoiseSpec(snr_db=snr, seed=5))
            added = noisy - sig
            assert np.var(added) == pytest.approx(expected_var, rel=0.02)

    def test_measured_snr_within_tolerance(self):
        rng = np.random.default_rng(10)
        sig = rng.standard_normal(100_000) * 3.7
        for target in (20.0, 10.0, 0.0):
            noisy = inject_at_snr(sig, NoiseSpec(snr_db=target, seed=11))
            assert measured_snr_db(sig, noisy) == pytest.approx(target, abs=0.3)

    def test_mean_snr_over_100_injections(self):
        rng = np.random.default_rng(12)
        sig = rng.standard_normal(100_000)
        measured = [
            measured_snr_db(sig, inject_at_snr(
                sig, NoiseSpec(snr_db=10.0, seed=13, repetition_index=rep)))
            for rep in range(100)
        ]
        assert np.mean(measured) == pytest.approx(10.0, abs=0.1)

    def test_determinism_and_repetition_independence(self):
        sig = np.sin(np.arange(1000) * 0.1) + 0.5
        spec = NoiseSpec(snr_db=5.0, seed=21, repetition_index=3)
        np.testing.assert_array_equal(inject_at_snr(sig, spec), inject_at_snr(sig, spec))
        other_rep = NoiseSpec(snr_db=5.0, seed=21, repetition_index=4)
        assert not np.array_equal(inject_at_snr(sig, spec), inject_at_snr(sig, other_rep))

    def test_additivity_and_clean_untouched(self):
        sig = np.ones(512)
        before = sig.copy()
        spec = NoiseSpec(snr_db=0.0, seed=2)
        noisy = inject_at_snr(sig, spec)
        np.testing.assert_array_equal(sig, before)
        diff = noisy - sig
        expected = generate_wgn(512, (2, 0))  # sigma is exactly 1 here
        np.testing.assert_allclose(diff, expected, rtol=0, atol=1e-12)
        assert isinstance(noisy, np.ndarray) and noisy.shape == sig.shape

    def test_zero_power_signal_rejected(self):
        with pytest.raises(ValueError, match="SNR"):
            inject_at_snr(np.zeros(10), NoiseSpec(snr_db=10, seed=1))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(snr_db=float("inf"), seed=1)
        with pytest.raises(ValueError):
            NoiseSpec(snr_db=0.0, seed=1, repetition_index=-1)


class TestSnrFactor:
    def test_hand_values(self):
        assert snr_factor(0.0) == 1.0
        assert snr_factor(10) == 0.1
        assert snr_factor(-10.0) == 10.0
        assert snr_sigma(4.0, 20.0) == 0.2

    @pytest.mark.parametrize("level", [float("inf"), float("-inf"), float("nan"), np.nan])
    def test_a_non_finite_level_is_refused(self, level):
        with pytest.raises(ValueError, match="^snr_db must be finite$"):
            snr_factor(level)

    @pytest.mark.parametrize("level", [-4000, -4000.0, np.float64(-4000), -3083.0])
    def test_a_level_whose_factor_overflows_is_refused(self, level):
        # 10 ** 400 overflows a float: a numpy float would give inf, a Python
        # float raises OverflowError; both are the same ValueError here.
        message = f"SNR {float(level):g} dB is too low: 10^(-SNR/10) overflows a float"
        for call in (lambda: snr_factor(level), lambda: snr_sigma(1.0, level),
                     lambda: NoiseSpec(snr_db=level, seed=1)):
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
    def test_seeded_draws_equal_generate_wgn(self, seed, rep):
        words = stream_words([seed], [rep])[0, 0]
        drawn = fill_wgn(words[np.newaxis], np.empty((1, 300)))[0]
        np.testing.assert_array_equal(drawn, generate_wgn(300, (seed, rep)))


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
            np.testing.assert_array_equal(row, generate_wgn(257, key))

    def test_fills_row_views_in_place(self):
        words = stream_words([4, 8], [0, 1]).reshape(-1, 4)
        matrix = np.zeros((5, 64))
        fill_wgn(words, matrix[1:])
        assert np.all(matrix[0] == 0)
        np.testing.assert_array_equal(matrix[3], generate_wgn(64, (8, 0)))

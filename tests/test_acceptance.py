"""Acceptance gate: one test per criterion, each printing its own verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
pass/fail lines. Every reference value here is either computed by an
independent brute-force oracle defined in this file or is a hand evaluation.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

from myobench.dataio import ClassSpec, SynthConfig, default_class_specs, synthesize_emg
from myobench import freq_features as ff
from myobench.freq_features import ar_coefficients, mdf, mmdf, mmnf, mnf
from myobench.noise import inject_at_snr, signal_power
from myobench.recognition import _train_folds, evaluate_feature_sets, leave_one_out, majority_vote
from myobench.registry import extract, feature_set, parse_features
from myobench.robustness import RobustnessConfig, percentage_error, run_grid
from myobench.signals import (SegmentationConfig, amplitude_spectrum, segment,
                              segment_offsets)
from myobench import noise
from myobench import time_features as tf

ARTIFACTS = Path(__file__).parent / "_artifacts"
SEG = SegmentationConfig(window_ms=256, slide_ms=64)


def ok(line: str):
    print(f"\nACCEPTANCE PASS: {line}")


# ---------------------------------------------------------------------------
# Independent oracles (brute force; no shared code with the implementations).
# ---------------------------------------------------------------------------

def oracle_time_features(x, zc_th, ssc_th, wamp_th, hemg_bins, hemg_limit, k):
    n = len(x)
    absx = [abs(v) for v in x]
    out = {}
    out["iemg"] = sum(absx)
    out["mav"] = out["iemg"] / n
    w1 = [1.0 if 0.25 * n <= i <= 0.75 * n else 0.5 for i in range(1, n + 1)]
    out["mmav1"] = sum(w * a for w, a in zip(w1, absx)) / n
    w2 = []
    for i in range(1, n + 1):
        if 0.25 * n <= i <= 0.75 * n:
            w2.append(1.0)
        elif i < 0.25 * n:
            w2.append(4.0 * i / n)
        else:
            w2.append(4.0 * (n - i) / n)
    out["mmav2"] = sum(w * a for w, a in zip(w2, absx)) / n
    seg_len = n // k
    mavs = [sum(absx[j * seg_len:(j + 1) * seg_len]) / seg_len for j in range(k)]
    out["mavslp"] = [mavs[j + 1] - mavs[j] for j in range(k - 1)]
    out["ssi"] = sum(v * v for v in x)
    out["var"] = out["ssi"] / (n - 1)
    out["rms"] = math.sqrt(out["ssi"] / n)
    out["wl"] = sum(abs(x[i + 1] - x[i]) for i in range(n - 1))
    out["zc"] = sum(1 for i in range(n - 1)
                    if x[i] * x[i + 1] < 0 and abs(x[i] - x[i + 1]) >= zc_th)
    out["ssc"] = sum(1 for i in range(1, n - 1)
                     if (x[i] - x[i - 1]) * (x[i] - x[i + 1]) >= ssc_th)
    out["wamp"] = sum(1 for i in range(n - 1) if abs(x[i] - x[i + 1]) >= wamp_th)
    counts = [0] * hemg_bins
    width = 2.0 * hemg_limit / hemg_bins
    for v in x:
        counts[min(max(int(math.floor((v + hemg_limit) / width)), 0), hemg_bins - 1)] += 1
    out["hemg"] = counts
    return out


def oracle_dft_spectrum(x, rate):
    """Direct O(N^2) DFT sum (matrix form), one-sided with energy folding."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    m = n // 2 + 1
    j = np.arange(m)[:, None]
    kk = np.arange(n)[None, :]
    ang = -2.0 * np.pi * j * kk / n
    re = (np.cos(ang) * x).sum(axis=1)
    im = (np.sin(ang) * x).sum(axis=1)
    mags = np.sqrt(re * re + im * im) / np.sqrt(n)
    for idx in range(m):
        if idx != 0 and not (n % 2 == 0 and idx == n // 2):
            mags[idx] *= math.sqrt(2.0)
    freqs = np.arange(m) * rate / n
    return freqs, mags


def oracle_centroid(freqs, weights):
    return sum(f * w for f, w in zip(freqs, weights)) / sum(weights)


def oracle_median(freqs, weights):
    half = sum(weights) / 2.0
    cum = 0.0
    for f, w in zip(freqs, weights):
        cum += w
        if cum >= half:
            return f
    return freqs[-1]


def oracle_ar(x, order):
    """Yule-Walker by direct Toeplitz solve (not Levinson-Durbin)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    r = [float(np.dot(x[: n - k], x[k:])) / n for k in range(order + 1)]
    matrix = np.array([[r[abs(i - j)] for j in range(order)] for i in range(order)])
    phi = np.linalg.solve(matrix, np.array(r[1:]))
    return -phi


def simulate_ar(coeffs, n, rng, burn=1024):
    w = rng.standard_normal(n + burn)
    return lfilter([1.0], np.concatenate(([1.0], coeffs)), w)[burn:]


def band_dataset(seed, band=(20.0, 450.0), trials=4, channels=2, trial_ms=1000.0):
    spec = ClassSpec(name="hand_open", band=band, amplitude=80.0, group="strong")
    return synthesize_emg(SynthConfig(classes=(spec,), channels=channels,
                                      trials_per_class=trials, trial_ms=trial_ms,
                                      seed=seed))


# ---------------------------------------------------------------------------
# Criterion 1: all 18 features match brute-force references on 100 windows.
# ---------------------------------------------------------------------------

def test_criterion_01_feature_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    rate = 1000.0
    zc_th, ssc_th, wamp_th = 10.0, 30.0, 10.0
    bins, limit, k = 3, 60.0, 4
    windows = np.stack([rng.standard_normal(256) * 25.0 for _ in range(100)])
    # The same 100 windows once more, as one (windows, samples) matrix
    # through the batched extraction path.
    descriptors = parse_features(
        f"iemg,mav,mmav1,mmav2,mavslp:segments={k},ssi,var,rms,wl,"
        f"zc:threshold={zc_th},ssc:threshold={ssc_th},wamp:threshold={wamp_th},"
        f"hemg:bins={bins}:limit={limit},ar:order=4,mnf,mdf,mmnf,mmdf")
    assert len(descriptors) == 18
    batched = extract(descriptors, windows, rate)
    splits = np.cumsum([d.component_count() for d in descriptors])[:-1]
    for x, row in zip(windows, batched):
        ref = oracle_time_features(list(x), zc_th, ssc_th, wamp_th, bins, limit, k)
        o_ar = oracle_ar(x, 4)
        o_freqs, o_amps = oracle_dft_spectrum(x, rate)

        one_window = {
            "iemg": tf.iemg(x), "mav": tf.mav(x), "mmav1": tf.mmav1(x),
            "mmav2": tf.mmav2(x), "mavslp": tf.mavslp(x, k), "ssi": tf.ssi(x),
            "var": tf.var(x), "rms": tf.rms(x), "wl": tf.wl(x),
            "zc": tf.zc(x, zc_th), "ssc": tf.ssc(x, ssc_th), "wamp": tf.wamp(x, wamp_th),
            "hemg": tf.hemg(x, bins, limit), "ar": ar_coefficients(x, 4),
            "mnf": mnf(x, rate), "mdf": mdf(x, rate), "mmnf": mmnf(x, rate),
            "mmdf": mmdf(x, rate),
        }
        matrix_row = {d.name: v if d.component_count() > 1 else v[0]
                      for d, v in zip(descriptors, np.split(row, splits))}
        for got in (one_window, matrix_row):
            for name in ("iemg", "mav", "mmav1", "mmav2", "ssi", "var", "rms", "wl"):
                assert got[name] == pytest.approx(ref[name], rel=1e-9)
            np.testing.assert_allclose(got["mavslp"], ref["mavslp"], rtol=1e-9)
            for name in ("zc", "ssc", "wamp"):
                assert got[name] == ref[name]
            np.testing.assert_array_equal(got["hemg"], ref["hemg"])
            np.testing.assert_allclose(got["ar"], o_ar, rtol=1e-9, atol=1e-12)
            assert got["mnf"] == pytest.approx(
                oracle_centroid(o_freqs, o_amps ** 2), rel=1e-9)
            assert got["mmnf"] == pytest.approx(
                oracle_centroid(o_freqs, o_amps), rel=1e-9)
            assert got["mdf"] == oracle_median(o_freqs, o_amps ** 2)
            assert got["mmdf"] == oracle_median(o_freqs, o_amps)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    ok(f"criterion 1: 18 features match brute-force oracles on 100 windows, "
       f"one at a time and as one window matrix ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 2: every hand-evaluated example holds exactly as stated.
# ---------------------------------------------------------------------------

def test_criterion_02_hand_value_suite():
    sig = np.arange(1000, dtype=float)
    assert list(segment_offsets(sig.size, 1000.0, SEG)) == list(range(0, 705, 64))
    assert segment(sig, 1000.0, SEG).shape == (12, 256)

    assert tf.iemg([1, -2, 3]) == 6
    assert tf.mav([1, -2, 3]) == pytest.approx(2.0)
    assert tf.mmav1([2, 2, 2, 2]) == pytest.approx(1.75)
    assert tf.mmav2([1.0] * 8) == pytest.approx(0.75)
    np.testing.assert_allclose(
        tf.mavslp([2.0, 2.0, 2.0, 5.0, 5.0, 5.0], segments=2), [3.0])
    assert tf.ssi([1, -2, 3]) == pytest.approx(14.0)
    assert tf.var([1, -2, 3]) == pytest.approx(7.0)
    assert tf.rms([1, -2, 3]) == pytest.approx(2.160247, abs=1e-6)
    assert tf.wl([1, -2, 3]) == pytest.approx(8.0)
    assert tf.zc([1, -1, 1, -1], 0.5) == 3
    assert tf.zc([1, -1, 1, -1], 3.0) == 0
    assert tf.ssc([0, 2, 0, 2, 0], 1.0) == 3
    assert tf.wamp([0, 3, 0], 2.0) == 2
    np.testing.assert_array_equal(tf.hemg([-2.5, 0.1, 2.9, 0.2], 3, 3.0), [1, 2, 1])

    # Hand-built spectra through the moment kernels: mnf and mdf weigh by
    # A_j^2, mmnf and mmdf by A_j.
    two_freqs, two = np.array([100.0, 200.0]), np.array([1.0, 3.0])
    assert ff._centroid(two_freqs, two ** 2, 1) == pytest.approx(190.0)
    assert ff._centroid(two_freqs, two, 1) == pytest.approx(175.0)
    stepped_freqs, stepped = np.array([100.0, 200.0, 300.0]), np.array([1.0, 1.0, 2.0])
    # the stepped weights as powers (mdf) and as amplitudes (mmdf): one kernel call
    assert ff._median_bin(stepped_freqs, stepped, 1) == 200.0

    assert signal_power([1.0, -2.0, 3.0]) == pytest.approx(14.0 / 3.0)
    assert percentage_error(10.0, 9.0) == pytest.approx(10.0)
    assert percentage_error(10.0, 12.0) == pytest.approx(20.0)

    rng = np.random.default_rng(77)
    ar1 = ar_coefficients(simulate_ar([-0.9], 4096, rng), 1)
    assert ar1[0] == pytest.approx(-0.9, abs=0.05)
    white = ar_coefficients(rng.standard_normal(4096), 1)
    assert abs(white[0]) < 0.05

    assert majority_vote(list("AABAA"), 3) == list("AAAAA")
    ok("criterion 2: hand-value suite holds exactly")


# ---------------------------------------------------------------------------
# Criterion 3: SNR calibration at N = 1e5.
# ---------------------------------------------------------------------------

def test_criterion_03_snr_calibration():
    rng = np.random.default_rng(333)
    sig = rng.standard_normal(100_000) * 2.5
    p_clean = signal_power(sig)
    for target in (20.0, 10.0, 0.0):
        measured = []
        for rep in range(100):
            noisy = inject_at_snr(sig, target, seed=12, repetition=rep)
            p_noise = float(np.mean((noisy - sig) ** 2))
            measured.append(10.0 * math.log10(p_clean / p_noise))
        measured = np.asarray(measured)
        assert np.all(np.abs(measured - target) < 0.3), \
            f"{target} dB: worst single deviation {np.max(np.abs(measured - target)):.3f}"
        assert abs(measured.mean() - target) < 0.1
    ok("criterion 3: SNR within +/-0.3 dB per injection, +/-0.1 dB in the mean")


# ---------------------------------------------------------------------------
# Criteria 4-6 share one benchmark run on band-limited synthetic signals.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_means():
    # The amplitude-vs-power moment ordering is decisive at heavy noise but a
    # knife edge near 10 dB: its ensemble margin there is small relative to
    # the between-window spread, so the check needs many distinct clean
    # windows (not merely many noise repetitions) and a fixed seed.
    dataset = band_dataset(seed=42, trials=30)
    cfg = RobustnessConfig(snr_grid=(20.0, 15.0, 10.0, 5.0, 3.0, 0.0),
                           repetitions=30, seed=4242, max_windows=1)
    grid = run_grid(dataset, parse_features("rms,mnf,mdf,mmnf,mmdf"), cfg, SEG)
    means: dict[str, dict[float, float]] = {}
    for row in grid.rows:
        means.setdefault(row.feature, {})[row.snr_db] = row.mean_pe
    return means


def test_criterion_04_modified_moments_beat_power_moments(benchmark_means):
    means = benchmark_means
    failures = []
    for snr in (10.0, 5.0, 3.0, 0.0):
        if means["mmnf"][snr] > means["mnf"][snr]:
            failures.append(("mmnf vs mnf", snr, means["mmnf"][snr], means["mnf"][snr]))
        if means["mmdf"][snr] > means["mdf"][snr]:
            failures.append(("mmdf vs mdf", snr, means["mmdf"][snr], means["mdf"][snr]))
    if failures:
        ARTIFACTS.mkdir(exist_ok=True)
        report = ARTIFACTS / "moment_ordering_discrepancy.json"
        report.write_text(json.dumps({
            "claim": "amplitude-spectrum moments degrade less than "
                     "power-spectrum moments at SNR <= 10 dB",
            "note": "the ordering is data-dependent; this run's synthetic "
                    "spectra violated it at the cells below",
            "violations": [
                {"pair": p, "snr_db": s, "modified_pe": a, "traditional_pe": b}
                for p, s, a, b in failures
            ],
            "mean_pe": {f: {str(s): v for s, v in by.items()}
                        for f, by in means.items()},
        }, indent=2))
        pytest.fail(f"moment ordering violated; discrepancy report at {report}")
    ok("criterion 4: MMNF <= MNF and MMDF <= MDF at every SNR <= 10 dB")


def test_criterion_05_mmnf_error_small_at_20db(benchmark_means):
    pe = benchmark_means["mmnf"][20.0]
    assert pe < 5.0, f"MMNF mean PE at 20 dB is {pe:.2f}%"
    ok(f"criterion 5: MMNF mean PE at 20 dB = {pe:.2f}% (< 5%)")


def test_criterion_06_monotone_degradation(benchmark_means):
    for feature in ("rms", "mnf", "mmnf"):
        by_snr = benchmark_means[feature]
        series = [by_snr[s] for s in (20.0, 15.0, 10.0, 5.0, 3.0, 0.0)]
        violations = sum(1 for a, b in zip(series, series[1:]) if b < a - 1e-9)
        assert violations <= 1, f"{feature}: {series}"
    ok("criterion 6: PE non-decreasing as SNR falls (<= 1 violation) "
       "for rms, mnf, mmnf")


# ---------------------------------------------------------------------------
# Criterion 7: end-to-end recognition experiment.
# ---------------------------------------------------------------------------

def test_criterion_07_pipeline_end_to_end():
    start = time.perf_counter()
    sets = {name: feature_set(name)[1] for name in ("hudgins", "oskoei", "robust")}
    levels = [None, 20.0, 15.0, 10.0]
    clean_beats_noise_per_seed = []
    robust_clean_crs = []
    for seed in range(5):
        dataset = synthesize_emg(SynthConfig(
            classes=tuple(default_class_specs(4)), channels=2,
            trials_per_class=3, trial_ms=1500.0, seed=seed))
        table = evaluate_feature_sets(dataset, sets, levels, SEG,
                                      vote_window=5, seed=seed)
        assert table.cr.shape == (3, 4)
        assert np.all(np.isfinite(table.cr)), "report has unpopulated cells"
        robust_clean_crs.append(table.cr[table.set_names.index("robust"), 0])
        clean_beats_noise_per_seed.append(
            bool(np.all(table.cr[:, 0:1] >= table.cr[:, 1:])))
    assert min(robust_clean_crs) >= 95.0, f"robust clean CRs: {robust_clean_crs}"
    assert sum(clean_beats_noise_per_seed) >= 3, clean_beats_noise_per_seed
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"pipeline experiment took {elapsed:.0f}s"
    ok(f"criterion 7: robust-set clean CR >= 95% on all 5 seeds "
       f"(min {min(robust_clean_crs):.1f}%), clean >= noisy in "
       f"{sum(clean_beats_noise_per_seed)}/5 seeds, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 8: AR round trip.
# ---------------------------------------------------------------------------

def test_criterion_08_ar_round_trip():
    cases = [[0.7], [0.6, -0.5], [0.6, -0.4, 0.3], [0.7, -0.5, 0.4, -0.3]]
    for i, roots in enumerate(cases):
        true = np.poly(roots)[1:]
        rng = np.random.default_rng(800 + i)
        x = simulate_ar(true, 8192, rng)
        coefficients = ar_coefficients(x, len(true))
        np.testing.assert_allclose(coefficients, true, atol=0.1)
        # stationary: every root of z^p + a_1 z^(p-1) + ... + a_p inside the unit circle
        assert np.all(np.abs(np.roots(np.concatenate(([1.0], coefficients)))) < 1.0)
    ok("criterion 8: AR(p<=4) coefficients recovered within +/-0.1, "
       "all estimates stationary")


# ---------------------------------------------------------------------------
# Criterion 9: the named invariants, condensed into one gate.
# ---------------------------------------------------------------------------

def zero_draws(words, out):
    """``noise.fill_wgn`` with every draw zero."""
    out.fill(0.0)
    return out


def test_criterion_09_invariant_suites():
    rng = np.random.default_rng(900)

    # Scaling homogeneity and Parseval.
    for _ in range(100):
        x = rng.standard_normal(int(rng.integers(8, 200))) * rng.uniform(0.1, 30)
        c = float(rng.uniform(0.05, 8.0))
        assert tf.rms(c * x) == pytest.approx(c * tf.rms(x), rel=1e-9)
        assert tf.ssi(c * x) == pytest.approx(c * c * tf.ssi(x), rel=1e-9)
        _, amplitudes = amplitude_spectrum(x, 1000.0)
        assert np.sum(amplitudes ** 2) == pytest.approx(np.sum(x * x), rel=1e-6)
        _, scaled = amplitude_spectrum(c * x, 1000.0)
        np.testing.assert_allclose(scaled, c * amplitudes, rtol=1e-9, atol=1e-12)

    # Median-bin property on both spectra.
    for _ in range(50):
        x = rng.standard_normal(128)
        freqs, amplitudes = amplitude_spectrum(x, 1000.0)
        for weights, med in [(amplitudes, mmdf(x, 1000.0)),
                             (amplitudes ** 2, mdf(x, 1000.0))]:
            idx = int(np.where(freqs == med)[0][0])
            assert weights[:idx].sum() < 0.5 * weights.sum() <= weights[:idx + 1].sum()

    # Confusion accounting and pipeline determinism.
    dataset = synthesize_emg(SynthConfig(
        classes=tuple(default_class_specs(2)), channels=1,
        trials_per_class=2, trial_ms=1200.0, seed=9))
    features = parse_features("hemg,wamp,mmnf")
    rep_a = leave_one_out(dataset, features, SEG, noise_snr_db=15.0, noise_seed=2)
    rep_b = leave_one_out(dataset, features, SEG, noise_snr_db=15.0, noise_seed=2)
    assert rep_a.cr == pytest.approx(
        100.0 * np.trace(rep_a.confusion) / rep_a.confusion.sum())
    np.testing.assert_array_equal(rep_a.confusion, rep_b.confusion)
    assert rep_a.decisions == rep_b.decisions

    # Majority vote never invents labels.
    stream = [str(v) for v in rng.integers(0, 3, size=30)]
    smoothed = majority_vote(stream, 5)
    for i, label in enumerate(smoothed):
        assert label in stream[max(0, i - 2):i + 3]

    # Train/test hygiene: mutating the held-out trial leaves the model alone.
    from myobench.dataio import Dataset, Trial
    held_out = dataset.trials[0].trial_id
    fold_a, *_ = _train_folds(dataset, [features], [0], SEG)
    mutated = Dataset(
        classes=dataset.classes, rate=dataset.rate,
        trials=[Trial(trial_id=t.trial_id, label=t.label, subject=t.subject,
                      group=t.group, channels=t.channels,
                      data=t.data * 3.0 - 1.0 if t.trial_id == held_out else t.data)
                for t in dataset.trials])
    fold_b, *_ = _train_folds(mutated, [features], [0], SEG)
    model_a, model_b = fold_a[0][0][0], fold_b[0][0][0]
    np.testing.assert_array_equal(model_a.means, model_b.means)
    np.testing.assert_array_equal(model_a.covariance, model_b.covariance)

    # Grid determinism, PE non-negativity, dry-run identity (every noise draw
    # zero, so each noisy copy is its clean signal).
    band = band_dataset(seed=5, trials=2, channels=1, trial_ms=512.0)
    cfg = RobustnessConfig(snr_grid=(10.0,), repetitions=3, seed=1)
    grid_a = run_grid(band, features, cfg, SEG)
    grid_b = run_grid(band, features, cfg, SEG)
    assert grid_a.rows == grid_b.rows
    assert all(row.mean_pe >= 0 for row in grid_a.rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(noise, "fill_wgn", zero_draws)
        dry = run_grid(band, features,
                       RobustnessConfig(snr_grid=(10.0,), repetitions=2, seed=1), SEG)
    assert all(row.mean_pe == 0.0 for row in dry.rows)

    ok("criterion 9: invariant suites (scaling, Parseval, median bin, "
       "confusion accounting, determinism, hygiene) hold")

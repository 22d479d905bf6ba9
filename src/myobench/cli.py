"""Command-line surface: synth / extract / robustness / classify.

Every command that takes --seed is bit-reproducible. Each command builds
its fully resolved configuration here and hands it, with each output, to
`dataio.write_output`: a JSON output embeds it, a CSV output gets a
``.config.json`` sidecar, and the per-cell decision CSVs of ``classify``
carry none (the table's sidecar and the report cover them). Feature tokens,
sweeps and the options of ``classify`` are checked before the data loads.

Exit codes: 0 on success, 2 on a usage error, 1 on a runtime or data error.
They are decided in two places. A `_usage` block turns a ValueError in an
option's parse into a usage error; `_load_segmented` holds the load in one,
so a window or slide that does not fit the dataset's rate is one too. The
group, `_Commands`, turns a ValueError or DatasetError raised anywhere else
in a command into ``Error: <message>`` and exit 1. DatasetError is not a
ValueError, so a bad manifest is exit 1 even inside a `_usage` block. A few
checks raise their own click errors, with messages naming the option.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import replace

import click

from . import __version__, registry
from .dataio import (DatasetError, SynthConfig, _read_manifest, csv_prefix, csv_rows,
                     default_class_specs, load_dataset, save_dataset, synthesize_emg,
                     write_output)
from .recognition import (DEFAULT_VOTE_WINDOW, CrTable, check_vote_window, decisions_to_csv,
                          evaluate_feature_sets, extract_window_set, table_csv_rows,
                          table_payload)
from .registry import (default_panel, feature_set, make_descriptor, parse_features,
                       peak_amplitude, resolve_hemg_peak)
from .robustness import RobustnessConfig, grid_csv_rows, grid_json_rows, run_grid
from .signals import SegmentationConfig


class _Commands(click.Group):
    """Runs each command; a runtime error it raises is exit 1, without a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, DatasetError) as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Commands)
@click.version_option(__version__, prog_name="myobench")
def main():
    """sEMG feature extraction, WGN robustness benchmarking, and LDA recognition."""


@contextmanager
def _usage():
    """A ValueError raised in the block is a usage error (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _parse_band(text: str) -> tuple[float, float]:
    try:
        lo, _, hi = text.partition("-")
        return float(lo), float(hi)
    except ValueError:
        raise click.BadParameter(f"band must look like '20-450', got {text!r}")


def _load_segmented(data: str, window_ms: float, slide_ms: float, whole: bool = True):
    """The dataset (or, unless ``whole``, its checked manifest, with no trial
    read) and its segmentation. A window or slide that is not a positive
    finite length (checked before the load) or not a whole number of samples
    at the dataset's rate is a usage error."""
    with _usage():
        seg_cfg = SegmentationConfig(window_ms=window_ms, slide_ms=slide_ms)
        loaded = load_dataset(data) if whole else _read_manifest(data)
        seg_cfg.window_samples(loaded.rate), seg_cfg.slide_samples(loaded.rate)
    return loaded, seg_cfg


@main.command()
@click.option("--classes", "n_classes", default=4, show_default=True,
              help="Number of synthetic gesture classes.")
@click.option("--channels", default=2, show_default=True)
@click.option("--trials", default=6, show_default=True, help="Trials per class.")
@click.option("--duration-ms", default=3000.0, show_default=True)
@click.option("--rate", default=1000.0, show_default=True, help="Sampling rate (Hz).")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--band", "bands", multiple=True,
              help="Per-class band 'lo-hi' in Hz (repeat per class; default: "
                   "disjoint bands over 30-450 Hz).")
@click.option("--amplitude", "amplitudes", multiple=True, type=float,
              help="Per-class RMS amplitude in mV (repeat per class).")
@click.option("--out", required=True, type=click.Path(), help="Output directory.")
def synth(n_classes, channels, trials, duration_ms, rate, seed, bands, amplitudes, out):
    """Generate a synthetic labeled sEMG dataset (manifest + trial CSVs)."""
    for given, what in [(bands, "--band"), (amplitudes, "--amplitude")]:
        if given and len(given) != n_classes:
            raise click.BadParameter(f"need {n_classes} {what} options, got {len(given)}")
    parsed = [_parse_band(b) for b in bands]
    try:
        specs = default_class_specs(n_classes)
        if bands:
            specs = [replace(s, band=band) for s, band in zip(specs, parsed)]
        if amplitudes:
            specs = [replace(s, amplitude=a) for s, a in zip(specs, amplitudes)]
        cfg = SynthConfig(classes=tuple(specs), channels=channels,
                          trials_per_class=trials, trial_ms=duration_ms,
                          rate=rate, seed=seed)
        config = {
            "command": "synth", "seed": seed, "rate_hz": rate,
            "channels": channels, "trials_per_class": trials,
            "duration_ms": duration_ms,
            "classes": [{"name": s.name, "band_hz": list(s.band),
                         "amplitude_mv": s.amplitude, "group": s.group} for s in specs],
        }
        dataset = synthesize_emg(cfg)
        manifest = save_dataset(dataset, out, config)
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    except MemoryError:
        raise click.ClickException(f"--duration-ms {duration_ms:g} at --rate {rate:g} "
                                   "gives trials too large to allocate")
    click.echo(f"wrote {manifest} ({len(dataset.trials)} trials)")


@main.command()
@click.option("--data", required=True, type=click.Path(), help="Manifest path.")
@click.option("--features", default="rms,mav,wl", show_default=True,
              help="Comma-separated feature list (name[:key=value...]).")
@click.option("--window-ms", default=256.0, show_default=True)
@click.option("--slide-ms", default=64.0, show_default=True)
@click.option("--out", required=True, type=click.Path(), help="Output CSV.")
def extract(data, features, window_ms, slide_ms, out):
    """Window every trial and write one feature row per window."""
    # The trials are read in manifest order and extracted in groups: a group
    # ends at the first trial that brings it to registry._BLOCK_SAMPLES window
    # samples, and its samples are dropped once its rows are formatted, so
    # memory holds one group, not the dataset. An unresolved HEMG range needs
    # every trial's peak first, so then every trial is read before the first
    # group. The CSV is written once, after the last group.
    with _usage():
        descriptors = parse_features(features)
    manifest, seg_cfg = _load_segmented(data, window_ms, slide_ms, whole=False)
    trials = manifest.trials()
    if any(d.needs_resolution() for d in descriptors):  # else skip the peak scan
        trials = list(trials)
        descriptors = resolve_hemg_peak(descriptors, peak_amplitude([t.data for t in trials])[0])
    width, slide = seg_cfg.window_samples(manifest.rate), seg_cfg.slide_samples(manifest.rate)
    parts, group, size = [], [], 0  # parts: (feature names, CSV rows, windows) per group
    for trial in trials:
        group.append(trial)
        # its window samples; a trial too short for one window is extract_window_set's fault
        size += max(0, (len(trial.data) - width) // slide + 1) * width * len(trial.channels)
        del trial  # while the next trial is read, only its group may hold this one
        if size >= registry._BLOCK_SAMPLES:
            parts.append(_feature_rows(group, manifest, descriptors, seg_cfg))
            group, size = [], 0
    if group or not parts:  # of no trials at all, extract_window_set names the fault
        parts.append(_feature_rows(group, manifest, descriptors, seg_cfg))
    text = csv_rows([["trial_id", "label", "group", "window_start_ms", *parts[0][0]]])
    text += "".join(rows for _, rows, _ in parts)
    config = {"command": "extract", "data": str(data), "features": features,
              "window_ms": window_ms, "slide_ms": slide_ms}
    out_path = write_output(out, text, config)
    click.echo(f"wrote {out_path} ({sum(count for *_, count in parts)} windows)")


def _feature_rows(trials, manifest, descriptors, seg_cfg) -> tuple[list[str], str, int]:
    """The feature names, the ``extract`` CSV rows and the window count of ``trials``."""
    windows = extract_window_set(trials, manifest.rate, descriptors, seg_cfg,
                                 manifest.classes)
    prefixes = [csv_prefix([t.trial_id, t.label, t.group]) for t in trials]
    row_format = "%s" + ",".join(["%g"] + ["%.10g"] * windows.features.shape[1]) + "\r\n"
    starts, rows = windows.window_start_ms.tolist(), windows.features.tolist()
    bounds = windows.trial_rows.tolist()
    text = "".join(row_format % (prefix, starts[i], *rows[i])
                   for prefix, a, b in zip(prefixes, bounds, bounds[1:]) for i in range(a, b))
    return windows.feature_names, text, len(windows)


def _parse_sweep(text: str):
    """A sweep's config block and its descriptors, one per value.

    ``family:param=10..50:10`` or ``family:param=3,5,7,9,11``. A malformed
    sweep or a value outside the parameter's domain is a usage error.
    """
    try:
        family, _, rest = text.partition(":")
        param, _, values_text = rest.partition("=")
        if not (family and param and values_text):
            raise ValueError
        if ".." in values_text:
            span, _, step_text = values_text.partition(":")
            start_text, _, stop_text = span.partition("..")
            start, stop = float(start_text), float(stop_text)
            step = float(step_text) if step_text else 1.0
            if step <= 0 or stop < start:
                raise ValueError
            count = int(round((stop - start) / step)) + 1
            values = [start + i * step for i in range(count)]
        else:
            values = [float(v) for v in values_text.split(",")]
    except (ValueError, OverflowError):  # an infinite value count overflows int()
        raise click.BadParameter(
            f"sweep must look like 'wamp:threshold=10..50:10' or "
            f"'hemg:bins=3,5,7,9,11', got {text!r}"
        )
    family, param = family.strip(), param.strip()
    with _usage():
        descriptors = [make_descriptor(family, {param: value}) for value in values]
    return {"feature": family, "parameter": param, "values": values}, descriptors


@main.command()
@click.option("--data", required=True, type=click.Path(), help="Manifest path.")
@click.option("--features", default=None,
              help="Feature list (default: the representative robustness panel).")
@click.option("--snr", default="20,15,10,5,3,0", show_default=True,
              help="Comma-separated SNR grid in dB.")
@click.option("--reps", default=10, show_default=True, help="Repetitions per level.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--window-ms", default=256.0, show_default=True)
@click.option("--slide-ms", default=64.0, show_default=True)
@click.option("--max-windows", default=1, show_default=True, type=click.IntRange(min=0),
              help="Windows kept per trial channel (0 = all).")
@click.option("--groups", default=None, help="Restrict to these signal groups.")
@click.option("--sweep", default=None,
              help="Parameter sweep instead of a feature panel, e.g. "
                   "'wamp:threshold=10..50:10'.")
@click.option("--out", required=True, type=click.Path(),
              help="Output prefix; writes <out>.csv and <out>.json.")
def robustness(data, features, snr, reps, seed, window_ms, slide_ms,
               max_windows, groups, sweep, out):
    """Percentage-error benchmark of features under SNR-calibrated WGN."""
    try:
        snr_grid = tuple(float(s) for s in snr.split(",") if s.strip())
        if not snr_grid:
            raise ValueError("empty SNR grid")
    except ValueError as exc:
        raise click.BadParameter(f"bad --snr: {exc}")
    if sweep is not None and features is not None:
        raise click.BadParameter("--sweep and --features are mutually exclusive")
    if sweep is not None:
        sweep_config, descriptors = _parse_sweep(sweep)
    else:
        with _usage():
            descriptors = default_panel() if features is None else parse_features(features)
    if len(set(descriptors)) != len(descriptors):
        raise click.BadParameter("a feature (or sweep value) is listed twice")
    cfg = RobustnessConfig(  # a bad grid shape is exit 1, reported before the load
        snr_grid=snr_grid, repetitions=reps, seed=seed,
        groups=tuple(g.strip() for g in groups.split(",")) if groups else None,
        max_windows=None if max_windows == 0 else max_windows,
    )
    dataset, seg_cfg = _load_segmented(data, window_ms, slide_ms)
    grid = run_grid(dataset, descriptors, cfg, seg_cfg)
    config = {
        "snr_grid_db": list(cfg.snr_grid), "repetitions": cfg.repetitions, "seed": cfg.seed,
        "groups": list(cfg.groups) if cfg.groups is not None else None,
        "features": [{"name": d.name, "parameters": d.param_text,
                      "scalar_component": d.scalar_component} for d in grid.features],
    }
    if sweep is not None:
        config["sweep"] = sweep_config
    config.update(command="robustness", data=str(data), window_ms=window_ms,
                  slide_ms=slide_ms, max_windows=max_windows)
    write_output(f"{out}.csv", csv_rows(grid_csv_rows(grid)), config)
    write_output(f"{out}.json", {"config": config, "rows": grid_json_rows(grid)})
    written = f"{out}.csv and {out}.json"
    if grid.unscored:
        # The grid is still written, so the features that were scored keep their rows.
        raise click.ClickException("; ".join(f"{label}: every record excluded ({reason})"
                                             for label, reason in grid.unscored.items())
                                   + f"; wrote {written} anyway")
    click.echo(f"wrote {written} ({len(grid.rows)} cells)")


@main.command()
@click.option("--data", required=True, type=click.Path(), help="Manifest path.")
@click.option("--sets", default="hudgins,oskoei,robust", show_default=True,
              help="Feature sets: aliases or name=feat+feat definitions.")
@click.option("--noise", default="clean,20,15,10", show_default=True,
              help="Noise levels: 'clean' and/or SNRs in dB.")
@click.option("--vote", default=DEFAULT_VOTE_WINDOW, show_default=True,
              help="Majority-vote window (odd).")
@click.option("--window-ms", default=256.0, show_default=True)
@click.option("--slide-ms", default=64.0, show_default=True)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", required=True, type=click.Path(),
              help="Output prefix; writes <out>_table.csv, <out>_report.json, "
                   "and per-cell decision CSVs.")
def classify(data, sets, noise, vote, window_ms, slide_ms, seed, out):
    """Leave-one-out recognition of feature sets across noise levels."""
    with _usage():
        named_sets = [feature_set(token) for token in sets.split(",") if token.strip()]
        if not named_sets:
            raise ValueError("empty feature-set list")
        names = [name for name, _ in named_sets]
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise ValueError(f"feature set {repeated[0]!r} is repeated")
        for name in names:  # a set name is part of its decision files' names
            if not name:
                raise ValueError("a feature set name is empty")
            if "/" in name or os.sep in name:
                raise ValueError(f"feature set name {name!r} contains a path separator")
        feature_sets = dict(named_sets)
        levels: list[float | None] = []
        for token in noise.split(","):
            token = token.strip()
            if not token:
                continue
            levels.append(None if token.lower() == "clean" else float(token))
        if not levels:
            raise ValueError("empty noise-level list")
        CrTable.level_labels(levels)
        check_vote_window(vote)
    dataset, seg_cfg = _load_segmented(data, window_ms, slide_ms)
    table = evaluate_feature_sets(dataset, feature_sets, levels, seg_cfg,
                                  vote_window=vote, seed=seed)
    config = {
        "command": "classify", "data": str(data), "sets": sets, "noise": noise,
        "vote_window": vote, "window_ms": window_ms, "slide_ms": slide_ms,
        "seed": seed,
    }
    write_output(f"{out}_table.csv", csv_rows(table_csv_rows(table)), config)
    write_output(f"{out}_report.json", {"config": config, **table_payload(table)})
    streams = decisions_to_csv(table, out)
    click.echo(f"wrote {out}_table.csv, {out}_report.json, and "
               f"{len(streams)} decision streams")


if __name__ == "__main__":
    main()

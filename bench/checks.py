"""Correctness gate for one timed command's outputs.

``summarize`` reduces a command's output files to a small JSON-able record.
At the reference seed the record is compared with the one stored under
``reference/`` (recorded from the seed commit): values within rel 1e-9; counts,
confusion matrices, CR tables and decision CSVs exactly equal. At any other
seed, invariants that hold for every correct run are checked instead.

The number of checks depends only on the workload and the reference, never on
the outputs, so a run that wrote nothing fails every check it would have made.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import SLIDE_MS, Workload

REL_TOL = 1e-9
OUT_NAMES = {"robustness": "grid", "classify": "cls", "extract": "features.csv"}
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class Checks:
    """Counts attempted checks and names the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def out_prefix(workload: Workload, out_dir: Path) -> Path:
    return out_dir / OUT_NAMES[workload.command.kind]


def load_reference(workload: Workload) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())


def summarize(workload: Workload, out_dir: Path) -> dict | None:
    """Reduce the outputs to a record; None when they are missing or malformed."""
    kind = workload.command.kind
    try:
        if kind == "robustness":
            return _summarize_grid(out_dir)
        if kind == "classify":
            return _summarize_classify(workload, out_dir)
        return _summarize_extract(out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError, csv.Error):
        return None


def check(workload: Workload, out_dir: Path, reference: dict | None) -> Checks:
    """Run every check of this workload against the outputs in ``out_dir``."""
    summary = summarize(workload, out_dir) or {}
    checks = Checks()
    kind = workload.command.kind
    if reference is not None:
        {"robustness": _compare_grid, "classify": _compare_classify,
         "extract": _compare_extract}[kind](summary, reference, checks)
    else:
        {"robustness": _grid_invariants, "classify": _classify_invariants,
         "extract": _extract_invariants}[kind](workload, summary, checks)
    return checks


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- robustness: one row per (feature, parameters, group, motion, SNR) cell ---

def _cell_key(row: dict) -> str:
    return "|".join(str(row[k]) for k in ("feature", "parameters", "group", "motion", "snr_db"))


def _summarize_grid(out_dir: Path) -> dict:
    rows = json.loads((out_dir / "grid.json").read_text())["rows"]
    return {"rows": [{k: row[k] for k in ("feature", "parameters", "group", "motion",
                                          "snr_db", "mean_pe", "std_pe", "n", "excluded")}
                     for row in rows]}


def _compare_grid(summary: dict, reference: dict, checks: Checks):
    rows = summary.get("rows", [])
    by_key = {_cell_key(r): r for r in rows}
    checks(len(rows) == len(reference["rows"]), "grid row count")
    for ref in reference["rows"]:
        got = by_key.get(_cell_key(ref))
        checks(got is not None
               and (got["n"], got["excluded"]) == (ref["n"], ref["excluded"])
               and _close(got["mean_pe"], ref["mean_pe"])
               and _close(got["std_pe"], ref["std_pe"]), f"grid cell {_cell_key(ref)}")


def _grid_invariants(workload: Workload, summary: dict, checks: Checks):
    cmd, synth = workload.command, workload.synth
    cells = cmd.feature_count * synth.classes * len(cmd.snr)
    records = cmd.records(synth)
    rows = summary.get("rows", [])
    checks(len(rows) == cells, "grid row count")
    for i in range(cells):
        row = rows[i] if i < len(rows) else None
        checks(row is not None and row["n"] + row["excluded"] == records * cmd.reps
               and (row["n"] == 0 or math.isfinite(row["mean_pe"])),
               f"grid cell {i}: n + excluded = records x reps, finite mean_pe")


# --- classify: CR table, per-cell report, per-cell decision stream ---

def _level_label(token: str) -> str:
    return "clean" if token.lower() == "clean" else f"{float(token):g}dB"


def _summarize_classify(workload: Workload, out_dir: Path) -> dict:
    prefix = out_prefix(workload, out_dir)
    report = json.loads(Path(f"{prefix}_report.json").read_text())
    with Path(f"{prefix}_table.csv").open(newline="") as fh:
        table_rows = len(list(csv.reader(fh))) - 1
    cells = {}
    for name, cell in report["cells"].items():
        set_name, _, level = name.partition("@")
        path = Path(f"{prefix}_decisions_{set_name}_{level}.csv")
        classes = cell["class_names"]
        crosstab = [[0] * len(classes) for _ in classes]
        with path.open(newline="") as fh:
            for rec in csv.DictReader(fh):
                crosstab[classes.index(rec["true_label"])][classes.index(rec["mv_label"])] += 1
        cells[name] = {
            "cr": cell["classification_rate"],
            "confusion": cell["confusion"],
            "fold_crs": [f["cr"] for f in cell["fold_crs"]],
            "decisions_sha256": _sha256(path),
            "decisions_crosstab": crosstab,
        }
    return {"table_sha256": _sha256(Path(f"{prefix}_table.csv")),
            "table_rows": table_rows, "cells": cells}


def _compare_classify(summary: dict, reference: dict, checks: Checks):
    checks(summary.get("table_sha256") == reference["table_sha256"], "CR table")
    cells = summary.get("cells", {})
    for name, ref in reference["cells"].items():
        got = cells.get(name, {})
        checks(got.get("cr") == ref["cr"] and got.get("confusion") == ref["confusion"],
               f"{name}: CR and confusion matrix")
        folds = got.get("fold_crs", [])
        checks(len(folds) == len(ref["fold_crs"])
               and all(_close(a, b) for a, b in zip(folds, ref["fold_crs"])),
               f"{name}: per-fold CR")
        checks(got.get("decisions_sha256") == ref["decisions_sha256"],
               f"{name}: decision CSV")


def _classify_invariants(workload: Workload, summary: dict, checks: Checks):
    cmd, synth = workload.command, workload.synth
    windows = synth.trial_count * synth.windows_per_trial
    checks(summary.get("table_rows") == len(cmd.sets), "CR table row count")
    cells = summary.get("cells", {})
    for set_name in cmd.sets:
        for token in cmd.noise:
            name = f"{set_name}@{_level_label(token)}"
            cell = cells.get(name)
            if cell is None:
                checks(False, f"{name}: confusion sum = windows")
                checks(False, f"{name}: confusion and CR match decisions")
                continue
            confusion = cell["confusion"]
            total = sum(map(sum, confusion))
            checks(total == windows and sum(map(sum, cell["decisions_crosstab"])) == windows,
                   f"{name}: confusion sum = windows")
            correct = sum(confusion[i][i] for i in range(len(confusion)))
            checks(total > 0 and confusion == cell["decisions_crosstab"]
                   and _close(cell["cr"], 100.0 * correct / total),
                   f"{name}: confusion and CR match decisions")


# --- extract: one feature row per window, channel-major columns ---

def _summarize_extract(out_dir: Path) -> dict:
    with (out_dir / "features.csv").open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = list(reader)
    values = [[float(v) for v in row[3:]] for row in rows]
    columns = list(zip(*values)) or [()] * (len(header) - 3)
    rows_per_trial: dict[str, int] = {}
    starts_ok = True
    for row, vals in zip(rows, values):
        k = rows_per_trial.get(row[0], 0)
        rows_per_trial[row[0]] = k + 1
        starts_ok &= vals[0] == k * SLIDE_MS
    stride = max(1, len(rows) // 32)
    return {
        "header": header,
        "rows": len(rows),
        "rows_per_trial": rows_per_trial,
        "column_sums": [math.fsum(c) for c in columns],
        "weighted_sums": [math.fsum(i * v for i, v in enumerate(c)) for c in columns],
        "sample_rows": [[i, values[i]] for i in range(0, len(rows), stride)],
        "window_starts_ok": starts_ok,
        "features_finite_positive": all(math.isfinite(v) and v > 0
                                        for vals in values for v in vals[1:]),
    }


def _compare_extract(summary: dict, reference: dict, checks: Checks):
    checks(summary.get("header") == reference["header"], "feature CSV header")
    checks(summary.get("rows_per_trial") == reference["rows_per_trial"], "rows per trial")
    for what in ("column_sums", "weighted_sums"):
        got = summary.get(what, [])
        for i, ref in enumerate(reference[what]):
            checks(i < len(got) and _close(got[i], ref), f"{what}[{reference['header'][i + 3]}]")
    got_rows = dict((i, vals) for i, vals in summary.get("sample_rows", []))
    for i, ref in reference["sample_rows"]:
        vals = got_rows.get(i)
        checks(vals is not None and len(vals) == len(ref)
               and all(_close(a, b) for a, b in zip(vals, ref)), f"feature row {i}")


def _extract_invariants(workload: Workload, summary: dict, checks: Checks):
    synth = workload.synth
    header = ["trial_id", "label", "group", "window_start_ms"] + [
        f"ch{c + 1}:{f}" for c in range(synth.channels) for f in workload.command.features]
    checks(summary.get("header") == header, "feature CSV header")
    checks(summary.get("rows") == synth.trial_count * synth.windows_per_trial,
           "feature rows = windows x trials")
    per_trial = summary.get("rows_per_trial", {})
    checks(len(per_trial) == synth.trial_count
           and all(n == synth.windows_per_trial for n in per_trial.values()),
           "feature rows per trial = windows")
    checks(summary.get("window_starts_ok") is True, "window start times")
    checks(summary.get("features_finite_positive") is True, "feature values finite and > 0")

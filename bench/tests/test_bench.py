"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q

Every workload runs end to end at a tiny size, in both modes, and its printed
metrics must be exactly those ``BENCHMARK.json`` declares. Perturbing one grid
cell, one majority-vote label or one feature value must fail the gate.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Classify, Extract, Robustness, Synth  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SEED = 3  # not the reference seed, so the invariant checks apply

TINY = {
    "robustness_panel": (Synth(classes=2, channels=1, trials=2, duration_ms=600.0),
                         Robustness(feature_count=10, max_windows=1, snr=(20.0, 0.0), reps=2)),
    "classify_loto": (Synth(classes=2, channels=1, trials=2, duration_ms=1000.0),
                      Classify(sets=("hudgins", "robust"), noise=("clean", "20"))),
    "extract_long": (Synth(classes=2, channels=2, trials=1, duration_ms=2000.0, rate=2000.0),
                     Extract()),
}


def tiny(name: str):
    synth, command = TINY[name]
    return dataclasses.replace(WORKLOADS[name], synth=synth, command=command)


def test_spec_names_units_and_workloads():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert all(pattern.fullmatch(m["name"]) and m["unit"] for m in metrics)
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.layer_units()
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_clean(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, name, tiny(name))
    code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert record["failed_frac"] == 0.0
    expected = spans.layer_units() if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each tiny workload's outputs from one real run, keyed by workload name."""
    made = {}
    for name in WORKLOADS:
        work = tmp_path_factory.mktemp(name)
        assert run.run_once(tiny(name), SEED, work, work / "out")
        made[name] = work / "out"
    return made


def _copy(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    return dst


def _failed(name: str, out: Path, reference: dict | None) -> int:
    return checks.check(tiny(name), out, reference).failed


def _edit_csv(path: Path, row: int, column: str, edit):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row][col] = edit(rows[row][col])
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unperturbed_outputs_pass(name, outputs):
    reference = checks.summarize(tiny(name), outputs[name])
    assert _failed(name, outputs[name], None) == 0
    assert _failed(name, outputs[name], reference) == 0


@pytest.mark.parametrize("field,edit", [("mean_pe", lambda v: v * 1.001), ("n", lambda v: v - 1)])
def test_perturbed_grid_cell_fails(field, edit, outputs, tmp_path):
    name = "robustness_panel"
    reference = checks.summarize(tiny(name), outputs[name])
    out = _copy(outputs[name], tmp_path / "out")
    grid = json.loads((out / "grid.json").read_text())
    grid["rows"][0][field] = edit(grid["rows"][0][field])
    (out / "grid.json").write_text(json.dumps(grid))
    assert _failed(name, out, reference) > 0
    if field == "n":
        assert _failed(name, out, None) > 0


def test_perturbed_mv_label_fails(outputs, tmp_path):
    name = "classify_loto"
    reference = checks.summarize(tiny(name), outputs[name])
    out = _copy(outputs[name], tmp_path / "out")
    path = out / "cls_decisions_hudgins_clean.csv"
    labels = {"hand_open": "hand_close", "hand_close": "hand_open"}
    _edit_csv(path, 1, "mv_label", labels.get)
    assert _failed(name, out, reference) > 0
    assert _failed(name, out, None) > 0


def test_perturbed_feature_value_fails(outputs, tmp_path):
    name = "extract_long"
    reference = checks.summarize(tiny(name), outputs[name])
    out = _copy(outputs[name], tmp_path / "out")
    _edit_csv(out / "features.csv", 5, "ch2:mav", lambda v: repr(float(v) * 1.000001))
    assert _failed(name, out, reference) > 0


def test_failed_command_fails_every_check(tmp_path):
    name = "robustness_panel"
    runner = run.Runner(tiny(name), SEED, tmp_path, tmp_path, None)  # no set-up: no dataset
    assert runner.timed(trace=False) is None
    assert runner.attempted > 0 and runner.failed == runner.attempted

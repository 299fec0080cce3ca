"""Tests of the benchmark itself, on tiny sizes of each workload.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from checks import check_row
from exploresim.grid import load_pgm, save_pgm
from tracer import root_time, self_times
from workloads import Workload, check_unit

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_runs_print():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


def _run_tiny(capsys, tmp_path, workload, trace):
    code = run.main(["--workload", workload, "--size", "tiny", "--seconds", "0",
                     "--trace", str(trace), "--work", str(tmp_path / "work")])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert not (tmp_path / "work").exists()
    return out, json.loads(out[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(capsys, tmp_path, workload):
    out, result = _run_tiny(capsys, tmp_path, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0] for line in out[1:-1]}
    assert set(run.END_TO_END) | {"failed_frac", "coverage_auc", "iou_auc", "tu_final",
                                  "record_sha256"} <= printed


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_accounts_for_its_wall_time(capsys, tmp_path, workload):
    _, result = _run_tiny(capsys, tmp_path, workload, 1)
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.per_layer_units()
    assert m["world.simulate_scan.calls"] > 0 and m["cli.run_row.calls"] > 0
    self_total = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
    assert self_total + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])
    if workload == "replan_heavy":
        assert m["metrics.topological_understanding.calls"] == 0
    if workload == "ablation_batch":
        assert 0 < m["cli.pool_busy_frac"] <= 1


@pytest.fixture(scope="module")
def tiny_row(tmp_path_factory):
    work = tmp_path_factory.mktemp("row")
    wl = Workload("explore_default", "tiny", 0, work)
    wl.setup()
    unit = wl.run_unit(work / "unit0")
    check_unit(unit)
    assert unit.rows[0].problems == []
    return unit.rows[0]


def _copy(row, tmp_path):
    row_dir = tmp_path / row.row_dir.name
    shutil.copytree(row.row_dir, row_dir)
    return row_dir


def _rewrite_record(row_dir, edit):
    path = row_dir / "record.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _drop_coverage(lines):
    for i in range(len(lines) - 1, 0, -1):
        obj = json.loads(lines[i])
        if obj["type"] == "step" and obj["t"] > 0:
            obj["coverage"] = -1.0
            lines[i] = json.dumps(obj)
            return lines
    raise AssertionError("no step line to corrupt")


def _edit_snapshot(row_dir, prefix, edit, which=-1):
    for path in sorted(row_dir.glob(f"{prefix}_t*.pgm"))[which:]:
        grid = load_pgm(path, snap_unknown=prefix == "obs")
        edit(grid.cells)
        save_pgm(grid, path)


def _flip_known_cell(cells):
    ys, xs = np.nonzero(cells == 0.0)
    cells[ys[0], xs[0]] = 1.0


def _forget_known_cell(cells):
    ys, xs = np.nonzero(cells != 0.5)
    cells[ys[0], xs[0]] = 0.5


CORRUPTIONS = {
    "unparseable line": lambda d: _rewrite_record(d, lambda ls: ls[:-1] + ["{not json"]),
    "coverage decreases": lambda d: _rewrite_record(d, _drop_coverage),
    "missing end line": lambda d: _rewrite_record(d, lambda ls: ls[:-1]),
    "obs disagrees with ground truth": lambda d: _edit_snapshot(d, "obs", _flip_known_cell),
    "known cell reverts": lambda d: _edit_snapshot(d, "obs", _forget_known_cell),
    "variance above 0.25": lambda d: _edit_snapshot(d, "var", lambda c: c.fill(0.5)),
    "variance on known cells": lambda d: _edit_snapshot(d, "var", lambda c: c.fill(0.1), 0),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_checks_fail_on_corrupted_output(tiny_row, tmp_path, corruption):
    row_dir = _copy(tiny_row, tmp_path)
    assert check_row(tiny_row.result, row_dir, tiny_row.gt)[0] == []
    CORRUPTIONS[corruption](row_dir)
    assert check_row(tiny_row.result, row_dir, tiny_row.gt)[0]


def test_checks_fail_on_error_status(tiny_row):
    problems, _ = check_row({**tiny_row.result, "status": "error: boom"},
                            tiny_row.row_dir, tiny_row.gt)
    assert problems


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 6.0, 0]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == root_time(spans) == 10.0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "explore_default", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""exploresim benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout: it imports `exploresim` from the
checkout's `src/` and refuses to run (exit 2) when that is missing. All
files go to `.bench_work/` in the checkout, which is removed at the end.

`--trace 0` measures the end-to-end metrics. It sets up the workload, runs
units (see workloads.py) until `--seconds` would be exceeded, at least one,
checks every row's outputs, and times the set-up again in fresh processes.
`--trace 1` runs one unit untraced as a reference, then one unit with every
layer's functions wrapped at their call sites (tracer.py), and reports the
per-layer metrics, the unattributed remainder of the traced wall time and
the tracing overhead: traced minus untraced median row time. The reference
unit runs first and pays the program's one-time lazy set-up, so on a short
run the overhead can read below zero.

The report goes to standard output as "name value unit" lines, then one
JSON line with `correct`, `attempted`, `failed` (rows) and `metrics`.
BENCHMARK.json lists the metrics; layers.json maps each layer to the
end-to-end metrics and workloads it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ("explore_default", "replan_heavy", "ablation_batch")
SETUP_REPEATS = {"full": 3, "tiny": 1}  # fresh processes timed for setup_s

END_TO_END = {  # name: unit
    "row_s": "s",
    "episode_steps_per_s": "steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = (
    "world.simulate_scan", "world.ray_cell_table", "world.gather_values",
    "world.integrate_scan", "frontier.extract_frontiers", "predict.ensemble_predict",
    "frontier.score_frontier", "infogain.probabilistic_raycast",
    "infogain.deterministic_raycast", "infogain.visibility_mask", "infogain.info_gain",
    "infogain.ray_cell_table", "infogain.gather_values", "planner.astar",
    "metrics.topological_understanding", "metrics.astar", "metrics.building_footprint",
    "grid.save_pgm", "grid.load_pgm", "planner.run_episode", "cli.run_row",
)
LAYER_STATS = {"calls": "count", "self_s": "s", "ms_p50": "ms", "ms_p90": "ms"}
SCORE_PREFIX = "frontier.score_frontier"
EXTRA_LAYER_METRICS = {
    "world.gather_values.computed_samples": "samples",
    "world.gather_values.computed_bytes": "B",
    "infogain.gather_values.computed_samples": "samples",
    "infogain.gather_values.computed_bytes": "B",
    "infogain.visibility_mask.cells": "cells",
    "planner.astar.found_ratio": "ratio",
    "planner.replans": "count",
    "planner.attempts_per_replan": "count",
    "grid.save_pgm.bytes": "B",
    "grid.load_pgm.bytes": "B",
    "cli.pool_busy_frac": "ratio",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    from workloads import BATCH_SCORERS

    units = {f"{layer}.{stat}": unit for layer in LAYERS for stat, unit in LAYER_STATS.items()}
    for kind in BATCH_SCORERS:
        units[f"{SCORE_PREFIX}.{kind}.calls"] = "count"
        units[f"{SCORE_PREFIX}.{kind}.self_s"] = "s"
    units.update(EXTRA_LAYER_METRICS)
    return units


def _peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest waited-for child (a pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def _time_setup(args, work: Path) -> float:
    """Median wall time of a fresh process that imports the program and sets up."""
    times = []
    for k in range(SETUP_REPEATS[args.size]):
        target = work.with_name(f"{work.name}-setup{k}")
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--setup-only",
               "--work", str(target)]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(target, ignore_errors=True)
    return statistics.median(times)


def _row_summary(rows) -> dict:
    """Quality figures and record digest of one unit's rows (not gated)."""
    from checks import record_digest

    ok = [r.result for r in rows if r.result.get("status") == "ok"]
    tu = [r["tu_final"] for r in ok if r["tu_final"] != ""]
    return {
        "coverage_auc": (statistics.fmean(r["coverage_auc"] for r in ok) if ok else 0.0, "%"),
        "iou_auc": (statistics.fmean(r["iou_auc"] for r in ok) if ok else 0.0, "ratio"),
        "tu_final": (statistics.fmean(tu) if tu else "n/a", "ratio"),
        "record_sha256": (record_digest(*(r.row_dir / "record.jsonl" for r in rows if r.digest)),
                          "hex"),
    }


def measured_run(wl, args) -> tuple[dict, list, list[str]]:
    """End-to-end metrics, tracing off. Returns (metrics, rows, problems)."""
    from workloads import check_unit

    wl.setup()
    units = []
    t0 = time.perf_counter()
    while True:
        units.append(wl.run_unit(wl.work / f"unit{len(units)}"))
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(u.wall_s for u in units) > args.seconds:
            break
    peak_rss = _peak_rss_mb()
    for unit in units:
        check_unit(unit, units[0])
    rows = [r for u in units for r in u.rows]
    ok = [r.result for r in rows if r.result.get("status") == "ok"]
    metrics = {
        "row_s": statistics.median(u.wall_s * u.workers / len(u.rows) for u in units),
        "episode_steps_per_s": (sum(r["steps"] for r in ok) / sum(r["wall_time_s"] for r in ok)
                                if ok else 0.0),
        "setup_s": _time_setup(args, wl.work),
        "peak_rss_mb": peak_rss,
    }
    report = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    report["rows_per_min"] = (60.0 * len(rows) / sum(u.wall_s for u in units), "rows/min")
    report["units"] = (len(units), "count")
    report["failed_frac"] = (sum(1 for r in rows if r.problems) / len(rows), "ratio")
    report.update(_row_summary(units[0].rows))
    problems = [p for u in units for p in u.problems]
    return report, rows, problems


def _install_tracer(tracer) -> None:
    """Wrap each layer's functions where their callers look them up."""
    from exploresim import cli, frontier, infogain, metrics, planner, world

    def gathered(key):
        def count(tr, args, result):
            cells, cx = args[0], args[1]
            tr.counts[f"{key}.computed_samples"] += cx.size
            tr.counts[f"{key}.computed_bytes"] += cx.size * cells.itemsize
        return count

    def mask_cells(tr, args, result):
        tr.counts["infogain.visibility_mask.cells"] += len(result)

    def found(tr, args, result):
        tr.counts["planner.astar.found"] += result is not None

    def saved(tr, args, result):
        tr.counts["grid.save_pgm.bytes"] += os.path.getsize(args[1])

    def loaded(tr, args, result):
        tr.counts["grid.load_pgm.bytes"] += os.path.getsize(args[0])

    sites = (
        (planner, "simulate_scan", "world.simulate_scan", None),
        (world, "ray_cell_table", "world.ray_cell_table", None),
        (world, "gather_values", "world.gather_values", gathered("world.gather_values")),
        (planner, "integrate_scan", "world.integrate_scan", None),
        (planner, "extract_frontiers", "frontier.extract_frontiers", None),
        (planner, "ensemble_predict", "predict.ensemble_predict", None),
        (planner, "score_frontier", lambda a: f"{SCORE_PREFIX}.{a[1]}", None),
        (frontier, "probabilistic_raycast", "infogain.probabilistic_raycast", None),
        (frontier, "deterministic_raycast", "infogain.deterministic_raycast", None),
        (frontier, "visibility_mask", "infogain.visibility_mask", mask_cells),
        (frontier, "info_gain", "infogain.info_gain", None),
        (infogain, "ray_cell_table", "infogain.ray_cell_table", None),
        (infogain, "gather_values", "infogain.gather_values", gathered("infogain.gather_values")),
        (planner, "astar", "planner.astar", found),
        (cli, "topological_understanding", "metrics.topological_understanding", None),
        (metrics, "astar", "metrics.astar", None),
        (cli, "building_footprint", "metrics.building_footprint", None),
        # run_episode imports building_footprint from metrics at call time.
        (metrics, "building_footprint", "metrics.building_footprint", None),
        (cli, "save_pgm", "grid.save_pgm", saved),
        (cli, "load_pgm", "grid.load_pgm", loaded),
        (cli, "run_episode", "planner.run_episode", None),
        (cli, "run_row", "cli.run_row", None),
    )
    for module, attr, name, on_result in sites:
        tracer.wrap(module, attr, name, on_result)


def _timed_rows(log_dir: Path):
    """Wrap cli.run_row so each call, also in forked pool workers, logs its duration."""
    from exploresim import cli

    orig = cli.run_row

    def run_row(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            with open(log_dir / f"{os.getpid()}.log", "a") as fh:
                fh.write(f"{time.perf_counter() - t0!r}\n")

    log_dir.mkdir(parents=True, exist_ok=True)
    cli.run_row = run_row
    return orig


def _logged_durations(log_dir: Path) -> list[float]:
    return [float(line) for p in sorted(log_dir.glob("*.log")) for line in p.read_text().split()]


def traced_run(wl, args) -> tuple[dict, list, list[str]]:
    """Per-layer metrics from one traced unit. Returns (metrics, rows, problems)."""
    from exploresim import cli
    from tracer import Tracer, layer_stats, load_spans, root_time
    from workloads import BATCH_SCORERS, check_unit

    wl.setup()
    log_dir = wl.work / "row_times"
    orig = _timed_rows(log_dir)
    try:
        reference = wl.run_unit(wl.work / "reference", resume=False)
    finally:
        cli.run_row = orig
    ref_rows = _logged_durations(log_dir)

    tracer = Tracer()
    _install_tracer(tracer)
    t0 = time.perf_counter()
    try:
        traced = wl.run_unit(wl.work / "traced", workers=1, resume=False)
    finally:
        wall = time.perf_counter() - t0
        tracer.restore()
    tracer.dump(wl.work / "spans.json")
    spans = load_spans(wl.work / "spans.json")
    check_unit(reference)
    check_unit(traced, reference)

    merged = [[SCORE_PREFIX if n.startswith(SCORE_PREFIX + ".") else n, s, e, p]
              for n, s, e, p in spans]
    stats = layer_stats(merged)
    kind_stats = layer_stats(spans)
    empty = {"calls": 0, "self_s": 0.0, "ms_p50": 0.0, "ms_p90": 0.0}
    m = {}
    for layer in LAYERS:
        for stat in LAYER_STATS:
            m[f"{layer}.{stat}"] = stats.get(layer, empty)[stat]
    for kind in BATCH_SCORERS:
        for stat in ("calls", "self_s"):
            m[f"{SCORE_PREFIX}.{kind}.{stat}"] = kind_stats.get(f"{SCORE_PREFIX}.{kind}", empty)[stat]

    c = tracer.counts
    for key in ("world.gather_values", "infogain.gather_values"):
        calls = max(stats.get(key, empty)["calls"], 1)
        m[f"{key}.computed_samples"] = c[f"{key}.computed_samples"] / calls
        m[f"{key}.computed_bytes"] = c[f"{key}.computed_bytes"] / calls
    m["infogain.visibility_mask.cells"] = (
        c["infogain.visibility_mask.cells"] / max(stats.get("infogain.visibility_mask", empty)["calls"], 1))
    m["planner.astar.found_ratio"] = c["planner.astar.found"] / max(m["planner.astar.calls"], 1)
    replans = [ln for r in traced.rows for ln in r.record if ln.get("type") == "replan"]
    m["planner.replans"] = len(replans)
    m["planner.attempts_per_replan"] = (
        statistics.fmean(ln["attempts"] for ln in replans) if replans else 0.0)
    m["grid.save_pgm.bytes"] = c["grid.save_pgm.bytes"]
    m["grid.load_pgm.bytes"] = c["grid.load_pgm.bytes"]
    m["cli.pool_busy_frac"] = (sum(ref_rows) / (reference.workers * reference.wall_s)
                               if reference.workers > 1 else 0.0)
    m["trace.spans"] = len(spans)
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - root_time(spans)
    traced_rows = [e - s for n, s, e, _ in spans if n == "cli.run_row"]
    m["trace.overhead_s"] = statistics.median(traced_rows) - statistics.median(ref_rows)

    units = per_layer_units()
    report = {k: (m[k], units[k]) for k in units}
    rows = reference.rows + traced.rows
    return report, rows, reference.problems + traced.problems


def _parse(argv):
    p = argparse.ArgumentParser(description="exploresim benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long inputs for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "exploresim" / "__init__.py").is_file():
        print(f"error: no exploresim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import exploresim

    if Path(exploresim.__file__).resolve().parent != (SRC / "exploresim").resolve():
        print(f"error: imported exploresim from {exploresim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import Workload

    work = Path(args.work) if args.work else SRC.parent / ".bench_work" / args.workload
    wl = Workload(args.workload, args.size, args.seed, work)
    if args.setup_only:
        wl.setup()
        return 0

    shutil.rmtree(work, ignore_errors=True)
    try:
        run = traced_run if args.trace else measured_run
        report, rows, problems = run(wl, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not args.work:
            try:
                work.parent.rmdir()  # .bench_work, once no other run uses it
            except OSError:
                pass

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in report.items():
        print(f"  {name} {value} {unit}")
    failed = sum(1 for r in rows if r.problems)
    for r in rows:
        for p in r.problems:
            print(f"  FAILED {r.row_dir.name}: {p}")
    for p in problems:
        print(f"  FAILED: {p}")
    names = per_layer_units() if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": report[k][0], "unit": report[k][1]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

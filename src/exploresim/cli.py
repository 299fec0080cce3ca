"""Experiment harness and command line.

Subcommands:

    explore run <config.toml> [--workers N]  batch episodes + results CSV
    explore generate-maps ...              emit procedural floor plans
    explore score-map <observed> <gt>      metrics for a pair of maps
    explore replay <record.jsonl> ...      verify a record by re-running it,
                                           then re-emit its snapshots

Each episode writes a line-delimited JSON record, a header line followed
by the lines `planner.run_episode` emits (its docstring lists their types
and keys), plus checkpoint PGM snapshots of the observed/mean/variance
maps. Records contain no wall-clock data, so a rerun with the same config
and seed is byte-identical. The header line alone determines the episode:
it holds the row's map as a one-map `MapSource`, its `EpisodeConfig` and
its `PredictorSpec`, each by field name, and `replay` rebuilds them from
it, checks that the re-run reproduces every line of the record, then
re-emits the snapshots. The header also names the `RULES` the record was
made under. The batch is resumable: a row whose outputs exist and whose
record starts with the header this run would write is not re-executed. A
rejected config, or a score-map input it cannot read, exits 2 with one
line on stderr, before any row runs or any output is written.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import glob as globmod
import json
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass, fields, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, MapSource, PredictorSpec, _typed, from_table, parse_config
from .errors import ConfigError, RecordMismatchError
from .grid import GridPose, OccupancyGrid, load_pgm, save_pgm
from .metrics import (
    auc,
    building_footprint,
    coverage_of,
    iou_occupied,
    topological_understanding,
)
from .planner import EpisodeConfig, EpisodeRecord, run_episode
from .predict import (
    ExternalPredictor,
    NoisyOraclePredictor,
    PassThroughPredictor,
    PatchInpaintingPredictor,
)
from .world import generate_floorplan

CSV_COLUMNS = [
    "map", "start_x", "start_y", "scorer", "seed", "status", "end_reason", "steps",
    "final_coverage", "coverage_auc", "final_iou", "iou_auc", "tu_final",
    "tu_checkpoints", "wall_time_s",
]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def corner_starts(gt: OccupancyGrid) -> list[GridPose]:
    """Nearest free in-footprint cell to each grid corner (ties: smaller y, x),
    each cell once, in corner order: top left, top right, bottom left, bottom
    right."""
    free = (gt.cells < 0.25) & building_footprint(gt)
    if not free.any():
        free = gt.cells < 0.25
    if not free.any():
        raise ValueError("map has no free cells")
    ys, xs = np.nonzero(free)
    out = []
    for cx, cy in ((0, 0), (gt.width - 1, 0), (0, gt.height - 1), (gt.width - 1, gt.height - 1)):
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        best = np.lexsort((xs, ys, d2))[0]
        start = GridPose(int(xs[best]), int(ys[best]))
        if start not in out:  # two corners may share their nearest cell
            out.append(start)
    return out


def _binarized(grid: OccupancyGrid) -> OccupancyGrid:
    return OccupancyGrid((grid.cells > 0.5).astype(np.float64), grid.resolution)


def _map_sources(maps: MapSource) -> list[tuple[str, MapSource]]:
    """(label, one-map MapSource) per map. A file's glob is its escaped absolute
    path, which matches only that file from any directory. A label names a row
    directory, so two files may not share a stem."""
    if maps.kind == "generate":
        return [(f"gen{seed:04d}", replace(maps, map_seed=seed, count=1))
                for seed in range(maps.map_seed, maps.map_seed + maps.count)]
    paths = {}
    for p in sorted(globmod.glob(maps.glob)):
        if (other := paths.setdefault(Path(p).stem, p)) != p:
            raise ConfigError(f"[maps] glob: {other} and {p} share the label {Path(p).stem!r}")
    if not paths:
        raise ConfigError(f"[maps] glob: {maps.glob!r} matched no files")
    return [(label, replace(maps, glob=globmod.escape(os.path.abspath(p))))
            for label, p in paths.items()]


def materialize_maps(maps: MapSource) -> list[tuple[str, MapSource, OccupancyGrid]]:
    """(label, one-map MapSource, binary ground truth) per map, from files or
    the generator; a files source is globbed once."""
    out = []
    for label, one in _map_sources(maps):
        if one.kind == "files":
            [path] = globmod.glob(one.glob)
            gt = _binarized(load_pgm(path, resolution=one.resolution))
        else:
            gt = generate_floorplan(one.map_seed, one.width, one.height,
                                    (one.rooms_min, one.rooms_max), one.corridor_width,
                                    one.resolution)
        out.append((label, one, gt))
    return out


def member_seed(row_seed: int, map_index: int, member: int) -> int:
    """Stable per-member RNG seed; independent of the scorer so scorer
    comparisons on the same row are paired."""
    return int(np.random.SeedSequence((row_seed, map_index, member)).generate_state(1)[0])


def _corpus_paths(spec: PredictorSpec) -> list[str]:
    """The corpus files; patch member i gets every `ensemble`-th one from i.
    Members that shared a file would predict alike and report no variance,
    so the corpus must hold at least one file per member."""
    paths = sorted(globmod.glob(spec.corpus))
    if not paths:
        raise ConfigError(f"[predictor] corpus: {spec.corpus!r} matched no files")
    if len(paths) < spec.ensemble:
        raise ConfigError(f"[predictor] corpus: {spec.corpus!r} matched {len(paths)} "
                          f"file(s), fewer than the {spec.ensemble} ensemble members")
    return paths


def build_ensemble(spec: PredictorSpec, gt: OccupancyGrid, seeds: list[int]) -> list:
    if spec.kind == "passthrough":
        return [PassThroughPredictor() for _ in range(spec.ensemble)]
    if spec.kind == "noisy_oracle":
        return [NoisyOraclePredictor(gt, spec.flip_rate, s) for s in seeds]
    if spec.kind == "patch":
        corpus = [load_pgm(p, resolution=gt.resolution) for p in _corpus_paths(spec)]
        return [PatchInpaintingPredictor(corpus[i::spec.ensemble], spec.block, spec.ring)
                for i in range(spec.ensemble)]
    commands = spec.commands  # external
    return [ExternalPredictor(commands[i % len(commands)]) for i in range(spec.ensemble)]


@dataclass
class RowSpec:
    """One (map, start, scorer, seed) cell of the experiment grid.

    Nothing here reads `start_index`; it stays because callers, such as the
    benchmark's workloads, build a RowSpec from six positional arguments.
    """

    map_label: str
    map_index: int
    start: GridPose
    start_index: int
    scorer: str
    seed: int

    @property
    def name(self) -> str:
        return (f"{self.map_label}__s{self.start.x}-{self.start.y}"
                f"__{self.scorer}__seed{self.seed}")


def record_lines(record: EpisodeRecord, header: dict) -> list[str]:
    """The record file's lines: the header, then the episode's own lines."""
    return [_dumps(header), *map(_dumps, record.lines)]


def _write_snapshots(row_dir: Path, record: EpisodeRecord) -> list[Path]:
    written = []
    for cp in record.checkpoints:
        for prefix, grid in (("obs", cp.observed), ("mean", cp.mean), ("var", cp.variance)):
            written.append(row_dir / f"{prefix}_t{cp.t:05d}.pgm")
            save_pgm(grid, written[-1])
    return written


# The version of the rules that make records and metrics, written in every
# header. A change that alters them on purpose bumps it, so that a stored row
# made under other rules runs again and `replay` refuses its record.
RULES = 1

_HEADER_KEYS = {"type", "rules", "map", "map_label", "start", "seed", "episode", "predictor",
                "member_seeds", "tu_goals", "snapshots"}  # what `_row_header` writes


def _row_header(cfg: ExperimentConfig, spec: RowSpec) -> dict:
    """The record's header line; `map`, `episode` and `predictor` are dataclasses
    by field name. File paths are absolute, so the record replays anywhere.
    `rules`, `tu_goals` and `snapshots` are here only so that a change re-runs
    the row."""
    episode = EpisodeConfig(
        budget_t=cfg.budget, scorer=spec.scorer, sensor=cfg.sensor, raycast=cfg.raycast,
        min_cluster_size=cfg.min_cluster_size, max_waypoint_age=cfg.max_waypoint_age,
        checkpoint_every=cfg.checkpoint_every,
    )
    corpus = cfg.predictor.corpus and os.path.abspath(cfg.predictor.corpus)
    return {
        "type": "header",
        "rules": RULES,
        "map": asdict(dict(_map_sources(cfg.maps))[spec.map_label]),
        "map_label": spec.map_label,
        "start": [spec.start.x, spec.start.y],
        "seed": spec.seed,
        "episode": asdict(episode),
        "predictor": asdict(replace(cfg.predictor, corpus=corpus)),
        "member_seeds": [member_seed(spec.seed, spec.map_index, i)
                         for i in range(cfg.predictor.ensemble)],
        "tu_goals": cfg.tu_goals,
        "snapshots": cfg.snapshots,
    }


def _from_header(cls, header: dict, key: str):
    """The dataclass a record header stores under `key`, by field name. A
    value the dataclass rejects raises RecordMismatchError."""
    try:
        return from_table(cls, header[key], key)
    except (ConfigError, TypeError) as exc:  # TypeError: a field is missing
        raise RecordMismatchError(f"record header {exc}") from None


def _typed_from_header(hint, header: dict, key: str):
    """`header[key]` as a field annotated `hint` holds it, else RecordMismatchError."""
    try:
        return _typed(hint, header[key])
    except TypeError:
        raise RecordMismatchError(f"record header {key}: {header[key]!r} does not fit") from None


def _episode_inputs(header: dict, gt: OccupancyGrid) -> tuple[EpisodeConfig, list]:
    """The episode config and predictor ensemble a record header describes.

    `run_row` and `replay` both build their episode here, so a record's
    header is all it takes to re-run the row.
    """
    ep_cfg = _from_header(EpisodeConfig, header, "episode")
    spec = _from_header(PredictorSpec, header, "predictor")
    seeds = _typed_from_header(list[int], header, "member_seeds")
    if len(seeds) != spec.ensemble:
        raise RecordMismatchError(f"record header member_seeds: {len(seeds)}, not {spec.ensemble}")
    return ep_cfg, build_ensemble(spec, gt, seeds)


def run_row(cfg: ExperimentConfig, spec: RowSpec, gt: OccupancyGrid, out_dir: Path) -> dict:
    """Execute one experiment row and write its outputs. Returns CSV values.

    A row whose metrics and record exist is not re-run when the record
    starts with the header this run would write. Otherwise its old metrics
    and snapshots are deleted and the row runs again.
    """
    row_dir = out_dir / spec.name
    metrics_path = row_dir / "metrics.json"
    record_path = row_dir / "record.jsonl"
    header = _row_header(cfg, spec)
    if metrics_path.exists() and record_path.exists():
        with open(record_path) as fh:
            resumable = fh.readline().rstrip("\n") == _dumps(header)
        if resumable:
            with open(metrics_path) as fh:
                return json.load(fh)

    row_dir.mkdir(parents=True, exist_ok=True)
    metrics_path.unlink(missing_ok=True)
    for old in row_dir.glob("*.pgm"):
        old.unlink()
    ep_cfg, ensemble = _episode_inputs(header, gt)

    t0 = time.monotonic()
    record = run_episode(gt, spec.start, ep_cfg, ensemble)
    wall = time.monotonic() - t0

    with open(record_path, "w") as fh:
        fh.write("\n".join(record_lines(record, header)) + "\n")
    if cfg.snapshots:
        _write_snapshots(row_dir, record)

    footprint = building_footprint(gt)
    steps = [ln for ln in record.lines if ln["type"] == "step"]
    end = record.lines[-1]
    cov_auc = auc([s["coverage"] for s in steps], [s["t"] for s in steps]) if steps else 0.0

    # The maps the IoU series and TU score: each checkpoint's, then the final
    # map when the episode ended after its last checkpoint.
    final_pred = record.final_prediction_mean or record.final_observed
    scored = [(cp.t, cp.mean) for cp in record.checkpoints]
    if not scored or scored[-1][0] != end["t"]:
        scored.append((end["t"], final_pred))
    tu_points = [(t, topological_understanding(pred, gt, spec.start, n_goals=cfg.tu_goals,
                                               seed=spec.seed))
                 for t, pred in scored] if cfg.tu_goals > 0 else []

    result = {
        "map": spec.map_label, "start_x": spec.start.x, "start_y": spec.start.y,
        "scorer": spec.scorer, "seed": spec.seed, "status": "ok",
        "end_reason": end["reason"], "steps": end["t"],
        "final_coverage": end["coverage"], "coverage_auc": cov_auc,
        "final_iou": iou_occupied(final_pred, gt, footprint),
        "iou_auc": auc([iou_occupied(pred, gt, footprint) for _, pred in scored],
                       [t for t, _ in scored]),
        "tu_final": tu_points[-1][1] if tu_points else "",
        "tu_checkpoints": ";".join(f"{t}:{v:.4f}"
                                   for t, v in tu_points[:len(record.checkpoints)]),
        "wall_time_s": round(wall, 3),
    }
    with open(metrics_path, "w") as fh:
        json.dump(result, fh, sort_keys=True, indent=1)
    return result


def _run_row_task(args):
    cfg, spec, gt, out_dir = args
    error_path = Path(out_dir) / spec.name / "error.txt"
    try:
        result = run_row(cfg, spec, gt, Path(out_dir))
    except Exception as exc:  # a failed row must not sink the batch
        error_path.parent.mkdir(parents=True, exist_ok=True)
        error_path.write_text(traceback.format_exc())
        row = dict.fromkeys(CSV_COLUMNS, "")
        row.update(map=spec.map_label, start_x=spec.start.x, start_y=spec.start.y,
                   scorer=spec.scorer, seed=spec.seed, status=f"error: {exc}")
        return row
    error_path.unlink(missing_ok=True)
    return result


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[dict]:
    """Run every (map, start, scorer, seed) combination; returns CSV rows."""
    if cfg.predictor.kind == "patch":
        _corpus_paths(cfg.predictor)  # a short corpus is a config error, not a failed row
    out_dir = Path(cfg.output_dir)

    tasks = []
    for mi, (label, one, gt) in enumerate(materialize_maps(cfg.maps)):
        starts = corner_starts(gt) if cfg.starts == "corners" else cfg.starts
        for si, start in enumerate(starts):
            if not gt.in_bounds(start.x, start.y) or gt.at(start) != 0.0:
                raise ConfigError(f"start {start} is not a free cell of map {label}")
            for scorer in cfg.scorers:
                for seed in cfg.seeds:
                    spec = RowSpec(label, mi, start, si, scorer, seed)
                    tasks.append((replace(cfg, maps=one), spec, gt, str(out_dir)))
    out_dir.mkdir(parents=True, exist_ok=True)  # only once the config is accepted

    workers = min(workers, len(tasks))  # a pool starts all its processes at once
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_row_task, tasks))
    else:
        rows = [_run_row_task(t) for t in tasks]

    with open(out_dir / "results.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return rows


def replay(record_path, out_dir) -> list[Path]:
    """Re-run a recorded episode from its header line, check that the re-run
    reproduces every line of the record, then re-emit its checkpoint
    snapshots. Raises RecordMismatchError naming the first line that differs,
    or when the record has no header this version reads, one made under
    other `RULES`, or one whose values the config dataclasses reject."""
    record_path = Path(record_path)
    # Bytes that are not UTF-8 read as U+FFFD, which no re-run writes.
    lines = record_path.read_text(encoding="utf-8", errors="replace").splitlines()
    header = json.loads(lines[0]) if lines else {}
    if (type(header) is not dict or set(header) != _HEADER_KEYS
            or header["type"] != "header" or type(header["map"]) is not dict
            or set(header["map"]) != {f.name for f in fields(MapSource)}):
        raise RecordMismatchError(f"{record_path}: no header line in this version's format")
    if header["rules"] != RULES:
        raise RecordMismatchError(f"{record_path}: recorded under rules {header['rules']}, "
                                  f"this version runs rules {RULES}")
    [(_, _, gt)] = materialize_maps(_from_header(MapSource, header, "map"))
    start = _typed_from_header(GridPose, header, "start")
    if not gt.in_bounds(start.x, start.y) or gt.at(start) != 0.0:
        raise RecordMismatchError(f"record header start: {start} is not a free map cell")
    ep_cfg, ensemble = _episode_inputs(header, gt)
    record = run_episode(gt, start, ep_cfg, ensemble)
    for n, (old, new) in enumerate(zip_longest(lines, record_lines(record, header)), 1):
        if old != new:
            # Only the re-run's lines are parsed: an old line past its end need not be JSON.
            obj = json.loads(new) if new is not None else {"type": "past the re-run's end"}
            where = f"t={obj['t']}" if "t" in obj else obj["type"]
            raise RecordMismatchError(
                f"{record_path}: line {n} ({where}) differs from the re-run")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _write_snapshots(out_dir, record)


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    rows = run_experiment(cfg, workers=args.workers)
    bad = [r for r in rows if r["status"] != "ok"]
    print(f"{len(rows)} rows, {len(rows) - len(bad)} ok, {len(bad)} failed; "
          f"results in {cfg.output_dir}/results.csv")
    for r in bad:
        print(f"  FAILED {r['map']} start=({r['start_x']},{r['start_y']}) "
              f"{r['scorer']} seed={r['seed']}: {r['status']}")
    return 1 if bad else 0


# generate-maps has one flag per generator field, named after the field.
_GENERATOR_FIELDS = [f for f in fields(MapSource) if f.name not in ("kind", "glob")]


def _cmd_generate_maps(args) -> int:
    try:
        maps = MapSource(kind="generate",
                         **{f.name: getattr(args, f.name) for f in _GENERATOR_FIELDS})
    except ValueError as exc:
        raise ConfigError(f"[maps] {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for label, _, gt in materialize_maps(maps):
        path = out / f"{label}.pgm"
        save_pgm(gt, path)
        print(path)
    return 0


def _cmd_score_map(args) -> int:
    try:
        observed = load_pgm(args.observed)
        if not observed.is_three_label():
            raise ValueError(f"{args.observed}: not a three-label map (free, unknown, occupied)")
        gt = _binarized(load_pgm(args.gt))
        footprint = building_footprint(gt)
        lines = [f"coverage: {coverage_of(observed, footprint):.2f}",
                 f"iou_occupied: {iou_occupied(observed, gt, footprint):.4f}"]
        if args.tu_start:
            tu = topological_understanding(observed, gt, args.tu_start,
                                           n_goals=args.tu_goals, seed=args.tu_seed)
            lines.append(f"topological_understanding: {tu:.4f}")
    except (OSError, ValueError) as exc:  # unreadable maps, mismatched shapes, a bad start
        raise ConfigError(str(exc)) from None
    print("\n".join(lines))
    return 0


def _cell(text: str) -> GridPose:
    try:
        x, y = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected x,y, got {text!r}") from None
    return GridPose(x, y)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cmd_replay(args) -> int:
    try:
        written = replay(args.record, args.out)
    except (RecordMismatchError, ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 1
    for p in written:
        print(p)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="explore",
                                     description="2D exploration experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("config")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="parallel rows (default: 1)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("generate-maps", help="write procedural floor plans")
    p.add_argument("--out", default="maps")
    for f in _GENERATOR_FIELDS:
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    p.set_defaults(func=_cmd_generate_maps)

    p = sub.add_parser("score-map", help="metrics for an observed/ground-truth pair")
    p.add_argument("observed")
    p.add_argument("gt")
    p.add_argument("--tu-start", type=_cell, default=None, help="x,y for plan-success metric")
    p.add_argument("--tu-goals", type=_positive_int, default=ExperimentConfig.tu_goals)
    p.add_argument("--tu-seed", type=int, default=0)
    p.set_defaults(func=_cmd_score_map)

    p = sub.add_parser("replay", help="verify a record log by re-running it, "
                                      "then re-emit its snapshots")
    p.add_argument("record")
    p.add_argument("--out", default="replay")
    p.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"explore: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

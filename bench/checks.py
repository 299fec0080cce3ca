"""Output checks for benchmark rows, and the record digest.

A row passes when its status is "ok", metrics.json and every record line
parse, coverage never decreases along the step lines, each checkpoint
observed map agrees with the ground truth on every known cell and keeps
every cell an earlier checkpoint knew, and each variance map is at most
0.25 everywhere and 0 on the cells known when its prediction was made.
Variance maps are compared to within one PGM grey level, the precision
they are stored at.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from exploresim.grid import UNKNOWN, OccupancyGrid, load_pgm

PGM_LEVEL = 1.0 / 255.0
MAX_VARIANCE = 0.25
_SNAPSHOT = re.compile(r"(obs|var)_t(\d+)\.pgm$")


def record_digest(*record_paths: Path) -> str:
    """sha256 over record.jsonl files, in order, each without its header line,
    which embeds file paths."""
    h = hashlib.sha256()
    for path in record_paths:
        data = Path(path).read_bytes()
        h.update(data[data.index(b"\n") + 1:])
    return h.hexdigest()


def read_record(record_path: Path) -> list[dict]:
    with open(record_path) as fh:
        return [json.loads(line) for line in fh]


def check_record(lines: list[dict], result: dict) -> list[str]:
    """Structural and monotonicity checks on one parsed record."""
    problems = []
    if not lines or lines[0].get("type") != "header":
        problems.append("record does not start with a header line")
    if not lines or lines[-1].get("type") != "end":
        return problems + ["record does not end with an end line"]
    steps = [ln for ln in lines if ln.get("type") == "step"]
    if [s["t"] for s in steps] != list(range(len(steps))):
        problems.append("step lines are not numbered 0, 1, 2, ...")
    cov = [s["coverage"] for s in steps]
    if any(b < a for a, b in zip(cov, cov[1:])):
        problems.append("coverage decreases along the step lines")
    end = lines[-1]
    if steps and end["coverage"] != cov[-1]:
        problems.append("end coverage differs from the last step's")
    if end["t"] != result.get("steps"):
        problems.append(f"end t {end['t']} differs from metrics steps {result.get('steps')}")
    return problems


def check_snapshots(row_dir: Path, lines: list[dict], gt: OccupancyGrid) -> list[str]:
    """Checkpoint observed maps against the ground truth, variance maps against 0.25
    and against the observation their prediction was made from."""
    problems = []
    obs, var = {}, {}
    for path in row_dir.iterdir():
        m = _SNAPSHOT.match(path.name)
        if m:
            (obs if m.group(1) == "obs" else var)[int(m.group(2))] = path
    if not obs:
        return ["no checkpoint snapshots"]

    known_at = {}
    prev_known = None
    for t in sorted(obs):
        cells = load_pgm(obs[t], resolution=gt.resolution).cells
        known = cells != UNKNOWN
        if not np.array_equal(cells[known], gt.cells[known]):
            problems.append(f"obs_t{t:05d} disagrees with the ground truth on a known cell")
        if prev_known is not None and (prev_known & ~known).any():
            problems.append(f"obs_t{t:05d} turns a known cell back to unknown")
        known_at[t] = known
        prev_known = known

    # The snapshot at checkpoint t was taken after step t-1. The variance map
    # there comes from the last replan r <= t-1, so it must be 0 on every cell
    # known at the latest checkpoint taken no later than step r.
    replan_ts = [ln["t"] for ln in lines if ln.get("type") == "replan"]
    for t in sorted(var):
        v = load_pgm(var[t], resolution=gt.resolution, snap_unknown=False).cells
        if v.max() > MAX_VARIANCE + PGM_LEVEL:
            problems.append(f"var_t{t:05d} exceeds {MAX_VARIANCE}")
        replans = [r for r in replan_ts if r <= t - 1]
        if not replans:
            continue
        earlier = [c for c in known_at if c - 1 <= replans[-1]]
        if earlier and v[known_at[max(earlier)]].max(initial=0.0) > PGM_LEVEL:
            problems.append(f"var_t{t:05d} is not 0 on cells known at its prediction")
    return problems


def check_row(result: dict, row_dir: Path, gt: OccupancyGrid) -> tuple[list[str], list[dict]]:
    """Every check on one row; returns (problems, parsed record lines)."""
    if result.get("status") != "ok":
        return [f"status {result.get('status')!r}"], []
    try:
        with open(row_dir / "metrics.json") as fh:
            json.load(fh)
        lines = read_record(row_dir / "record.jsonl")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], []
    return check_record(lines, result) + check_snapshots(row_dir, lines, gt), lines

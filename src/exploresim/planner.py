"""A* local planning on the diagonally-connected grid and the top-level
exploration episode loop.

Planning treats unknown cells as traversable: frontier centroids border
unknown space by definition, so a plan usually has to cross it. Safety
comes from the world model instead — each step is validated against the
ground truth, a blocked move is a no-op that still costs a timestep, and
the waypoint is invalidated as soon as a newly observed wall crosses the
remaining path.

`run_episode` writes the episode's record lines, in file order, as plain
dicts with the keys they have on disk (the record file adds a header line
before them):

    {"type": "replan", "t", "n_clusters", "chosen", "attempts", "scores"}
        a replan at step t; "scores" holds [cx, cy, size, score] per
        frontier cluster in rank order, "chosen" the [x, y] of the first
        reachable centroid (null when none is), "attempts" the A* searches
        it took. It comes before the step line of the same t.
    {"type": "step", "t", "x", "y", "coverage", "replanned", "waypoint"}
        one per executed step t = 0, 1, ...: the pose the robot sensed
        from, the coverage after that scan, and the [x, y] waypoint it
        heads for (null on a step that ends the episode).
    {"type": "end", "reason", "t", "pose", "coverage"}
        the last line: "budget", "complete" (no frontier left) or "stuck"
        (no frontier reachable); t is the number of steps taken, pose the
        final [x, y], coverage that of the last step (0.0 with none).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .frontier import ScoreContext, extract_frontiers, rank_frontiers, score_frontier
from .grid import OCCUPIED, UNKNOWN, GridPose, OccupancyGrid, new_grid
from .infogain import RaycastConfig
from .predict import ensemble_predict
from .world import SensorSpec, apply_action, integrate_scan, simulate_scan

SQRT2 = math.sqrt(2.0)

_NEIGHBORS = (
    (1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
    (1, 1, SQRT2), (1, -1, SQRT2), (-1, 1, SQRT2), (-1, -1, SQRT2),
)


def astar(blocked: np.ndarray, start: GridPose, goal: GridPose) -> list[GridPose] | None:
    """Minimal-cost 8-connected path (unit straight, sqrt(2) diagonal).

    `blocked` is a boolean (height, width) array. A diagonal step with both
    of its orthogonal neighbors blocked is forbidden (no squeezing through
    fully closed corners). Returns None when the goal is unreachable.

    Ties on f break toward larger g, which keeps paths optimal but avoids
    flooding the equal-f ellipse in open space.
    """
    h, w = blocked.shape
    if not (0 <= start.x < w and 0 <= start.y < h):
        raise ValueError(f"start {start} is outside the grid")
    if blocked[start.y, start.x]:
        raise ValueError(f"start {start} is on a blocked cell")
    if not (0 <= goal.x < w and 0 <= goal.y < h):
        raise ValueError(f"goal {goal} is outside the grid")
    if blocked[goal.y, goal.x]:
        return None

    blk = blocked.ravel().tolist()
    gx, gy = goal.x, goal.y
    r2 = SQRT2 - 1.0
    inf = math.inf
    gscore = [inf] * (h * w)
    parent = [-1] * (h * w)
    start_i = start.y * w + start.x
    goal_i = gy * w + gx
    gscore[start_i] = 0.0
    heap = [(0.0, 0.0, 0, start.x, start.y)]  # popped alone: its f is never compared
    seq = 0
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        _, neg_g, _, x, y = pop(heap)
        i = y * w + x
        gxy = gscore[i]
        if -neg_g > gxy + 1e-12:
            continue  # stale entry, a cheaper route was found since the push
        if i == goal_i:
            path = [GridPose(x, y)]
            while i != start_i:
                i = parent[i]
                path.append(GridPose(i % w, i // w))
            path.reverse()
            return path
        for dx, dy, step in _NEIGHBORS:
            nx = x + dx
            ny = y + dy
            if nx < 0 or nx >= w or ny < 0 or ny >= h:
                continue
            ni = ny * w + nx
            if blk[ni]:
                continue
            if dx and dy and blk[y * w + nx] and blk[ny * w + x]:
                continue  # corner fully closed
            ng = gxy + step
            if ng < gscore[ni] - 1e-12:
                gscore[ni] = ng
                parent[ni] = i
                ddx = nx - gx if nx >= gx else gx - nx
                ddy = ny - gy if ny >= gy else gy - ny
                hcost = ddx + r2 * ddy if ddx >= ddy else ddy + r2 * ddx
                seq += 1
                push(heap, (ng + hcost, -ng, seq, nx, ny))
    return None


def waypoint_valid(
    pose: GridPose,
    path: list[GridPose] | None,
    observed: OccupancyGrid,
    *,
    path_index: int = 0,
    age: int = 0,
    max_age: int,
) -> bool:
    """False when the waypoint, the end of `path`, should be replanned.

    Any of: no path; robot within one cell of the waypoint; a newly
    observed wall on the remaining path; the waypoint's frontier dissolved
    (no unknown neighbor left); or the plan is older than `max_age` steps.
    """
    if path is None:
        return False
    waypoint = path[-1]
    if max(abs(pose.x - waypoint.x), abs(pose.y - waypoint.y)) <= 1:
        return False
    if age > max_age:
        return False
    for cell in path[path_index:]:
        if observed.cells[cell.y, cell.x] == OCCUPIED:
            return False
    x0, x1 = max(0, waypoint.x - 1), min(observed.width, waypoint.x + 2)
    y0, y1 = max(0, waypoint.y - 1), min(observed.height, waypoint.y + 2)
    if not (observed.cells[y0:y1, x0:x1] == UNKNOWN).any():
        return False
    return True


@dataclass
class EpisodeConfig:
    """Everything one episode needs; the experiment config supplies the
    defaults. Checkpoints are taken every `checkpoint_every` steps (0: never)."""

    budget_t: int
    scorer: str
    sensor: SensorSpec
    raycast: RaycastConfig
    min_cluster_size: int
    max_waypoint_age: int
    checkpoint_every: int

    def __post_init__(self):
        if self.budget_t < 0:
            raise ValueError(f"budget_t: must be >= 0, got {self.budget_t}")


@dataclass
class Checkpoint:
    t: int
    observed: OccupancyGrid
    mean: OccupancyGrid | None
    variance: OccupancyGrid | None


@dataclass
class EpisodeRecord:
    lines: list[dict]  # replan, step and end lines, in file order
    checkpoints: list[Checkpoint]
    final_observed: OccupancyGrid
    final_prediction_mean: OccupancyGrid | None


def run_episode(
    gt: OccupancyGrid,
    start: GridPose,
    cfg: EpisodeConfig,
    ensemble: list,
) -> EpisodeRecord:
    """Frontier exploration under a fixed timestep budget.

    Per timestep: sense and integrate; if the waypoint is no longer valid,
    predict with the ensemble, extract and score frontiers, pick the best
    reachable one and plan a path; then advance one step. Ends at the
    budget, when no frontiers remain ("complete"), or when none of the
    scored frontiers is reachable ("stuck").
    """
    from .metrics import building_footprint, coverage_of  # local import breaks the module cycle

    if not gt.in_bounds(start.x, start.y) or gt.at(start) != 0.0:
        raise ValueError(f"start {start} must be a free ground-truth cell")

    observed = new_grid(gt.width, gt.height, gt.resolution)
    footprint = building_footprint(gt)

    pose = start
    lines: list[dict] = []
    checkpoints: list[Checkpoint] = []
    path: list[GridPose] | None = None
    path_index = 0
    age = 0
    latest_pset = None
    coverage = 0.0

    for t in range(cfg.budget_t):
        scan = simulate_scan(gt, pose, cfg.sensor)
        integrate_scan(observed, scan)
        coverage = coverage_of(observed, footprint)
        step = {"type": "step", "t": t, "x": pose.x, "y": pose.y, "coverage": coverage,
                "replanned": False, "waypoint": None}

        if not waypoint_valid(
            pose, path, observed,
            path_index=path_index, age=age, max_age=cfg.max_waypoint_age,
        ):
            step["replanned"] = True
            path, path_index, age = None, 0, 0
            clusters = extract_frontiers(observed, cfg.min_cluster_size)
            if not clusters:
                end_reason = "complete"
                lines.append(step)
                break
            latest_pset = ensemble_predict(ensemble, observed)
            ctx = ScoreContext(
                observed=observed, robot_pose=pose,
                raycast=cfg.raycast, prediction_set=latest_pset,
            )
            scores = [score_frontier(c, cfg.scorer, ctx) for c in clusters]
            order = rank_frontiers(clusters, scores, pose)
            blocked = observed.cells == OCCUPIED
            attempts = 0
            for idx in order:
                attempts += 1
                path = astar(blocked, pose, clusters[idx].centroid)
                if path is not None:
                    break
            lines.append({
                "type": "replan", "t": t, "n_clusters": len(clusters),
                "chosen": None if path is None else list(path[-1]),
                "attempts": attempts,
                "scores": [[clusters[i].centroid.x, clusters[i].centroid.y,
                            clusters[i].size, scores[i]] for i in order],
            })
            if path is None:
                end_reason = "stuck"
                lines.append(step)
                break

        step["waypoint"] = list(path[-1])
        lines.append(step)

        if path_index + 1 < len(path):
            nxt = path[path_index + 1]
            pose = apply_action(pose, (nxt.x - pose.x, nxt.y - pose.y), gt)
            if pose == nxt:
                path_index += 1
            # else: blocked by an undiscovered wall; next scan reveals it and
            # waypoint_valid forces a replan
        age += 1

        if cfg.checkpoint_every > 0 and (t + 1) % cfg.checkpoint_every == 0:
            checkpoints.append(Checkpoint(
                t=t + 1,
                observed=observed.copy(),
                mean=latest_pset.mean.copy() if latest_pset else None,
                variance=latest_pset.variance.copy() if latest_pset else None,
            ))
    else:
        t, end_reason = cfg.budget_t, "budget"

    lines.append({"type": "end", "reason": end_reason, "t": t,
                  "pose": list(pose), "coverage": coverage})
    return EpisodeRecord(
        lines=lines,
        checkpoints=checkpoints,
        final_observed=observed,
        final_prediction_mean=latest_pset.mean if latest_pset else None,
    )

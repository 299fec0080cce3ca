"""A* local planning on the diagonally-connected grid, the one-pass
search that scores topological understanding with the same move rule, and
the top-level exploration episode loop.

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
from .grid import FREE, OCCUPIED, UNKNOWN, GridPose, OccupancyGrid, new_grid
from .infogain import RaycastConfig
from .predict import Ensemble, ensemble_predict
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
    flooding the equal-f ellipse in open space. The search runs on the grid
    padded with a blocked border, so a move needs no bounds check.
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

    W = w + 2  # the padded width; padded cell (x + 1, y + 1) is cell (x, y)
    pad = np.ones((h + 2, W), dtype=bool)
    pad[1:-1, 1:-1] = blocked
    blk = pad.tobytes()  # 1 where blocked; far cheaper to build than a list
    # `_NEIGHBORS` in order as flat moves, each with the moves to the two
    # cells of a closed corner; a straight move's are 0, the current cell,
    # which is free.
    moves = [(dy * W + dx, dx, dy, step, *((dx, dy * W) if dx and dy else (0, 0)))
             for dx, dy, step in _NEIGHBORS]
    gx, gy = goal.x, goal.y
    r2 = SQRT2 - 1.0
    inf = math.inf
    gscore = [inf] * len(blk)
    parent = [-1] * len(blk)
    start_i = (start.y + 1) * W + start.x + 1
    goal_i = (gy + 1) * W + gx + 1
    gscore[start_i] = 0.0
    heap = [(0.0, 0.0, 0, start.x, start.y)]  # popped alone: its f is never compared
    seq = 0
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        _, neg_g, _, x, y = pop(heap)
        i = (y + 1) * W + x + 1
        gxy = gscore[i]
        if -neg_g > gxy + 1e-12:
            continue  # stale entry, a cheaper route was found since the push
        if i == goal_i:
            path = [GridPose(x, y)]
            while i != start_i:
                i = parent[i]
                path.append(GridPose(i % W - 1, i // W - 1))
            path.reverse()
            return path
        for d, dx, dy, step, ca, cb in moves:
            ni = i + d
            if blk[ni] or (blk[i + ca] and blk[i + cb]):
                continue  # blocked, or a corner fully closed
            ng = gxy + step
            if ng < gscore[ni] - 1e-12:
                gscore[ni] = ng
                parent[ni] = i
                nx = x + dx
                ny = y + dy
                ddx = nx - gx if nx >= gx else gx - nx
                ddy = ny - gy if ny >= gy else gy - ny
                hcost = ddx + r2 * ddy if ddx >= ddy else ddy + r2 * ddx
                seq += 1
                push(heap, (ng + hcost, -ng, seq, nx, ny))
    return None


def reach_avoiding(
    blocked: np.ndarray, start: GridPose, goals: list[GridPose], avoid: np.ndarray,
) -> list[bool]:
    """For each goal, whether some minimal-cost path from `start` on `blocked`
    reaches it without touching an `avoid` cell.

    One Dijkstra pass with `astar`'s move rule answers every goal, settling
    a band of cells at a time (Dinitz's rule: Delta-stepping with Delta = 1,
    the least move cost). With m the least distance among the open cells,
    every open cell below m + 1 - 1e-9 is final, since a later relaxation
    adds at least 1 to a distance of at least m; those cells form the band.
    Each cell carries a flag: does a minimal-cost path reach it clear of
    `avoid`? A band cell is clear when it is not an avoid cell and some
    settled, clear parent reaches it by a legal move at equal cost, within
    1e-9 (distinct octile costs on these grids differ by more than 1e-4).
    Such a parent is below m, so it was settled in an earlier band; a cell
    tied at m + 1 waits for the next band, after its parents in this one.
    Then all 8 moves of the band are relaxed at once, and the pass stops
    once every goal is settled. An unreachable goal is False.
    """
    h, w = blocked.shape
    if not (0 <= start.x < w and 0 <= start.y < h):
        raise ValueError(f"start {start} is outside the grid")
    if blocked[start.y, start.x]:
        raise ValueError(f"start {start} is on a blocked cell")
    for g in goals:
        if not (0 <= g.x < w and 0 <= g.y < h):
            raise ValueError(f"goal {g} is outside the grid")
    # A blocked border ring replaces the bounds checks; W is the padded width.
    W = w + 2
    pad = np.pad(blocked != 0, 1, constant_values=True)
    blk = pad.ravel()
    bad = np.pad(avoid != 0, 1).ravel()
    # legal[i, k]: is move k of `_NEIGHBORS` from padded cell i legal? Onto a
    # free cell, and a diagonal only past a corner with a free orthogonal cell.
    # A move is legal both ways or neither.
    legal = np.zeros((h + 2, W, 8), dtype=bool)
    for k, (dx, dy, _) in enumerate(_NEIGHBORS):
        ok = ~pad[1 + dy : h + 1 + dy, 1 + dx : w + 1 + dx]
        if dx and dy:
            ok &= ~(pad[1 : h + 1, 1 + dx : w + 1 + dx] & pad[1 + dy : h + 1 + dy, 1 : w + 1])
        legal[1 : h + 1, 1 : w + 1, k] = ok
    legal = legal.reshape(-1, 8)
    goal_idx = np.array([(g.y + 1) * W + g.x + 1 for g in goals], dtype=np.intp)
    pending = goal_idx[~blk[goal_idx]]

    dist = np.full(blk.size, np.inf)
    clear = np.zeros(blk.size, dtype=bool)
    settled = np.zeros(blk.size, dtype=bool)
    stamp = np.empty(blk.size, dtype=np.intp)
    s = (start.y + 1) * W + start.x + 1
    dist[s] = 0.0
    clear[s] = not bad[s]
    move = np.array([dy * W + dx for dx, dy, _ in _NEIGHBORS])
    cost = np.array([c for _, _, c in _NEIGHBORS])
    band = np.array([s])
    nb = band[:, None] + move
    ok = legal[band]
    open_ = band[:0]  # reached cells not yet settled
    while True:
        settled[band] = True
        if settled[pending].all():
            break
        # Relax the band's legal moves into the unsettled cells.
        ok &= ~settled[nb]
        to = nb[ok]
        fresh = to[np.isinf(dist[to])]
        np.minimum.at(dist, to, (dist[band, None] + cost)[ok])
        # Each fresh cell once: the last of its copies keeps its stamp.
        seq = np.arange(len(fresh))
        stamp[fresh] = seq
        open_ = np.concatenate([open_, fresh[stamp[fresh] == seq]])
        if not len(open_):
            break
        d = dist[open_]
        in_band = d < d.min() + 1.0 - 1e-9
        band, open_ = open_[in_band], open_[~in_band]
        # A band cell's parents are its legal neighbors; only a settled cell
        # is clear yet.
        nb = band[:, None] + move
        ok = legal[band]
        tie = np.abs(dist[nb] + cost - dist[band, None]) <= 1e-9
        clear[band] = ~bad[band] & (ok & clear[nb] & tie).any(axis=1)
    return clear[goal_idx].tolist()


def path_cells(path: list[GridPose], width: int) -> np.ndarray:
    """The flat indices `y * width + x` of a path's cells, in path order."""
    return np.array([p.y * width + p.x for p in path], dtype=np.intp)


def waypoint_valid(
    pose: GridPose,
    path: np.ndarray | None,
    observed: OccupancyGrid,
    *,
    age: int,
    max_age: int,
) -> bool:
    """False when the waypoint, the end of `path`, should be replanned.

    `path` is the rest of the plan, from the robot's cell, as `path_cells`
    on the observed map, None when there is none. Any of: no path; robot
    within one cell of the waypoint; a newly observed wall on the path; the
    waypoint's frontier dissolved (no unknown neighbor left); or the plan
    is older than `max_age` steps.
    """
    if path is None:
        return False
    wy, wx = divmod(int(path[-1]), observed.width)
    if max(abs(pose.x - wx), abs(pose.y - wy)) <= 1:
        return False
    if age > max_age:
        return False
    if (observed.cells.take(path) == OCCUPIED).any():
        return False
    x0, x1 = max(0, wx - 1), min(observed.width, wx + 2)
    y0, y1 = max(0, wy - 1), min(observed.height, wy + 2)
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
    mean: OccupancyGrid
    variance: OccupancyGrid


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
    scored frontiers is reachable ("stuck"). The ground truth must be
    binary and `start` one of its free cells.
    """
    from .metrics import building_footprint, coverage_percent  # local: breaks the module cycle

    # The sensor stops at cells above 0.5 and a move needs a FREE cell; only
    # on a binary map do the two agree.
    if not ((gt.cells == FREE) | (gt.cells == OCCUPIED)).all():
        raise ValueError("ground truth must be binary: every cell 0.0 or 1.0")
    if not gt.in_bounds(start.x, start.y) or gt.at(start) != 0.0:
        raise ValueError(f"start {start} must be a free ground-truth cell")

    observed = new_grid(gt.width, gt.height, gt.resolution)
    # Coverage is a running count: the map changes only through
    # `integrate_scan`, which returns the cells it made known.
    footprint = building_footprint(gt).ravel()
    total = int(np.count_nonzero(footprint))
    known = 0

    pose = start
    lines: list[dict] = []
    checkpoints: list[Checkpoint] = []
    path: list[GridPose] | None = None  # the rest of the plan, from the robot's cell
    cells = None  # `path` as `path_cells`
    age = 0
    latest_pset = None
    coverage = 0.0
    kept = Ensemble(ensemble)  # the statistics kept from one replan to the next

    for t in range(cfg.budget_t):
        scan = simulate_scan(gt, pose, cfg.sensor)
        known += int(np.count_nonzero(footprint[integrate_scan(observed, scan)]))
        coverage = coverage_percent(known, total)
        step = {"type": "step", "t": t, "x": pose.x, "y": pose.y, "coverage": coverage,
                "replanned": False, "waypoint": None}

        if not waypoint_valid(pose, cells, observed, age=age, max_age=cfg.max_waypoint_age):
            step["replanned"] = True
            path, cells, age = None, None, 0
            clusters = extract_frontiers(observed, cfg.min_cluster_size)
            if not clusters:
                end_reason = "complete"
                lines.append(step)
                break
            latest_pset = ensemble_predict(kept, observed)
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
                    cells = path_cells(path, observed.width)
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

        if len(path) > 1:
            nxt = path[1]
            pose = apply_action(pose, (nxt.x - pose.x, nxt.y - pose.y), gt)
            if pose == nxt:
                path, cells = path[1:], cells[1:]
            # else: blocked by a wall the observed map lacked. The next scan
            # reveals it; waypoint_valid replans when the wall is on the path,
            # but not at a closed corner (both orthogonal cells walls), where
            # the robot waits until the plan is older than max_waypoint_age.
        age += 1

        if cfg.checkpoint_every > 0 and (t + 1) % cfg.checkpoint_every == 0:
            checkpoints.append(Checkpoint(
                t=t + 1,
                observed=observed.copy(),
                mean=latest_pset.mean,
                variance=latest_pset.variance,
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

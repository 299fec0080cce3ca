"""Evaluation metrics: coverage, occupied-class IoU inside the building
footprint, topological understanding (plan success on the predicted map)
and area-under-curve aggregation.

The building footprint is everything not reachable from the grid border
through ground-truth free space — the walls plus the enclosed interior.
That definition is computable from the ground truth alone and makes
exterior margins in scanned floor plans not count against coverage. The
exterior is the 4-connected free components (`grid.components`) with a run
on the border.

Topological understanding (TU) is the fraction of seeded random goals, free
ground-truth cells inside the footprint, that a plan on the binarized
prediction reaches without touching a ground-truth wall. A goal counts when
some minimal-cost path on the prediction avoids the ground-truth walls, so
the score does not depend on how a search breaks ties between equal-cost
paths.
"""

from __future__ import annotations

import numpy as np

from .grid import UNKNOWN, GridPose, OccupancyGrid, components
from .planner import astar  # noqa: F401  (bench/run.py traces `metrics.astar`)
from .planner import reach_avoiding


def building_footprint(gt: OccupancyGrid) -> np.ndarray:
    """Boolean mask of footprint cells (not exterior-reachable free space)."""
    free = components(gt.cells < 0.25, diagonal=False)
    return ~free.paint(np.isin(free.label, free.label[free.on_border()]))


def coverage_percent(known: int, total: int) -> float:
    """The coverage of `known` of `total` footprint cells, in percent; 100
    for an empty footprint."""
    return 100.0 if total == 0 else 100.0 * known / total


def coverage_of(observed: OccupancyGrid, footprint: np.ndarray) -> float:
    """Percentage of footprint cells known in the observed map."""
    if observed.shape != footprint.shape:
        raise ValueError(f"observed {observed.shape} vs footprint {footprint.shape}")
    known = (observed.cells != UNKNOWN) & footprint
    return coverage_percent(int(np.count_nonzero(known)), int(footprint.sum()))


def iou_occupied(predicted: OccupancyGrid, gt: OccupancyGrid, footprint: np.ndarray) -> float:
    """IoU of the occupied class (binarized at 0.5) within the footprint."""
    if predicted.shape != gt.shape:
        raise ValueError(f"predicted {predicted.shape} vs ground truth {gt.shape}")
    if footprint.shape != gt.shape:
        raise ValueError("footprint mask has wrong dimensions")
    p = (predicted.cells > 0.5) & footprint
    g = (gt.cells > 0.5) & footprint
    union = int(np.count_nonzero(p | g))
    if union == 0:
        return 1.0
    return int(np.count_nonzero(p & g)) / union


def topological_understanding(
    predicted: OccupancyGrid,
    gt: OccupancyGrid,
    start: GridPose,
    *,
    n_goals: int,
    seed: int,
) -> float:
    """Fraction of random in-footprint goals that some minimal-cost plan on
    the predicted map reaches without touching a ground-truth wall.

    Goals are sampled (seeded) from ground-truth free cells inside the
    footprint. A goal succeeds when the binarized prediction (> 0.5 is
    blocked) has a path to it, and one of its minimal-cost paths, under the
    planner's move rule, has no cell occupied in the ground truth. One
    shortest-path pass from the start answers every goal.
    """
    if predicted.shape != gt.shape:
        raise ValueError(f"predicted {predicted.shape} vs ground truth {gt.shape}")
    if n_goals < 1:
        raise ValueError(f"need at least one goal, got {n_goals}")
    if not gt.in_bounds(start.x, start.y) or gt.at(start) > 0.5:
        raise ValueError(f"start {start} must be a free ground-truth cell")
    footprint = building_footprint(gt)
    free = (gt.cells < 0.25) & footprint
    free[start.y, start.x] = False  # goals are destinations, not the start
    candidates = np.argwhere(free)  # (n, 2) rows (y, x)
    if len(candidates) == 0:
        raise ValueError("ground truth has no free goal cells inside the footprint")

    rng = np.random.default_rng(seed)
    picks = rng.choice(len(candidates), size=n_goals, replace=len(candidates) < n_goals)

    blocked = predicted.cells > 0.5
    if blocked[start.y, start.x]:
        return 0.0
    goals = [GridPose(int(x), int(y)) for y, x in candidates[picks]]
    return sum(reach_avoiding(blocked, start, goals, gt.cells > 0.5)) / n_goals


def auc(values, times) -> float:
    """Trapezoidal area under the series, normalized by the time span.

    A constant series integrates to its value; a single-sample series is
    returned as-is.
    """
    values = np.asarray(values, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("series must be a nonempty 1D sequence")
    if times.shape != values.shape:
        raise ValueError("times and values differ in length")
    if len(values) == 1:
        return float(values[0])
    span = times[-1] - times[0]
    if span <= 0:
        raise ValueError("times must be increasing")
    return float(np.trapezoid(values, times) / span)

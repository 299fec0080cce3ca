"""Frontier extraction, clustering, and the frontier scorer family.

A frontier cell is a free cell of the observed map that is 8-adjacent to at
least one unknown cell. Clusters are 8-connected components of frontier
cells, from `grid.components`, numbered in raster order of their first
cells; its runs give each cell and its cluster, with no label image. A
cluster is kept as its size and its centroid, the viewpoint a scorer rates:
the member nearest the coordinate mean (a concave cluster's raw mean can
land inside a wall), found for all clusters by one sort of all the cells.

Every scorer returns its raw gain divided by the robot-to-centroid
Euclidean distance in cells, floored at 1 cell. The scorer kinds:

    mapex         gain = variance summed over the probabilistic-raycast
                  visibility mask on the mean predicted map
    deterministic same mask geometry but cast by occupancy threshold
    no_variance   cell count of the probabilistic mask
    observed_map  cell count of a deterministic mask cast on the observed
                  map itself: unknown (0.5) is not above the 0.5 stop
                  threshold, so only observed walls stop its rays
    no_visibility variance summed within 5 m of the centroid, no raycast
    nearest       1 / distance
    variance_only variance summed within 5 m of the straight robot-to-
                  centroid line (a simplified stand-in for path-variance
                  planners; no visibility reasoning)

The frontier mask dilates the unknown cells by two separable 3-cell ORs
over a zero-padded copy, which is the 3x3 dilation. The variance-only
corridor holds the cells whose Euclidean distance to some line cell,
sqrt(dy*dy + dx*dx) in floats, is at most the radius r: the test a
Euclidean distance transform of the line would apply. Row k away from a
line cell, that cell reaches the cells up to hw[k] columns to either side,
where hw[k] is the widest dx that passes the test. The line's cells move
at most one cell in x per row, so in each grid row the corridor is one
interval, from the least left end to the greatest right end over the line
rows within floor(r) rows of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import FREE, UNKNOWN, GridPose, OccupancyGrid, components
from .infogain import (
    RaycastConfig,
    deterministic_raycast,
    info_gain,
    probabilistic_raycast,
    visibility_mask,
)
from .predict import PredictionSet
from .trace import line_cells

SCORER_KINDS = (
    "mapex",
    "deterministic",
    "no_variance",
    "observed_map",
    "no_visibility",
    "nearest",
    "variance_only",
)

LOCAL_VARIANCE_RADIUS_M = 5.0


@dataclass
class FrontierCluster:
    """One connected frontier component: the viewpoint a scorer rates, and
    the component's cell count."""

    centroid: GridPose
    size: int


@dataclass
class ScoreContext:
    """Everything a scorer may consult: the observed map, the pose, the
    scoring raycast and the ensemble's prediction for this map."""

    observed: OccupancyGrid
    robot_pose: GridPose
    raycast: RaycastConfig
    prediction_set: PredictionSet


def frontier_mask(observed: OccupancyGrid) -> np.ndarray:
    """Boolean mask of frontier cells (free, 8-adjacent to unknown)."""
    h, w = observed.shape
    unknown = np.zeros((h + 2, w + 2), dtype=bool)
    np.equal(observed.cells, UNKNOWN, out=unknown[1:-1, 1:-1])
    across = unknown[:, :-2] | unknown[:, 1:-1]
    across |= unknown[:, 2:]
    near = across[:-2] | across[1:-1]
    near |= across[2:]
    near &= observed.cells == FREE
    return near


def extract_frontiers(observed: OccupancyGrid, min_cluster_size: int) -> list[FrontierCluster]:
    """8-connected frontier clusters of at least `min_cluster_size` cells.

    The map must be a three-label grid; this is not checked here, since an
    episode's map changes only through `world.integrate_scan`.
    """
    clusters = components(frontier_mask(observed), diagonal=True)
    ys, xs, label = clusters.cells()
    count = clusters.count
    sizes = np.bincount(label, minlength=count + 1)
    # Sums of integers are exact, so these are each cluster's xs.mean() and ys.mean().
    n = sizes[label]
    mx = np.bincount(label, xs, count + 1)[label] / n
    my = np.bincount(label, ys, count + 1)[label] / n
    d2 = (xs - mx) ** 2 + (ys - my) ** 2
    # Cluster by cluster, the member nearest the mean first; ties break on (y, x).
    big = sizes[1:] >= min_cluster_size
    first = np.lexsort((xs, ys, d2, label))[np.cumsum(sizes)[:-1][big]]
    return [FrontierCluster(GridPose(x, y), k) for x, y, k in
            zip(xs[first].tolist(), ys[first].tolist(), sizes[1:][big].tolist())]


def _disc_variance_sum(center: GridPose, radius_cells: float, variance: OccupancyGrid,
                       observed: OccupancyGrid) -> float:
    """Variance summed over the unknown observed cells within the radius."""
    x0 = max(0, int(np.floor(center.x - radius_cells)))
    x1 = min(variance.width, int(np.ceil(center.x + radius_cells)) + 1)
    y0 = max(0, int(np.floor(center.y - radius_cells)))
    y1 = min(variance.height, int(np.ceil(center.y + radius_cells)) + 1)
    ys, xs = np.mgrid[y0:y1, x0:x1]
    inside = (xs - center.x) ** 2 + (ys - center.y) ** 2 <= radius_cells**2
    inside &= observed.cells[y0:y1, x0:x1] == UNKNOWN
    return float(variance.cells[y0:y1, x0:x1][inside].sum())


@functools.lru_cache(maxsize=4)
def _half_widths(radius_cells: float) -> np.ndarray:
    """hw[k] for k = 0 .. floor(r), then a last entry for every row beyond,
    whose interval is empty (see the module docstring)."""
    k = np.arange(int(radius_cells) + 1)
    hw = np.count_nonzero(np.sqrt(k[:, None] ** 2 + k**2) <= radius_cells, axis=1) - 1
    hw = np.append(hw, -(2**40))
    hw.flags.writeable = False  # every call with this radius shares it
    return hw


def _line_corridor_variance_sum(a: GridPose, b: GridPose, radius_cells: float,
                                variance: OccupancyGrid) -> float:
    """Variance summed in row-major order over the corridor of the line a -> b
    (see the module docstring)."""
    h, w = variance.shape
    reach = int(radius_cells)
    line = line_cells([a], [b])
    xs, ys = line[:, 0], line[:, 1]
    starts = np.flatnonzero(np.r_[True, ys[1:] != ys[:-1]])  # y is monotone along the line
    rows = ys[starts]
    y0, y1 = max(0, rows.min() - reach), min(h, rows.max() + reach + 1)
    # Row by row, each line row's reach: its cells' x range widened by hw[|dy|].
    half = _half_widths(radius_cells)[np.minimum(np.abs(np.arange(y0, y1)[:, None] - rows),
                                                 reach + 1)]
    lo = (np.minimum.reduceat(xs, starts) - half).min(axis=1)
    hi = (np.maximum.reduceat(xs, starts) + half).max(axis=1)
    x0, x1 = max(0, lo.min()), min(w, hi.max() + 1)
    cols = np.arange(x0, x1)
    inside = (cols >= lo[:, None]) & (cols <= hi[:, None])
    return float(variance.cells[y0:y1, x0:x1][inside].sum())


def score_frontier(cluster: FrontierCluster, kind: str, ctx: ScoreContext) -> float:
    """Kind-specific raw gain divided by the distance to the robot."""
    if kind not in SCORER_KINDS:
        raise ConfigError(f"unknown scorer kind {kind!r}")

    c = cluster.centroid
    dist = float(np.hypot(c.x - ctx.robot_pose.x, c.y - ctx.robot_pose.y))
    dist = max(dist, 1.0)
    radius_cells = LOCAL_VARIANCE_RADIUS_M / ctx.observed.resolution

    if kind == "nearest":
        return 1.0 / dist

    if kind == "no_visibility":
        gain = _disc_variance_sum(c, radius_cells, ctx.prediction_set.variance, ctx.observed)
        return gain / dist

    if kind == "variance_only":
        gain = _line_corridor_variance_sum(
            ctx.robot_pose, c, radius_cells, ctx.prediction_set.variance
        )
        return gain / dist

    if kind == "observed_map":
        endpoints = deterministic_raycast(c, ctx.observed, ctx.raycast)
        mask = visibility_mask(c, endpoints, ctx.observed)
        return len(mask) / dist

    mean = ctx.prediction_set.mean
    if kind == "deterministic":
        endpoints = deterministic_raycast(c, mean, ctx.raycast)
    else:  # mapex, no_variance share the probabilistic mask
        endpoints = probabilistic_raycast(c, mean, ctx.raycast)
    mask = visibility_mask(c, endpoints, ctx.observed)
    if kind == "no_variance":
        return len(mask) / dist
    return info_gain(mask, ctx.prediction_set.variance) / dist


def rank_frontiers(clusters: list[FrontierCluster], scores: list[float],
                   robot_pose: GridPose) -> list[int]:
    """Cluster indices best-first: score desc, then distance asc, then (y, x)."""
    keys = []
    for i, (cl, s) in enumerate(zip(clusters, scores)):
        d = float(np.hypot(cl.centroid.x - robot_pose.x, cl.centroid.y - robot_pose.y))
        keys.append((-s, d, cl.centroid.y, cl.centroid.x, i))
    return [k[-1] for k in sorted(keys)]

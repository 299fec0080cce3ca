"""Frontier extraction, clustering, and the frontier scorer family.

A frontier cell is a free cell of the observed map that is 8-adjacent to at
least one unknown cell. Clusters are 8-connected components of frontier
cells; small clusters are dropped and each survivor is summarized by the
member cell nearest the cluster's coordinate mean (a concave cluster's raw
mean can land inside a wall).

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigError
from .grid import FREE, UNKNOWN, GridPose, OccupancyGrid
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

# Scorers that cannot run without an ensemble prediction.
_NEEDS_PREDICTIONS = {"mapex", "deterministic", "no_variance", "no_visibility", "variance_only"}

LOCAL_VARIANCE_RADIUS_M = 5.0

_EIGHT = np.ones((3, 3), dtype=bool)


@dataclass
class FrontierCluster:
    """One connected frontier component; `cells` is (N, 2) with columns (x, y)."""

    cells: np.ndarray
    centroid: GridPose
    size: int


@dataclass
class ScoreContext:
    """Everything a scorer may consult."""

    observed: OccupancyGrid
    robot_pose: GridPose
    raycast: RaycastConfig
    prediction_set: PredictionSet | None = None


def frontier_mask(observed: OccupancyGrid) -> np.ndarray:
    """Boolean mask of frontier cells (free, 8-adjacent to unknown)."""
    unknown = observed.cells == UNKNOWN
    free = observed.cells == FREE
    return free & ndimage.binary_dilation(unknown, structure=_EIGHT)


def extract_frontiers(observed: OccupancyGrid, min_cluster_size: int) -> list[FrontierCluster]:
    """8-connected frontier clusters of at least `min_cluster_size` cells."""
    if not observed.is_three_label():
        raise ValueError("frontiers are defined on a three-label observed map")
    mask = frontier_mask(observed)
    labels, count = ndimage.label(mask, structure=_EIGHT)
    if count == 0:
        return []
    clusters = []
    for sl, label in zip(ndimage.find_objects(labels), range(1, count + 1)):
        ys, xs = np.nonzero(labels[sl] == label)
        if len(xs) < min_cluster_size:
            continue
        xs = xs + sl[1].start
        ys = ys + sl[0].start
        mx, my = xs.mean(), ys.mean()
        d2 = (xs - mx) ** 2 + (ys - my) ** 2
        # Snap to the member nearest the mean; break ties on (y, x).
        order = np.lexsort((xs, ys, d2))
        best = order[0]
        clusters.append(
            FrontierCluster(
                cells=np.stack([xs, ys], axis=1),
                centroid=GridPose(int(xs[best]), int(ys[best])),
                size=len(xs),
            )
        )
    return clusters


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


def _line_corridor_variance_sum(a: GridPose, b: GridPose, radius_cells: float,
                                variance: OccupancyGrid) -> float:
    line = np.zeros(variance.shape, dtype=bool)
    cells = line_cells([a], [b])
    line[cells[:, 1], cells[:, 0]] = True
    dist = ndimage.distance_transform_edt(~line)
    return float(variance.cells[dist <= radius_cells].sum())


def score_frontier(cluster: FrontierCluster, kind: str, ctx: ScoreContext) -> float:
    """Kind-specific raw gain divided by the distance to the robot."""
    if kind not in SCORER_KINDS:
        raise ConfigError(f"unknown scorer kind {kind!r}")
    if kind in _NEEDS_PREDICTIONS and ctx.prediction_set is None:
        raise ConfigError(f"scorer {kind!r} requires a prediction set")

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

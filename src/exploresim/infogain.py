"""Probabilistic information gain: raycasting over a mean predicted map,
visibility-mask construction by flood fill, and the gain sum over the
variance map.

Both casts walk `trace.ray_cell_table` and end each ray with
`trace.ray_ends`, the sensor's own stop rule; they differ only in the stop
mask. Endpoints and visibility masks are (N, 2) int arrays with columns
(x, y), like `Scan.endpoints`.

A probabilistic ray accumulates the occupancy value of every new cell it
traverses and stops once the running total reaches the threshold epsilon;
a cell of value 1.0 therefore stops any ray with epsilon <= 1, which makes
the probabilistic and deterministic casts coincide on binary maps. The
viewpoint's own cell never contributes to the total, so standing on an
uncertain predicted cell does not self-terminate the cast. A deterministic
ray stops at the first cell above 0.5, so on a three-label observed map
unknown cells (0.5) let it through and only observed walls stop it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grid import UNKNOWN, GridPose, OccupancyGrid
from .trace import gather_values, line_cells, ray_cell_table, ray_ends

# The running total is a float cumsum; comparing against epsilon minus this
# guard keeps cell-count arithmetic exact (eight 0.1 cells must reach 0.8).
THRESHOLD_GUARD = 1e-9


@dataclass(frozen=True)
class RaycastConfig:
    """Scoring raycast: termination threshold, ray count, range in meters."""

    epsilon: float = 0.8
    n_rays: int = 60
    range_lambda: float = 20.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon: must be positive, got {self.epsilon}")
        if self.n_rays < 8:
            raise ValueError(f"n_rays: need at least 8 rays, got {self.n_rays}")
        if self.range_lambda <= 0:
            raise ValueError(f"range_lambda: must be positive, got {self.range_lambda}")


def _cast(viewpoint: GridPose, grid: OccupancyGrid, cfg: RaycastConfig, term_fn) -> np.ndarray:
    if not grid.in_bounds(viewpoint.x, viewpoint.y):
        raise ValueError(f"viewpoint {viewpoint} is outside the grid")
    range_cells = cfg.range_lambda / grid.resolution
    cx, cy, inb, new = ray_cell_table(viewpoint, cfg.n_rays, range_cells, grid.shape)
    values = gather_values(grid.cells, cx, cy)
    not_origin = (cx != viewpoint.x) | (cy != viewpoint.y)
    contributes = inb & new & not_origin
    return ray_ends(cx, cy, inb, term_fn(values, contributes))[2]


def probabilistic_raycast(
    viewpoint: GridPose, mean_map: OccupancyGrid, cfg: RaycastConfig
) -> np.ndarray:
    """(n_rays, 2) endpoints where the accumulated occupancy reaches epsilon,
    or the range/grid limit if it never does."""

    def term(values, contributes):
        acc = np.cumsum(np.where(contributes, values, 0.0), axis=1)
        return acc >= cfg.epsilon - THRESHOLD_GUARD

    return _cast(viewpoint, mean_map, cfg, term)


def deterministic_raycast(
    viewpoint: GridPose, grid: OccupancyGrid, cfg: RaycastConfig
) -> np.ndarray:
    """(n_rays, 2) endpoints at the first cell above 0.5, or the range/grid
    limit."""

    def term(values, contributes):
        return contributes & (values > 0.5)

    return _cast(viewpoint, grid, cfg, term)


def visibility_mask(
    viewpoint: GridPose, endpoints: np.ndarray, observed: OccupancyGrid
) -> np.ndarray:
    """Unknown cells inside the endpoint polygon, reachable from the viewpoint,
    as an (N, 2) int array with columns (x, y).

    The closed polyline joining consecutive endpoints is rasterized as an
    8-connected barrier; a 4-connected flood from the viewpoint collects the
    enclosed region; known observed cells are then removed. The mask is
    empty when the viewpoint lies on its own boundary polygon.
    """
    empty = np.empty((0, 2), dtype=np.int64)
    if len(endpoints) == 0:
        return empty

    ex, ey = endpoints[:, 0], endpoints[:, 1]
    x0 = int(min(ex.min(), viewpoint.x))
    y0 = int(min(ey.min(), viewpoint.y))
    x1 = int(max(ex.max(), viewpoint.x)) + 1
    y1 = int(max(ey.max(), viewpoint.y)) + 1

    barrier = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    # Segments run i -> i+1 (closing back to 0): the line is not symmetric,
    # so the direction decides which cells form the barrier.
    cells = line_cells(endpoints, np.roll(endpoints, -1, axis=0))
    barrier[cells[:, 1] - y0, cells[:, 0] - x0] = True

    vy, vx = viewpoint.y - y0, viewpoint.x - x0
    if barrier[vy, vx]:
        return empty

    labels, _ = ndimage.label(~barrier)  # 4-connected by default
    region = labels == labels[vy, vx]

    ys, xs = np.nonzero(region)
    xs = xs + x0
    ys = ys + y0

    # Clip to sensor range and drop already-known cells.
    range_cells = np.hypot(xs - viewpoint.x, ys - viewpoint.y)
    max_range = np.hypot(ex - viewpoint.x, ey - viewpoint.y).max()
    keep = (range_cells <= max_range) & (observed.cells[ys, xs] == UNKNOWN)
    return np.stack([xs[keep], ys[keep]], axis=1)


def info_gain(mask: np.ndarray, variance_map: OccupancyGrid) -> float:
    """Sum of variance-map values over the (N, 2) mask cells."""
    if len(mask) == 0:
        return 0.0
    xs, ys = mask[:, 0], mask[:, 1]
    if xs.max() >= variance_map.width or ys.max() >= variance_map.height:
        raise ValueError("mask does not fit the variance map dimensions")
    return float(variance_map.cells[ys, xs].sum())

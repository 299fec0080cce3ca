"""Probabilistic information gain: raycasting over a mean predicted map,
visibility-mask construction by flood fill, and the gain sum over the
variance map.

A probabilistic ray accumulates the occupancy value of every new cell it
traverses and stops once the running total reaches the threshold epsilon;
a cell of value 1.0 therefore stops any ray with epsilon <= 1, which makes
the probabilistic and deterministic casts coincide on binary maps. The
viewpoint's own cell never contributes to the total, so standing on an
uncertain predicted cell does not self-terminate the cast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grid import UNKNOWN, GridPose, OccupancyGrid
from .trace import bresenham_line, first_true_index, gather_values, ray_cell_table

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
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.n_rays < 8:
            raise ValueError(f"need at least 8 rays, got {self.n_rays}")
        if self.range_lambda <= 0:
            raise ValueError(f"range must be positive, got {self.range_lambda}")


@dataclass
class VisibilityMask:
    """Unknown cells estimated visible from a viewpoint.

    `cells` is an (N, 2) int array with columns (x, y). `degenerate` is set
    when the viewpoint fell on its own boundary polygon and no region could
    be filled.
    """

    cells: np.ndarray
    degenerate: bool = False

    def __len__(self) -> int:
        return len(self.cells)


def _cast(viewpoint: GridPose, grid: OccupancyGrid, cfg: RaycastConfig, term_fn):
    if not grid.in_bounds(viewpoint.x, viewpoint.y):
        raise ValueError(f"viewpoint {viewpoint} is outside the grid")
    range_cells = cfg.range_lambda / grid.resolution
    cx, cy, inb, new = ray_cell_table(viewpoint, cfg.n_rays, range_cells, grid.shape)
    values = gather_values(grid.cells, cx, cy)
    not_origin = (cx != viewpoint.x) | (cy != viewpoint.y)
    contributes = inb & new & not_origin
    term = term_fn(values, contributes)
    idx, has = first_true_index(term)
    last = inb.sum(axis=1) - 1
    end = np.where(has, idx, last)
    rows = np.arange(cfg.n_rays)
    return [GridPose(int(x), int(y)) for x, y in zip(cx[rows, end], cy[rows, end])]


def probabilistic_raycast(
    viewpoint: GridPose, mean_map: OccupancyGrid, cfg: RaycastConfig
) -> list[GridPose]:
    """Per-ray endpoints where the accumulated occupancy reaches epsilon,
    or the range/grid limit if it never does."""

    def term(values, contributes):
        acc = np.cumsum(np.where(contributes, values, 0.0), axis=1)
        return acc >= cfg.epsilon - THRESHOLD_GUARD

    return _cast(viewpoint, mean_map, cfg, term)


def deterministic_raycast(
    viewpoint: GridPose,
    grid: OccupancyGrid,
    cfg: RaycastConfig,
    occupied_threshold: float = 0.5,
) -> list[GridPose]:
    """Per-ray endpoints at the first cell above the occupancy threshold."""

    def term(values, contributes):
        return contributes & (values > occupied_threshold)

    return _cast(viewpoint, grid, cfg, term)


def visibility_mask(
    viewpoint: GridPose, endpoints: list[GridPose], observed: OccupancyGrid
) -> VisibilityMask:
    """Unknown cells inside the endpoint polygon, reachable from the viewpoint.

    The closed polyline joining consecutive endpoints is rasterized as an
    8-connected barrier; a 4-connected flood from the viewpoint collects the
    enclosed region; known observed cells are then removed.
    """
    if not endpoints:
        return VisibilityMask(np.empty((0, 2), dtype=np.int64), degenerate=True)

    ex = np.array([p.x for p in endpoints])
    ey = np.array([p.y for p in endpoints])
    x0 = int(min(ex.min(), viewpoint.x))
    y0 = int(min(ey.min(), viewpoint.y))
    x1 = int(max(ex.max(), viewpoint.x)) + 1
    y1 = int(max(ey.max(), viewpoint.y)) + 1

    barrier = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    n = len(endpoints)
    for i in range(n):
        for cell in bresenham_line(endpoints[i], endpoints[(i + 1) % n]):
            barrier[cell.y - y0, cell.x - x0] = True

    vy, vx = viewpoint.y - y0, viewpoint.x - x0
    if barrier[vy, vx]:
        return VisibilityMask(np.empty((0, 2), dtype=np.int64), degenerate=True)

    labels, _ = ndimage.label(~barrier)  # 4-connected by default
    region = labels == labels[vy, vx]

    ys, xs = np.nonzero(region)
    xs = xs + x0
    ys = ys + y0

    # Clip to sensor range and drop already-known cells.
    range_cells = np.hypot(xs - viewpoint.x, ys - viewpoint.y)
    max_range = np.hypot(ex - viewpoint.x, ey - viewpoint.y).max()
    keep = (range_cells <= max_range) & (observed.cells[ys, xs] == UNKNOWN)
    return VisibilityMask(np.stack([xs[keep], ys[keep]], axis=1))


def info_gain(mask: VisibilityMask, variance_map: OccupancyGrid) -> float:
    """Sum of variance-map values over the mask cells."""
    if len(mask) == 0:
        return 0.0
    xs, ys = mask.cells[:, 0], mask.cells[:, 1]
    if xs.max() >= variance_map.width or ys.max() >= variance_map.height:
        raise ValueError("mask does not fit the variance map dimensions")
    return float(variance_map.cells[ys, xs].sum())

"""Probabilistic information gain: raycasting over a mean predicted map,
visibility-mask construction by flood fill, and the gain sum over the
variance map.

A cast is one gather: `trace.ray_cell_table` gives its rays' cells as flat
grid indices and their in-bounds prefix lengths, `trace.gather_values`
reads the map there, and `trace.end_columns`, the sensor's stop rule, ends
each ray at the first cell its stop test flags. The casts differ only in
that test. A default cast's 60 x 258 cells fit the first block of a walk,
so reading past where the rays end costs nothing a walk would save.
Endpoints are (N, 2) int arrays with columns (x, y), like `Scan.endpoints`.
A visibility mask is a `BoxMask`: the box of the grid the flood filled, as
a pair of slices, and a boolean `keep` over that box; its `len()` is the
number of cells it keeps.

A probabilistic ray accumulates the occupancy value of each cell it
traverses, once per cell, as one cumsum along its row, and stops once the
running total reaches the threshold epsilon; a cell of value 1.0 therefore
stops any ray with epsilon <= 1, which makes the probabilistic and
deterministic casts coincide on binary maps. The viewpoint's own cell
never contributes to the total, so standing on an uncertain predicted cell
does not self-terminate the cast. A deterministic ray stops at the first
cell above 0.5, so on a three-label observed map unknown cells (0.5) let it
through and only observed walls stop it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grid import UNKNOWN, GridPose, OccupancyGrid
from .trace import cells_xy, end_columns, gather_values, line_cells, ray_cell_table

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
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon: must be finite and positive, got {self.epsilon}")
        if self.n_rays < 8:
            raise ValueError(f"n_rays: need at least 8 rays, got {self.n_rays}")
        if not (math.isfinite(self.range_lambda) and self.range_lambda > 0):
            raise ValueError(f"range_lambda: must be finite and positive, got {self.range_lambda}")


def _cast(viewpoint: GridPose, grid: OccupancyGrid, cfg: RaycastConfig, stop_fn) -> np.ndarray:
    """The (n_rays, 2) endpoints of the rays from `viewpoint`, each ending at
    its first cell that `stop_fn(values)` flags, else at its range or grid
    limit."""
    if not grid.in_bounds(viewpoint.x, viewpoint.y):
        raise ValueError(f"viewpoint {viewpoint} is outside the grid")
    idx, length = ray_cell_table(viewpoint, cfg.n_rays, cfg.range_lambda / grid.resolution,
                                 grid.shape)
    values = gather_values(grid.cells, idx)
    values[:, 0] = 0.0  # column 0 is the viewpoint's own cell
    col, _ = end_columns(stop_fn(values), length)
    return cells_xy(idx[np.arange(len(idx)), col], grid.width)


def probabilistic_raycast(
    viewpoint: GridPose, mean_map: OccupancyGrid, cfg: RaycastConfig
) -> np.ndarray:
    """(n_rays, 2) endpoints where the accumulated occupancy reaches epsilon,
    or the range/grid limit if it never does."""
    return _cast(viewpoint, mean_map, cfg,
                 lambda values: np.cumsum(values, axis=1) >= cfg.epsilon - THRESHOLD_GUARD)


def deterministic_raycast(
    viewpoint: GridPose, grid: OccupancyGrid, cfg: RaycastConfig
) -> np.ndarray:
    """(n_rays, 2) endpoints at the first cell above 0.5, or the range/grid
    limit."""
    return _cast(viewpoint, grid, cfg, lambda values: values > 0.5)


@dataclass(frozen=True, eq=False)
class BoxMask:
    """Grid cells as a boolean `keep` over the box `grid[box]`; `len()` is
    the number of cells kept."""

    box: tuple[slice, slice]
    keep: np.ndarray

    def __len__(self) -> int:
        return int(np.count_nonzero(self.keep))


_EMPTY = BoxMask(np.s_[0:0, 0:0], np.zeros((0, 0), dtype=bool))


def visibility_mask(
    viewpoint: GridPose, endpoints: np.ndarray, observed: OccupancyGrid
) -> BoxMask:
    """Unknown cells inside the endpoint polygon, reachable from the viewpoint,
    as a `BoxMask` over the box of the endpoints and the viewpoint;
    `info_gain` sums the variance in row-major order (by y, then x).

    The closed polyline joining consecutive endpoints is rasterized as an
    8-connected barrier; a 4-connected flood from the viewpoint collects the
    enclosed region. A region cell is kept when it is unknown in the
    observed map and within range: its squared integer distance to the
    viewpoint, dx*dx + dy*dy, is at most that of the farthest endpoint. The
    mask is empty when the viewpoint lies on its own boundary polygon.
    """
    ex, ey = endpoints[:, 0], endpoints[:, 1]
    x0 = int(min(ex.min(), viewpoint.x))
    y0 = int(min(ey.min(), viewpoint.y))
    x1 = int(max(ex.max(), viewpoint.x)) + 1
    y1 = int(max(ey.max(), viewpoint.y)) + 1

    barrier = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    # Segments run i -> i+1 (closing back to 0): the line is not symmetric,
    # so the direction decides which cells form the barrier.
    cells = line_cells(endpoints, np.concatenate((endpoints[1:], endpoints[:1])))
    barrier[cells[:, 1] - y0, cells[:, 0] - x0] = True

    vy, vx = viewpoint.y - y0, viewpoint.x - x0
    if barrier[vy, vx]:
        return _EMPTY

    labels, _ = ndimage.label(~barrier)  # 4-connected by default
    keep = labels == labels[vy, vx]
    keep &= observed.cells[y0:y1, x0:x1] == UNKNOWN
    # Range clip in exact integer arithmetic: squared distances, no sqrt.
    dy = np.arange(y0, y1) - viewpoint.y
    dx = np.arange(x0, x1) - viewpoint.x
    reach = ((ex - viewpoint.x) ** 2 + (ey - viewpoint.y) ** 2).max()
    keep &= dy[:, None] ** 2 + dx**2 <= reach
    return BoxMask(np.s_[y0:y1, x0:x1], keep)


def info_gain(mask: BoxMask, variance_map: OccupancyGrid) -> float:
    """Sum of variance-map values over the mask's cells, in row-major order."""
    rows, cols = mask.box
    if rows.stop > variance_map.height or cols.stop > variance_map.width:
        raise ValueError("mask does not fit the variance map dimensions")
    return float(variance_map.cells[mask.box][mask.keep].sum())

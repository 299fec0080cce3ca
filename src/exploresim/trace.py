"""Ray and line traversal kernels shared by the sensor and the scoring raycasts.

There are two kernels: the ray table, which the sensor and both scoring
casts walk, and `line_cells`, which rasterizes straight segments for the
visibility-mask polygon and the variance corridor.

`ray_ends` is the one rule for where a ray stops: at its first in-bounds
sample flagged by the caller's stop mask, else at its last in-bounds sample.
The sensor flags occupied ground-truth cells, the scoring casts flag the
sample where their termination test first holds.

Rays are walked by sampling points every quarter cell along the ray
direction, starting at the origin cell's center. A sample at distance d
along direction (dx, dy) lands in the cell

    (origin.x + floor(0.5 + d*dx), origin.y + floor(0.5 + d*dy))

so the visited-cell pattern is identical from every origin cell and can be
precomputed per (ray count, range) as integer offset tables. The step of
0.25 is a power of two, so the sample distances k*STEP are exact in float64
and the walk is bit-reproducible. Consecutive duplicate cells are flagged
via a "new cell" mask so per-cell accumulation counts each traversed cell
once per ray.

A segment from a to b has max(|dx|, |dy|) + 1 cells; the i-th moves each
axis i * |d| / max(|dx|, |dy|) cells towards b, rounded half down. These
are the cells of Bresenham's walk from a to b: 8-connected without diagonal
gaps, so a barrier to a 4-connected flood fill, and not always the cells of
the walk from b to a.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import GridPose

STEP = 0.25  # sample spacing along a ray, in cells

# Absorbs division noise in range/STEP so an integral number of cells of
# range yields the full sample count.
_COUNT_GUARD = 1e-9


@lru_cache(maxsize=8)
def ray_offset_table(n_rays: int, range_cells: float):
    """Cached per-sample cell offsets (offx, offy, newcell), each
    (n_rays, n_samples). Sample 0 is the origin cell (offset 0, 0)."""
    angles = np.arange(n_rays, dtype=np.float64) * (2.0 * np.pi / n_rays)
    n_samples = int(np.floor(range_cells / STEP + _COUNT_GUARD)) + 1
    dist = np.arange(n_samples, dtype=np.float64) * STEP
    offx = np.floor(0.5 + np.cos(angles)[:, None] * dist).astype(np.int32)
    offy = np.floor(0.5 + np.sin(angles)[:, None] * dist).astype(np.int32)
    new = np.ones(offx.shape, dtype=bool)
    new[:, 1:] = (offx[:, 1:] != offx[:, :-1]) | (offy[:, 1:] != offy[:, :-1])
    return offx, offy, new


def ray_cell_table(origin: GridPose, n_rays: int, range_cells: float, shape):
    """Sampled cells for all rays from the center of `origin`.

    Returns (cx, cy, inbounds, newcell), each of shape (n_rays, n_samples).
    `inbounds` is a prefix mask per ray (a ray never re-enters the grid),
    `newcell` marks samples that land in a different cell than the previous
    sample.
    """
    h, w = shape
    offx, offy, new = ray_offset_table(n_rays, float(range_cells))
    cx = origin.x + offx
    cy = origin.y + offy
    inb = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
    np.logical_and.accumulate(inb, axis=1, out=inb)
    return cx, cy, inb, new


def gather_values(cells: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """cells[cy, cx] with out-of-bounds indices clamped (mask them yourself)."""
    flat = cy.astype(np.int64) * cells.shape[1] + cx
    np.clip(flat, 0, cells.size - 1, out=flat)
    return cells.ravel()[flat]


def ray_ends(cx: np.ndarray, cy: np.ndarray, inb: np.ndarray, stop: np.ndarray):
    """Where each ray of a `ray_cell_table` ends.

    A ray ends at its first in-bounds sample where `stop` is true, else at
    its last in-bounds sample. Returns (end_idx, stopped, endpoints): the
    end sample index and whether `stop` ended the ray, both (n_rays,), and
    the end cells as an (n_rays, 2) int array with columns (x, y).
    """
    stop = stop & inb
    stopped = stop.any(axis=1)
    end_idx = np.where(stopped, np.argmax(stop, axis=1), inb.sum(axis=1) - 1)
    rows = np.arange(len(end_idx))
    return end_idx, stopped, np.stack([cx[rows, end_idx], cy[rows, end_idx]], axis=1)


def line_cells(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cells of the segments a[k] -> b[k], concatenated in segment order.

    `a` and `b` are (n, 2) integer arrays with columns (x, y); the result is
    an (N, 2) int array. Each segment includes both of its ends, so a
    zero-length segment gives its one cell.
    """
    a = np.asarray(a, dtype=np.int64)
    d = np.asarray(b, dtype=np.int64) - a
    steps = np.abs(d)
    major = steps.max(axis=1)
    n = major + 1
    seg = np.repeat(np.arange(len(a)), n)
    i = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    # A divisor floored at 1 keeps a zero-length segment at offset 0.
    m = np.maximum(major, 1)[seg, None]
    offsets = (2 * i[:, None] * steps[seg] + m - 1) // (2 * m)
    return a[seg] + np.sign(d[seg]) * offsets

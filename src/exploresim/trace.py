"""Ray and line traversal kernels shared by the sensor and the scoring raycasts.

There are two kernels: the ray table, which the sensor and both scoring
casts walk, and `line_cells`, which rasterizes straight segments for the
visibility-mask polygon and the variance corridor.

`walk_rays` is the one walker of the ray table: the sensor and both scoring
casts call it with a per-block function that reads the map and ends the
block's rays by `end_columns`, the one rule for where a ray stops: at its
first in-bounds cell flagged by the caller's stop mask, else at its last
in-bounds cell. The sensor flags occupied ground-truth cells, the scoring
casts the cell where their termination test first holds.

Rays are walked by sampling points every quarter cell along the ray
direction, starting at the origin cell's center. A sample at distance d
along direction (dx, dy) lands in the cell

    (origin.x + floor(0.5 + d*dx), origin.y + floor(0.5 + d*dy))

so the visited-cell pattern is identical from every origin cell and can be
precomputed per (ray count, range). The step of 0.25 is a power of two, so
the sample distances k*STEP are exact in float64 and the walk is
bit-reproducible. Both offsets are monotone in d, so a ray never re-enters
a cell it has left.

`ray_table` caches, per (ray count, range, grid width), each ray's distinct
cells in walk order as flat offsets `offy * width + offx` (column 0 is the
origin cell, shorter rays are padded with 0), and two exit tables:
`tx[ray, k]` is the number of the ray's leading cells with |offx| <= k, and
`ty` the same for |offy|. A ray heading to +x leaves a grid of width w
after its leading cells with offx <= w-1-x; one heading to -x after those
with |offx| <= x. Since the offsets are monotone, the in-bounds prefix of
a ray from a pose is the smaller of its two exit-table entries at the
pose's distances to the edges it heads for, clipped to the range; the
padding, which lies past the ray's last cell, is never inside it.
`prefix_lengths` is the one exit-table rule.

A column past a ray's prefix holds an index that lies off the grid or
wraps onto another row. Its value is never used, and `gather_values`
clamps the indices so that the read stays legal. `walk_rays` reads the
table in column blocks of the rays still live, so a read stops near where
its rays end. `ray_cell_table` reads the whole table in one block; it is
the reference the walk is tested against.

Neighbouring rays start through the same cells: of the 2,500 rays of the
default sensor, only 604 differ in their first 13 cells. A block's result
for a ray depends only on the ray's cells in it and its prefix there, and
rays whose cells are the same 2-D offsets have the same prefix from every
origin. So `walk_rays` reads the first block once per `_first_block_groups`
group and copies the result to the group's other rays. Later blocks read
every live ray.

A segment from a to b has max(|dx|, |dy|) + 1 cells; the i-th moves each
axis i * |d| / max(|dx|, |dy|) cells towards b, rounded half down. These
are the cells of Bresenham's walk from a to b: 8-connected without diagonal
gaps, so a barrier to a 4-connected flood fill, and not always the cells of
the walk from b to a.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import GridPose

STEP = 0.25  # sample spacing along a ray, in cells

# Absorbs division noise in range/STEP so an integral number of cells of
# range yields the full sample count.
_COUNT_GUARD = 1e-9

_BLOCK = 256  # rays per block of the table build; bounds its float temporaries

# Size the first block of a `walk_rays` walk; see its docstring.
_FIRST_BLOCK_CELLS = 2**15
_FIRST_BLOCK_MIN_COLS = 8


class RayTable(NamedTuple):
    """Per-ray flat cell offsets and exit tables; see the module docstring."""

    flat: np.ndarray  # (n_rays, n_cols) intp
    tx: np.ndarray  # (n_rays, R + 1) int16
    ty: np.ndarray  # (n_rays, R + 1) int16
    east: np.ndarray  # (n_rays,) bool: offx never falls below 0
    south: np.ndarray  # (n_rays,) bool: offy never falls below 0


def _exit_table(off: np.ndarray, valid: np.ndarray, reach: int) -> np.ndarray:
    """(rays, reach + 1): per ray, the number of valid cells with |off| <= k."""
    rows = np.arange(len(off))[:, None] * (reach + 1)
    hist = np.bincount((rows + np.abs(off))[valid], minlength=len(off) * (reach + 1))
    return hist.reshape(len(off), reach + 1).cumsum(axis=1).astype(np.int16)


@lru_cache(maxsize=8)
def ray_table(n_rays: int, range_cells: float, width: int) -> RayTable:
    """The cached `RayTable` of `n_rays` rays of `range_cells` cells on grids
    `width` cells wide. Built `_BLOCK` rays at a time; the arrays are
    read-only."""
    angles = np.arange(n_rays, dtype=np.float64) * (2.0 * np.pi / n_rays)
    n_samples = int(np.floor(range_cells / STEP + _COUNT_GUARD)) + 1
    dist = np.arange(n_samples, dtype=np.float64) * STEP
    reach = int(np.floor(0.5 + dist[-1]))  # no offset is larger
    tx = np.empty((n_rays, reach + 1), dtype=np.int16)
    ty = np.empty_like(tx)
    east = np.empty(n_rays, dtype=bool)
    south = np.empty_like(east)
    blocks = []
    for lo in range(0, n_rays, _BLOCK):
        hi = min(lo + _BLOCK, n_rays)
        sx = np.floor(0.5 + np.cos(angles[lo:hi])[:, None] * dist).astype(np.int32)
        sy = np.floor(0.5 + np.sin(angles[lo:hi])[:, None] * dist).astype(np.int32)
        moved = (sx[:, 1:] != sx[:, :-1]) | (sy[:, 1:] != sy[:, :-1])
        col = np.zeros(sx.shape, dtype=np.int32)  # the column of each sample's cell
        np.cumsum(moved, axis=1, dtype=np.int32, out=col[:, 1:])
        count = col[:, -1] + 1
        rows = np.arange(hi - lo)[:, None]
        offx = np.zeros((hi - lo, count.max()), dtype=np.int32)
        offy = np.zeros_like(offx)
        # The samples of one cell write the same offsets to the same column.
        offx[rows, col] = sx
        offy[rows, col] = sy
        valid = np.arange(offx.shape[1]) < count[:, None]
        tx[lo:hi] = _exit_table(offx, valid, reach)
        ty[lo:hi] = _exit_table(offy, valid, reach)
        east[lo:hi] = offx.min(axis=1) >= 0
        south[lo:hi] = offy.min(axis=1) >= 0
        blocks.append(offy * width + offx)
    flat = np.zeros((n_rays, max(b.shape[1] for b in blocks)), dtype=np.intp)
    for lo, b in zip(range(0, n_rays, _BLOCK), blocks):
        flat[lo : lo + len(b), : b.shape[1]] = b
    table = RayTable(flat, tx, ty, east, south)
    for a in table:
        a.flags.writeable = False
    return table


def prefix_lengths(t: RayTable, origin: GridPose, shape) -> np.ndarray:
    """Each ray's in-bounds prefix length (n_rays,) from the center of
    `origin` on a grid of `shape`, read from the exit tables of `t`."""
    h, w = shape
    reach = t.tx.shape[1] - 1
    x, y = origin.x, origin.y
    xe, xw = min(w - 1 - x, reach), min(x, reach)
    ys, yn = min(h - 1 - y, reach), min(y, reach)
    return np.minimum(np.where(t.east, t.tx[:, xe], t.tx[:, xw]),
                      np.where(t.south, t.ty[:, ys], t.ty[:, yn]))


def ray_cell_table(origin: GridPose, n_rays: int, range_cells: float, shape):
    """The cells of all rays from the center of `origin`, in walk order.

    Returns (idx, length): `idx` is (n_rays, n_cols) flat indices into a
    grid of `shape`, column 0 being the origin cell, and `length` is each
    ray's in-bounds prefix length (n_rays,); `n_cols` is the longest.
    """
    w = shape[1]
    t = ray_table(n_rays, float(range_cells), w)
    length = prefix_lengths(t, origin, shape)
    return origin.y * w + origin.x + t.flat[:, : length.max()], length


def gather_values(cells: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """cells.flat[idx] with out-of-bounds indices clamped (mask them yourself)."""
    return cells.ravel().take(idx, mode="clip")


def end_columns(stop: np.ndarray, length: np.ndarray):
    """The one rule for where a ray ends, over rows of ray cells.

    Row i ends at its first column below `length[i]` where `stop` is true,
    else at column `length[i] - 1`. Returns (end column, stopped), both
    (n_rows,).
    """
    # The first stop cell of the whole row ends the ray if it lies in the
    # prefix; a row without one has argmax 0 and stop[0] false.
    first = np.argmax(stop, axis=1)
    stopped = stop[np.arange(len(length)), first] & (first < length)
    return np.where(stopped, first, length - 1), stopped


@lru_cache(maxsize=8)
def _first_block_groups(n_rays: int, range_cells: float, width: int, cols: int):
    """The rays of `ray_table(n_rays, range_cells, width)` grouped by their
    first `cols` cells, as 2-D offsets: (rep, row, first), where `rep`
    holds the first ray of each group in ray order, `row[i]` the group of
    ray i, and `first` the rows `rep` of the table's first `cols` columns.
    When every prefix is distinct, `rep` and `row` are both arange(n_rays).

    The offsets come from the exit tables: cell j of a ray has |offx| equal
    to the number of k with tx[ray, k] <= j, and the sign of `east`; the
    same for y. Flat offsets would not do: on a grid narrower than 2 * cols
    - 1 cells, two different cells can share one.
    """
    t = ray_table(n_rays, range_cells, width)
    c = min(cols, t.flat.shape[1])
    keys = np.empty((n_rays, 2, c), dtype=np.int32)
    rows = np.arange(n_rays)[:, None] * (c + 1)
    for i, (table, positive) in enumerate(((t.tx, t.east), (t.ty, t.south))):
        # A column past the ray's last cell counts every entry, min(c, reach + 1).
        v = np.minimum(table[:, :c], c)
        hist = np.bincount((rows + v).ravel(), minlength=n_rays * (c + 1))
        np.cumsum(hist.reshape(n_rays, c + 1)[:, :c], axis=1, out=keys[:, i])
        keys[~positive, i] *= -1
    _, rep, row = np.unique(keys.reshape(n_rays, 2 * c), axis=0, return_index=True,
                            return_inverse=True)
    order = np.argsort(rep)  # groups in the order of their first rays
    rep, row = rep[order], np.argsort(order)[row.ravel()]
    # With every prefix distinct, `rep` is arange(n_rays) and a view will do.
    first = t.flat[rep, :c] if len(rep) < n_rays else t.flat[:, :c]
    for a in (rep, row, first):
        a.flags.writeable = False
    return rep, row, first


def walk_rays(n_rays: int, range_cells: float, origin: GridPose, shape, block, carry=None):
    """Walk the rays of `ray_table(n_rays, range_cells, width)` from the
    center of `origin` on a grid of `shape` in column blocks of the rays
    still live. Returns (end column, stopped, endpoints): per ray, the
    endpoints as an (n_rays, 2) int array of (x, y).

    The first block is max(_FIRST_BLOCK_MIN_COLS, _FIRST_BLOCK_CELLS //
    n_rays) columns of every ray, each later one twice as wide; a ray leaves
    the walk in the block where it stops or its in-bounds prefix ends. Each
    block calls `block(rays, c0, idx, length)` with the block's rays, its
    first column, their flat indices in the block and their prefixes clipped
    to it; `block` returns `end_columns` of the block.

    The first block reads one ray of each `_first_block_groups` group, with
    `rays` those rays, and copies their results to their groups (see the
    module docstring); when every prefix is distinct, every ray is its own
    group. Later blocks get the indices of their rays.
    A caller that keeps a running per-ray total across blocks passes it as
    `carry`, an (n_rays,) array that its blocks read and write by `rays`;
    after the first block, each ray takes its group's total.
    """
    w = shape[1]
    t = ray_table(n_rays, range_cells, w)
    length = prefix_lengths(t, origin, shape)
    base = origin.y * w + origin.x
    cols = max(_FIRST_BLOCK_MIN_COLS, _FIRST_BLOCK_CELLS // n_rays)
    # Groups on `cols` columns hold for any fewer, as the first c1 can be.
    c1 = min(cols, int(length.max()))
    rep, row, first = _first_block_groups(n_rays, range_cells, w, cols)
    col, hit = block(rep, 0, base + first[:, :c1], np.minimum(length[rep], c1))
    end_col, stopped = col[row], hit[row]
    if carry is not None:
        carry[:] = carry[rep][row]
    rays = np.flatnonzero(~stopped & (length > c1))  # the live rays
    while len(rays):
        c0, cols = c1, 2 * cols
        ray_len = length[rays]
        c1 = min(c0 + cols, int(ray_len.max()))
        col, hit = block(rays, c0, base + t.flat[rays, c0:c1], np.minimum(ray_len - c0, c1 - c0))
        end_col[rays], stopped[rays] = c0 + col, hit
        rays = rays[~hit & (ray_len > c1)]
    end = base + t.flat[np.arange(len(length)), end_col]
    return end_col, stopped, np.stack([end % w, end // w], axis=1)


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

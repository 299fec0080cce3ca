"""Ray and line traversal kernels shared by the sensor and the scoring raycasts.

There are two kernels: the ray table, which the sensor and both scoring
casts read, and `line_cells`, which rasterizes straight segments for the
visibility-mask polygon and the variance corridor.

The table has two readers, which end a ray by `end_columns`, the one rule
for where a ray stops: at its first in-bounds cell flagged by the caller's
stop mask, else at its last in-bounds cell. `walk_rays`, the sensor's,
reads the table in column blocks of the rays still live; `ray_cell_table`,
the scoring casts', reads it in one block. The sensor flags occupied
ground-truth cells, the scoring casts the cell where their termination
test first holds.

Rays are walked by sampling points every quarter cell along the ray
direction, starting at the origin cell's center. A sample at distance d
along direction (dx, dy) lands in the cell

    (origin.x + floor(0.5 + d*dx), origin.y + floor(0.5 + d*dy))

so the visited-cell pattern is identical from every origin cell and can be
precomputed per (ray count, range). The step of 0.25 is a power of two, so
the sample distances k*STEP are exact in float64 and the walk is
bit-reproducible. Both offsets are monotone in d, so a ray never re-enters
a cell it has left.

`ray_table` caches, per (ray count, range, grid width, first block width),
each ray's distinct cells in walk order as flat offsets `offy * width +
offx`; column 0 is the origin cell, offset 0, and shorter rays are padded
with 0. The offsets are stored block by block, one contiguous (n_rays,
block width) array per block of the walk, so a block reads whole rows. It
also caches two exit tables:
`tx[k, ray]` is the number of the ray's leading cells with |offx| <= k, and
`ty` the same for |offy|. A ray heading to +x leaves a grid of width w
after its leading cells with offx <= w-1-x; one heading to -x after those
with |offx| <= x. Since the offsets are monotone, the in-bounds prefix of
a ray from a pose is the smaller of its two exit-table entries at the
pose's distances to the edges it heads for, clipped to the range; the
padding, which lies past the ray's last cell, is never inside it.
`prefix_lengths` is the one exit-table rule. The exit tables hold one row
per k, so the entries one pose reads are contiguous.

Both readers give the rays' cells as flat grid indices, `base + offset`
with `base` the origin's flat index. An index past a ray's prefix lies off
the grid, below 0 or past its last cell, or wraps onto another row;
`gather_values` clips it and its value is never used. The walk's reads stop
near where its rays end; a cast's 60 rays fit its first block, so a walk
would read their whole table too. `ray_cell_table` is also the reference
the walk is tested against.

Neighbouring rays start through the same cells: of the 2,500 rays of the
default sensor, only 604 differ in their first 13 cells. A block's result
for a ray depends only on the ray's cells in it and its prefix there, and
rays whose cells are the same 2-D offsets have the same prefix from every
origin. So `ray_table` groups the rays by their first-block cells, each
as the one int `offy * (2 * reach + 1) + offx`, which no two cells within
reach share, and 0 past a ray's last cell (flat offsets can collide on a
grid narrower than 2 * cols - 1 cells), and `walk_rays` reads the first
block once per group and copies the result to the group's other rays.
Later blocks read every live ray.

A segment from a to b has max(|dx|, |dy|) + 1 cells; the i-th moves each
axis i * |d| / max(|dx|, |dy|) cells towards b, rounded half down. These
are the cells of Bresenham's walk from a to b: 8-connected without diagonal
gaps, so a barrier to a 4-connected flood fill, and not always the cells of
the walk from b to a.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import GridPose

STEP = 0.25  # sample spacing along a ray, in cells

# Absorbs division noise in range/STEP so an integral number of cells of
# range yields the full sample count.
_COUNT_GUARD = 1e-9

_BUILD_RAYS = 256  # rays per pass of the table build; bounds its float temporaries

# Size the first block of a `walk_rays` walk; see its docstring.
_FIRST_BLOCK_CELLS = 2**15
_FIRST_BLOCK_MIN_COLS = 8


class RayTable(NamedTuple):
    """Per-ray flat cell offsets, stored by walk block, exit tables and
    first-block groups; see the module docstring."""

    blocks: tuple  # (n_rays, block cols) intp arrays, the table's columns in order
    tx: np.ndarray  # (R + 1, n_rays) int16
    ty: np.ndarray  # (R + 1, n_rays) int16
    east: np.ndarray  # (n_rays,) bool: offx never falls below 0
    south: np.ndarray  # (n_rays,) bool: offy never falls below 0
    rep: np.ndarray  # (groups,) the first ray of each group, ascending
    row: np.ndarray  # (n_rays,) the group of each ray; row[rep] is arange(groups)
    first: np.ndarray  # (groups, first block cols): blocks[0][rep]


def _sample_count(range_cells: float) -> int:
    return math.floor(range_cells / STEP + _COUNT_GUARD) + 1


def _reach(range_cells: float) -> int:
    """The largest |offx| or |offy| of any ray of `range_cells` cells, that
    of its last sample."""
    return math.floor(0.5 + (_sample_count(range_cells) - 1) * STEP)


def _first_block_cols(n_rays: int) -> int:
    """The width of the first block of a walk of `n_rays` rays."""
    return max(_FIRST_BLOCK_MIN_COLS, _FIRST_BLOCK_CELLS // n_rays)


def _exit_table(off: np.ndarray, valid: np.ndarray, reach: int) -> np.ndarray:
    """(rays, reach + 1): per ray, the number of valid cells with |off| <= k."""
    rows = np.arange(len(off))[:, None] * (reach + 1)
    hist = np.bincount((rows + np.abs(off))[valid], minlength=len(off) * (reach + 1))
    return hist.reshape(len(off), reach + 1).cumsum(axis=1).astype(np.int16)


def _build_pass(angles: np.ndarray, dist: np.ndarray, reach: int, width: int, first_cols: int):
    """The table's parts for the rays of `angles`: flat offsets, exit tables
    `tx` and `ty`, east and south flags and first-block group keys."""
    sx = np.floor(0.5 + np.cos(angles)[:, None] * dist).astype(np.int32)
    sy = np.floor(0.5 + np.sin(angles)[:, None] * dist).astype(np.int32)
    col = np.zeros(sx.shape, dtype=np.int32)  # the column of each sample's cell
    np.cumsum((sx[:, 1:] != sx[:, :-1]) | (sy[:, 1:] != sy[:, :-1]), axis=1, out=col[:, 1:])
    offx = np.zeros((len(angles), col[:, -1].max() + 1), dtype=np.int32)
    offy = np.zeros_like(offx)
    # The samples of one cell write the same offsets to the same column.
    np.put_along_axis(offx, col, sx, axis=1)
    np.put_along_axis(offy, col, sy, axis=1)
    valid = np.arange(offx.shape[1]) <= col[:, -1:]
    key = offy[:, :first_cols] * (2 * reach + 1) + offx[:, :first_cols]
    return (offy * width + offx, _exit_table(offx, valid, reach).T,
            _exit_table(offy, valid, reach).T, offx.min(axis=1) >= 0, offy.min(axis=1) >= 0, key)


@lru_cache(maxsize=8)
def ray_table(n_rays: int, range_cells: float, width: int, first_cols: int) -> RayTable:
    """The cached `RayTable` of `n_rays` rays of `range_cells` cells on grids
    `width` cells wide, stored in blocks of `first_cols` columns, then twice,
    four times ... as many, the last one cut at the longest ray. Built
    `_BUILD_RAYS` rays at a time; the arrays are read-only."""
    angles = np.arange(n_rays, dtype=np.float64) * (2.0 * np.pi / n_rays)
    dist = np.arange(_sample_count(range_cells), dtype=np.float64) * STEP
    reach = _reach(range_cells)
    tx = np.empty((reach + 1, n_rays), dtype=np.int16)
    ty = np.empty_like(tx)
    east = np.empty(n_rays, dtype=bool)
    south = np.empty_like(east)
    keys = np.zeros((n_rays, first_cols), dtype=np.int32)  # 0 past a ray's last cell
    parts = []
    for lo in range(0, n_rays, _BUILD_RAYS):
        s = np.s_[lo : lo + _BUILD_RAYS]  # the last pass's slices end at n_rays
        part, tx[:, s], ty[:, s], east[s], south[s], key = _build_pass(angles[s], dist, reach,
                                                                      width, first_cols)
        keys[s, : key.shape[1]] = key
        parts.append(part)
    n_cols = max(p.shape[1] for p in parts)
    # The blocks lie one after another in one allocation: separate arrays
    # land in the heap among the build's freed temporaries and keep about
    # 8 MB of them resident.
    store = np.zeros(n_rays * n_cols, dtype=np.intp)
    blocks, c0, cols = [], 0, first_cols
    while c0 < n_cols:
        c1 = min(c0 + cols, n_cols)
        b = store[n_rays * c0 : n_rays * c1].reshape(n_rays, c1 - c0)
        for lo, p in zip(range(0, n_rays, _BUILD_RAYS), parts):
            b[lo : lo + len(p), : max(0, p.shape[1] - c0)] = p[:, c0:c1]
        blocks.append(b)
        c0, cols = c1, 2 * cols
    del parts
    _, rep, row = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(rep)  # groups in the order of their first rays
    rep, row = rep[order], np.argsort(order)[row.ravel()]
    # With every prefix distinct, `rep` is arange(n_rays) and the block will do.
    first = blocks[0][rep] if len(rep) < n_rays else blocks[0]
    table = RayTable(tuple(blocks), tx, ty, east, south, rep, row, first)
    for a in (*blocks, tx, ty, east, south, rep, row, first):
        a.flags.writeable = False
    return table


def prefix_lengths(t: RayTable, origin: GridPose, shape) -> np.ndarray:
    """Each ray's in-bounds prefix length (n_rays,) from the center of
    `origin` on a grid of `shape`, read from the exit tables of `t`."""
    h, w = shape
    reach = len(t.tx) - 1
    x, y = origin.x, origin.y
    xe, xw = min(w - 1 - x, reach), min(x, reach)
    ys, yn = min(h - 1 - y, reach), min(y, reach)
    return np.minimum(np.where(t.east, t.tx[xe], t.tx[xw]),
                      np.where(t.south, t.ty[ys], t.ty[yn]))


def ray_cell_table(origin: GridPose, n_rays: int, range_cells: float, shape):
    """The cells of all rays from the center of `origin`, in walk order, in
    one block: the scoring casts' read, and the walk's test reference.

    Returns (idx, length): `idx` is (n_rays, n_cols) flat indices into a
    grid of `shape`, column 0 being the origin cell, and `length` is each
    ray's in-bounds prefix length (n_rays,); `n_cols` is the longest.
    """
    w = shape[1]
    t = ray_table(n_rays, float(range_cells), w, _first_block_cols(n_rays))
    length = prefix_lengths(t, origin, shape)
    return origin.y * w + origin.x + np.concatenate(t.blocks, axis=1)[:, : length.max()], length


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


def walk_rays(n_rays: int, range_cells: float, origin: GridPose, shape, block):
    """Walk the rays of the ray table of `n_rays` rays of `range_cells`
    cells from the center of `origin` on a grid of `shape`, in column blocks
    of the rays still live. Returns (stopped, endpoints): per ray, whether a
    block stopped it, and its end cell as an (n_rays, 2) int array of (x, y).

    The blocks are those the table is stored in: the first is
    `_first_block_cols(n_rays)` columns of every ray, each later one twice as
    wide; a ray leaves the walk in the block where it stops or its in-bounds
    prefix ends. Each block calls `block(idx, length)` with the cells of
    the block's rays in it as flat grid indices, one row per ray, which past
    a prefix may lie off the grid (see the module docstring), and their
    prefixes clipped to the block; `block` returns `end_columns` of the
    block.

    The first block reads the first ray of each of the table's groups, the
    table's `rep`, from its `first`, and copies their results to their
    groups by `row` (see the module docstring); when every prefix is
    distinct, every ray is its own group. Later blocks read the rays still
    live, in ascending order.
    """
    w = shape[1]
    cols = _first_block_cols(n_rays)
    t = ray_table(n_rays, range_cells, w, cols)
    length = prefix_lengths(t, origin, shape)
    base = origin.y * w + origin.x
    # Groups on `cols` columns hold for any fewer, as the first c1 can be.
    c1 = min(cols, int(length.max()))
    idx = t.first[:, :c1] + base
    col, hit = block(idx, np.minimum(length[t.rep], c1))
    stopped, end = hit[t.row], idx[np.arange(len(t.rep)), col][t.row]
    rays = np.flatnonzero(~stopped & (length > c1))  # the live rays
    for b in t.blocks[1:]:
        if not len(rays):
            break
        # Each block starts at the column where the last one ended: a block
        # cut short at its rays' longest prefix leaves no ray live.
        c0 = c1
        ray_len = length[rays]
        c1 = min(c0 + b.shape[1], int(ray_len.max()))
        idx = b.take(rays, axis=0)
        idx += base  # on whole rows: a strided add over the cut columns costs more
        col, hit = block(idx[:, : c1 - c0], np.minimum(ray_len - c0, c1 - c0))
        stopped[rays], end[rays] = hit, idx[np.arange(len(rays)), col]
        rays = rays[~hit & (ray_len > c1)]
    return stopped, cells_xy(end, w)


def cells_xy(flat: np.ndarray, width: int) -> np.ndarray:
    """The (n, 2) int array of (x, y) cells of flat indices into a grid."""
    return np.stack(np.divmod(flat, width)[::-1], axis=1)


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
    # The i-th cell of a segment moves (2 * i * step + m - 1) // (2 * m)
    # cells along each axis, with m = major floored at 1 so that a
    # zero-length segment stays put. Cell k of the result is the i-th of a
    # segment whose cells begin at k - i = first, so the numerator is
    # 2 * k * step + (m - 1 - 2 * first * step): one block of per-segment
    # columns, repeated to every cell, holds all of it but k.
    m = np.maximum(major, 1)[:, None]
    first = (np.cumsum(n) - n)[:, None]
    seg = np.repeat(np.hstack((a, np.sign(d), 2 * steps, m - 1 - 2 * first * steps, 2 * m)),
                    n, axis=0)
    cells = np.arange(len(seg))[:, None] * seg[:, 4:6]
    cells += seg[:, 6:8]
    cells //= seg[:, 8:]
    cells *= seg[:, 2:4]
    cells += seg[:, :2]
    return cells

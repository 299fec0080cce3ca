from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exploresim import trace
from exploresim.grid import GridPose
from exploresim.trace import line_cells, ray_table


@contextmanager
def first_block(first):
    """Within it, `trace.walk_rays` starts with a block of `first` columns
    (None keeps the default size), so that a small scan walks many blocks
    and its rays stop, miss and leave the grid on block edges."""
    with pytest.MonkeyPatch.context() as mp:
        if first is not None:
            mp.setattr(trace, "_FIRST_BLOCK_MIN_COLS", first)
            mp.setattr(trace, "_FIRST_BLOCK_CELLS", 0)
        yield


def bresenham_line(a, b) -> list[tuple[int, int]]:
    """Reference oracle: the 8-connected cells from a to b as (x, y) pairs,
    both ends included, walked one cell at a time with the integer error
    term. The walk is not symmetric: b -> a can pick other cells."""
    x0, y0 = a
    x1, y1 = b
    dx = abs(x1 - x0)
    dy = abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx - dy
    cells = []
    while True:
        cells.append((x0, y0))
        if x0 == x1 and y0 == y1:
            break
        e2 = 2 * err
        if e2 > -dy:
            err -= dy
            x0 += sx
        if e2 < dx:
            err += dx
            y0 += sy
    return cells


def oracle_cells(starts, ends) -> list[list[int]]:
    """The oracle's cells of every segment, concatenated in segment order."""
    return [list(c) for a, b in zip(starts, ends) for c in bresenham_line(a, b)]


def _segments(pairs) -> tuple[np.ndarray, np.ndarray]:
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2, 2)
    return arr[:, 0], arr[:, 1]


@pytest.mark.filterwarnings("error")  # a zero-length segment must not divide by 0
def test_line_cells_matches_the_oracle_on_every_short_segment():
    # Every end within 12 cells of a start: all 8 octants, the axes, the
    # diagonals and the zero-length segment.
    pairs = [((3, -2), (3 + dx, -2 + dy)) for dx in range(-12, 13) for dy in range(-12, 13)]
    a, b = _segments(pairs)
    assert line_cells(a, b).tolist() == oracle_cells(a.tolist(), b.tolist())


_point = st.tuples(st.integers(-300, 300), st.integers(-300, 300))
_offset = st.one_of(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    st.tuples(st.integers(-400, 400), st.integers(-400, 400)))
_segment = st.builds(lambda p, d: (p, (p[0] + d[0], p[1] + d[1])), _point, _offset)


@settings(max_examples=200, deadline=None)
@given(st.lists(_segment, max_size=12))
def test_line_cells_equals_the_concatenated_oracle(pairs):
    a, b = _segments(pairs)
    cells = line_cells(a, b)
    assert cells.shape == (sum(max(abs(q[0] - p[0]), abs(q[1] - p[1])) + 1
                               for p, q in pairs), 2)
    assert cells.tolist() == oracle_cells(a.tolist(), b.tolist())


def test_the_default_ray_table_is_small_and_read_only():
    # 2,500 rays of 200 cells on a 200-cell-wide grid: one flat offset per
    # distinct cell, not per sample, stored once, and two int16 exit tables.
    table = ray_table(2500, 200.0, 200, trace._first_block_cols(2500))
    assert sum(b.nbytes for b in table.blocks) + table.tx.nbytes + table.ty.nbytes <= 8_000_000
    assert len(table.rep) == 604  # the groups of the first 13 cells; see the trace docstring
    assert table.row.nbytes + table.first.nbytes <= 100_000
    for a in (*table.blocks, table.tx, table.ty, table.east, table.south,
              table.rep, table.row, table.first):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def _first_cells(n_rays, range_cells, cols):
    """Each ray's first `cols` cells as (x, y) offsets, by the quarter-step
    rule of the trace docstring, with None past its last cell."""
    angles = np.arange(n_rays, dtype=np.float64) * (2.0 * np.pi / n_rays)
    dist = np.arange(int(range_cells / 0.25 + 1e-9) + 1) * 0.25
    xs = np.floor(0.5 + np.cos(angles)[:, None] * dist).astype(int).tolist()
    ys = np.floor(0.5 + np.sin(angles)[:, None] * dist).astype(int).tolist()
    keys = []
    for x, y in zip(xs, ys):
        cells = [c for i, c in enumerate(zip(x, y)) if i == 0 or c != (x[i - 1], y[i - 1])]
        keys.append(tuple(cells[:cols]) + (None,) * (cols - len(cells)))
    return keys


@settings(max_examples=60, deadline=None)
@given(n_rays=st.integers(1, 400), range_cells=st.integers(1, 120).map(lambda q: q / 4),
       width=st.integers(3, 60), cols=st.integers(1, 20))
@example(n_rays=64, range_cells=2.75, width=3, cols=8)
def test_rays_share_a_group_exactly_when_their_first_cells_are_equal(n_rays, range_cells,
                                                                     width, cols):
    # On a grid narrower than 2 * cols - 1 cells, two different cells can
    # share a flat offset. In the @example, some rays' first blocks differ
    # as cells but are the same row of flat offsets, the shorter ray padded
    # with the origin; the groups tell them apart.
    table = ray_table(n_rays, range_cells, width, cols)
    keys = _first_cells(n_rays, range_cells, table.blocks[0].shape[1])
    groups = {}  # key -> group, numbered in the order of the groups' first rays
    expected_row = [groups.setdefault(k, len(groups)) for k in keys]
    assert table.row.tolist() == expected_row
    assert table.rep.tolist() == [keys.index(k) for k in groups]
    assert np.all(np.diff(table.rep) > 0)
    assert np.array_equal(table.row[table.rep], np.arange(len(table.rep)))
    assert np.array_equal(table.first, table.blocks[0][table.rep])


@pytest.mark.parametrize("first", [None, 1, 2, 3])
def test_the_walk_reads_the_table_block_by_block(first):
    # On an open grid no ray stops or leaves it, so the walk reads every
    # stored block whole, at the columns it is stored for, also when the
    # first block is monkeypatched to 1-3 columns. Each block gets its
    # rays' stored offsets moved onto the grid, base + b[rays], and the
    # blocks, end to end, are the one-block table.
    n_rays, range_cells, origin, shape = 24, 9.0, GridPose(12, 12), (25, 25)
    calls = []

    def block(rays, c0, idx, length):
        calls.append((c0, idx.shape[1], rays, idx.copy()))
        return np.asarray(length) - 1, np.zeros(len(rays), dtype=bool)

    with first_block(first):
        cols = trace._first_block_cols(n_rays)
        table = ray_table(n_rays, range_cells, shape[1], cols)
        trace.walk_rays(n_rays, range_cells, origin, shape, block)
        idx, _ = trace.ray_cell_table(origin, n_rays, range_cells, shape)
    assert calls[0][2] is table.rep  # the first block reads one ray per group
    widths = [b.shape[1] for b in table.blocks]
    assert widths[:-1] == [cols << k for k in range(len(widths) - 1)]
    assert 0 < widths[-1] <= cols << (len(widths) - 1)
    assert [(c0, n) for c0, n, _, _ in calls] == list(zip(np.cumsum([0] + widths[:-1]).tolist(),
                                                          widths))
    base = origin.y * shape[1] + origin.x
    for (c0, n, rays, block_idx), b in zip(calls, table.blocks):
        assert np.array_equal(block_idx, base + b[rays])
        assert np.array_equal(block_idx, idx[rays, c0 : c0 + n])

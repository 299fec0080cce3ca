import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exploresim.trace import line_cells


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

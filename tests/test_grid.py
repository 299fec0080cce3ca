import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage

from exploresim.errors import PgmParseError
from exploresim.grid import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    GridPose,
    OccupancyGrid,
    components,
    load_pgm,
    new_grid,
    save_pgm,
)


def test_new_grid_initializes_unknown():
    g = new_grid(3, 2, 0.1)
    assert g.width == 3 and g.height == 2
    assert g.cells.shape == (2, 3)
    assert (g.cells == UNKNOWN).all()


def test_new_grid_single_cell():
    g = new_grid(1, 1, 0.1)
    assert g.cells.shape == (1, 1)
    assert g.at(GridPose(0, 0)) == UNKNOWN


@pytest.mark.parametrize("w,h", [(0, 5), (5, 0), (-1, 3)])
def test_new_grid_rejects_bad_dimensions(w, h):
    with pytest.raises(ValueError):
        new_grid(w, h, 0.1)


def test_new_grid_rejects_bad_resolution():
    with pytest.raises(ValueError):
        new_grid(3, 3, 0.0)


@pytest.mark.parametrize("resolution", [math.nan, math.inf])
def test_grid_rejects_a_resolution_that_is_not_finite(resolution):
    # A NaN resolution fails the first scan; an infinite one scans one cell.
    with pytest.raises(ValueError, match="resolution must be finite and positive"):
        OccupancyGrid(np.zeros((2, 2)), resolution)


def test_grid_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        OccupancyGrid(np.full((2, 2), 1.5))
    with pytest.raises(ValueError):
        OccupancyGrid(np.full((2, 2), -0.1))


@pytest.mark.parametrize("cells", [[[np.nan, 0.0]], [[0.5, np.nan]], [[np.nan]]])
def test_grid_rejects_nan_values(cells):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        OccupancyGrid(cells)


def test_pgm_pixel_conventions(tmp_path):
    path = tmp_path / "m.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n3 1\n255\n" + bytes([0, 255, 51]))
    g = load_pgm(path, snap_unknown=False)
    assert g.cells[0, 0] == OCCUPIED  # black
    assert g.cells[0, 1] == FREE  # white
    assert g.cells[0, 2] == pytest.approx(1.0 - 51 / 255.0)


def test_pgm_snaps_midgray_to_unknown(tmp_path):
    path = tmp_path / "m.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n4 1\n255\n" + bytes([118, 128, 138, 140]))
    g = load_pgm(path)
    assert (g.cells[0, :3] == UNKNOWN).all()
    assert g.cells[0, 3] != UNKNOWN


def test_pgm_three_label_round_trip_exact(tmp_path):
    rng = np.random.default_rng(11)
    cells = rng.choice([FREE, UNKNOWN, OCCUPIED], size=(23, 31))
    g = OccupancyGrid(cells, 0.1)
    path = tmp_path / "roundtrip.pgm"
    save_pgm(g, path)
    assert load_pgm(path) == g


def test_pgm_continuous_round_trip_close(tmp_path):
    rng = np.random.default_rng(12)
    g = OccupancyGrid(rng.random((9, 9)), 0.1)
    path = tmp_path / "cont.pgm"
    save_pgm(g, path)
    back = load_pgm(path, snap_unknown=False)
    assert np.abs(back.cells - g.cells).max() <= 0.5 / 255.0 + 1e-12
    assert back.cells.min() >= 0.0 and back.cells.max() <= 1.0


def test_pgm_header_comments_allowed(tmp_path):
    path = tmp_path / "c.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n# a comment\n2 1\n255\n" + bytes([0, 255]))
    g = load_pgm(path)
    assert g.cells[0, 0] == OCCUPIED and g.cells[0, 1] == FREE


def test_pgm_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(PgmParseError) as exc:
        load_pgm(path)
    assert exc.value.offset == 0


def test_pgm_garbage_dimension(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\nxx 2\n255\n")
    with pytest.raises(PgmParseError):
        load_pgm(path)


def test_pgm_truncated_payload_reports_offset(tmp_path):
    path = tmp_path / "short.pgm"
    data = b"P5\n4 4\n255\n" + bytes(7)  # needs 16 payload bytes
    path.write_bytes(data)
    with pytest.raises(PgmParseError) as exc:
        load_pgm(path)
    assert exc.value.offset == len(data)


def test_pgm_bad_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 1\n65535\n" + bytes([0, 0, 0, 0]))
    with pytest.raises(PgmParseError):
        load_pgm(path)


def test_grid_equality_and_copy():
    g = new_grid(4, 4)
    h = g.copy()
    assert g == h
    h.cells[0, 0] = OCCUPIED
    assert g != h


@settings(max_examples=400, deadline=None)
@given(mask=arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24)),
       diagonal=st.booleans())
@example(mask=np.ones((1, 9), dtype=bool), diagonal=False)
@example(mask=np.array([[True, False, True, True, False, True]]), diagonal=True)
@example(mask=np.array([[True], [True], [False], [True]]), diagonal=False)
@example(mask=np.ones((7, 1), dtype=bool), diagonal=True)
@example(mask=np.ones((5, 6), dtype=bool), diagonal=False)
@example(mask=np.zeros((5, 6), dtype=bool), diagonal=True)
@example(mask=np.eye(6, dtype=bool)[::-1], diagonal=True)  # 6 components at 4, 1 at 8
@example(mask=np.eye(6, dtype=bool)[::-1], diagonal=False)
# Two arms of a U join only in the bottom row; the right arm's first cell
# comes after the left's, so both must end up with the left arm's label.
@example(mask=np.array([[1, 0, 1], [1, 0, 1], [1, 1, 1]], dtype=bool), diagonal=False)
def test_components_equal_ndimage_label(mask, diagonal):
    """Labels, their numbering (raster order of each component's first
    cell) and count; each component painted alone, and found from each of
    its cells."""
    expected, count = ndimage.label(mask, structure=np.ones((3, 3)) if diagonal else None)
    found = components(mask, diagonal)
    assert found.count == count
    ys, xs, label = found.cells()
    got = np.zeros(mask.shape, dtype=np.int64)
    got[ys, xs] = label
    assert np.array_equal(got, expected)
    assert np.array_equal(np.ravel_multi_index((ys, xs), mask.shape), np.flatnonzero(mask))
    for k in range(1, count + 1):
        assert np.array_equal(found.paint(found.label == k), expected == k)
    assert [found.at(y, x) for y, x in zip(ys.tolist(), xs.tolist())] == label.tolist()

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from exploresim.grid import FREE, OCCUPIED, UNKNOWN, GridPose, OccupancyGrid, new_grid
from exploresim.infogain import (
    BoxMask,
    RaycastConfig,
    deterministic_raycast,
    info_gain,
    probabilistic_raycast,
    visibility_mask,
)
from exploresim.trace import line_cells
from exploresim.world import SensorSpec, generate_floorplan, simulate_scan
from test_trace import bresenham_line


def accumulate_ray_oracle(cells, x, y, angle, range_cells, epsilon):
    """Independent reference: walk quarter-cell samples (cell = origin +
    floor(0.5 + d*dir)), add each newly entered cell's value (skipping the
    origin cell), stop at epsilon."""
    h, w = cells.shape
    dx, dy = math.cos(angle), math.sin(angle)
    n = int(math.floor(range_cells / 0.25 + 1e-9))
    total = 0.0
    prev = None
    last = (x, y)
    for k in range(n + 1):
        d = k * 0.25
        cx = x + math.floor(0.5 + d * dx)
        cy = y + math.floor(0.5 + d * dy)
        if not (0 <= cx < w and 0 <= cy < h):
            return last
        if (cx, cy) != prev and (cx, cy) != (x, y):
            total += cells[cy, cx]
            if total >= epsilon - 1e-9:
                return (cx, cy)
        prev = (cx, cy)
        last = (cx, cy)
    return last


def test_all_free_mean_map_reaches_range():
    mean = OccupancyGrid(np.zeros((201, 201)), 0.1)
    cfg = RaycastConfig(epsilon=0.8, n_rays=16, range_lambda=5.0)
    ends = probabilistic_raycast(GridPose(100, 100), mean, cfg)
    assert ends.shape == (16, 2)
    assert (np.hypot(ends[:, 0] - 100, ends[:, 1] - 100) >= 49.0).all()


def test_full_occupancy_cell_terminates_ray():
    mean = OccupancyGrid(np.zeros((21, 21)), 0.1)
    mean.cells[10, 15] = 1.0
    cfg = RaycastConfig(epsilon=0.8, n_rays=8, range_lambda=1.0)
    ends = probabilistic_raycast(GridPose(10, 10), mean, cfg)
    assert ends[0].tolist() == [15, 10]  # ray 0 heads east


@pytest.mark.parametrize("v,expected_cells", [(0.05, 16), (0.1, 8), (0.2, 4), (0.4, 2)])
def test_uniform_map_termination_arithmetic(v, expected_cells):
    mean = OccupancyGrid(np.full((81, 81), v), 0.1)
    cfg = RaycastConfig(epsilon=0.8, n_rays=8, range_lambda=4.0)
    ends = probabilistic_raycast(GridPose(40, 40), mean, cfg)
    assert ends[0].tolist() == [40 + expected_cells, 40]  # ray 0 heads east


def test_probabilistic_matches_accumulation_oracle_on_continuous_maps():
    rng = np.random.default_rng(21)
    cfg = RaycastConfig(epsilon=0.8, n_rays=48, range_lambda=3.0)
    for _ in range(8):
        mean = OccupancyGrid(rng.random((64, 64)) * 0.6, 0.1)
        ends = probabilistic_raycast(GridPose(32, 32), mean, cfg)
        range_cells = cfg.range_lambda / mean.resolution
        for j, (x, y) in enumerate(ends.tolist()):
            angle = j * (2.0 * math.pi / cfg.n_rays)
            assert (x, y) == accumulate_ray_oracle(
                mean.cells, 32, 32, angle, range_cells, cfg.epsilon)


_any_grid = dict(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 40),
                 height=st.integers(1, 40), vx=st.integers(0, 39), vy=st.integers(0, 39),
                 n_rays=st.integers(8, 64), range_dm=st.integers(1, 60))
# A 40x6 strip from its middle: 10 cells of range pass the top and bottom
# edges but neither end.
_strip = dict(seed=1, width=40, height=6, vx=20, vy=2, n_rays=64, range_dm=10)


# The one row of a 10x1 grid, from its west end.
_row = dict(seed=0, width=10, height=1, vx=0, vy=0, n_rays=8, range_dm=9)
# The +x ray's prefix from (0, 0) on a 6x12 grid ends on column 5, while
# the +y ray's prefix runs on to column 9.
_edge = dict(seed=0, width=6, height=12, vx=0, vy=0, n_rays=8, range_dm=9)


@settings(max_examples=80, deadline=None)
@given(**_any_grid, epsilon=st.floats(0.05, 3.0))
@example(**_strip, epsilon=2.0)
# The running total of the +x ray is 2.05 after column 5 and 2.66 after
# column 6.
@example(**_row, epsilon=2.5)
@example(**_edge, epsilon=3.0)
def test_probabilistic_matches_accumulation_oracle_from_any_viewpoint(seed, width, height, vx, vy,
                                                                      n_rays, range_dm, epsilon):
    # Any grid shape, edge viewpoints and ranges up to past the far corner:
    # rays leave the grid at every side and some stay inside it.
    rng = np.random.default_rng(seed)
    mean = OccupancyGrid(rng.random((height, width)), 0.1)
    x, y = vx % width, vy % height
    cfg = RaycastConfig(epsilon=epsilon, n_rays=n_rays, range_lambda=range_dm / 10)
    ends = probabilistic_raycast(GridPose(x, y), mean, cfg)
    assert ends.shape == (n_rays, 2)
    for j, end in enumerate(ends.tolist()):
        angle = j * (2.0 * math.pi / n_rays)
        assert tuple(end) == accumulate_ray_oracle(mean.cells, x, y, angle, range_dm, epsilon), j


@settings(max_examples=80, deadline=None)
@given(**_any_grid, density=st.floats(0.0, 0.6))
@example(**_strip, density=0.1)
# The one wall of the row is column 6.
@example(**dict(_row, seed=7), density=0.01)
@example(**_edge, density=0.0)
def test_deterministic_matches_accumulation_oracle_from_any_viewpoint(seed, width, height, vx, vy,
                                                                      n_rays, range_dm, density):
    # On a binary map the first occupied cell past the viewpoint is where a
    # running total of cell values reaches 1; the viewpoint may be a wall.
    rng = np.random.default_rng(seed)
    grid = OccupancyGrid((rng.random((height, width)) < density).astype(float), 0.1)
    x, y = vx % width, vy % height
    cfg = RaycastConfig(n_rays=n_rays, range_lambda=range_dm / 10)
    ends = deterministic_raycast(GridPose(x, y), grid, cfg)
    assert ends.shape == (n_rays, 2)
    for j, end in enumerate(ends.tolist()):
        angle = j * (2.0 * math.pi / n_rays)
        assert tuple(end) == accumulate_ray_oracle(grid.cells, x, y, angle, range_dm, 1.0), j


def test_a_600_ray_cast_on_a_generated_plan_matches_the_accumulation_oracle():
    # 600 rays of 200 cells: a 263-column table, several blocks of the
    # sensor's walk, which a cast reads in one gather.
    gt = generate_floorplan(0, 200, 200)
    rng = np.random.default_rng(12)
    mean = OccupancyGrid(0.8 * gt.cells + 0.01 * rng.random(gt.shape), 0.1)
    cfg = RaycastConfig(n_rays=600)
    range_cells = cfg.range_lambda / gt.resolution
    free_ys, free_xs = np.nonzero(gt.cells == FREE)
    for i in rng.choice(len(free_xs), 10, replace=False):
        x, y = int(free_xs[i]), int(free_ys[i])
        for cast, grid, epsilon in ((probabilistic_raycast, mean, cfg.epsilon),
                                    (deterministic_raycast, gt, 1.0)):
            ends = cast(GridPose(x, y), grid, cfg)
            for j, end in enumerate(ends.tolist()):
                angle = j * (2.0 * math.pi / cfg.n_rays)
                want = accumulate_ray_oracle(grid.cells, x, y, angle, range_cells, epsilon)
                assert tuple(end) == want, (cast.__name__, x, y, j)


def test_binary_map_probabilistic_equals_deterministic_equals_scan():
    rng = np.random.default_rng(22)
    for _ in range(10):
        cells = (rng.random((64, 64)) < 0.2).astype(float)
        cells[32, 32] = FREE
        gt = OccupancyGrid(cells, 0.1)
        cfg = RaycastConfig(epsilon=0.8, n_rays=64, range_lambda=3.0)
        prob = probabilistic_raycast(GridPose(32, 32), gt, cfg)
        det = deterministic_raycast(GridPose(32, 32), gt, cfg)
        scan = simulate_scan(gt, GridPose(32, 32), SensorSpec(3.0, 64))
        assert np.array_equal(prob, det)
        assert np.array_equal(prob, scan.endpoints)


@settings(max_examples=40, deadline=None)
@given(**_any_grid)
def test_observed_map_cast_equals_cast_with_unknown_as_free(seed, width, height, vx, vy, n_rays,
                                                            range_dm):
    # The observed_map scorer casts the three-label observed map directly:
    # unknown must let rays through exactly as free space does.
    rng = np.random.default_rng(seed)
    observed = OccupancyGrid(rng.choice([FREE, UNKNOWN, OCCUPIED], size=(height, width)), 0.1)
    as_free = OccupancyGrid(np.where(observed.cells == UNKNOWN, FREE, observed.cells), 0.1)
    vp = GridPose(vx % width, vy % height)
    cfg = RaycastConfig(n_rays=n_rays, range_lambda=range_dm / 10)
    ends = deterministic_raycast(vp, observed, cfg)
    assert ends.shape == (n_rays, 2)
    assert np.array_equal(ends, deterministic_raycast(vp, as_free, cfg))


def test_endpoint_distance_monotone_in_epsilon():
    rng = np.random.default_rng(23)
    mean = OccupancyGrid(rng.random((64, 64)) * 0.5, 0.1)
    pose = GridPose(32, 32)
    prev = None
    for eps in (0.2, 0.4, 0.8, 1.6):
        cfg = RaycastConfig(epsilon=eps, n_rays=32, range_lambda=3.0)
        ends = probabilistic_raycast(pose, mean, cfg)
        d = np.hypot(ends[:, 0] - 32, ends[:, 1] - 32)
        if prev is not None:
            assert all(b >= a - 1e-9 for a, b in zip(prev, d))
        prev = d


def mask_cells(mask):
    """A mask's cells as an (N, 2) int64 array with columns (x, y), in
    row-major order (by y, then x)."""
    ys, xs = np.nonzero(mask.keep)
    return np.stack([xs + mask.box[1].start, ys + mask.box[0].start], axis=1).astype(np.int64)


def box_mask(cells):
    """The mask of a list of (x, y) cells: their bounding box, each cell kept once."""
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    if len(cells) == 0:
        return BoxMask(np.s_[0:0, 0:0], np.zeros((0, 0), dtype=bool))
    (x0, y0), (x1, y1) = cells.min(axis=0), cells.max(axis=0) + 1
    keep = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    keep[cells[:, 1] - y0, cells[:, 0] - x0] = True
    return BoxMask(np.s_[y0:y1, x0:x1], keep)


def test_visibility_mask_empty_on_fully_observed_map():
    observed = OccupancyGrid(np.zeros((41, 41)), 0.1)  # everything known free
    cfg = RaycastConfig(n_rays=24, range_lambda=1.5)
    ends = probabilistic_raycast(GridPose(20, 20), observed, cfg)
    mask = visibility_mask(GridPose(20, 20), ends, observed)
    assert len(mask) == 0


def test_visibility_mask_disc_area_on_open_unknown_map():
    # All-unknown observed map, nothing terminates the cast: the mask is the
    # rasterized endpoint polygon interior, within 2% of the disc area.
    observed = new_grid(421, 421, 0.1)
    mean = OccupancyGrid(np.zeros((421, 421)), 0.1)
    cfg = RaycastConfig(epsilon=0.8, n_rays=60, range_lambda=20.0)
    vp = GridPose(210, 210)
    ends = probabilistic_raycast(vp, mean, cfg)
    mask = visibility_mask(vp, ends, observed)
    r = cfg.range_lambda / 0.1
    disc = math.pi * r * r
    assert abs(len(mask) - disc) / disc < 0.02
    # independent oracle: count of cell centers inside the circle
    ys, xs = np.mgrid[0:421, 0:421]
    oracle = int(((xs - 210.0) ** 2 + (ys - 210.0) ** 2 <= r * r).sum())
    assert abs(len(mask) - oracle) / oracle < 0.02


def point_in_polygon(px, py, poly):
    """Ray-crossing point-in-polygon oracle."""
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            xc = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < xc:
                inside = not inside
    return inside


def test_visibility_mask_half_disc_behind_wall():
    # A wall row just above the viewpoint clips the polygon to the lower
    # half plane; the mask must stay on the free side and fill most of it.
    n = 161
    observed = new_grid(n, n, 0.1)
    mean = OccupancyGrid(np.zeros((n, n)), 0.1)
    wall_y = 79
    mean.cells[wall_y, :] = 1.0
    vp = GridPose(80, 80)
    cfg = RaycastConfig(epsilon=0.8, n_rays=72, range_lambda=6.0)
    ends = probabilistic_raycast(vp, mean, cfg)
    mask = mask_cells(visibility_mask(vp, ends, observed))
    assert len(mask) > 0
    assert (mask[:, 1] >= wall_y).all()

    poly = [(x + 0.5, y + 0.5) for x, y in ends.tolist()]
    hits = sum(point_in_polygon(x + 0.5, y + 0.5, poly) for x, y in mask)
    assert hits / len(mask) > 0.95  # mask cells lie inside the cast polygon
    oracle = sum(
        point_in_polygon(x + 0.5, y + 0.5, poly)
        for x in range(n) for y in range(wall_y + 1, n)
    )
    assert len(mask) >= 0.85 * oracle


def test_visibility_mask_cells_are_unknown_and_in_range():
    rng = np.random.default_rng(24)
    observed = OccupancyGrid(rng.choice([FREE, UNKNOWN, OCCUPIED], size=(81, 81)), 0.1)
    mean = OccupancyGrid(rng.random((81, 81)) * 0.4, 0.1)
    vp = GridPose(40, 40)
    cfg = RaycastConfig(epsilon=0.8, n_rays=36, range_lambda=3.0)
    ends = probabilistic_raycast(vp, mean, cfg)
    mask = mask_cells(visibility_mask(vp, ends, observed))
    assert len(mask) > 0
    for x, y in mask:
        assert observed.cells[y, x] == UNKNOWN
        assert np.hypot(x - vp.x, y - vp.y) <= cfg.range_lambda / 0.1 + 1e-9


def test_visibility_mask_degenerate_viewpoint_on_boundary():
    observed = new_grid(9, 9, 0.1)
    ends = np.array([[4, 4], [5, 4], [4, 5]])  # polygon through vp
    mask = visibility_mask(GridPose(4, 4), ends, observed)
    assert len(mask) == 0 and mask_cells(mask).shape == (0, 2)


def visibility_mask_oracle(vp, endpoints, cells):
    """The mask by its definition, one cell at a time: the closed Bresenham
    polygon i -> i+1 is the barrier, a 4-connected BFS from the viewpoint
    inside the endpoints' box collects the region, and region cells that
    are unknown and no farther than the farthest endpoint are listed by
    (y, x)."""
    pts = [tuple(p) for p in endpoints.tolist()]
    if not pts:
        return []
    barrier = {c for a, b in zip(pts, pts[1:] + pts[:1]) for c in bresenham_line(a, b)}
    if (vp.x, vp.y) in barrier:
        return []
    xs, ys = [x for x, _ in pts] + [vp.x], [y for _, y in pts] + [vp.y]
    region, todo = {(vp.x, vp.y)}, deque([(vp.x, vp.y)])
    while todo:
        x, y = todo.popleft()
        for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if (min(xs) <= n[0] <= max(xs) and min(ys) <= n[1] <= max(ys)
                    and n not in barrier and n not in region):
                region.add(n)
                todo.append(n)
    reach = max(math.hypot(x - vp.x, y - vp.y) for x, y in pts)
    return [[x, y] for x, y in sorted(region, key=lambda c: (c[1], c[0]))
            if math.hypot(x - vp.x, y - vp.y) <= reach and cells[y, x] == UNKNOWN]


@settings(max_examples=150, deadline=None)
@given(**_any_grid, source=st.sampled_from(["probabilistic", "deterministic", "free"]),
       # Free endpoints; None stands for the viewpoint itself. A cast has at
       # least 8 rays, so the mask is never asked for none.
       free=st.lists(st.none() | st.tuples(st.integers(0, 39), st.integers(0, 39)),
                     min_size=1, max_size=12))
@example(**_strip, source="free", free=[(3, 1), None, (30, 4), (30, 4), (3, 1)])
@example(**dict(_strip, vx=39, vy=5), source="probabilistic", free=[])
@example(**dict(_strip, vx=0, vy=0), source="free", free=[(0, 5), (39, 5), (39, 0)])
# An open polyline whose region holds an unknown cell exactly as far from
# the viewpoint as the farthest endpoint: the range test includes it.
@example(**dict(_strip, vx=22, vy=2), source="free", free=[(36, 5), (38, 3), (28, 4), (13, 1)])
def test_visibility_mask_matches_its_definition(seed, width, height, vx, vy, n_rays, range_dm,
                                                source, free):
    rng = np.random.default_rng(seed)
    observed = OccupancyGrid(rng.choice([FREE, UNKNOWN, OCCUPIED], size=(height, width)), 0.1)
    vp = GridPose(vx % width, vy % height)
    cfg = RaycastConfig(n_rays=n_rays, range_lambda=range_dm / 10)
    if source == "probabilistic":
        ends = probabilistic_raycast(vp, OccupancyGrid(rng.random((height, width)) * 0.6, 0.1), cfg)
    elif source == "deterministic":
        ends = deterministic_raycast(vp, observed, cfg)
    else:
        ends = np.array([(vp.x, vp.y) if c is None else (c[0] % width, c[1] % height)
                         for c in free], dtype=np.int64).reshape(-1, 2)
    mask = visibility_mask(vp, ends, observed)
    expected = np.array(visibility_mask_oracle(vp, ends, observed.cells), dtype=np.int64)
    assert np.array_equal(mask_cells(mask), expected.reshape(-1, 2))
    assert len(mask) == len(expected)


def visibility_mask_label_reference(vp, endpoints, observed):
    """The mask with `ndimage.label` for the flood: the viewpoint's
    4-connected component of the cells off the closed polyline i -> i+1 in
    the box of the endpoints and the viewpoint, kept where unknown and no
    farther than the farthest endpoint; None when the viewpoint is on the
    polyline."""
    ex, ey = endpoints[:, 0], endpoints[:, 1]
    x0, y0 = min(ex.min(), vp.x), min(ey.min(), vp.y)
    x1, y1 = max(ex.max(), vp.x) + 1, max(ey.max(), vp.y) + 1
    barrier = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    cells = line_cells(endpoints, np.roll(endpoints, -1, axis=0))
    barrier[cells[:, 1] - y0, cells[:, 0] - x0] = True
    if barrier[vp.y - y0, vp.x - x0]:
        return None
    labels, _ = ndimage.label(~barrier)
    ys, xs = np.mgrid[y0:y1, x0:x1]
    reach = ((ex - vp.x) ** 2 + (ey - vp.y) ** 2).max()
    keep = labels == labels[vp.y - y0, vp.x - x0]
    keep &= observed.cells[y0:y1, x0:x1] == UNKNOWN
    keep &= (xs - vp.x) ** 2 + (ys - vp.y) ** 2 <= reach
    return np.s_[y0:y1, x0:x1], keep


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 90), height=st.integers(1, 90),
       vx=st.integers(0, 89), vy=st.integers(0, 89), cast=st.booleans(),
       corners=st.lists(st.tuples(st.integers(0, 89), st.integers(0, 89)), min_size=1,
                        max_size=40))
# The viewpoint on its own polyline, at a corner and mid-edge: the empty mask.
@example(seed=0, width=30, height=20, vx=5, vy=5, cast=False, corners=[(5, 5), (25, 5), (25, 15)])
@example(seed=0, width=30, height=20, vx=15, vy=5, cast=False,
         corners=[(5, 5), (25, 5), (25, 15), (5, 15)])
def test_visibility_mask_equals_the_label_reference(seed, width, height, vx, vy, cast, corners):
    rng = np.random.default_rng(seed)
    observed = OccupancyGrid(rng.choice([FREE, UNKNOWN, OCCUPIED], size=(height, width),
                                        p=[0.2, 0.7, 0.1]), 0.1)
    vp = GridPose(vx % width, vy % height)
    if cast:  # a star-shaped polygon with ragged walls
        mean = OccupancyGrid(rng.random((height, width)) * 0.5, 0.1)
        ends = probabilistic_raycast(vp, mean, RaycastConfig(n_rays=60, range_lambda=6.0))
    else:
        ends = np.array([(x % width, y % height) for x, y in corners], dtype=np.int64)
    mask = visibility_mask(vp, ends, observed)
    expected = visibility_mask_label_reference(vp, ends, observed)
    if expected is None:
        assert len(mask) == 0 and mask.keep.shape == (0, 0)
    else:
        assert mask.box == expected[0]
        assert np.array_equal(mask.keep, expected[1])


def test_info_gain_zero_cases():
    var = new_grid(10, 10)
    var.cells[:] = 0.0
    mask = box_mask([[1, 1], [2, 3]])
    assert info_gain(mask, var) == 0.0
    assert info_gain(box_mask([]), var) == 0.0


def test_info_gain_uniform_sum():
    var = OccupancyGrid(np.full((10, 10), 0.125), 0.1)
    cells = box_mask([[x, y] for x in range(3) for y in range(4)])
    assert info_gain(cells, var) == pytest.approx(12 * 0.125)


def test_info_gain_matches_per_cell_oracle():
    rng = np.random.default_rng(25)
    for _ in range(100):
        var = OccupancyGrid(rng.random((16, 16)) * 0.25, 0.1)
        k = int(rng.integers(0, 40))
        xs = rng.integers(0, 16, size=k)
        ys = rng.integers(0, 16, size=k)
        oracle = 0.0
        for x, y in set(zip(xs, ys)):  # a mask holds a cell once
            oracle += var.cells[y, x]
        assert info_gain(box_mask(np.stack([xs, ys], axis=1)), var) == pytest.approx(
            oracle, rel=1e-12, abs=1e-15)


def test_info_gain_additive_and_monotone():
    rng = np.random.default_rng(26)
    var = OccupancyGrid(rng.random((12, 12)) * 0.25, 0.1)
    all_cells = np.array([[x, y] for x in range(12) for y in range(12)])
    a = all_cells[:60]
    b = all_cells[60:]
    ga = info_gain(box_mask(a), var)
    gb = info_gain(box_mask(b), var)
    gall = info_gain(box_mask(all_cells), var)
    assert gall == pytest.approx(ga + gb, rel=1e-12)
    assert gall >= ga and gall >= gb


def test_info_gain_dimension_mismatch():
    var = new_grid(4, 4)
    mask = box_mask([[10, 10]])
    with pytest.raises(ValueError):
        info_gain(mask, var)


def test_raycast_config_validation():
    with pytest.raises(ValueError):
        RaycastConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        RaycastConfig(n_rays=4)
    with pytest.raises(ValueError):
        RaycastConfig(range_lambda=-1.0)

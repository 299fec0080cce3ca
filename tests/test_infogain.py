import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exploresim import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    GridPose,
    OccupancyGrid,
    RaycastConfig,
    SensorSpec,
    deterministic_raycast,
    info_gain,
    new_grid,
    probabilistic_raycast,
    simulate_scan,
    visibility_mask,
)


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
@given(seed=st.integers(0, 2**32 - 1), side=st.integers(4, 32), vx=st.integers(0, 31),
       vy=st.integers(0, 31), n_rays=st.integers(8, 64), range_dm=st.integers(1, 30))
def test_observed_map_cast_equals_cast_with_unknown_as_free(seed, side, vx, vy, n_rays,
                                                            range_dm):
    # The observed_map scorer casts the three-label observed map directly:
    # unknown must let rays through exactly as free space does.
    rng = np.random.default_rng(seed)
    observed = OccupancyGrid(rng.choice([FREE, UNKNOWN, OCCUPIED], size=(side, side)), 0.1)
    as_free = OccupancyGrid(np.where(observed.cells == UNKNOWN, FREE, observed.cells), 0.1)
    vp = GridPose(vx % side, vy % side)
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
    mask = visibility_mask(vp, ends, observed)
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
    mask = visibility_mask(vp, ends, observed)
    for x, y in mask:
        assert observed.cells[y, x] == UNKNOWN
        assert np.hypot(x - vp.x, y - vp.y) <= cfg.range_lambda / 0.1 + 1e-9


def test_visibility_mask_degenerate_viewpoint_on_boundary():
    observed = new_grid(9, 9, 0.1)
    ends = np.array([[4, 4], [5, 4], [4, 5]])  # polygon through vp
    mask = visibility_mask(GridPose(4, 4), ends, observed)
    assert mask.shape == (0, 2)


def test_info_gain_zero_cases():
    var = new_grid(10, 10)
    var.cells[:] = 0.0
    mask = np.array([[1, 1], [2, 3]])
    assert info_gain(mask, var) == 0.0
    assert info_gain(np.empty((0, 2), dtype=int), var) == 0.0


def test_info_gain_uniform_sum():
    var = OccupancyGrid(np.full((10, 10), 0.125), 0.1)
    cells = np.array([[x, y] for x in range(3) for y in range(4)])
    assert info_gain(cells, var) == pytest.approx(12 * 0.125)


def test_info_gain_matches_per_cell_oracle():
    rng = np.random.default_rng(25)
    for _ in range(100):
        var = OccupancyGrid(rng.random((16, 16)) * 0.25, 0.1)
        k = int(rng.integers(0, 40))
        xs = rng.integers(0, 16, size=k)
        ys = rng.integers(0, 16, size=k)
        mask = np.stack([xs, ys], axis=1)
        oracle = 0.0
        for x, y in zip(xs, ys):
            oracle += var.cells[y, x]
        assert info_gain(mask, var) == pytest.approx(oracle, rel=1e-12, abs=1e-15)


def test_info_gain_additive_and_monotone():
    rng = np.random.default_rng(26)
    var = OccupancyGrid(rng.random((12, 12)) * 0.25, 0.1)
    all_cells = np.array([[x, y] for x in range(12) for y in range(12)])
    a = all_cells[:60]
    b = all_cells[60:]
    ga = info_gain(a, var)
    gb = info_gain(b, var)
    gall = info_gain(all_cells, var)
    assert gall == pytest.approx(ga + gb, rel=1e-12)
    assert gall >= ga and gall >= gb


def test_info_gain_dimension_mismatch():
    var = new_grid(4, 4)
    mask = np.array([[10, 10]])
    with pytest.raises(ValueError):
        info_gain(mask, var)


def test_raycast_config_validation():
    with pytest.raises(ValueError):
        RaycastConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        RaycastConfig(n_rays=4)
    with pytest.raises(ValueError):
        RaycastConfig(range_lambda=-1.0)

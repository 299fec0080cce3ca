import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exploresim import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    GridPose,
    InvalidStateError,
    OccupancyGrid,
    RaycastConfig,
    RobotState,
    Scan,
    SensorSpec,
    apply_action,
    deterministic_raycast,
    generate_floorplan,
    integrate_scan,
    new_grid,
    simulate_scan,
)


def walk_ray_oracle(cells, x, y, angle, range_cells):
    """Independent reference walk: sample every quarter cell along the ray
    (cell = origin + floor(0.5 + d*dir)), report the first occupied cell,
    else the last in-bounds cell."""
    h, w = cells.shape
    dx, dy = math.cos(angle), math.sin(angle)
    n = int(math.floor(range_cells / 0.25 + 1e-9))
    last = (x, y)
    for k in range(n + 1):
        d = k * 0.25
        cx = x + math.floor(0.5 + d * dx)
        cy = y + math.floor(0.5 + d * dy)
        if not (0 <= cx < w and 0 <= cy < h):
            return last, False
        if cells[cy, cx] > 0.5:
            return (cx, cy), True
        last = (cx, cy)
    return last, False


def random_binary_map(rng, n, density=0.2):
    cells = (rng.random((n, n)) < density).astype(float)
    cells[n // 2, n // 2] = FREE
    return OccupancyGrid(cells, 0.1)


def test_unobstructed_rays_reach_max_range():
    gt = OccupancyGrid(np.zeros((401, 401)), 0.1)
    scan = simulate_scan(gt, GridPose(200, 200), SensorSpec(range_lambda=20.0, n_rays=16))
    assert not scan.hits.any()
    d = np.hypot(scan.endpoints[:, 0] - 200, scan.endpoints[:, 1] - 200)
    assert (np.abs(d - 200.0) <= 1.0).all()


def test_adjacent_wall_is_hit():
    gt = OccupancyGrid(np.zeros((11, 11)), 0.1)
    gt.cells[5, 6] = OCCUPIED  # directly east of the pose
    scan = simulate_scan(gt, GridPose(5, 5), SensorSpec(range_lambda=2.0, n_rays=8))
    # ray 0 points along +x
    assert (GridPose(*scan.endpoints[0]), scan.hits[0]) == (GridPose(6, 5), True)


def test_scan_requires_free_pose():
    gt = OccupancyGrid(np.zeros((5, 5)), 0.1)
    gt.cells[2, 2] = OCCUPIED
    with pytest.raises(InvalidStateError):
        simulate_scan(gt, GridPose(2, 2), SensorSpec(2.0, 8))


def test_scan_endpoints_match_quarter_step_walk_oracle():
    rng = np.random.default_rng(42)
    spec = SensorSpec(range_lambda=3.0, n_rays=64)
    for _ in range(10):
        gt = random_binary_map(rng, 64)
        pose = GridPose(32, 32)
        scan = simulate_scan(gt, pose, spec)
        range_cells = spec.range_lambda / gt.resolution
        for j in range(spec.n_rays):
            angle = j * (2.0 * math.pi / spec.n_rays)
            (ex, ey), hit = walk_ray_oracle(gt.cells, 32, 32, angle, range_cells)
            assert (scan.endpoints[j, 0], scan.endpoints[j, 1]) == (ex, ey)
            assert scan.hits[j] == hit


def test_scan_rotation_symmetry_on_open_map():
    gt = OccupancyGrid(np.zeros((201, 201)), 0.1)
    spec = SensorSpec(range_lambda=5.0, n_rays=40)
    scan = simulate_scan(gt, GridPose(100, 100), spec)
    q = spec.n_rays // 4
    for j in range(spec.n_rays):
        x, y = scan.endpoints[j] - 100
        # 90° rotation in image coordinates (y down): (x, y) -> (-y, x)
        rx, ry = scan.endpoints[(j + q) % spec.n_rays] - 100
        assert abs(rx - (-y)) <= 1 and abs(ry - x) <= 1


def test_scan_soundness_against_ground_truth():
    rng = np.random.default_rng(7)
    spec = SensorSpec(range_lambda=3.0, n_rays=100)
    for _ in range(5):
        gt = random_binary_map(rng, 48)
        scan = simulate_scan(gt, GridPose(24, 24), spec)
        fx, fy = scan.free_cells[:, 0], scan.free_cells[:, 1]
        assert (gt.cells[fy, fx] == FREE).all()
        hx = scan.endpoints[scan.hits, 0]
        hy = scan.endpoints[scan.hits, 1]
        assert (gt.cells[hy, hx] == OCCUPIED).all()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), side=st.integers(4, 32),
       density=st.floats(0.0, 0.6), pick=st.integers(0, 2**16),
       n_rays=st.integers(8, 64), range_dm=st.integers(1, 30))
def test_scan_shares_the_scoring_ray_end_rule(seed, side, density, pick, n_rays, range_dm):
    # On a binary plan, from any free pose, the sensor and the deterministic
    # scoring cast end every ray on the same cell; the scan is sound.
    rng = np.random.default_rng(seed)
    gt = OccupancyGrid((rng.random((side, side)) < density).astype(float), 0.1)
    free_ys, free_xs = np.nonzero(gt.cells == FREE)
    if len(free_xs) == 0:
        return
    pose = GridPose(int(free_xs[pick % len(free_xs)]), int(free_ys[pick % len(free_xs)]))
    scan = simulate_scan(gt, pose, SensorSpec(range_lambda=range_dm / 10, n_rays=n_rays))
    cfg = RaycastConfig(n_rays=n_rays, range_lambda=range_dm / 10)
    assert np.array_equal(scan.endpoints, deterministic_raycast(pose, gt, cfg))
    fx, fy = scan.free_cells[:, 0], scan.free_cells[:, 1]
    assert (gt.cells[fy, fx] == FREE).all()
    hx, hy = scan.endpoints[scan.hits, 0], scan.endpoints[scan.hits, 1]
    assert (gt.cells[hy, hx] == OCCUPIED).all()


def test_integrate_single_ray():
    observed = new_grid(11, 11, 0.1)
    scan = Scan(
        endpoints=np.array([[7, 5]]),
        hits=np.array([True]),
        free_cells=np.array([[2, 5], [3, 5], [4, 5], [5, 5], [6, 5]]),
    )
    integrate_scan(observed, scan)
    assert (observed.cells[5, 2:7] == FREE).all()
    assert observed.cells[5, 7] == OCCUPIED
    assert (observed.cells == UNKNOWN).sum() == 121 - 6


def test_integrate_is_idempotent():
    rng = np.random.default_rng(3)
    gt = random_binary_map(rng, 32)
    scan = simulate_scan(gt, GridPose(16, 16), SensorSpec(2.0, 64))
    a = new_grid(32, 32, 0.1)
    integrate_scan(a, scan)
    b = a.copy()
    integrate_scan(b, scan)
    assert a == b


def test_integrate_never_reverts_known_cells():
    rng = np.random.default_rng(4)
    gt = random_binary_map(rng, 32)
    observed = new_grid(32, 32, 0.1)
    spec = SensorSpec(2.0, 64)
    known_count = 0
    free_ys, free_xs = np.nonzero(gt.cells == FREE)
    for i in range(0, len(free_xs), 37):
        pose = GridPose(int(free_xs[i]), int(free_ys[i]))
        integrate_scan(observed, simulate_scan(gt, pose, spec))
        now = int((observed.cells != UNKNOWN).sum())
        assert now >= known_count
        known_count = now


def test_exhaustive_scanning_recovers_a_closed_room():
    # Closed 16x16 room: scanning from every free cell must reproduce the
    # ground truth exactly inside the room.
    gt = OccupancyGrid(np.zeros((16, 16)), 0.1)
    gt.cells[0, :] = gt.cells[-1, :] = OCCUPIED
    gt.cells[:, 0] = gt.cells[:, -1] = OCCUPIED
    gt.cells[8, 4:9] = OCCUPIED  # interior wall stub
    observed = new_grid(16, 16, 0.1)
    spec = SensorSpec(range_lambda=3.0, n_rays=720)
    ys, xs = np.nonzero(gt.cells == FREE)
    for x, y in zip(xs, ys):
        integrate_scan(observed, simulate_scan(gt, GridPose(int(x), int(y)), spec))
    assert observed == gt


def test_apply_action_moves_diagonally():
    gt = OccupancyGrid(np.zeros((10, 10)), 0.1)
    s = apply_action(RobotState(GridPose(5, 5), t=3), (1, -1), gt)  # NE: y grows down
    assert s.pose == GridPose(6, 4)
    assert s.t == 4


def test_apply_action_blocked_is_noop_but_costs_time():
    gt = OccupancyGrid(np.zeros((10, 10)), 0.1)
    gt.cells[4, 5] = OCCUPIED
    s = apply_action(RobotState(GridPose(5, 5), t=0), (0, -1), gt)
    assert s.pose == GridPose(5, 5)
    assert s.t == 1


def test_apply_action_off_grid_is_noop():
    gt = OccupancyGrid(np.zeros((4, 4)), 0.1)
    s = apply_action(RobotState(GridPose(0, 0), t=0), (-1, -1), gt)
    assert s.pose == GridPose(0, 0)
    assert s.t == 1


def test_apply_action_stays_in_place():
    gt = OccupancyGrid(np.zeros((4, 4)), 0.1)
    s = apply_action(RobotState(GridPose(1, 1), t=2), (0, 0), gt)
    assert (s.pose, s.t) == (GridPose(1, 1), 3)


def test_apply_action_rejects_a_multi_cell_move():
    gt = OccupancyGrid(np.zeros((4, 4)), 0.1)
    for delta in ((2, 0), (0, -2), (1, 2)):
        with pytest.raises(ValueError):
            apply_action(RobotState(GridPose(1, 1)), delta, gt)


def flood_free_component(cells, start):
    """Independent 8-connected flood fill over free cells."""
    h, w = cells.shape
    seen = {start}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nx, ny = x + dx, y + dy
                if 0 <= nx < w and 0 <= ny < h and (nx, ny) not in seen \
                        and cells[ny, nx] == FREE:
                    seen.add((nx, ny))
                    queue.append((nx, ny))
    return seen


def test_floorplan_deterministic_per_seed():
    a = generate_floorplan(9, 80, 64)
    b = generate_floorplan(9, 80, 64)
    assert a == b
    c = generate_floorplan(10, 80, 64)
    assert a != c


@pytest.mark.parametrize("seed", range(6))
def test_floorplan_free_space_is_one_component(seed):
    gt = generate_floorplan(seed, 100, 90)
    ys, xs = np.nonzero(gt.cells == FREE)
    assert len(xs) > 0
    component = flood_free_component(gt.cells, (int(xs[0]), int(ys[0])))
    assert len(component) == len(xs)


@pytest.mark.parametrize("seed", range(4))
def test_floorplan_boundary_ring_occupied(seed):
    gt = generate_floorplan(seed, 70, 120)
    assert (gt.cells[0, :] == OCCUPIED).all()
    assert (gt.cells[-1, :] == OCCUPIED).all()
    assert (gt.cells[:, 0] == OCCUPIED).all()
    assert (gt.cells[:, -1] == OCCUPIED).all()


def test_floorplan_is_binary():
    gt = generate_floorplan(2, 60, 60)
    assert set(np.unique(gt.cells)) <= {FREE, OCCUPIED}


def test_floorplan_rejects_too_small():
    with pytest.raises(ValueError):
        generate_floorplan(0, 40, 200)
    with pytest.raises(ValueError):
        generate_floorplan(0, 60, 60, room_count_range=(0, 0))


def test_sensor_spec_validation():
    with pytest.raises(ValueError):
        SensorSpec(range_lambda=0.0)
    with pytest.raises(ValueError):
        SensorSpec(n_rays=3)

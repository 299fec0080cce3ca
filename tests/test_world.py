import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exploresim import world
from exploresim.errors import InvalidStateError
from exploresim.grid import FREE, OCCUPIED, UNKNOWN, GridPose, OccupancyGrid, new_grid
from exploresim.infogain import RaycastConfig, deterministic_raycast
from exploresim.metrics import building_footprint, coverage_of, coverage_percent
from exploresim.planner import astar
from exploresim.trace import end_columns, gather_values, ray_cell_table
from exploresim.world import (
    Scan,
    SensorSpec,
    apply_action,
    generate_floorplan,
    integrate_scan,
    simulate_scan,
)
from test_trace import first_block


def walk_ray_oracle(cells, x, y, angle, range_cells):
    """Independent reference walk: sample every quarter cell along the ray
    (cell = origin + floor(0.5 + d*dir)). Returns (end, hit, passed): the
    first occupied cell, else the last in-bounds cell; whether the ray hit;
    and the set of (x, y) cells it passed through without hitting."""
    h, w = cells.shape
    dx, dy = math.cos(angle), math.sin(angle)
    n = int(math.floor(range_cells / 0.25 + 1e-9))
    last = (x, y)
    passed = set()
    for k in range(n + 1):
        d = k * 0.25
        cx = x + math.floor(0.5 + d * dx)
        cy = y + math.floor(0.5 + d * dy)
        if not (0 <= cx < w and 0 <= cy < h):
            return last, False, passed
        if cells[cy, cx] > 0.5:
            return (cx, cy), True, passed
        last = (cx, cy)
        passed.add(last)
    return last, False, passed


def assert_scan_matches_oracle(gt, x, y, n_rays, range_dm):
    """The scan of `n_rays` rays of `range_dm` cells from (x, y) on `gt`
    (0.1 m cells) ends every ray where the oracle does and lists exactly the
    cells the oracle passes, once each, as ascending flat indices."""
    scan = simulate_scan(gt, GridPose(x, y), SensorSpec(range_lambda=range_dm / 10, n_rays=n_rays))
    passed = set()
    for j in range(n_rays):
        end, hit, cells = walk_ray_oracle(gt.cells, x, y, j * (2.0 * math.pi / n_rays), range_dm)
        assert (tuple(scan.endpoints[j].tolist()), scan.hits[j]) == (end, hit), j
        passed |= cells
    assert scan.free_cells.tolist() == sorted(cy * gt.width + cx for cx, cy in passed)


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
            (ex, ey), hit, _ = walk_ray_oracle(gt.cells, 32, 32, angle, range_cells)
            assert (scan.endpoints[j, 0], scan.endpoints[j, 1]) == (ex, ey)
            assert scan.hits[j] == hit


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 40), height=st.integers(1, 40),
       density=st.floats(0.0, 0.6), walls=st.lists(st.tuples(st.integers(0, 39),
                                                              st.integers(0, 39)), max_size=3),
       pick=st.integers(0, 2**16), n_rays=st.integers(4, 64), range_dm=st.integers(1, 60),
       first=st.sampled_from([None, 1, 2, 3]))
# A 40x6 strip from its middle: 10 cells of range pass the top and bottom
# edges but neither end.
@example(seed=1, width=40, height=6, density=0.0, walls=[], pick=2 * 40 + 20, n_rays=64,
         range_dm=10, first=None)
# Blocks [0, 2), [2, 6), [6, 14): the +x ray from (0, 0) meets a wall on
# column 2, the first of the second block, with its prefix going on past it.
@example(seed=0, width=10, height=1, density=0.0, walls=[(2, 0)], pick=0, n_rays=4,
         range_dm=9, first=2)
# The +x ray from (0, 0) misses and leaves the grid after column 5, the last
# of the second block, while the +y ray runs on into the third.
@example(seed=0, width=6, height=12, density=0.0, walls=[], pick=0, n_rays=4, range_dm=9,
         first=2)
# The same with a grid one column narrower: the +x ray's prefix ends inside
# the second block.
@example(seed=0, width=5, height=12, density=0.0, walls=[], pick=0, n_rays=4, range_dm=9,
         first=2)
# From each corner of an open 9x5 grid, 12 cells of range pass the far
# corner: past their prefixes, the walk's grid indices fall below 0 or past
# the last cell, and the reads clip them.
@example(seed=0, width=9, height=5, density=0.0, walls=[], pick=0, n_rays=64, range_dm=12,
         first=None)
@example(seed=0, width=9, height=5, density=0.0, walls=[], pick=8, n_rays=64, range_dm=12,
         first=2)
@example(seed=0, width=9, height=5, density=0.0, walls=[], pick=36, n_rays=64, range_dm=12,
         first=2)
@example(seed=0, width=9, height=5, density=0.0, walls=[], pick=44, n_rays=64, range_dm=12,
         first=None)
# On a grid one cell wide the +x and +y rays from (0, 0) share their flat
# offsets, 0 and 1, but not their cells: the +x ray leaves the grid at once.
@example(seed=0, width=1, height=2, density=0.0, walls=[], pick=0, n_rays=4, range_dm=1,
         first=None)
def test_scan_matches_the_quarter_step_oracle_from_any_pose(seed, width, height, density, walls,
                                                            pick, n_rays, range_dm, first):
    # Any free pose on any grid shape, border cells included, and ranges up
    # to past the far corner: rays leave the grid at every side and some
    # stay inside it. Up to 64 rays fit the scan's default first block;
    # `first` shrinks it to 1-3 columns, so that rays stop, miss and leave
    # the grid in many blocks and on block edges.
    rng = np.random.default_rng(seed)
    cells = (rng.random((height, width)) < density).astype(float)
    for wx, wy in walls:
        cells[wy % height, wx % width] = OCCUPIED
    free_ys, free_xs = np.nonzero(cells == FREE)
    if len(free_xs) == 0:
        return
    x, y = int(free_xs[pick % len(free_xs)]), int(free_ys[pick % len(free_xs)])
    with first_block(first):
        assert_scan_matches_oracle(OccupancyGrid(cells, 0.1), x, y, n_rays, range_dm)


def one_block_scan(gt, pose, spec):
    """Reference scan that reads the whole ray table at once: (endpoints,
    hits, free_cells) as `simulate_scan` returns them."""
    idx, length = ray_cell_table(pose, spec.n_rays, spec.range_lambda / gt.resolution, gt.shape)
    end_idx, hits = end_columns(gather_values(gt.cells > 0.5, idx), length)
    end = idx[np.arange(spec.n_rays), end_idx]
    seen = np.zeros(gt.cells.size, dtype=bool)
    seen[idx[np.arange(idx.shape[1]) < (end_idx + ~hits)[:, None]]] = True
    return np.stack([end % gt.width, end // gt.width], axis=1), hits, np.flatnonzero(seen)


def test_the_default_scan_on_a_generated_plan_equals_a_one_block_read(monkeypatch):
    # 2,500 rays of 200 cells on a 200x200 plan walk several blocks; values,
    # order and dtypes must equal a read of the whole table. The first block
    # is 13 columns, in which the rays hold only 604 distinct cell sequences:
    # the scan reads each of them once.
    gt = generate_floorplan(0, 200, 200)
    spec = SensorSpec()
    reads = []
    monkeypatch.setattr(world, "gather_values",
                        lambda cells, idx: reads.append(idx.shape) or gather_values(cells, idx))
    free_ys, free_xs = np.nonzero(gt.cells == FREE)
    rng = np.random.default_rng(11)
    for i in rng.choice(len(free_xs), 50, replace=False):
        pose = GridPose(int(free_xs[i]), int(free_ys[i]))
        reads.clear()
        scan = simulate_scan(gt, pose, spec)
        assert reads[0] == (604, 13), pose
        for got, want in zip((scan.endpoints, scan.hits, scan.free_cells),
                             one_block_scan(gt, pose, spec)):
            assert got.dtype == want.dtype and np.array_equal(got, want), pose


def test_one_sensor_scans_grids_of_different_widths():
    # The ray table holds flat offsets, which depend on the grid width: one
    # sensor must walk the right cells on each grid, in any order.
    rng = np.random.default_rng(3)
    for width in (30, 47, 30, 19):
        cells = (rng.random((30, width)) < 0.15).astype(float)
        cells[15, 12] = FREE
        assert_scan_matches_oracle(OccupancyGrid(cells, 0.1), 12, 15, 48, 25)


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
        assert (gt.cells.ravel()[scan.free_cells] == FREE).all()
        hx = scan.endpoints[scan.hits, 0]
        hy = scan.endpoints[scan.hits, 1]
        assert (gt.cells[hy, hx] == OCCUPIED).all()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 40), height=st.integers(1, 40),
       density=st.floats(0.0, 0.6), pick=st.integers(0, 2**16),
       n_rays=st.integers(8, 64), range_dm=st.integers(1, 30))
def test_scan_shares_the_scoring_ray_end_rule(seed, width, height, density, pick, n_rays,
                                              range_dm):
    # On a binary plan, from any free pose, the sensor and the deterministic
    # scoring cast end every ray on the same cell; the scan is sound.
    rng = np.random.default_rng(seed)
    gt = OccupancyGrid((rng.random((height, width)) < density).astype(float), 0.1)
    free_ys, free_xs = np.nonzero(gt.cells == FREE)
    if len(free_xs) == 0:
        return
    pose = GridPose(int(free_xs[pick % len(free_xs)]), int(free_ys[pick % len(free_xs)]))
    scan = simulate_scan(gt, pose, SensorSpec(range_lambda=range_dm / 10, n_rays=n_rays))
    cfg = RaycastConfig(n_rays=n_rays, range_lambda=range_dm / 10)
    assert np.array_equal(scan.endpoints, deterministic_raycast(pose, gt, cfg))
    assert (gt.cells.ravel()[scan.free_cells] == FREE).all()
    hx, hy = scan.endpoints[scan.hits, 0], scan.endpoints[scan.hits, 1]
    assert (gt.cells[hy, hx] == OCCUPIED).all()


def test_integrate_single_ray():
    observed = new_grid(11, 11, 0.1)
    scan = Scan(
        endpoints=np.array([[7, 5]]),
        hits=np.array([True]),
        free_cells=np.array([5 * 11 + x for x in range(2, 7)]),
    )
    new = integrate_scan(observed, scan)
    assert sorted(new.tolist()) == [5 * 11 + x for x in range(2, 8)]
    assert (observed.cells[5, 2:7] == FREE).all()
    assert observed.cells[5, 7] == OCCUPIED
    assert (observed.cells == UNKNOWN).sum() == 121 - 6


def test_integrate_returns_each_newly_known_cell_once():
    # Two rays hit (7, 5); (2, 5) is known already; (3, 5) is listed as both
    # passed and hit, so it ends occupied and counts once.
    observed = new_grid(11, 11, 0.1)
    observed.cells[5, 2] = FREE
    scan = Scan(endpoints=np.array([[7, 5], [7, 5], [3, 5], [2, 5]]),
                hits=np.array([True, True, True, False]),
                free_cells=np.array([5 * 11 + x for x in range(2, 7)]))
    new = integrate_scan(observed, scan)
    assert sorted(new.tolist()) == [5 * 11 + x for x in range(3, 8)]
    assert observed.cells[5, 3] == observed.cells[5, 7] == OCCUPIED
    assert len(integrate_scan(observed, scan)) == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(3, 30), height=st.integers(3, 30),
       density=st.floats(0.0, 0.5), n_scans=st.integers(1, 6), n_rays=st.integers(4, 64),
       range_dm=st.integers(1, 40))
def test_the_running_count_of_newly_known_cells_is_the_coverage(seed, width, height, density,
                                                                n_scans, n_rays, range_dm):
    # An episode counts the footprint cells each scan made known; after
    # every scan that count gives `coverage_of`'s float, and no known cell
    # went back to unknown. A closed ring keeps the footprint the whole plan.
    rng = np.random.default_rng(seed)
    cells = (rng.random((height, width)) < density).astype(float)
    cells[[0, -1], :] = cells[:, [0, -1]] = OCCUPIED
    gt = OccupancyGrid(cells, 0.1)
    free = np.flatnonzero(gt.cells == FREE)
    if len(free) == 0:
        return
    footprint = building_footprint(gt)
    total = int(footprint.sum())
    observed = new_grid(width, height, 0.1)
    spec = SensorSpec(range_lambda=range_dm / 10, n_rays=n_rays)
    known = 0
    for i in rng.choice(free, n_scans):
        before = observed.cells != UNKNOWN
        new = integrate_scan(observed, simulate_scan(gt, GridPose(int(i % width),
                                                                 int(i // width)), spec))
        after = observed.cells != UNKNOWN
        assert (after >= before).all()
        assert sorted(new.tolist()) == np.flatnonzero(after & ~before).tolist()
        known += int(footprint.ravel()[new].sum())
        assert coverage_percent(known, total) == coverage_of(observed, footprint)


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
    assert apply_action(GridPose(5, 5), (1, -1), gt) == GridPose(6, 4)  # NE: y grows down


def test_apply_action_blocked_is_noop_but_costs_time():
    gt = OccupancyGrid(np.zeros((10, 10)), 0.1)
    gt.cells[4, 5] = OCCUPIED
    assert apply_action(GridPose(5, 5), (0, -1), gt) == GridPose(5, 5)


def test_apply_action_off_grid_is_noop():
    gt = OccupancyGrid(np.zeros((4, 4)), 0.1)
    assert apply_action(GridPose(0, 0), (-1, -1), gt) == GridPose(0, 0)


def test_apply_action_stays_in_place():
    gt = OccupancyGrid(np.zeros((4, 4)), 0.1)
    assert apply_action(GridPose(1, 1), (0, 0), gt) == GridPose(1, 1)


def test_apply_action_rejects_a_multi_cell_move():
    gt = OccupancyGrid(np.zeros((4, 4)), 0.1)
    for delta in ((2, 0), (0, -2), (1, 2)):
        with pytest.raises(ValueError):
            apply_action(GridPose(1, 1), delta, gt)


def test_apply_action_closed_corner_is_noop():
    # astar's rule: no diagonal step between two blocked orthogonal cells.
    gt = OccupancyGrid(np.zeros((3, 3)), 0.1)
    gt.cells[0, 1] = gt.cells[1, 0] = OCCUPIED
    assert apply_action(GridPose(0, 0), (1, 1), gt) == GridPose(0, 0)
    assert astar(gt.cells != FREE, GridPose(0, 0), GridPose(1, 1)) is None
    gt.cells[0, 1] = FREE  # one open orthogonal cell lets the diagonal through
    assert apply_action(GridPose(0, 0), (1, 1), gt) == GridPose(1, 1)


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

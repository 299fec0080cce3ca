from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exploresim.grid import FREE, OCCUPIED, GridPose, OccupancyGrid, new_grid
from exploresim.metrics import (
    auc,
    building_footprint,
    coverage_of,
    iou_occupied,
    topological_understanding,
)
from exploresim.planner import astar, reach_avoiding


def _room_with_margin(n=30, margin=6):
    """A closed square room surrounded by exterior free margin."""
    cells = np.zeros((n, n))
    lo, hi = margin, n - margin
    cells[lo, lo:hi] = cells[hi - 1, lo:hi] = OCCUPIED
    cells[lo:hi, lo] = cells[lo:hi, hi - 1] = OCCUPIED
    return OccupancyGrid(cells, 0.1), (lo, hi)


def exterior_reachable_oracle(cells):
    """Independent 4-connected reachability from the border over free cells."""
    h, w = cells.shape
    seen = set()
    queue = deque()
    for x in range(w):
        for y in (0, h - 1):
            if cells[y, x] == FREE and (x, y) not in seen:
                seen.add((x, y))
                queue.append((x, y))
    for y in range(h):
        for x in (0, w - 1):
            if cells[y, x] == FREE and (x, y) not in seen:
                seen.add((x, y))
                queue.append((x, y))
    while queue:
        x, y = queue.popleft()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h and (nx, ny) not in seen \
                    and cells[ny, nx] == FREE:
                seen.add((nx, ny))
                queue.append((nx, ny))
    return seen


def test_footprint_with_free_border_is_walls_plus_interior():
    gt, (lo, hi) = _room_with_margin()
    fp = building_footprint(gt)
    ys, xs = np.nonzero(fp)
    assert set(zip(xs, ys)) == {
        (x, y)
        for x in range(lo, hi)
        for y in range(lo, hi)
    }


def test_footprint_keeps_pockets_and_drops_every_border_margin():
    # The margin touches all four borders and is cut in four by walls that
    # run out to the borders, so it is four components. The building holds
    # a free pocket; a diamond of walls in the margin holds a one-cell
    # pocket whose only free neighbours are diagonal.
    plan = [
        "....#.......",
        "....#.......",
        ".#######....",
        ".#.....#####",
        "##.....#....",
        ".#.....#....",
        ".#######....",
        "....#...##..",
        "....#..#.#..",
        "....#...#...",
    ]
    gt = OccupancyGrid(np.array([[c == "#" for c in row] for row in plan], dtype=float), 0.1)
    outside = exterior_reachable_oracle(gt.cells)
    assert {(x, y) for x in (0, 11) for y in (0, 9)} <= outside  # the four corners
    assert (8, 8) not in outside and (3, 4) not in outside
    expected = np.array([[(x, y) not in outside for x in range(12)] for y in range(10)])
    assert np.array_equal(building_footprint(gt), expected)


def test_footprint_fully_occupied_map():
    gt = OccupancyGrid(np.ones((8, 8)), 0.1)
    assert building_footprint(gt).all()


def test_footprint_matches_reachability_oracle_on_random_maps():
    rng = np.random.default_rng(51)
    for _ in range(20):
        gt = OccupancyGrid((rng.random((24, 24)) < 0.35).astype(float), 0.1)
        fp = building_footprint(gt)
        reach = exterior_reachable_oracle(gt.cells)
        for y in range(24):
            for x in range(24):
                assert fp[y, x] == ((x, y) not in reach)


def test_coverage_all_unknown_is_zero():
    gt, _ = _room_with_margin()
    assert coverage_of(new_grid(30, 30), building_footprint(gt)) == 0.0


def test_coverage_complete_is_100():
    gt, _ = _room_with_margin()
    observed = OccupancyGrid(gt.cells.copy(), 0.1)
    assert coverage_of(observed, building_footprint(gt)) == pytest.approx(100.0)


def test_coverage_half_split_exact():
    # Footprint = a 10x10 solid block (100 cells); reveal exactly 50 of them.
    cells = np.zeros((20, 20))
    cells[5:15, 5:15] = OCCUPIED
    gt = OccupancyGrid(cells, 0.1)
    observed = new_grid(20, 20)
    observed.cells[5:10, 5:15] = OCCUPIED  # 50 footprint cells known
    assert coverage_of(observed, building_footprint(gt)) == pytest.approx(50.0)


def test_coverage_dimension_mismatch():
    gt, _ = _room_with_margin()
    with pytest.raises(ValueError):
        coverage_of(new_grid(10, 10), building_footprint(gt))
    with pytest.raises(ValueError):  # would broadcast without the shape check
        coverage_of(new_grid(30, 1), building_footprint(gt))


def test_coverage_ignores_exterior_cells():
    gt, (lo, hi) = _room_with_margin()
    observed = new_grid(30, 30)
    observed.cells[0:3, 0:3] = FREE  # exterior-only knowledge
    assert coverage_of(observed, building_footprint(gt)) == 0.0


def test_iou_identical_maps():
    gt, _ = _room_with_margin()
    fp = building_footprint(gt)
    assert iou_occupied(gt, gt, fp) == 1.0


def test_iou_disjoint_sets():
    fp = building_footprint(OccupancyGrid(np.ones((6, 6)), 0.1))  # everywhere
    a = OccupancyGrid(np.zeros((6, 6)), 0.1)
    b = OccupancyGrid(np.zeros((6, 6)), 0.1)
    a.cells[0, :] = OCCUPIED
    b.cells[5, :] = OCCUPIED
    assert iou_occupied(a, b, fp) == 0.0


def test_iou_partial_overlap():
    # pred occupied: 10 cells, truth occupied: 10 cells, overlap 5 -> 5/15
    fp = building_footprint(OccupancyGrid(np.ones((5, 5)), 0.1))
    pred = OccupancyGrid(np.zeros((5, 5)), 0.1)
    truth = OccupancyGrid(np.zeros((5, 5)), 0.1)
    pred.cells[0, :] = OCCUPIED
    pred.cells[1, :] = OCCUPIED
    truth.cells[1, :] = OCCUPIED
    truth.cells[2, :] = OCCUPIED
    assert iou_occupied(pred, truth, fp) == pytest.approx(5 / 15)


def test_iou_symmetric():
    rng = np.random.default_rng(52)
    fpgrid = OccupancyGrid(np.ones((12, 12)), 0.1)
    fp = building_footprint(fpgrid)
    a = OccupancyGrid((rng.random((12, 12)) < 0.4).astype(float), 0.1)
    b = OccupancyGrid((rng.random((12, 12)) < 0.4).astype(float), 0.1)
    assert iou_occupied(a, b, fp) == iou_occupied(b, a, fp)


def test_iou_empty_sets_is_one():
    gt = OccupancyGrid(np.zeros((6, 6)), 0.1)
    fp = building_footprint(gt)  # all exterior -> empty footprint
    assert iou_occupied(gt, gt, fp) == 1.0


def test_tu_perfect_prediction_on_connected_map():
    gt, (lo, hi) = _room_with_margin(24, 4)
    start = GridPose(lo + 2, lo + 2)
    tu = topological_understanding(gt, gt, start, n_goals=50, seed=3)
    assert tu == 1.0


def test_tu_all_occupied_prediction_fails_everywhere():
    gt, (lo, hi) = _room_with_margin(24, 4)
    blockedmap = OccupancyGrid(np.ones((24, 24)), 0.1)
    start = GridPose(lo + 2, lo + 2)
    assert topological_understanding(blockedmap, gt, start, n_goals=20, seed=3) == 0.0


def test_tu_optimistic_prediction_collides_with_truth():
    # Prediction says all free; ground truth bisects start from every goal:
    # all plans cross the wall and fail the collision check.
    cells = np.zeros((20, 20))
    cells[0, :] = cells[-1, :] = OCCUPIED
    cells[:, 0] = cells[:, -1] = OCCUPIED
    cells[10, :] = OCCUPIED  # full bisecting wall
    gt = OccupancyGrid(cells, 0.1)
    pred = OccupancyGrid(np.zeros((20, 20)), 0.1)
    start = GridPose(5, 5)
    ys, xs = np.nonzero((gt.cells == FREE))
    below = (ys > 10).sum()
    assert below > 0  # goals exist on the far side
    fp = building_footprint(gt)
    # restrict goals to the far side by masking the near side occupied in a
    # truth copy used only for sampling; simpler: sample many goals and check
    # that every far-side goal fails while same-side goals may succeed.
    tu = topological_understanding(pred, gt, start, n_goals=200, seed=9)
    # success only possible for same-side goals; far side exists, so tu < 1
    assert tu < 1.0
    # with the start boxed in completely, nothing succeeds
    cells2 = cells.copy()
    cells2[4:7, 4:7] = OCCUPIED
    cells2[5, 5] = FREE
    gt2 = OccupancyGrid(cells2, 0.1)
    assert topological_understanding(pred, gt2, start, n_goals=50, seed=9) == 0.0


def test_tu_seed_determinism():
    gt, (lo, hi) = _room_with_margin(24, 4)
    start = GridPose(lo + 2, lo + 2)
    rng = np.random.default_rng(53)
    noisy = OccupancyGrid((rng.random((24, 24)) < 0.3).astype(float), 0.1)
    noisy.cells[start.y, start.x] = FREE
    a = topological_understanding(noisy, gt, start, n_goals=40, seed=7)
    b = topological_understanding(noisy, gt, start, n_goals=40, seed=7)
    c = topological_understanding(noisy, gt, start, n_goals=40, seed=8)
    assert a == b
    assert 0.0 <= c <= 1.0


def test_tu_requires_free_start():
    gt, _ = _room_with_margin(24, 4)
    with pytest.raises(ValueError):
        topological_understanding(gt, gt, GridPose(4, 4), n_goals=5, seed=0)


def test_tu_needs_at_least_one_goal():
    gt, (lo, _) = _room_with_margin(24, 4)
    with pytest.raises(ValueError, match="at least one goal"):
        topological_understanding(gt, gt, GridPose(lo + 2, lo + 2), n_goals=0, seed=0)


def tu_astar_reference(predicted, gt, start, *, n_goals, seed):
    """TU scored by one A* search per goal: a goal counts when A*'s own path
    touches no ground-truth wall. It samples the same goals as
    `topological_understanding`, which counts a goal when any minimal-cost
    path does, so it is a lower bound on it."""
    footprint = building_footprint(gt)
    free = (gt.cells < 0.25) & footprint
    free[start.y, start.x] = False
    candidates = np.argwhere(free)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(candidates), size=n_goals, replace=len(candidates) < n_goals)
    blocked = predicted.cells > 0.5
    if blocked[start.y, start.x]:
        return 0.0
    gt_occ = gt.cells > 0.5
    successes = 0
    for k in picks:
        gy, gx = candidates[k]
        path = astar(blocked, start, GridPose(int(gx), int(gy)))
        if path is not None and not any(gt_occ[p.y, p.x] for p in path):
            successes += 1
    return successes / n_goals


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), side_x=st.integers(8, 24), side_y=st.integers(8, 24),
       density=st.floats(0.0, 0.4), flips=st.floats(0.0, 0.4), pick=st.integers(0, 2**16),
       n_goals=st.integers(1, 30))
def test_tu_is_at_least_the_astar_reference(seed, side_x, side_y, density, flips, pick,
                                            n_goals):
    rng = np.random.default_rng(seed)
    cells = (rng.random((side_y, side_x)) < density).astype(float)
    cells[0, :] = cells[-1, :] = cells[:, 0] = cells[:, -1] = OCCUPIED  # all in the footprint
    gt = OccupancyGrid(cells, 0.1)
    ys, xs = np.nonzero(gt.cells == FREE)  # density <= 0.4 leaves free cells
    start = GridPose(int(xs[pick % len(xs)]), int(ys[pick % len(xs)]))
    flipped = rng.random(gt.shape) < flips
    noisy = OccupancyGrid(np.where(flipped, 1.0 - gt.cells, gt.cells), 0.1)
    same = OccupancyGrid(np.where(gt.cells > 0.5, 0.9, 0.2), 0.1)  # binarizes to gt
    args = dict(n_goals=n_goals, seed=seed)
    assert topological_understanding(noisy, gt, start, **args) >= \
        tu_astar_reference(noisy, gt, start, **args)
    assert topological_understanding(same, gt, start, **args) == \
        tu_astar_reference(same, gt, start, **args)


def test_tu_counts_a_goal_when_any_minimal_plan_avoids_the_walls():
    # Two routes of equal cost round a pillar from S to G; the ground truth
    # has a wall on the route A* takes, which the prediction misses.
    #   #######
    #   #.....#
    #   #.###.#
    #   #S###G#
    #   #.###.#
    #   #.....#
    #   #######
    cells = np.zeros((7, 7))
    cells[0, :] = cells[-1, :] = cells[:, 0] = cells[:, -1] = OCCUPIED
    cells[2:5, 2:5] = OCCUPIED
    pred = OccupancyGrid(cells.copy(), 0.1)
    start, goal = GridPose(1, 3), GridPose(5, 3)
    path = astar(pred.cells > 0.5, start, goal)
    wall = next(p for p in path if p.y in (1, 5) and p.x == 3)
    cells[wall.y, wall.x] = OCCUPIED
    gt = OccupancyGrid(cells, 0.1)
    assert reach_avoiding(pred.cells > 0.5, start, [goal], gt.cells > 0.5) == [True]
    args = dict(n_goals=20, seed=0)
    assert topological_understanding(pred, gt, start, **args) > \
        tu_astar_reference(pred, gt, start, **args)


def test_auc_constant_series():
    assert auc([7.5] * 10, range(10)) == pytest.approx(7.5)


def test_auc_single_point():
    assert auc([3.0], [4]) == 3.0


def test_auc_linear_ramp():
    t = np.arange(101)
    v = np.linspace(0, 100, 101)
    assert auc(v, t) == pytest.approx(50.0)


def test_auc_matches_trapezoid_oracle():
    rng = np.random.default_rng(54)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        v = rng.random(n) * 100
        t = np.cumsum(rng.integers(1, 5, size=n)).astype(float)
        oracle = 0.0
        for i in range(n - 1):
            oracle += 0.5 * (v[i] + v[i + 1]) * (t[i + 1] - t[i])
        oracle /= t[-1] - t[0]
        assert auc(v, t) == pytest.approx(oracle, rel=1e-12)


def test_auc_empty_rejected():
    with pytest.raises(ValueError):
        auc([], [])

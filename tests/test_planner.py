import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exploresim import (
    FREE,
    OCCUPIED,
    SCORER_KINDS,
    UNKNOWN,
    Ensemble,
    EpisodeConfig,
    GridPose,
    NoisyOraclePredictor,
    OccupancyGrid,
    PassThroughPredictor,
    PatchInpaintingPredictor,
    RaycastConfig,
    SensorSpec,
    astar,
    ensemble_predict,
    generate_floorplan,
    new_grid,
    path_cells,
    run_episode,
    waypoint_valid,
)
from exploresim import frontier, planner, trace
from exploresim.planner import reach_avoiding

SQRT2 = math.sqrt(2.0)


def path_cost(path):
    """Octile cost of an 8-connected path."""
    return sum(SQRT2 if (a.x != b.x and a.y != b.y) else 1.0 for a, b in zip(path, path[1:]))


def ucs_cost_oracle(blocked, start, goal, removed=None):
    """Independent uniform-cost search over the same move rules; returns the
    optimal cost or None. `removed` cells may not be entered, but do not
    close corners."""
    h, w = blocked.shape
    if removed is None:
        removed = np.zeros_like(blocked)
    if blocked[goal[1], goal[0]] or removed[goal[1], goal[0]] or removed[start[1], start[0]]:
        return None
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, (x, y) = heapq.heappop(heap)
        if (x, y) == goal:
            return d
        if d > dist.get((x, y), float("inf")):
            continue
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == dy == 0:
                    continue
                nx, ny = x + dx, y + dy
                if not (0 <= nx < w and 0 <= ny < h) or blocked[ny, nx] or removed[ny, nx]:
                    continue
                if dx and dy and blocked[y, nx] and blocked[ny, x]:
                    continue
                nd = d + (SQRT2 if dx and dy else 1.0)
                if nd < dist.get((nx, ny), float("inf")) - 1e-12:
                    dist[(nx, ny)] = nd
                    heapq.heappush(heap, (nd, (nx, ny)))
    return None


_MOVES = (
    (1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
    (1, 1, SQRT2), (1, -1, SQRT2), (-1, 1, SQRT2), (-1, -1, SQRT2),
)


def astar_oracle(blocked, start, goal):
    """Reference A* with a bounds check per neighbour: the same move order,
    heap keys (f, -g, seq) and tie rule as `astar`, so the same path."""
    h, w = blocked.shape
    if blocked[goal.y, goal.x]:
        return None
    blk = blocked.ravel().tolist()
    gx, gy = goal.x, goal.y
    r2 = SQRT2 - 1.0
    gscore = [math.inf] * (h * w)
    parent = [-1] * (h * w)
    start_i = start.y * w + start.x
    goal_i = gy * w + gx
    gscore[start_i] = 0.0
    heap = [(0.0, 0.0, 0, start.x, start.y)]
    seq = 0
    while heap:
        _, neg_g, _, x, y = heapq.heappop(heap)
        i = y * w + x
        gxy = gscore[i]
        if -neg_g > gxy + 1e-12:
            continue
        if i == goal_i:
            path = [GridPose(x, y)]
            while i != start_i:
                i = parent[i]
                path.append(GridPose(i % w, i // w))
            path.reverse()
            return path
        for dx, dy, step in _MOVES:
            nx = x + dx
            ny = y + dy
            if nx < 0 or nx >= w or ny < 0 or ny >= h:
                continue
            ni = ny * w + nx
            if blk[ni]:
                continue
            if dx and dy and blk[y * w + nx] and blk[ny * w + x]:
                continue
            ng = gxy + step
            if ng < gscore[ni] - 1e-12:
                gscore[ni] = ng
                parent[ni] = i
                ddx = abs(nx - gx)
                ddy = abs(ny - gy)
                hcost = ddx + r2 * ddy if ddx >= ddy else ddy + r2 * ddx
                seq += 1
                heapq.heappush(heap, (ng + hcost, -ng, seq, nx, ny))
    return None


def test_astar_start_equals_goal():
    blocked = np.zeros((5, 5), dtype=bool)
    path = astar(blocked, GridPose(2, 2), GridPose(2, 2))
    assert path == [GridPose(2, 2)]
    assert path_cost(path) == 0.0


def test_astar_pure_diagonal_cost():
    blocked = np.zeros((10, 10), dtype=bool)
    path = astar(blocked, GridPose(0, 0), GridPose(9, 9))
    assert path[0] == GridPose(0, 0) and path[-1] == GridPose(9, 9)
    assert path_cost(path) == pytest.approx(9 * SQRT2, abs=1e-9)


def test_astar_paths_are_8_connected_and_avoid_blocked():
    rng = np.random.default_rng(41)
    blocked = rng.random((20, 20)) < 0.25
    blocked[0, 0] = blocked[19, 19] = False
    path = astar(blocked, GridPose(0, 0), GridPose(19, 19))
    if path is not None:
        for a, b in zip(path, path[1:]):
            assert max(abs(a.x - b.x), abs(a.y - b.y)) == 1
            assert not blocked[b.y, b.x]


def test_astar_no_corner_cutting_through_closed_corner():
    # (1,0) and (0,1) blocked: the diagonal (0,0)->(1,1) must be forbidden.
    blocked = np.zeros((3, 3), dtype=bool)
    blocked[0, 1] = blocked[1, 0] = True
    path = astar(blocked, GridPose(0, 0), GridPose(1, 1))
    assert path is None  # fully walled corner, nothing else reaches (1,1)


def test_astar_single_blocked_orthogonal_allows_diagonal():
    blocked = np.zeros((3, 3), dtype=bool)
    blocked[0, 1] = True  # only one of the two orthogonals
    path = astar(blocked, GridPose(0, 0), GridPose(1, 1))
    assert path_cost(path) == pytest.approx(SQRT2)


def test_astar_unreachable_returns_none():
    blocked = np.zeros((7, 7), dtype=bool)
    blocked[3, :] = True  # full wall
    assert astar(blocked, GridPose(1, 1), GridPose(1, 5)) is None


def test_astar_start_blocked_raises():
    blocked = np.ones((3, 3), dtype=bool)
    with pytest.raises(ValueError):
        astar(blocked, GridPose(0, 0), GridPose(2, 2))


def test_astar_cost_matches_ucs_oracle_on_random_maps():
    rng = np.random.default_rng(42)
    agree_paths = 0
    for _ in range(200):
        blocked = rng.random((32, 32)) < 0.2
        sx, sy = rng.integers(0, 32, size=2)
        gx, gy = rng.integers(0, 32, size=2)
        blocked[sy, sx] = False
        path = astar(blocked, GridPose(int(sx), int(sy)), GridPose(int(gx), int(gy)))
        oracle = ucs_cost_oracle(blocked, (int(sx), int(sy)), (int(gx), int(gy)))
        if oracle is None:
            assert path is None
        else:
            assert path is not None
            assert path_cost(path) == pytest.approx(oracle, abs=1e-9)
            agree_paths += 1
    assert agree_paths > 50  # the fixture produces plenty of solvable cases


def _random_case(seed, side_x, side_y, density, picks):
    """A random (blocked, start, goals) case: walls at `density` (at most
    0.4, so some of the 64 or more cells are free), any free start, and
    goals picked from the free cells."""
    rng = np.random.default_rng(seed)
    blocked = rng.random((side_y, side_x)) < density
    ys, xs = np.nonzero(~blocked)
    cells = [GridPose(int(x), int(y)) for x, y in zip(xs, ys)]
    return blocked, cells[picks[0] % len(cells)], [cells[p % len(cells)] for p in picks[1:]]


_CASES = dict(seed=st.integers(0, 2**32 - 1), side_x=st.integers(8, 24),
              side_y=st.integers(8, 24), density=st.floats(0.0, 0.4),
              picks=st.lists(st.integers(0, 2**16), min_size=2, max_size=6))


@settings(deadline=None)
@given(**_CASES)
# The start is one of the goals.
@example(seed=0, side_x=8, side_y=8, density=0.2, picks=[3, 3, 5])
def test_astar_returns_the_oracle_path(seed, side_x, side_y, density, picks):
    # Random walls up to 40% close corners and wall off goals, which must
    # then be None in both.
    blocked, start, goals = _random_case(seed, side_x, side_y, density, picks)
    for g in goals:
        assert astar(blocked, start, g) == astar_oracle(blocked, start, g)


def test_astar_matches_the_oracle_through_closed_corners_and_walls():
    # A closed corner on the diagonal from (0, 0), a walled-off pocket at
    # (6, 6), and the start as its own goal.
    blocked = np.zeros((8, 8), dtype=bool)
    blocked[0, 1] = blocked[1, 0] = True
    blocked[5, 5:8] = blocked[5:8, 5] = True
    blocked[6, 6] = False
    start = GridPose(2, 2)
    for g in (GridPose(0, 0), GridPose(6, 6), start, GridPose(7, 0), GridPose(0, 7)):
        assert astar(blocked, start, g) == astar_oracle(blocked, start, g)
    assert astar(blocked, start, GridPose(6, 6)) is None
    assert astar(blocked, start, start) == [start]


@settings(deadline=None)
@given(**_CASES)
def test_reach_with_nothing_to_avoid_is_astar_reachability(seed, side_x, side_y, density, picks):
    blocked, start, goals = _random_case(seed, side_x, side_y, density, picks)
    reached = reach_avoiding(blocked, start, goals, np.zeros_like(blocked))
    assert reached == [astar(blocked, start, g) is not None for g in goals]


@settings(deadline=None)
@given(**_CASES, avoid_seed=st.integers(0, 2**32 - 1), avoid_density=st.floats(0.0, 0.4))
# Exact ties at a band's edge: in both, a band that also settled the open
# cells at m + 1 would flag a goal wrongly. In the second, a band cut at
# m + 1 without the 1e-9 guard would too: its two tied sums differ in the
# last bit.
@example(seed=3110907181, side_x=8, side_y=8, density=0.2,
         picks=[22275, 17774, 31370, 41070, 22075, 52617], avoid_seed=3039576495,
         avoid_density=0.4)
@example(seed=432103511, side_x=8, side_y=8, density=0.2,
         picks=[27134, 58918, 65153, 12795, 25283, 11797], avoid_seed=2764217891,
         avoid_density=0.1)
def test_reach_avoiding_is_two_distance_fields(seed, side_x, side_y, density, picks,
                                               avoid_seed, avoid_density):
    # A goal counts exactly when keeping out of `avoid` costs nothing: the
    # optimal cost without the avoided cells equals the optimal cost.
    blocked, start, goals = _random_case(seed, side_x, side_y, density, picks)
    avoid = np.random.default_rng(avoid_seed).random(blocked.shape) < avoid_density
    reached = reach_avoiding(blocked, start, goals, avoid)
    for g, got in zip(goals, reached):
        best = ucs_cost_oracle(blocked, (start.x, start.y), (g.x, g.y))
        clear = ucs_cost_oracle(blocked, (start.x, start.y), (g.x, g.y), avoid)
        assert got == (clear is not None and abs(clear - best) < 1e-6)


def test_reach_avoiding_rejects_a_bad_start_or_goal():
    blocked = np.zeros((4, 4), dtype=bool)
    blocked[0, 0] = True
    with pytest.raises(ValueError, match="blocked"):
        reach_avoiding(blocked, GridPose(0, 0), [GridPose(1, 1)], blocked)
    with pytest.raises(ValueError, match="outside"):
        reach_avoiding(blocked, GridPose(1, 1), [GridPose(4, 1)], blocked)


def _mk_observed(n=16):
    return new_grid(n, n, 0.1)


def test_waypoint_invalid_on_arrival():
    observed = _mk_observed()
    path = [GridPose(5, 5), GridPose(6, 5)]
    pose = GridPose(5, 5)
    observed.cells[:, :] = UNKNOWN
    observed.cells[5, 6] = FREE
    assert not waypoint_valid(pose, path_cells(path, 16), observed, max_age=50)


def test_waypoint_invalid_when_new_wall_crosses_path():
    observed = _mk_observed()
    path = [GridPose(1, 1), GridPose(2, 1), GridPose(3, 1), GridPose(4, 1)]
    observed.cells[1, 3] = OCCUPIED
    pose = GridPose(1, 1)
    assert not waypoint_valid(pose, path_cells(path, 16), observed, max_age=50)
    # cells already passed do not invalidate the plan
    assert waypoint_valid(pose, path_cells(path, 16), observed, path_index=3, max_age=50)


def test_waypoint_invalid_when_frontier_dissolves():
    observed = _mk_observed()
    observed.cells[:, :] = FREE  # fully known: waypoint has no unknown neighbor
    path = [GridPose(1, 1), GridPose(2, 2), GridPose(3, 3), GridPose(4, 4), GridPose(5, 5)]
    pose = GridPose(1, 1)
    assert not waypoint_valid(pose, path_cells(path, 16), observed, max_age=50)


def test_waypoint_invalid_when_too_old():
    observed = _mk_observed()
    observed.cells[6, 6] = FREE  # keep an unknown neighbor around the waypoint
    path = [GridPose(1, 1), GridPose(2, 2), GridPose(3, 3), GridPose(4, 4),
            GridPose(5, 5), GridPose(6, 6)]
    pose = GridPose(1, 1)
    assert waypoint_valid(pose, path_cells(path, 16), observed, age=3, max_age=50)
    assert not waypoint_valid(pose, path_cells(path, 16), observed, age=51, max_age=50)


def test_waypoint_valid_fresh_plan():
    observed = _mk_observed()
    observed.cells[6, 6] = FREE
    path = [GridPose(1, 1), GridPose(2, 2), GridPose(3, 3), GridPose(4, 4),
            GridPose(5, 5), GridPose(6, 6)]
    pose = GridPose(1, 1)
    assert waypoint_valid(pose, path_cells(path, 16), observed, age=3, max_age=50)


def _single_room(n=29):
    cells = np.zeros((n, n))
    cells[0, :] = cells[-1, :] = 1.0
    cells[:, 0] = cells[:, -1] = 1.0
    return OccupancyGrid(cells, 0.1)


def _passthrough_ensemble(n=3):
    return [PassThroughPredictor() for _ in range(n)]


def _steps(rec):
    return [ln for ln in rec.lines if ln["type"] == "step"]


def _small_cfg(budget, scorer="nearest", checkpoint_every=0):
    return EpisodeConfig(
        budget_t=budget,
        scorer=scorer,
        sensor=SensorSpec(range_lambda=3.0, n_rays=360),
        raycast=RaycastConfig(epsilon=0.8, n_rays=24, range_lambda=3.0),
        min_cluster_size=1,
        max_waypoint_age=50,
        checkpoint_every=checkpoint_every,
    )


def test_episode_single_visible_room_completes_fast():
    gt = _single_room()
    rec = run_episode(gt, GridPose(14, 14), _small_cfg(50), _passthrough_ensemble())
    end = rec.lines[-1]
    assert end["reason"] == "complete"
    assert end["coverage"] == pytest.approx(100.0)
    assert end["t"] <= 5
    assert sum(ln["type"] == "replan" for ln in rec.lines) <= 2


def test_episode_budget_zero_has_only_initial_state():
    gt = _single_room()
    rec = run_episode(gt, GridPose(5, 5), _small_cfg(0), _passthrough_ensemble())
    assert rec.lines == [
        {"type": "end", "reason": "budget", "t": 0, "pose": [5, 5], "coverage": 0.0}]


def test_episode_row_count_bounded_by_budget():
    gt = _single_room()
    for budget in (1, 3, 10):
        rec = run_episode(gt, GridPose(7, 7), _small_cfg(budget), _passthrough_ensemble())
        steps = _steps(rec)
        assert len(steps) <= budget
        assert [s["t"] for s in steps] == list(range(len(steps)))
        end = rec.lines[-1]
        assert end["t"] == (budget if end["reason"] == "budget" else steps[-1]["t"])


def test_episode_coverage_is_monotone():
    gt = _single_room(41)
    gt.cells[20, 5:35] = 1.0  # interior wall forces some travel
    gt.cells[20, 18:22] = 0.0
    rec = run_episode(gt, GridPose(5, 5), _small_cfg(300), _passthrough_ensemble())
    cov = [s["coverage"] for s in _steps(rec)]
    assert all(b >= a - 1e-9 for a, b in zip(cov, cov[1:]))
    assert rec.lines[-1]["coverage"] == cov[-1] == pytest.approx(100.0)


def test_episode_rejects_bad_start():
    gt = _single_room()
    with pytest.raises(ValueError):
        run_episode(gt, GridPose(0, 0), _small_cfg(5), _passthrough_ensemble())


def test_scorer_isolation_first_scan_identical():
    gt = _single_room(41)
    gt.cells[20, 5:35] = 1.0
    gt.cells[20, 18:22] = 0.0
    recs = {}
    for scorer in ("mapex", "nearest"):
        recs[scorer] = run_episode(gt, GridPose(5, 5), _small_cfg(1, scorer),
                                   _passthrough_ensemble())
    a, b = recs["mapex"], recs["nearest"]
    assert a.final_observed == b.final_observed
    assert _steps(a)[0]["coverage"] == _steps(b)[0]["coverage"]


def test_episode_checkpoints_collected():
    gt = _single_room(41)
    gt.cells[20, 5:35] = 1.0
    gt.cells[20, 18:22] = 0.0
    cfg = _small_cfg(25, checkpoint_every=10)
    rec = run_episode(gt, GridPose(5, 5), cfg, _passthrough_ensemble())
    ts = [cp.t for cp in rec.checkpoints]
    assert ts == [t for t in (10, 20) if t <= rec.lines[-1]["t"]]
    rec = run_episode(gt, GridPose(5, 5), _small_cfg(25), _passthrough_ensemble())
    assert rec.checkpoints == []  # checkpoint_every 0 takes none


@settings(max_examples=40, deadline=None)
@given(side=st.integers(8, 20), seed=st.integers(0, 2**32 - 1),
       scorer=st.sampled_from(SCORER_KINDS))
def test_episode_invariants_on_random_maps(side, seed, scorer):
    # Random binary maps have diagonal-only wall contacts that generated
    # plans never do; the robot must still move only as astar allows.
    rng = np.random.default_rng(seed)
    cells = (rng.random((side, side)) < 0.3).astype(float)
    start = GridPose(int(rng.integers(side)), int(rng.integers(side)))
    cells[start.y, start.x] = FREE
    gt = OccupancyGrid(cells, 0.1)
    ensemble = [NoisyOraclePredictor(gt, 0.2, s) for s in (1, 2)]
    rec = run_episode(gt, start, _small_cfg(40, scorer, checkpoint_every=1), ensemble)

    blocked = cells != FREE
    poses = {(s["x"], s["y"]) for s in _steps(rec)} | {tuple(rec.lines[-1]["pose"])}
    for x, y in poses:
        assert astar(blocked, start, GridPose(x, y)) is not None

    # Checkpoint t is taken after step t-1; with one per step, the map the
    # prediction of the replan at step r saw is the checkpoint at r+1.
    replans = [ln["t"] for ln in rec.lines if ln["type"] == "replan"]
    known_at = {}
    prev = np.zeros_like(blocked)
    for cp in rec.checkpoints:
        known = cp.observed.cells != UNKNOWN
        assert np.array_equal(cp.observed.cells[known], cells[known])
        assert not (prev & ~known).any()
        known_at[cp.t] = prev = known
        assert cp.variance.cells.max() <= 0.25
        r = max(t for t in replans if t < cp.t)
        assert cp.variance.cells[known_at[r + 1]].max(initial=0.0) == 0.0


class _Fresh:
    """An ensemble member built afresh for every call that returns a writable
    copy: nothing it kept survives a call, and no output is the last one."""

    def __init__(self, make):
        self.make = make

    def predict(self, observed):
        return self.make().predict(observed).copy()


@settings(max_examples=5, deadline=None)
@given(map_seed=st.integers(0, 99), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["noisy_oracle", "patch", "passthrough"]),
       scorer=st.sampled_from(SCORER_KINDS))
@example(map_seed=0, seed=0, kind="noisy_oracle", scorer="mapex")
@example(map_seed=1, seed=1, kind="patch", scorer="variance_only")
@example(map_seed=2, seed=2, kind="passthrough", scorer="observed_map")
def test_an_episode_with_every_kept_state_defeated_writes_the_same_record(map_seed, seed,
                                                                          kind, scorer):
    # The episode keeps state from step to step: the ensemble's outputs and
    # statistics, the patch members' last maps, the cached ray tables and
    # corridor half-widths. A twin run that keeps none of it must write the
    # same record lines and checkpoint grids.
    gt = generate_floorplan(map_seed, 60, 60)
    rng = np.random.default_rng(seed)
    free = np.argwhere(gt.cells == FREE)
    y, x = free[rng.integers(len(free))]
    start = GridPose(int(x), int(y))
    corpus = [OccupancyGrid((rng.random((40, 40)) < 0.3).astype(float)) for _ in range(2)]
    makers = {
        "noisy_oracle": [lambda s=s: NoisyOraclePredictor(gt, 0.2, s) for s in (1, 2)],
        "patch": [lambda c=c: PatchInpaintingPredictor([c], 16, 2) for c in corpus],
        "passthrough": [PassThroughPredictor, PassThroughPredictor],
    }[kind]
    cfg = EpisodeConfig(budget_t=60, scorer=scorer, sensor=SensorSpec(2.0, 200),
                        raycast=RaycastConfig(n_rays=24, range_lambda=3.0),
                        min_cluster_size=5, max_waypoint_age=10, checkpoint_every=10)
    normal = run_episode(gt, start, cfg, [make() for make in makers])

    scan = planner.simulate_scan

    def scan_with_no_cache(*args):
        trace.ray_table.cache_clear()
        frontier._half_widths.cache_clear()
        return scan(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "simulate_scan", scan_with_no_cache)
        mp.setattr(planner, "ensemble_predict",
                   lambda kept, observed: ensemble_predict(Ensemble(kept.members), observed))
        twin = run_episode(gt, start, cfg, [_Fresh(make) for make in makers])
    assert twin.lines == normal.lines
    assert len(twin.checkpoints) == len(normal.checkpoints)
    for a, b in zip(twin.checkpoints, normal.checkpoints):
        assert a.t == b.t
        for name in ("observed", "mean", "variance"):
            assert np.array_equal(getattr(a, name).cells, getattr(b, name).cells)

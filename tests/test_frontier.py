import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from exploresim import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    ConfigError,
    GridPose,
    OccupancyGrid,
    RaycastConfig,
    ScoreContext,
    extract_frontiers,
    new_grid,
    score_frontier,
)
from exploresim.frontier import LOCAL_VARIANCE_RADIUS_M, frontier_mask, rank_frontiers
from exploresim.predict import PredictionSet
from exploresim.trace import line_cells
from test_trace import bresenham_line


def brute_force_frontier_cells(observed):
    """Definition scan: free cells with at least one unknown 8-neighbor."""
    out = set()
    h, w = observed.shape
    for y in range(h):
        for x in range(w):
            if observed.cells[y, x] != FREE:
                continue
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if dx == dy == 0:
                        continue
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < w and 0 <= ny < h and observed.cells[ny, nx] == UNKNOWN:
                        out.add((x, y))
    return out


def test_all_unknown_map_has_no_frontiers():
    assert extract_frontiers(new_grid(16, 16), 1) == []


def test_fully_observed_map_has_no_frontiers():
    observed = OccupancyGrid(np.zeros((16, 16)), 0.1)
    observed.cells[0, :] = OCCUPIED
    assert extract_frontiers(observed, 1) == []


def test_revealed_disc_rim_is_one_cluster():
    observed = new_grid(31, 31)
    ys, xs = np.mgrid[0:31, 0:31]
    disc = (xs - 15) ** 2 + (ys - 15) ** 2 <= 4.5**2  # 9x9 extent
    observed.cells[disc] = FREE
    clusters = extract_frontiers(observed, 1)
    assert len(clusters) == 1
    cl = clusters[0]
    members = {(int(x), int(y)) for x, y in cl.cells}
    assert members == brute_force_frontier_cells(observed)
    # rim cells only: every member is on the free/unknown boundary
    mx = cl.cells[:, 0].mean()
    my = cl.cells[:, 1].mean()
    assert abs(mx - 15) <= 1.0 and abs(my - 15) <= 1.0  # coordinate mean is central
    assert tuple(cl.centroid) in members  # snapped to a member cell


def test_extraction_matches_definition_scan_on_random_maps():
    rng = np.random.default_rng(31)
    for _ in range(100):
        observed = OccupancyGrid(
            rng.choice([FREE, UNKNOWN, OCCUPIED], size=(64, 64), p=[0.5, 0.3, 0.2]), 0.1
        )
        clusters = extract_frontiers(observed, min_cluster_size=1)
        union = set()
        for cl in clusters:
            union |= {(int(x), int(y)) for x, y in cl.cells}
        assert union == brute_force_frontier_cells(observed)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 40), w=st.integers(1, 40),
       p_unknown=st.floats(0.0, 1.0))
def test_frontier_mask_is_free_cells_touching_the_dilated_unknown(seed, h, w, p_unknown):
    rng = np.random.default_rng(seed)
    p = [(1 - p_unknown) * 0.7, p_unknown, (1 - p_unknown) * 0.3]
    observed = OccupancyGrid(rng.choice([FREE, UNKNOWN, OCCUPIED], size=(h, w), p=p), 0.1)
    unknown = observed.cells == UNKNOWN
    expected = (observed.cells == FREE) & ndimage.binary_dilation(
        unknown, structure=np.ones((3, 3), dtype=bool))
    assert np.array_equal(frontier_mask(observed), expected)


def test_min_cluster_size_filters_small_clusters():
    observed = new_grid(32, 32)
    observed.cells[5, 5] = FREE  # isolated single frontier cell
    observed.cells[20, 4:24] = FREE  # 20-cell line frontier
    assert len(extract_frontiers(observed, min_cluster_size=1)) == 2
    big = extract_frontiers(observed, min_cluster_size=10)
    assert len(big) == 1 and big[0].size == 20


def _uniform_prediction_set(observed, variance_value):
    mean = OccupancyGrid(np.zeros(observed.shape), observed.resolution)
    var = OccupancyGrid(np.full(observed.shape, variance_value), observed.resolution)
    return PredictionSet(mean=mean, variance=var)


def _ctx(observed, pset, pose, range_m=3.0):
    return ScoreContext(
        observed=observed,
        robot_pose=pose,
        raycast=RaycastConfig(epsilon=0.8, n_rays=24, range_lambda=range_m),
        prediction_set=pset,
    )


def _cluster_at(x, y):
    from exploresim import FrontierCluster

    return FrontierCluster(cells=np.array([[x, y]]), centroid=GridPose(x, y), size=1)


def test_nearest_score_is_inverse_distance():
    observed = new_grid(32, 32)
    ctx = _ctx(observed, None, GridPose(10, 10))
    ctx.prediction_set = None
    assert score_frontier(_cluster_at(20, 10), "nearest", ctx) == pytest.approx(0.1)


def test_distance_floor_prevents_blowup():
    observed = new_grid(32, 32)
    ctx = _ctx(observed, None, GridPose(10, 10))
    assert score_frontier(_cluster_at(10, 10), "nearest", ctx) == pytest.approx(1.0)


def test_zero_variance_and_empty_mask_scores_zero():
    observed = OccupancyGrid(np.zeros((32, 32)), 0.1)  # fully observed: empty masks
    pset = _uniform_prediction_set(observed, 0.0)
    ctx = _ctx(observed, pset, GridPose(10, 10))
    for kind in ("mapex", "deterministic", "no_variance", "observed_map",
                 "no_visibility", "variance_only"):
        assert score_frontier(_cluster_at(20, 20), kind, ctx) == 0.0
    assert score_frontier(_cluster_at(20, 20), "nearest", ctx) > 0.0


def test_mapex_equals_variance_times_no_variance_on_uniform_map():
    rng = np.random.default_rng(32)
    for v in (0.05, 0.2):
        observed = new_grid(48, 48)
        observed.cells[20:28, 20:28] = FREE  # a revealed pocket
        pset = _uniform_prediction_set(observed, v)
        # variance must be zero on known cells to mirror the ensemble contract
        known = observed.cells != UNKNOWN
        pset.variance.cells[known] = 0.0
        ctx = _ctx(observed, pset, GridPose(24, 24))
        cl = _cluster_at(27, 24)
        s_mapex = score_frontier(cl, "mapex", ctx)
        s_count = score_frontier(cl, "no_variance", ctx)
        assert s_mapex == pytest.approx(v * s_count, rel=1e-9)


def test_scale_equivariance_of_variance_scores():
    rng = np.random.default_rng(33)
    observed = new_grid(48, 48)
    observed.cells[20:28, 20:28] = FREE
    mean = OccupancyGrid(rng.random((48, 48)) * 0.3, 0.1)
    var = OccupancyGrid(rng.random((48, 48)) * 0.2, 0.1)
    pset = PredictionSet(mean, var)
    ctx = _ctx(observed, pset, GridPose(24, 24))
    cl = _cluster_at(27, 24)
    base = score_frontier(cl, "mapex", ctx)
    pset_scaled = PredictionSet(mean, OccupancyGrid(var.cells * 0.5, 0.1))
    ctx2 = _ctx(observed, pset_scaled, GridPose(24, 24))
    assert score_frontier(cl, "mapex", ctx2) == pytest.approx(0.5 * base, rel=1e-9)


def _random_scoring_case(seed):
    """A random three-label observed map with 0.5 m cells, so the 5 m radius
    is 10 cells, a random variance map, a robot pose and a centroid."""
    rng = np.random.default_rng(seed)
    shape = (40, 48)
    observed = OccupancyGrid(rng.choice([FREE, UNKNOWN, OCCUPIED], size=shape), 0.5)
    pset = PredictionSet(OccupancyGrid(np.zeros(shape), 0.5),
                         OccupancyGrid(rng.random(shape) * 0.25, 0.5))
    robot, c = (GridPose(int(rng.integers(shape[1])), int(rng.integers(shape[0])))
                for _ in range(2))
    return observed, pset, robot, c


def _within(cells, radius, shape):
    """Brute force: the grid cells within `radius` of any of `cells`."""
    ys, xs = np.mgrid[0 : shape[0], 0 : shape[1]]
    near = np.zeros(shape, dtype=bool)
    for x, y in cells:
        near |= (xs - x) ** 2 + (ys - y) ** 2 <= radius**2
    return near


@pytest.mark.parametrize("seed", range(6))
def test_no_visibility_sums_unknown_variance_near_the_centroid(seed):
    observed, pset, robot, c = _random_scoring_case(seed)
    near = _within([c], 10, observed.shape) & (observed.cells == UNKNOWN)
    dist = max(float(np.hypot(c.x - robot.x, c.y - robot.y)), 1.0)
    score = score_frontier(_cluster_at(*c), "no_visibility", _ctx(observed, pset, robot))
    assert score == pytest.approx(pset.variance.cells[near].sum() / dist, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_variance_only_sums_variance_near_the_robot_centroid_line(seed):
    observed, pset, robot, c = _random_scoring_case(seed)
    near = _within(bresenham_line(robot, c), 10, observed.shape)
    dist = max(float(np.hypot(c.x - robot.x, c.y - robot.y)), 1.0)
    score = score_frontier(_cluster_at(*c), "variance_only", _ctx(observed, pset, robot))
    assert score == pytest.approx(pset.variance.cells[near].sum() / dist, rel=1e-12)


def distance_transform_corridor_sum(a, b, radius_cells, variance):
    """The variance_only gain by a Euclidean distance transform of the whole
    grid: the variance summed over the cells within the radius of the line."""
    line = np.zeros(variance.shape, dtype=bool)
    cells = line_cells([a], [b])
    line[cells[:, 1], cells[:, 0]] = True
    dist = ndimage.distance_transform_edt(~line)
    return float(variance.cells[dist <= radius_cells].sum())


_cell = st.tuples(st.integers(0, 60), st.integers(0, 60))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 50), w=st.integers(1, 50),
       a=_cell, b=_cell, resolution=st.floats(0.08, 8.0))
# Segments along each grid edge, and radii below one cell, integral and not.
@example(seed=1, h=30, w=40, a=(0, 0), b=(39, 0), resolution=0.5)
@example(seed=2, h=30, w=40, a=(39, 0), b=(39, 29), resolution=0.3)
@example(seed=3, h=30, w=40, a=(0, 29), b=(39, 29), resolution=5 / 7.5)
@example(seed=4, h=30, w=40, a=(0, 0), b=(0, 29), resolution=6.0)
@example(seed=5, h=1, w=40, a=(0, 0), b=(39, 0), resolution=1.0)
@example(seed=6, h=30, w=40, a=(5, 5), b=(5, 5), resolution=0.7)
def test_variance_only_corridor_matches_a_full_grid_distance_transform(seed, h, w, a, b,
                                                                       resolution):
    rng = np.random.default_rng(seed)
    a, b = GridPose(a[0] % w, a[1] % h), GridPose(b[0] % w, b[1] % h)
    observed = OccupancyGrid(np.full((h, w), UNKNOWN), resolution)
    pset = PredictionSet(OccupancyGrid(np.zeros((h, w)), resolution),
                         OccupancyGrid(rng.random((h, w)) * 0.25, resolution))
    dist = max(float(np.hypot(b.x - a.x, b.y - a.y)), 1.0)
    score = score_frontier(_cluster_at(*b), "variance_only", _ctx(observed, pset, a))
    radius = LOCAL_VARIANCE_RADIUS_M / resolution
    assert score == distance_transform_corridor_sum(a, b, radius, pset.variance) / dist


def test_nearest_ignores_prediction_set():
    observed = new_grid(32, 32)
    a = _ctx(observed, _uniform_prediction_set(observed, 0.2), GridPose(5, 5))
    b = _ctx(observed, _uniform_prediction_set(observed, 0.0), GridPose(5, 5))
    cl = _cluster_at(15, 5)
    assert score_frontier(cl, "nearest", a) == score_frontier(cl, "nearest", b)


def test_unknown_scorer_kind_is_config_error():
    # Without the check, an unknown kind would be scored as mapex.
    observed = new_grid(16, 16)
    ctx = _ctx(observed, _uniform_prediction_set(observed, 0.1), GridPose(5, 5))
    with pytest.raises(ConfigError):
        score_frontier(_cluster_at(8, 8), "bogus", ctx)


# The episode selects the first frontier rank_frontiers returns.
def test_select_single_cluster():
    assert rank_frontiers([_cluster_at(3, 3)], [1.0], GridPose(0, 0)) == [0]


def test_select_empty_signals_completion():
    assert rank_frontiers([], [], GridPose(0, 0)) == []


def test_select_prefers_higher_score_from_distance_division():
    # Equal raw gain, distances 5 and 9: division by distance picks the near one.
    near, far = _cluster_at(5, 0), _cluster_at(9, 0)
    pose = GridPose(0, 0)
    assert rank_frontiers([far, near], [10.0 / 9.0, 10.0 / 5.0], pose)[0] == 1


def test_select_tie_breaks_lexicographically():
    pose = GridPose(0, 0)
    a = _cluster_at(5, 0)  # centroid (y=0, x=5)
    b = _cluster_at(0, 5)  # centroid (y=5, x=0)
    # same score, same distance: smaller (y, x) wins -> a
    assert rank_frontiers([b, a], [1.0, 1.0], pose)[0] == 1


def test_rank_is_deterministic_and_total():
    rng = np.random.default_rng(34)
    clusters = [_cluster_at(int(x), int(y)) for x, y in rng.integers(0, 30, size=(8, 2))]
    scores = list(rng.random(8))
    pose = GridPose(0, 0)
    r1 = rank_frontiers(clusters, scores, pose)
    r2 = rank_frontiers(clusters, scores, pose)
    assert r1 == r2 and sorted(r1) == list(range(8))

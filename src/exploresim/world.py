"""Ground-truth world: simulated 360° LiDAR, observed-map integration,
robot kinematics on the diagonally-connected grid, and a procedural
floor-plan generator.

Sensing is noise-free and the robot pose is known exactly: a cell the
sensor marks free is free in the ground truth, and a hit endpoint is
occupied in the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError
from .grid import DEFAULT_RESOLUTION, FREE, OCCUPIED, GridPose, OccupancyGrid
from .trace import gather_values, ray_cell_table, ray_ends

# Floor-plan generator defaults, shared with the [maps] config section.
ROOM_COUNT_RANGE = (6, 12)
CORRIDOR_WIDTH = 8  # cells


@dataclass(frozen=True)
class SensorSpec:
    """360° LiDAR: max range in meters and evenly spaced ray count."""

    range_lambda: float = 20.0
    n_rays: int = 2500

    def __post_init__(self):
        if self.range_lambda <= 0:
            raise ValueError(f"range_lambda: must be positive, got {self.range_lambda}")
        if self.n_rays < 4:
            raise ValueError(f"n_rays: need at least 4 rays, got {self.n_rays}")


@dataclass
class Scan:
    """One LiDAR acquisition.

    `endpoints`/`hits` are per-ray arrays; `free_cells` is the deduplicated
    (N, 2) array of all (x, y) cells the rays traversed without hitting.
    """

    endpoints: np.ndarray  # (n_rays, 2) int, columns (x, y)
    hits: np.ndarray  # (n_rays,) bool
    free_cells: np.ndarray = field(repr=False)  # (m, 2) int, columns (x, y)


def simulate_scan(gt: OccupancyGrid, pose: GridPose, spec: SensorSpec) -> Scan:
    """Trace every ray from `pose` until the first occupied cell or max range.

    Deterministic for fixed inputs. The pose must be a free cell of the
    ground truth.
    """
    if not gt.in_bounds(pose.x, pose.y):
        raise InvalidStateError(f"scan pose {pose} is outside the grid")
    if gt.at(pose) != FREE:
        raise InvalidStateError(f"scan pose {pose} is not on a free ground-truth cell")

    range_cells = spec.range_lambda / gt.resolution
    cx, cy, inb, _ = ray_cell_table(pose, spec.n_rays, range_cells, gt.shape)
    occupied = gather_values(gt.cells, cx, cy) > 0.5
    end_idx, hits, endpoints = ray_ends(cx, cy, inb, occupied)

    # Everything sampled strictly before the endpoint is free space the ray
    # passed through; for miss rays the endpoint itself is free too.
    steps = np.arange(cx.shape[1])[None, :]
    before = steps < end_idx[:, None]
    traversed = inb & (before | (~hits[:, None] & (steps == end_idx[:, None])))
    seen = np.zeros(gt.cells.size, dtype=bool)
    seen[cy[traversed].astype(np.int64) * gt.width + cx[traversed]] = True
    flat = np.nonzero(seen)[0]
    free_cells = np.stack([flat % gt.width, flat // gt.width], axis=1)

    return Scan(endpoints=endpoints, hits=hits, free_cells=free_cells)


def integrate_scan(observed: OccupancyGrid, scan: Scan) -> OccupancyGrid:
    """Fold a scan into the observed map, in place.

    Traversed cells become free, hit endpoints become occupied. Known cells
    never revert to unknown, and free never overwrites occupied.
    """
    if not observed.is_three_label():
        raise ValueError("observed map must be a three-label grid")
    fx, fy = scan.free_cells[:, 0], scan.free_cells[:, 1]
    if len(fx) and (fx.max() >= observed.width or fy.max() >= observed.height):
        raise ValueError("scan does not fit the observed map dimensions")
    cur = observed.cells[fy, fx]
    observed.cells[fy, fx] = np.where(cur == OCCUPIED, OCCUPIED, FREE)
    hx, hy = scan.endpoints[scan.hits, 0], scan.endpoints[scan.hits, 1]
    if len(hx) and (hx.max() >= observed.width or hy.max() >= observed.height):
        raise ValueError("scan does not fit the observed map dimensions")
    observed.cells[hy, hx] = OCCUPIED
    return observed


def apply_action(pose: GridPose, action: tuple[int, int], gt: OccupancyGrid) -> GridPose:
    """The pose after one grid move by `action` = (dx, dy), each in
    {-1, 0, 1}; (0, 0) stays. y grows downward. Blocked and off-grid moves
    leave the pose as it is, and so does a diagonal move between two
    blocked orthogonal cells, which `planner.astar` forbids too."""
    dx, dy = action
    if max(abs(dx), abs(dy)) > 1:
        raise ValueError(f"action {(dx, dy)} is not a single-cell move")
    nx, ny = pose.x + dx, pose.y + dy
    if not gt.in_bounds(nx, ny) or gt.cells[ny, nx] != FREE:
        return pose
    if dx and dy and gt.cells[pose.y, nx] != FREE and gt.cells[ny, pose.x] != FREE:
        return pose  # corner fully closed
    return GridPose(nx, ny)


def generate_floorplan(
    seed: int,
    width: int,
    height: int,
    room_count_range: tuple[int, int] = ROOM_COUNT_RANGE,
    corridor_width: int = CORRIDOR_WIDTH,
    resolution: float = DEFAULT_RESOLUTION,
) -> OccupancyGrid:
    """Procedural binary floor plan: two strips of rectangular rooms joined
    by a horizontal corridor spine, behind a closed boundary ring.

    Every wall is exactly one cell thick and every free region connects to
    the corridor through a door, so all free space is one connected
    component and every wall cell is observable from adjacent free space.
    Deterministic for a fixed seed and parameters.
    """
    min_room_w = 20  # cells; wide enough for a door gap plus jambs
    min_room_h = 8
    door_w = 16  # 1.6 m at default resolution; comfortably wider than the
    # default frontier cluster filter so door frontiers never vanish

    if width < 50 or height < 50:
        raise ValueError(f"floor plan must be at least 50x50 cells, got {width}x{height}")
    lo, hi = room_count_range
    if lo < 2 or hi < lo:
        raise ValueError(f"bad room count range {room_count_range}")
    if corridor_width < 2:
        raise ValueError(f"corridor width must be >= 2, got {corridor_width}")
    interior_w = width - 2
    if interior_w < min_room_w:
        raise ValueError("grid too narrow to fit one room")
    # rows: 1..height-2 interior; two room strips + two walls + corridor.
    strip_h_total = height - 2 - corridor_width - 2
    if strip_h_total < 2 * min_room_h:
        raise ValueError("grid too short for rooms on both sides of the corridor")

    rng = np.random.default_rng(seed)
    cells = np.ones((height, width))

    # Corridor band position (rows cy .. cy+corridor_width-1), jittered.
    slack = strip_h_total - 2 * min_room_h
    top_h = min_room_h + int(rng.integers(0, slack + 1))
    cy = 1 + top_h + 1
    cells[cy : cy + corridor_width, 1 : width - 1] = FREE

    max_rooms_per_strip = (interior_w + 1) // (min_room_w + 1)
    n_rooms = int(rng.integers(lo, hi + 1))

    for strip_rows, wall_row in (
        ((1, cy - 1), cy - 1),
        ((cy + corridor_width + 1, height - 1), cy + corridor_width),
    ):
        r0, r1 = strip_rows
        k = max(1, min(n_rooms // 2 + int(rng.integers(0, 2)), max_rooms_per_strip))
        # Partition the interior width into k rooms >= min_room_w separated
        # by 1-cell walls.
        budget = interior_w - k * min_room_w - (k - 1)
        extra = rng.multinomial(budget, np.ones(k) / k) if budget > 0 else np.zeros(k, int)
        x = 1
        for i in range(k):
            w_i = min_room_w + int(extra[i])
            cells[r0:r1, x : x + w_i] = FREE
            # Door through the corridor-side wall.
            dx0 = x + int(rng.integers(0, max(1, w_i - door_w + 1)))
            cells[wall_row, dx0 : min(dx0 + door_w, x + w_i)] = FREE
            x += w_i + 1  # skip the 1-cell partition wall

    # Anything past the last partition stays wall; re-close the border ring.
    cells[0, :] = OCCUPIED
    cells[-1, :] = OCCUPIED
    cells[:, 0] = OCCUPIED
    cells[:, -1] = OCCUPIED
    return OccupancyGrid(cells, resolution)

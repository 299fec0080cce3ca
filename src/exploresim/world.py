"""Ground-truth world: simulated 360° LiDAR, observed-map integration,
robot kinematics on the diagonally-connected grid, and a procedural
floor-plan generator.

The sensor walks the ray table with `trace.walk_rays`, its one caller:
each block reads the ground truth's stop cells and marks the cells its
rays pass at the flat grid indices the walk hands it. A `Scan`
lists the passed cells as sorted flat indices, and `integrate_scan`
writes through them and returns the flat indices it made known, from
which an episode keeps its coverage as a running count. Sensing is
noise-free and the robot pose is known exactly: a cell the sensor marks
free is free in the ground truth, and a hit endpoint is occupied in the
ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError
from .grid import DEFAULT_RESOLUTION, FREE, OCCUPIED, UNKNOWN, GridPose, OccupancyGrid
from .trace import end_columns, gather_values, walk_rays
from .trace import ray_cell_table  # noqa: F401  (bench/run.py traces `world.ray_cell_table`)

# Floor-plan generator defaults, shared with the [maps] config table.
ROOM_COUNT_RANGE = (6, 12)
CORRIDOR_WIDTH = 8  # cells
_MIN_ROOM_H = 8  # cells


@dataclass(frozen=True)
class SensorSpec:
    """360° LiDAR: max range in meters and evenly spaced ray count."""

    range_lambda: float = 20.0
    n_rays: int = 2500

    def __post_init__(self):
        if not (math.isfinite(self.range_lambda) and self.range_lambda > 0):
            raise ValueError(f"range_lambda: must be finite and positive, got {self.range_lambda}")
        if self.n_rays < 4:
            raise ValueError(f"n_rays: need at least 4 rays, got {self.n_rays}")


@dataclass
class Scan:
    """One LiDAR acquisition.

    `endpoints`/`hits` are per-ray arrays; `free_cells` holds the flat
    indices `y * width + x` of all cells the rays traversed without hitting,
    sorted and each once.
    """

    endpoints: np.ndarray  # (n_rays, 2) int, columns (x, y)
    hits: np.ndarray  # (n_rays,) bool
    free_cells: np.ndarray = field(repr=False)  # (m,) intp flat indices, ascending


def simulate_scan(gt: OccupancyGrid, pose: GridPose, spec: SensorSpec) -> Scan:
    """Trace every ray from `pose` until the first occupied cell or max range.

    The rays are the cached `trace.ray_table`, walked by `trace.walk_rays`,
    so an indoor scan reads the cells up to its walls, not the whole table.
    Each block marks the cells its rays passed without hitting; they make up
    `free_cells`. Deterministic for fixed inputs. The pose must be a free
    cell of the ground truth.
    """
    if not gt.in_bounds(pose.x, pose.y):
        raise InvalidStateError(f"scan pose {pose} is outside the grid")
    if gt.at(pose) != FREE:
        raise InvalidStateError(f"scan pose {pose} is not on a free ground-truth cell")

    occupied = gt.cells > 0.5
    seen = np.zeros(gt.cells.size, dtype=bool)

    def block(idx, length):
        col, stopped = end_columns(gather_values(occupied, idx), length)
        # Every cell strictly before the end is free space the ray passed
        # through; a ray that did not stop passed its end cell too. All of
        # these cells lie in the ray's in-bounds prefix. The column counts
        # fit int16, as the exit tables do, which halves the mask's cost.
        passed = (col + ~stopped).astype(np.int16)
        seen[idx[np.arange(idx.shape[1], dtype=np.int16) < passed[:, None]]] = True
        return col, stopped

    range_cells = spec.range_lambda / gt.resolution
    hits, endpoints = walk_rays(spec.n_rays, range_cells, pose, gt.shape, block)
    return Scan(endpoints=endpoints, hits=hits, free_cells=np.flatnonzero(seen))


def integrate_scan(observed: OccupancyGrid, scan: Scan) -> np.ndarray:
    """Fold a scan into the observed map, in place, and return the flat
    indices of the cells it turned from unknown to known, each once.

    Traversed cells become free, hit endpoints become occupied. Known cells
    never revert to unknown, and free never overwrites occupied. The map
    must be a three-label grid of the shape the scan was taken on; a flat
    index past its size raises, but the shape is not checked here, nor the
    labels, since an episode's map starts unknown and changes only through
    this function.
    """
    cells = observed.cells
    free = scan.free_cells
    if len(free) and free[-1] >= cells.size:
        raise ValueError("scan does not fit the observed map dimensions")
    hx, hy = scan.endpoints[scan.hits, 0], scan.endpoints[scan.hits, 1]
    if len(hx) and (hx.max() >= observed.width or hy.max() >= observed.height):
        raise ValueError("scan does not fit the observed map dimensions")
    free = free[cells.take(free) == UNKNOWN]
    cells.put(free, FREE)
    hit = hy * observed.width + hx
    # Read after the free writes, so a cell listed both ways counts once.
    new_hits = np.unique(hit[cells.take(hit) == UNKNOWN])
    cells.put(hit, OCCUPIED)
    return np.concatenate([free, new_hits])


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


def check_floorplan_args(width: int, height: int, room_count_range: tuple[int, int],
                         corridor_width: int) -> None:
    """Raise ValueError unless `generate_floorplan` can lay out a plan with
    these settings; each message starts with the `MapSource` field at fault."""
    lo, hi = room_count_range
    for name, value, least in (("width", width, 50), ("height", height, 50), ("rooms_min", lo, 2),
                               ("rooms_max", hi, lo), ("corridor_width", corridor_width, 2)):
        if value < least:
            raise ValueError(f"{name}: must be >= {least}, got {value}")
    if height - 4 - corridor_width < 2 * _MIN_ROOM_H:
        raise ValueError(f"corridor_width: {corridor_width} leaves too few rows for rooms "
                         f"on both sides of the corridor in a plan {height} cells high")


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
    check_floorplan_args(width, height, room_count_range, corridor_width)
    min_room_w = 20  # cells; wide enough for a door gap plus jambs
    door_w = 16  # 1.6 m at default resolution; comfortably wider than the
    # default frontier cluster filter so door frontiers never vanish
    lo, hi = room_count_range
    interior_w = width - 2
    # rows: 1..height-2 interior; two room strips + two walls + corridor.
    strip_h_total = height - 2 - corridor_width - 2

    rng = np.random.default_rng(seed)
    cells = np.ones((height, width))

    # Corridor band position (rows cy .. cy+corridor_width-1), jittered.
    slack = strip_h_total - 2 * _MIN_ROOM_H
    top_h = _MIN_ROOM_H + int(rng.integers(0, slack + 1))
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

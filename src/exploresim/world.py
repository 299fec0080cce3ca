"""Ground-truth world: simulated 360° LiDAR, observed-map integration,
robot kinematics on the diagonally-connected grid, and a procedural
floor-plan generator.

The sensor walks the `trace` ray table block by block, the rays still
live in each, and marks the cells its rays pass and hit. A `Scan` is
those cells as sorted flat indices, and `integrate_scan` writes through
them and returns the flat indices it made known, from which an episode
keeps its coverage as a running count. Sensing is noise-free and the
robot pose is known exactly: a cell the sensor marks free is free in the
ground truth, and a hit cell is occupied in the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError
from .grid import DEFAULT_RESOLUTION, FREE, OCCUPIED, UNKNOWN, GridPose, OccupancyGrid
from .trace import end_columns, first_block_cols, gather_values, prefix_lengths, ray_table
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
    """One LiDAR acquisition on a grid of `shape`: the flat indices
    `y * width + x` of the cells its rays passed without hitting, and of the
    occupied cells they hit, each array sorted and duplicate-free."""

    free_cells: np.ndarray = field(repr=False)  # (m,) intp
    hit_cells: np.ndarray = field(repr=False)  # (k,) intp
    shape: tuple[int, int]


def simulate_scan(gt: OccupancyGrid, pose: GridPose, spec: SensorSpec) -> Scan:
    """Trace every ray from `pose` until the first occupied cell or max range.

    The rays are the cached `trace.ray_table`, read in the column blocks it
    is stored in: the first once per group of rays, each later one for the
    rays still live, those that neither stopped nor left their in-bounds
    prefix. So an indoor scan reads the cells up to its walls, not the whole
    table. A block is one `gather_values` and one `end_columns`.
    Deterministic for fixed inputs. The pose must be a free cell of the
    ground truth.
    """
    if not gt.in_bounds(pose.x, pose.y):
        raise InvalidStateError(f"scan pose {pose} is outside the grid")
    if gt.at(pose) != FREE:
        raise InvalidStateError(f"scan pose {pose} is not on a free ground-truth cell")

    occupied = gt.cells > 0.5
    passed = np.zeros(gt.cells.size, dtype=bool)
    hit = np.zeros(gt.cells.size, dtype=bool)

    def read(idx, length):
        """Mark the passed and hit cells of a block's rays, one row of flat
        indices each; return which rays stopped."""
        col, stopped = end_columns(gather_values(occupied, idx), length)
        # Every cell strictly before the end is free space the ray passed
        # through; a ray that did not stop passed its end cell too. All of
        # these cells lie in the ray's in-bounds prefix. The column counts
        # fit int16, as the exit tables do, which halves the mask's cost.
        n = (col + ~stopped).astype(np.int16)
        passed[idx[np.arange(idx.shape[1], dtype=np.int16) < n[:, None]]] = True
        hit[idx[stopped, col[stopped]]] = True
        return stopped

    w = gt.width
    cols = first_block_cols(spec.n_rays)
    t = ray_table(spec.n_rays, spec.range_lambda / gt.resolution, w, cols)
    length = prefix_lengths(t, pose, gt.shape)
    base = pose.y * w + pose.x
    # Groups on `cols` columns hold for any fewer, as the first c1 can be.
    c1 = min(cols, int(length.max()))
    stopped = read(t.first[:, :c1] + base, np.minimum(length[t.rep], c1))[t.row]
    rays = np.flatnonzero(~stopped & (length > c1))  # the live rays
    for b in t.blocks[1:]:
        if not len(rays):
            break
        # Each block starts at the column where the last one ended: a block
        # cut short at its rays' longest prefix leaves no ray live.
        c0 = c1
        ray_len = length[rays]
        c1 = min(c0 + b.shape[1], int(ray_len.max()))
        idx = b.take(rays, axis=0)
        idx += base  # on whole rows: a strided add over the cut columns costs more
        stopped = read(idx[:, : c1 - c0], np.minimum(ray_len - c0, c1 - c0))
        rays = rays[~stopped & (ray_len > c1)]
    return Scan(np.flatnonzero(passed), np.flatnonzero(hit), gt.shape)


def integrate_scan(observed: OccupancyGrid, scan: Scan) -> np.ndarray:
    """Fold a scan into the observed map, in place, and return the flat
    indices of the cells it turned from unknown to known, each once.

    Passed cells become free, hit cells occupied. Known cells never revert
    to unknown, and free never overwrites occupied. The map must be a
    three-label grid of the shape the scan was taken on; its labels are not
    checked, since an episode's map starts unknown and changes only through
    this function.
    """
    if scan.shape != observed.shape:
        raise ValueError(f"scan taken on a grid of shape {scan.shape} does not fit "
                         f"the observed map's shape {observed.shape}")
    cells = observed.cells
    free = scan.free_cells[cells.take(scan.free_cells) == UNKNOWN]
    cells.put(free, FREE)
    # Read after the free writes, so a cell listed both ways counts once.
    new_hits = scan.hit_cells[cells.take(scan.hit_cells) == UNKNOWN]
    cells.put(scan.hit_cells, OCCUPIED)
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

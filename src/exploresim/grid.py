"""Occupancy grids, grid coordinates, and binary PGM raster IO.

Conventions used everywhere in this package:

* row 0 is the top of the image, x grows right, y grows down;
* a cell holds an occupancy value in [0, 1]: 0.0 free, 0.5 unknown,
  1.0 occupied. Observed maps use exactly those three labels; predicted,
  mean and variance maps may hold any value in [0, 1];
* on disk, maps are 8-bit binary PGM (P5), black = occupied:
  pixel = round((1 - occupancy) * 255).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import PgmParseError

FREE = 0.0
UNKNOWN = 0.5
OCCUPIED = 1.0

DEFAULT_RESOLUTION = 0.1  # meters per cell

# Pixels within this band of mid-gray decode to "unknown" when snapping is
# on (save_pgm writes unknown as 128, but external tools often emit 127).
UNKNOWN_PIXEL_BAND = 10

_WHITESPACE = b" \t\r\n\x0b\x0c"


class GridPose(NamedTuple):
    """A discrete cell position (column x, row y)."""

    x: int
    y: int


class OccupancyGrid:
    """2D occupancy raster; `cells` is a float64 array of shape (height, width)."""

    __slots__ = ("cells", "resolution")

    def __init__(self, cells, resolution: float = DEFAULT_RESOLUTION):
        cells = np.asarray(cells, dtype=np.float64)
        if cells.ndim != 2 or cells.shape[0] < 1 or cells.shape[1] < 1:
            raise ValueError(f"grid must be 2D with positive dimensions, got shape {cells.shape}")
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        if not (cells.min() >= 0.0 and cells.max() <= 1.0):  # NaN fails both tests
            raise ValueError("cell values must lie in [0, 1]")
        self.cells = cells
        self.resolution = float(resolution)

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.cells.shape

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def at(self, pose: GridPose) -> float:
        return float(self.cells[pose.y, pose.x])

    def is_three_label(self) -> bool:
        """True if every cell is exactly one of {0.0, 0.5, 1.0}."""
        c = self.cells
        return bool(np.all((c == FREE) | (c == UNKNOWN) | (c == OCCUPIED)))

    def copy(self) -> "OccupancyGrid":
        return OccupancyGrid(self.cells.copy(), self.resolution)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OccupancyGrid):
            return NotImplemented
        return (
            self.resolution == other.resolution
            and self.shape == other.shape
            and bool(np.array_equal(self.cells, other.cells))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"OccupancyGrid({self.width}x{self.height} @ {self.resolution} m/cell)"


def new_grid(width: int, height: int, resolution: float = DEFAULT_RESOLUTION) -> OccupancyGrid:
    """Fresh all-unknown grid."""
    if width < 1 or height < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {width}x{height}")
    return OccupancyGrid(np.full((height, width), UNKNOWN), resolution)


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        if data[pos] in _WHITESPACE:
            pos += 1
        elif data[pos] == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PgmParseError("unexpected end of PGM header", pos)
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    return data[start:pos], start


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, start = _next_token(data, pos)
    if not token.isdigit():
        raise PgmParseError(f"expected integer {what}, got {token!r}", start)
    return int(token), start + len(token)


def load_pgm(path, resolution: float = DEFAULT_RESOLUTION, snap_unknown: bool = True) -> OccupancyGrid:
    """Read a binary P5 PGM as an occupancy grid.

    pixel 0 -> 1.0 (occupied), pixel 255 -> 0.0 (free), otherwise
    occupancy = 1 - pixel/255. With snap_unknown (the right choice for
    three-label maps), pixels within UNKNOWN_PIXEL_BAND of 128 decode to
    exactly 0.5; disable it to keep continuous-valued maps linear.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    magic, start = _next_token(data, 0)
    if magic != b"P5":
        raise PgmParseError(f"not a binary PGM (magic {magic!r}, expected b'P5')", start)
    pos = start + len(magic)
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmParseError(f"bad dimensions {width}x{height}", pos)
    if maxval != 255:
        raise PgmParseError(f"unsupported maxval {maxval}, need 255", pos)
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PgmParseError("expected single whitespace after maxval", pos)
    pos += 1

    count = width * height
    if len(data) - pos < count:
        raise PgmParseError(
            f"truncated pixel data, need {count} bytes, have {len(data) - pos}", len(data)
        )
    pixels = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
    pixels = pixels.reshape((height, width)).astype(np.float64)

    occ = 1.0 - pixels / 255.0
    if snap_unknown:
        occ[np.abs(pixels - 128.0) <= UNKNOWN_PIXEL_BAND] = UNKNOWN
    return OccupancyGrid(occ, resolution)


def save_pgm(grid: OccupancyGrid, path) -> None:
    """Write a grid as binary P5 PGM (black = occupied, mid-gray = unknown)."""
    pixels = np.rint((1.0 - grid.cells) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())

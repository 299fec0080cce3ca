"""Occupancy grids, grid coordinates, and binary PGM raster IO.

Conventions used everywhere in this package:

* row 0 is the top of the image, x grows right, y grows down;
* a cell holds an occupancy value in [0, 1]: 0.0 free, 0.5 unknown,
  1.0 occupied. Observed maps use exactly those three labels; predicted,
  mean and variance maps may hold any value in [0, 1];
* on disk, maps are 8-bit binary PGM (P5), black = occupied:
  pixel = round((1 - occupancy) * 255).

`components` labels the connected components of a boolean mask, as
`scipy.ndimage.label` would, from its runs: the maximal horizontal spans of
True cells (He, Chao & Suzuki, "A Run-Based Two-Scan Labeling Algorithm",
2008). A row padded with one False column in front lays the rows end to
end, so one compare of neighbouring cells finds every run, and a run of
row y spans the keys y * (width + 1) + x of its cells. The runs of the row
above that a run touches (overlapping columns; for 8-connectivity, one
column further to either side) are a contiguous range of the runs sorted by
key, which two `searchsorted` calls find. Linked runs merge by hooking the
larger of two roots to the smaller and pointer jumping (Shiloach & Vishkin,
1982) until every run points at the first run of its component; numbering
those first runs in key order numbers the components in raster order of
their first cells, as `label` does.
"""

from __future__ import annotations

import math
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
        if not (math.isfinite(resolution) and resolution > 0):
            raise ValueError(f"resolution must be finite and positive, got {resolution}")
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


class Components(NamedTuple):
    """The connected components of a boolean (h, w) mask, by run: run r
    holds the cells of keys start[r] <= y * (w + 1) + x < stop[r], in
    raster order, and belongs to component label[r], numbered 1 .. count in
    raster order of the components' first cells."""

    shape: tuple[int, int]
    start: np.ndarray
    stop: np.ndarray
    label: np.ndarray
    count: int

    def at(self, y: int, x: int) -> int:
        """The label of the component holding cell (y, x), which must be True."""
        key = y * (self.shape[1] + 1) + x
        return int(self.label[np.searchsorted(self.start, key, "right") - 1])

    def cells(self):
        """(ys, xs, label) of every True cell, in raster order."""
        n = self.stop - self.start
        keys = np.arange(n.sum()) + np.repeat(self.start - (np.cumsum(n) - n), n)
        ys, xs = np.divmod(keys, self.shape[1] + 1)
        return ys, xs, np.repeat(self.label, n)

    def on_border(self) -> np.ndarray:
        """Whether each run has a cell on the border of the mask."""
        h, w = self.shape
        y, x0 = np.divmod(self.start, w + 1)
        return (y == 0) | (y == h - 1) | (x0 == 0) | (self.stop - y * (w + 1) == w)

    def paint(self, runs: np.ndarray) -> np.ndarray:
        """The (h, w) mask of the cells of the runs where the boolean `runs`
        is True."""
        h, w = self.shape
        # The keys alternate gaps and runs: one repeat of False, True,
        # False ... by their lengths. The last key of each row, y * (w + 1)
        # + w, is no cell; the returned view leaves it out.
        bounds = np.empty(2 * np.count_nonzero(runs) + 2, dtype=np.intp)
        bounds[0], bounds[-1] = 0, h * (w + 1)
        bounds[1:-1:2] = self.start[runs]
        bounds[2:-1:2] = self.stop[runs]
        keys = np.repeat(np.arange(len(bounds) - 1) % 2 == 1, np.diff(bounds))
        return keys.reshape(h, w + 1)[:, :w]


def components(mask: np.ndarray, diagonal: bool) -> Components:
    """The 4-connected components of the True cells of `mask`, or with
    `diagonal` the 8-connected ones (see the module docstring)."""
    h, w = mask.shape
    width = w + 1
    flat = np.zeros(h * width + 1, dtype=bool)
    flat[:-1].reshape(h, width)[:, 1:] = mask
    # Key i changes to key i + 1: a run starts at key i + 1 or ends at key i.
    change = np.flatnonzero(flat[1:] != flat[:-1])
    start, stop = change[0::2], change[1::2]
    # Run b of the row above touches run a when b's columns reach a's:
    # stop[b] + width > start[a] and start[b] + width < stop[a], one column
    # looser each way for 8-connectivity. Runs two rows up or in a's own
    # row fail one of the two, since a run stops by column w < width.
    reach = 1 if diagonal else 0
    lo = np.searchsorted(stop, start - width - reach, "right")
    hi = np.searchsorted(start, stop - width + reach, "left")
    # Each run hooks to the first run it touches above, one row up, so
    # h.bit_length() jumps take every run to the top of its chain. The
    # other runs it touches above link to it; each round hooks the larger
    # root of every linked pair to the smaller and jumps until every run
    # points at its root again. A run only ever points at itself or an
    # earlier run, so the hooks make no cycle.
    runs = np.arange(len(start))
    root = np.where(hi > lo, lo, runs)
    for _ in range(h.bit_length()):
        root = root[root]
    more = np.maximum(hi - lo - 1, 0)
    a = np.repeat(runs, more)
    b = np.arange(len(a)) - np.repeat(np.cumsum(more) - more - lo - 1, more)
    while len(a):
        ra, rb = root[a], root[b]
        apart = ra != rb
        a, b = a[apart], b[apart]
        root[np.maximum(ra[apart], rb[apart])] = np.minimum(ra[apart], rb[apart])
        while not np.array_equal(jump := root[root], root):
            root = jump
    first = root == runs
    count = int(np.count_nonzero(first))
    return Components((h, w), start, stop, np.cumsum(first)[root], count)


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

"""Global map prediction: built-in deterministic predictors, the prediction
ensemble with its mean/variance maps, and a file-protocol hook for plugging
in an external predictor process.

A member's `predict(observed)` returns a float64 array of the map's shape
with values in [0, 1], and nobody writes to that array after it is
returned. So the same array object always holds the same values: a member
whose prediction has not changed may return the array it returned last.
`NoisyOraclePredictor` returns its one read-only grid on every call, and
`PatchInpaintingPredictor` returns its kept read-only output while the map
is unchanged. `PassThroughPredictor` and `ExternalPredictor` return a new
array on every call.

Predictors fill the unknown cells; the ensemble is the one clamp:
`ensemble_predict` sets the mean to the observed value and the variance to
zero wherever the observed map is known, as if every member's prediction
had been overridden there by the observation.
Variance is the population (divide-by-n) variance, which is well defined
for a single member and bounded by 0.25 for values in [0, 1].

An `Ensemble` keeps each member's last output and the unclamped mean and
variance. When every member returns the very array it returned last, the
kept statistics stand; otherwise they are computed again over the whole
grid. The sums run in member order, as numpy's mean and variance over
axis 0 of the member stack do, so the result equals theirs bit for bit.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EnsembleError, ExternalPredictorError
from .grid import UNKNOWN, OccupancyGrid, load_pgm, save_pgm

# Seconds an external predictor may take for one prediction before it is
# killed and the call fails, so that a hung predictor cannot hang a batch.
EXTERNAL_TIMEOUT_S = 120.0


class PassThroughPredictor:
    """Returns the observation unchanged; unknown stays 0.5."""

    def predict(self, observed: OccupancyGrid) -> np.ndarray:
        return observed.cells.copy()  # the observed map changes in place


class NoisyOraclePredictor:
    """Ground truth with a fixed per-cell flip pattern on unknown cells.

    The flip pattern depends only on (seed, grid shape) and is drawn once,
    so the predictor is a deterministic function of the observed map.
    flip_rate 0 is a perfect oracle for the unknown region.
    """

    def __init__(self, gt: OccupancyGrid, flip_rate: float, seed: int):
        if not 0.0 <= flip_rate <= 1.0:
            raise ValueError(f"flip rate must be in [0, 1], got {flip_rate}")
        flip = np.random.default_rng(seed).random(gt.shape) < flip_rate
        self.filled = np.where(flip, 1.0 - gt.cells, gt.cells)
        self.filled.flags.writeable = False  # every call returns this grid

    def predict(self, observed: OccupancyGrid) -> np.ndarray:
        if observed.shape != self.filled.shape:
            raise ValueError(
                f"observed {observed.shape} does not match ground truth {self.filled.shape}"
            )
        return self.filled


class PatchInpaintingPredictor:
    """Fills unknown space block by block from a patch corpus.

    The unknown region is tiled into block_size x block_size blocks; each
    block is matched against every corpus patch by L2 distance over the
    known cells of a context ring of width ring around the block, and the
    best patch's interior is pasted into the block's unknown cells. Ties
    resolve to the lowest patch index, so prediction is deterministic.

    The member keeps the last observed map, padded with UNKNOWN by the ring
    on every side and out to whole blocks on the bottom and right, so a
    block's (block_size + 2 ring)-square context is a view of it: cells
    beyond the grid are unknown and never match. A block's output depends
    on that context alone. On a call with a map of the same shape, a block
    is matched again only when it holds an unknown cell and a cell within
    the ring of it changed; all such blocks lie in one window, the box of
    the changed cells grown by the ring and widened to whole blocks. Every
    other cell keeps its last output, or takes the map's value where it
    changed, so the output equals that of matching every block.

    A new member, or one given a map of another shape, starts from an
    all-unknown kept map. Its kept output is patch 0's interior tiled over
    the grid, which a block takes when its ring holds no known cell. Every
    call, the first included, then runs the update above. The output is
    copy-on-write: an unchanged map returns the kept output itself;
    otherwise the member copies it, updates the window, and keeps and
    returns the copy. Both are read-only.

    Corpus windows are cut every block_size cells along both axes.
    """

    def __init__(self, corpus: list[OccupancyGrid], block_size: int, ring: int):
        if block_size < 1 or ring < 1:
            raise ValueError("block_size and ring must be positive")
        self.block_size = block_size
        self.ring = ring
        side = block_size + 2 * ring
        patches = []
        for g in corpus:
            c = g.cells
            for y in range(0, c.shape[0] - side + 1, block_size):
                for x in range(0, c.shape[1] - side + 1, block_size):
                    patches.append(c[y : y + side, x : x + side])
        if not patches:
            raise ValueError("corpus contains no windows of the required size")
        self.patches = np.stack(patches)  # (n, side, side)
        self.ring_mask = np.ones((side, side), dtype=bool)
        self.ring_mask[ring : ring + block_size, ring : ring + block_size] = False
        self._last_observed: np.ndarray | None = None  # padded
        self._last_output: np.ndarray | None = None

    def predict(self, observed: OccupancyGrid) -> np.ndarray:
        b, r = self.block_size, self.ring
        side = b + 2 * r
        cells = observed.cells
        h, w = cells.shape
        if self._last_output is None or self._last_output.shape != cells.shape:
            ny, nx = -(-h // b), -(-w // b)
            self._last_observed = np.full((ny * b + 2 * r, nx * b + 2 * r), UNKNOWN)
            self._last_output = np.tile(self.patches[0, r : r + b, r : r + b], (ny, nx))[:h, :w]
            self._last_output.flags.writeable = False
        seen = self._last_observed[r : r + h, r : r + w]
        changed = seen != cells
        rows = np.flatnonzero(changed.any(axis=1))
        if rows.size == 0:
            return self._last_output
        cols = np.flatnonzero(changed.any(axis=0))
        y0, y1 = _block_span(rows[0] - r, rows[-1] + r + 1, b, h)
        x0, x1 = _block_span(cols[0] - r, cols[-1] + r + 1, b, w)
        win = np.s_[y0:y1, x0:x1]
        out = self._last_output.copy()
        np.copyto(out[win], cells[win], where=changed[win])
        seen[win] = cells[win]
        unknown = cells[win] == UNKNOWN
        ys, xs = np.nonzero(_blocks_with_any(unknown, b))
        for by, bx in zip((y0 + ys * b).tolist(), (x0 + xs * b).tolist()):
            if not changed[max(0, by - r) : by + b + r, max(0, bx - r) : bx + b + r].any():
                continue
            ctx = self._last_observed[by : by + side, bx : bx + side]
            known_ring = self.ring_mask & (ctx != UNKNOWN)
            if known_ring.any():
                diff = self.patches[:, known_ring] - ctx[known_ring]
                best = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
            else:
                best = 0
            blk = unknown[by - y0 : by - y0 + b, bx - x0 : bx - x0 + b]
            bh, bw = blk.shape
            out[by : by + bh, bx : bx + bw][blk] = self.patches[best, r : r + bh, r : r + bw][blk]
        out.flags.writeable = False
        self._last_output = out
        return out


def _block_span(lo: int, hi: int, b: int, n: int) -> tuple[int, int]:
    """[lo, hi) clipped to [0, n) and widened on both sides to whole blocks
    of b cells; the last block of a side may be short."""
    return max(0, int(lo)) // b * b, min(n, -(-int(hi) // b) * b)


def _blocks_with_any(mask: np.ndarray, b: int) -> np.ndarray:
    """(ceil(h / b), ceil(w / b)) flags: does block (i, j) of `mask` hold a True cell?"""
    rows = np.logical_or.reduceat(mask, np.arange(0, mask.shape[0], b), axis=0)
    return np.logical_or.reduceat(rows, np.arange(0, mask.shape[1], b), axis=1)


class ExternalPredictor:
    """Runs `<command> <input.pgm> <output.pgm>` to produce a prediction;
    `command` is the program and its arguments, one list item each.

    The command gets the observed map as a P5 file and must write its
    prediction (same dimensions) to the output path, exiting 0 within
    `EXTERNAL_TIMEOUT_S` seconds.
    """

    def __init__(self, command: list[str]):
        self.command = list(command)
        if not self.command:
            raise ValueError("external predictor command is empty")

    def predict(self, observed: OccupancyGrid) -> np.ndarray:
        cmd = self.command
        with tempfile.TemporaryDirectory(prefix="exploresim-") as tmp:
            in_path = Path(tmp) / "observed.pgm"
            out_path = Path(tmp) / "predicted.pgm"
            save_pgm(observed, in_path)
            try:
                proc = subprocess.run([*cmd, str(in_path), str(out_path)], capture_output=True,
                                      text=True, timeout=EXTERNAL_TIMEOUT_S)
            except subprocess.TimeoutExpired:  # run() has killed the child
                raise ExternalPredictorError(f"{shlex.join(cmd)} did not finish within "
                                             f"{EXTERNAL_TIMEOUT_S:g} s; killed") from None
            if proc.returncode != 0:
                raise ExternalPredictorError(
                    f"{cmd[0]} exited {proc.returncode}; stderr: {proc.stderr.strip()[-500:]}"
                )
            if not out_path.exists():
                raise ExternalPredictorError(f"{cmd[0]} wrote no output file")
            prediction = load_pgm(out_path, resolution=observed.resolution)
        if prediction.shape != observed.shape:
            raise ExternalPredictorError(
                f"prediction is {prediction.shape}, observed is {observed.shape}"
            )
        return prediction.cells


@dataclass
class PredictionSet:
    """Ensemble output: the per-cell mean and population variance of the
    member predictions, clamped to the known observed cells. Both grids
    are read-only."""

    mean: OccupancyGrid
    variance: OccupancyGrid


class Ensemble:
    """The members of one episode's ensemble and the statistics kept from
    its last call: each member's last output and the unclamped mean and
    variance. Nobody writes to an output after it is returned, so an output
    that `is` the kept one holds the same values (see the module docstring)."""

    def __init__(self, members: list):
        if not members:
            raise ValueError("ensemble needs at least one member")
        self.members = list(members)
        self.outputs: list[np.ndarray | None] = [None] * len(self.members)
        self.mean: np.ndarray | None = None
        self.variance: np.ndarray | None = None

    def update(self, outputs: list[np.ndarray]) -> None:
        """Keep `outputs` and bring the mean and variance up to date with
        them; an array a member returned again still holds its values."""
        if all(new is old for new, old in zip(outputs, self.outputs)):
            return
        self.outputs = outputs
        # numpy's mean and var over axis 0 of the member stack, in the same
        # order of operations: sums run member by member, then divide by n.
        n = len(outputs)
        total = outputs[0].copy()
        for out in outputs[1:]:
            total += out
        self.mean = total / n
        squares = np.square(outputs[0] - self.mean)
        for out in outputs[1:]:
            np.subtract(out, self.mean, out=total)
            squares += np.square(total, out=total)
        self.variance = np.divide(squares, n, out=squares)

    def clamped(self, observed: OccupancyGrid) -> PredictionSet:
        """Read-only copies of the kept mean and variance, clamped to the
        cells `observed` knows."""
        known = observed.cells != UNKNOWN
        mean, variance = self.mean.copy(), self.variance.copy()
        np.copyto(mean, observed.cells, where=known)
        np.copyto(variance, 0.0, where=known)
        mean.flags.writeable = variance.flags.writeable = False
        return PredictionSet(mean=OccupancyGrid(mean, observed.resolution),
                             variance=OccupancyGrid(variance, observed.resolution))


def ensemble_predict(ensemble: Ensemble, observed: OccupancyGrid) -> PredictionSet:
    """Run every member, take the mean and variance maps of their
    predictions, and clamp both to the known observed cells: the mean takes
    the observed value there and the variance 0. On a three-label map this
    equals clamping each member first.

    The call updates the statistics `ensemble` keeps; when every member
    returns the array it returned last, they are reused as they stand. The
    returned mean and variance grids are new and read-only.

    The map must be a three-label grid; this is not checked here, since an
    episode's map changes only through `world.integrate_scan`.
    """
    outputs = []
    for i, member in enumerate(ensemble.members):
        try:
            outputs.append(member.predict(observed))
        except Exception as exc:
            raise EnsembleError(i, str(exc)) from exc
    ensemble.update(outputs)
    return ensemble.clamped(observed)

"""Global map prediction: built-in deterministic predictors, the prediction
ensemble with its mean/variance maps, and a file-protocol hook for plugging
in an external predictor process.

Predictors fill the unknown cells; the ensemble is the one clamp:
`ensemble_predict` sets the mean to the observed value and the variance to
zero wherever the observed map is known, as if every member's prediction
had been overridden there by the observation.
Variance is the population (divide-by-n) variance, which is well defined
for a single member and bounded by 0.25 for values in [0, 1].

An `Ensemble` keeps its statistics between calls: each member's last
output and the unclamped mean and variance. A call compares every member's
new output with the kept one and recomputes the mean and variance only in
the box of the cells where any output changed; it then clamps a copy. The
box's sums run in member order, as numpy's mean and variance over axis 0
of the member stack do, so the result equals a from-scratch computation
bit for bit. A member must therefore never change a grid it has returned;
`NoisyOraclePredictor` returns its one read-only grid on every call.

`PatchInpaintingPredictor` is the one member that keeps state between
calls: a copy of the last observed map and of the last output. A block's
output depends only on its context window, so a later call on a map of the
same shape works inside one window, the box of the changed cells grown by
the ring and widened to whole blocks: it recomputes just the blocks there
whose context changed and leaves the rest of its last output as it was;
the result is the one a fresh member would return.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import EnsembleError, ExternalPredictorError
from .grid import UNKNOWN, OccupancyGrid, load_pgm, save_pgm

# Seconds an external predictor may take for one prediction before it is
# killed and the call fails, so that a hung predictor cannot hang a batch.
EXTERNAL_TIMEOUT_S = 120.0


class PassThroughPredictor:
    """Returns the observation unchanged; unknown stays 0.5."""

    def predict(self, observed: OccupancyGrid) -> OccupancyGrid:
        return observed.copy()


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

    def predict(self, observed: OccupancyGrid) -> OccupancyGrid:
        if observed.shape != self.filled.shape:
            raise ValueError(
                f"observed {observed.shape} does not match ground truth {self.filled.shape}"
            )
        return OccupancyGrid(self.filled, observed.resolution)


class PatchInpaintingPredictor:
    """Fills unknown space block by block from a patch corpus.

    The unknown region is tiled into block_size x block_size blocks; each
    block is matched against every corpus patch by L2 distance over the
    known cells of a context ring of width ring around the block, and the
    best patch's interior is pasted into the block's unknown cells. Ties
    resolve to the lowest patch index, so prediction is deterministic.

    A block's output is a function of its (block_size + 2 ring)-square
    window of the observed map and of nothing else. The member keeps a copy
    of the last observed map and of the last output. On a call with a map
    of the same shape it takes the cells that changed and grows them by the
    ring: a block touches a grown cell exactly when its window changed. All
    such blocks lie in one window: the box of the changed cells, grown by
    the ring and widened on both sides to whole blocks, so that a block is
    either wholly inside it or wholly outside. Only that window is read and
    updated. Of its blocks, those that touch a grown cell and hold an
    unknown cell are matched again; every other cell keeps its last output,
    or takes the map's value where it changed. So the output equals a fresh
    member's bit for bit. A call on an unchanged map returns the last
    output; the first call, and a call on a map of another shape, matches
    every block.

    Corpus windows are cut every `stride` cells (default: block_size). The
    config never sets it; tests pass stride 1, which takes every window, to
    check that a block is recovered exactly from the window it came from.
    """

    def __init__(self, corpus: list[OccupancyGrid], block_size: int, ring: int,
                 stride: int | None = None):
        if block_size < 1 or ring < 1:
            raise ValueError("block_size and ring must be positive")
        self.block_size = block_size
        self.ring = ring
        stride = stride or block_size
        side = block_size + 2 * ring
        patches = []
        for g in corpus:
            c = g.cells
            for y in range(0, c.shape[0] - side + 1, stride):
                for x in range(0, c.shape[1] - side + 1, stride):
                    patches.append(c[y : y + side, x : x + side])
        if not patches:
            raise ValueError("corpus contains no windows of the required size")
        self.patches = np.stack(patches)  # (n, side, side)
        self.ring_mask = np.ones((side, side), dtype=bool)
        self.ring_mask[ring : ring + block_size, ring : ring + block_size] = False
        self._last_observed: np.ndarray | None = None
        self._last_output: np.ndarray | None = None

    def predict(self, observed: OccupancyGrid) -> OccupancyGrid:
        b, r = self.block_size, self.ring
        side = b + 2 * r
        cells = observed.cells
        last = self._last_observed
        if last is not None and last.shape == cells.shape:
            changed = last != cells
            rows = np.flatnonzero(changed.any(axis=1))
            if rows.size == 0:
                return OccupancyGrid(self._last_output.copy(), observed.resolution)
            cols = np.flatnonzero(changed.any(axis=0))
            # Every block whose window changed lies in this window: the
            # changed cells' box grown by the ring, out to whole blocks.
            y0, y1 = _block_span(rows[0] - r, rows[-1] + r + 1, b, cells.shape[0])
            x0, x1 = _block_span(cols[0] - r, cols[-1] + r + 1, b, cells.shape[1])
            win = np.s_[y0:y1, x0:x1]
            out = self._last_output
            np.copyto(out[win], cells[win], where=changed[win])
            last[win] = cells[win]
            # Each changed cell lies a ring inside the window, or the grid
            # ends there, so the window alone filters as the whole grid does.
            stale = ndimage.maximum_filter(changed[win], size=2 * r + 1, mode="constant")
        else:
            (y0, x0), (y1, x1) = (0, 0), cells.shape
            out = cells.copy()
            stale = None
            self._last_observed = cells.copy()
            self._last_output = out
        unknown = cells[y0:y1, x0:x1] == UNKNOWN
        todo = _blocks_with_any(unknown, b)
        if stale is not None:
            todo &= _blocks_with_any(stale, b)

        ys, xs = np.nonzero(todo)
        for by, bx in zip((y0 + ys * b).tolist(), (x0 + xs * b).tolist()):
            blk = unknown[by - y0 : by - y0 + b, bx - x0 : bx - x0 + b]
            # Context window around the block, clipped at the borders.
            wy, wx = by - r, bx - r
            ctx = np.full((side, side), np.nan)
            sy0, sx0 = max(0, wy), max(0, wx)
            sy1 = min(observed.height, wy + side)
            sx1 = min(observed.width, wx + side)
            ctx[sy0 - wy : sy1 - wy, sx0 - wx : sx1 - wx] = cells[sy0:sy1, sx0:sx1]
            known_ring = self.ring_mask & ~np.isnan(ctx) & (ctx != UNKNOWN)
            if known_ring.any():
                diff = self.patches[:, known_ring] - ctx[known_ring]
                best = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
            else:
                best = 0
            interior = self.patches[best, r : r + b, r : r + b]
            h, w = blk.shape
            out[by : by + h, bx : bx + w][blk] = interior[:h, :w][blk]
        return OccupancyGrid(out.copy(), observed.resolution)


def _block_span(lo: int, hi: int, b: int, n: int) -> tuple[int, int]:
    """[lo, hi) clipped to [0, n) and widened on both sides to whole blocks
    of b cells; the last block of a side may be short."""
    return max(0, int(lo)) // b * b, min(n, -(-int(hi) // b) * b)


def _blocks_with_any(mask: np.ndarray, b: int) -> np.ndarray:
    """(ceil(h / b), ceil(w / b)) flags: does block (i, j) of `mask` hold a True cell?"""
    rows = np.logical_or.reduceat(mask, np.arange(0, mask.shape[0], b), axis=0)
    return np.logical_or.reduceat(rows, np.arange(0, mask.shape[1], b), axis=1)


class ExternalPredictor:
    """Runs `<command> <input.pgm> <output.pgm>` to produce a prediction.

    The command gets the observed map as a P5 file and must write its
    prediction (same dimensions) to the output path, exiting 0 within
    `EXTERNAL_TIMEOUT_S` seconds.
    """

    def __init__(self, command):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        if not self.command:
            raise ValueError("external predictor command is empty")

    def predict(self, observed: OccupancyGrid) -> OccupancyGrid:
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
        return prediction


@dataclass
class PredictionSet:
    """Ensemble output: the per-cell mean and population variance of the
    member predictions, clamped to the known observed cells."""

    mean: OccupancyGrid
    variance: OccupancyGrid


class Ensemble:
    """The members of one episode's ensemble and the statistics kept from
    its last call: each member's last output and the unclamped mean and
    variance (see the module docstring)."""

    def __init__(self, members: list):
        if not members:
            raise ValueError("ensemble needs at least one member")
        self.members = list(members)
        self.outputs: list[np.ndarray | None] = [None] * len(self.members)
        self.mean: np.ndarray | None = None
        self.variance: np.ndarray | None = None
        self._flags: np.ndarray | None = None  # a boolean grid reused by every call

    def _changed_box(self, outputs: list[np.ndarray]) -> tuple[slice, slice] | None:
        """The box of the cells where any output differs from the kept one:
        the whole grid when nothing is kept for this shape, None when no
        output changed."""
        shape = outputs[0].shape
        if self.mean is None or self.mean.shape != shape:
            self.mean, self.variance = np.empty(shape), np.empty(shape)
            self._flags = np.empty(shape, dtype=bool)
            return np.s_[:, :]
        rows = np.zeros(shape[0], dtype=bool)
        cols = np.zeros(shape[1], dtype=bool)
        for new, old in zip(outputs, self.outputs):
            if new is not old:  # a returned grid never changes
                np.not_equal(new, old, out=self._flags)
                rows |= self._flags.any(axis=1)
                cols |= self._flags.any(axis=0)
        ys, xs = np.flatnonzero(rows), np.flatnonzero(cols)
        if ys.size == 0:
            return None
        return np.s_[ys[0] : ys[-1] + 1, xs[0] : xs[-1] + 1]

    def update(self, outputs: list[np.ndarray]) -> None:
        """Keep `outputs` and bring the mean and variance up to date with them."""
        box = self._changed_box(outputs)
        self.outputs = outputs
        if box is None:
            return
        # numpy's mean and var over axis 0 of the member stack, in the same
        # order of operations: sums run member by member, then divide by n.
        n = len(outputs)
        total = outputs[0][box].copy()
        for out in outputs[1:]:
            total += out[box]
        mean = np.divide(total, n, out=self.mean[box])
        squares = np.square(outputs[0][box] - mean)
        for out in outputs[1:]:
            np.subtract(out[box], mean, out=total)
            squares += np.square(total, out=total)
        np.divide(squares, n, out=self.variance[box])

    def clamped(self, observed: OccupancyGrid) -> PredictionSet:
        """Copies of the kept mean and variance, clamped to the cells
        `observed` knows."""
        known = np.not_equal(observed.cells, UNKNOWN, out=self._flags)
        mean, variance = self.mean.copy(), self.variance.copy()
        np.copyto(mean, observed.cells, where=known)
        np.copyto(variance, 0.0, where=known)
        return PredictionSet(mean=OccupancyGrid(mean, observed.resolution),
                             variance=OccupancyGrid(variance, observed.resolution))


def ensemble_predict(ensemble: Ensemble | list, observed: OccupancyGrid) -> PredictionSet:
    """Run every member, take the mean and variance maps of their
    predictions, and clamp both to the known observed cells: the mean takes
    the observed value there and the variance 0. On a three-label map this
    equals clamping each member first.

    `ensemble` is an `Ensemble`, whose kept statistics the call updates, or
    a list of members, for which nothing is kept.

    The map must be a three-label grid; this is not checked here, since an
    episode's map changes only through `world.integrate_scan`.
    """
    if not isinstance(ensemble, Ensemble):
        ensemble = Ensemble(ensemble)
    outputs = []
    for i, member in enumerate(ensemble.members):
        try:
            outputs.append(member.predict(observed).cells)
        except Exception as exc:
            raise EnsembleError(i, str(exc)) from exc
    ensemble.update(outputs)
    return ensemble.clamped(observed)

"""Global map prediction: built-in deterministic predictors, the prediction
ensemble with its mean/variance maps, and a file-protocol hook for plugging
in an external predictor process.

Predictors fill the unknown cells; the ensemble is the one clamp:
`ensemble_predict` overrides each member's prediction with the known
observed cells before computing statistics, so every member agrees with
the observation and variance is zero wherever the observed map is known.
Variance is the population (divide-by-n) variance, which is well defined
for a single member and bounded by 0.25 for values in [0, 1].
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


def clamp_to_observed(prediction: np.ndarray, observed: OccupancyGrid) -> np.ndarray:
    """Known observed cells override the prediction."""
    known = observed.cells != UNKNOWN
    return np.where(known, observed.cells, prediction)


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

    def predict(self, observed: OccupancyGrid) -> OccupancyGrid:
        if observed.shape != self.filled.shape:
            raise ValueError(
                f"observed {observed.shape} does not match ground truth {self.filled.shape}"
            )
        return OccupancyGrid(self.filled.copy(), observed.resolution)


class PatchInpaintingPredictor:
    """Fills unknown space block by block from a patch corpus.

    The unknown region is tiled into block_size x block_size blocks; each
    block is matched against every corpus patch by L2 distance over the
    known cells of a context ring of width ring around the block, and the
    best patch's interior is pasted into the block's unknown cells. Ties
    resolve to the lowest patch index, so prediction is deterministic.

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

    def predict(self, observed: OccupancyGrid) -> OccupancyGrid:
        b, r = self.block_size, self.ring
        side = b + 2 * r
        out = observed.cells.copy()
        unknown = observed.cells == UNKNOWN

        ring_mask = np.ones((side, side), dtype=bool)
        ring_mask[r : r + b, r : r + b] = False

        for by in range(0, observed.height, b):
            for bx in range(0, observed.width, b):
                blk = unknown[by : by + b, bx : bx + b]
                if not blk.any():
                    continue
                # Context window around the block, clipped at the borders.
                y0, x0 = by - r, bx - r
                ctx = np.full((side, side), np.nan)
                sy0, sx0 = max(0, y0), max(0, x0)
                sy1 = min(observed.height, y0 + side)
                sx1 = min(observed.width, x0 + side)
                ctx[sy0 - y0 : sy1 - y0, sx0 - x0 : sx1 - x0] = observed.cells[sy0:sy1, sx0:sx1]
                known_ring = ring_mask & ~np.isnan(ctx) & (ctx != UNKNOWN)
                if known_ring.any():
                    diff = self.patches[:, known_ring] - ctx[known_ring]
                    best = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
                else:
                    best = 0
                interior = self.patches[best, r : r + b, r : r + b]
                h = min(b, observed.height - by)
                w = min(b, observed.width - bx)
                target = out[by : by + h, bx : bx + w]
                target[blk[:h, :w]] = interior[:h, :w][blk[:h, :w]]
        return OccupancyGrid(out, observed.resolution)


class ExternalPredictor:
    """Runs `<command> <input.pgm> <output.pgm>` to produce a prediction.

    The command gets the observed map as a P5 file and must write its
    prediction (same dimensions) to the output path, exiting 0.
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
            proc = subprocess.run(
                [*cmd, str(in_path), str(out_path)], capture_output=True, text=True
            )
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
    clamped member predictions."""

    mean: OccupancyGrid
    variance: OccupancyGrid


def ensemble_predict(members: list, observed: OccupancyGrid) -> PredictionSet:
    """Run every member, clamp each prediction to the known observed cells,
    and compute the mean and variance maps."""
    if not members:
        raise ValueError("ensemble needs at least one member")
    if not observed.is_three_label():
        raise ValueError("predictors take a three-label observed map")
    stacks = []
    for i, member in enumerate(members):
        try:
            p = member.predict(observed)
        except Exception as exc:
            raise EnsembleError(i, str(exc)) from exc
        stacks.append(clamp_to_observed(p.cells, observed))
    stack = np.stack(stacks)
    mean = OccupancyGrid(stack.mean(axis=0), observed.resolution)
    variance = OccupancyGrid(stack.var(axis=0), observed.resolution)
    return PredictionSet(mean=mean, variance=variance)

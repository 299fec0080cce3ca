"""The benchmark workloads: their inputs, and one measured unit each.

`explore_default` and `replan_heavy` are fixed reference rows: plan
`gen0000`, start (1,1), experiment seed 0, whatever `--seed` says. On this
simulator the cost of a row follows its inputs chaotically: across noise
seeds on one plan the topological-understanding part of a row took 2.3 s
to 5.0 s, and across patch corpora `replan_heavy` rows fell into two modes
of about 36 and 122 replans per 250 steps. Seed-chosen rows would spread
wider than any bound, so these rows stay fixed, and their records stay
comparable byte for byte from one commit to the next.

`ablation_batch` takes its experiment seed (noisy-oracle members and
topological-understanding goals) from `--seed`; its 16 rows average out
most of that variation.

A unit is the smallest piece of work a run repeats: one `cli.run_row` for
the single-row workloads, one `cli.run_experiment` batch for
`ablation_batch`. Every unit of a run has the same inputs. Row budgets are
short (100 and 400 steps) so that a run repeats a row several times and
its median rides out slow phases of a shared host, which last seconds. The
measured run follows a batch with a resume pass into the same directory,
which must return the same rows. "tiny" settings exist for the benchmark's
own tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from exploresim import cli
from exploresim.config import ExperimentConfig, MapSource, PredictorSpec
from exploresim.grid import GridPose, save_pgm
from exploresim.world import SensorSpec, generate_floorplan

from checks import check_row, record_digest

START = GridPose(1, 1)  # always free: the first room of the top strip starts there
BATCH_SCORERS = ("mapex", "nearest", "observed_map", "variance_only")


@dataclass(frozen=True)
class Settings:
    side: int  # plan width and height, cells
    budget: int
    sensor_m: float
    sensor_rays: int
    tu_goals: int
    predictor: str = "noisy_oracle"
    checkpoint_every: int = 100
    max_waypoint_age: int = 50
    min_cluster_size: int = 10
    workers: int = 1
    map_seed: int = 0  # the plan every unit explores
    row_seed: int | None = 0  # experiment seed; None: the --seed argument


SETTINGS = {
    "explore_default": {
        "full": Settings(200, 100, 20.0, 2500, 100),
        "tiny": Settings(60, 20, 4.0, 200, 5, checkpoint_every=10),
    },
    "replan_heavy": {
        "full": Settings(200, 400, 6.0, 360, 0, predictor="patch",
                         max_waypoint_age=10, min_cluster_size=5),
        "tiny": Settings(60, 30, 3.0, 120, 0, predictor="patch", checkpoint_every=10,
                         max_waypoint_age=10, min_cluster_size=5),
    },
    "ablation_batch": {
        "full": Settings(160, 200, 10.0, 1000, 20, workers=2, map_seed=7, row_seed=None),
        "tiny": Settings(60, 15, 3.0, 100, 3, checkpoint_every=5, workers=2, map_seed=7,
                         row_seed=None),
    },
}


@dataclass
class Row:
    result: dict
    row_dir: Path
    gt: object
    problems: list[str] = field(default_factory=list)
    record: list[dict] = field(default_factory=list)
    digest: str = ""  # of record.jsonl without its header line


@dataclass
class Unit:
    wall_s: float  # measured wall time of the unit
    workers: int  # processes that ran its rows in parallel
    rows: list[Row]
    problems: list[str] = field(default_factory=list)  # not tied to one row


def _config(s: Settings, maps: MapSource, starts, scorers, corpus, out_dir: Path,
            seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        maps=maps, starts=starts, scorers=list(scorers), budget=s.budget,
        min_cluster_size=s.min_cluster_size, max_waypoint_age=s.max_waypoint_age,
        sensor=SensorSpec(s.sensor_m, s.sensor_rays),
        predictor=PredictorSpec(kind=s.predictor, ensemble=3, corpus=corpus),
        checkpoint_every=s.checkpoint_every, tu_goals=s.tu_goals, output_dir=str(out_dir),
        seeds=[seed],
    )


class Workload:
    def __init__(self, name: str, size: str, seed: int, work: Path):
        self.name = name
        self.s = SETTINGS[name][size]
        self.row_seed = seed if self.s.row_seed is None else self.s.row_seed
        self.work = Path(work)
        self.gt = None

    def setup(self) -> None:
        """Make the plan and write every input file the units read."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.gt = generate_floorplan(self.s.map_seed, self.s.side, self.s.side)
        if self.s.predictor == "patch":
            corpus = self.work / "corpus"
            corpus.mkdir()
            for k in range(self.row_seed + 100, self.row_seed + 103):
                save_pgm(generate_floorplan(k, self.s.side, self.s.side),
                         corpus / f"gen{k:04d}.pgm")
        if self.name == "ablation_batch":
            maps = self.work / "maps"
            maps.mkdir()
            save_pgm(self.gt, maps / f"plan{self.s.map_seed:04d}.pgm")

    def run_unit(self, out_dir: Path, workers: int | None = None, resume: bool = True) -> Unit:
        if self.name == "ablation_batch":
            return self._batch(out_dir, self.s.workers if workers is None else workers, resume)
        return self._single_row(out_dir)

    def _single_row(self, out_dir: Path) -> Unit:
        maps = MapSource(kind="generate", map_seed=self.s.map_seed, count=1,
                         width=self.s.side, height=self.s.side)
        corpus = str(self.work / "corpus" / "*.pgm") if self.s.predictor == "patch" else None
        cfg = _config(self.s, maps, [START], ["mapex"], corpus, out_dir, self.row_seed)
        spec = cli.RowSpec(f"gen{self.s.map_seed:04d}", 0, START, 0, "mapex", self.row_seed)
        t0 = time.perf_counter()
        try:
            result = cli.run_row(cfg, spec, self.gt, out_dir)
        except Exception as exc:  # a failed row is reported, as run_experiment does
            result = {"status": f"error: {exc!r}"}
        wall = time.perf_counter() - t0
        return Unit(wall, 1, [Row(result, out_dir / spec.name, self.gt)])

    def _batch(self, out_dir: Path, workers: int, resume: bool) -> Unit:
        maps = MapSource(kind="files", glob=str(self.work / "maps" / "*.pgm"))
        cfg = _config(self.s, maps, "corners", BATCH_SCORERS, None, out_dir, self.row_seed)
        t0 = time.perf_counter()
        results = cli.run_experiment(cfg, workers=workers)
        wall = time.perf_counter() - t0
        resumed = cli.run_experiment(cfg, workers=workers) if resume else results
        rows = []
        for r, again in zip(results, resumed):
            spec = cli.RowSpec(r["map"], 0, GridPose(r["start_x"], r["start_y"]), 0,
                               r["scorer"], r["seed"])
            rows.append(Row(r, out_dir / spec.name, self.gt,
                            [] if again == r else ["resume pass returned a different row"]))
        problems = [] if len(resumed) == len(results) else ["resume pass changed the row count"]
        return Unit(wall, workers, rows, problems)


def check_unit(unit: Unit, first: Unit | None = None) -> None:
    """Fill in each row's problems, parsed record and digest. Units of one run
    have the same inputs, so each row must repeat the record of `first`."""
    for i, row in enumerate(unit.rows):
        problems, row.record = check_row(row.result, row.row_dir, row.gt)
        row.problems += problems
        if row.record:
            row.digest = record_digest(row.row_dir / "record.jsonl")
        if first is not None and row.digest != first.rows[i].digest:
            row.problems.append("record differs from the same row in the first unit")

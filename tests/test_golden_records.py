"""Golden records: tiny rows whose `record.jsonl` must not change.

Each row runs `cli.run_row` on a generated 60x60 plan and compares a
sha256 of its record lines after the header, which holds the temporary
corpus path. Together the rows cover every scorer and every predictor kind
but `external`. Most use a 3 m, 120-ray sensor, whose rays fit one block of
the ray table; the default sensor's rays walk several blocks.

A digest changes only together with a `cli.RULES` bump, and the change
that moves one names it. The digests rest on numpy's float summation
order, so a numpy upgrade that moves them is a finding, not a new
constant.
"""

import hashlib

import pytest

from exploresim import cli
from exploresim.config import ExperimentConfig, MapSource, PredictorSpec
from exploresim.grid import GridPose, save_pgm
from exploresim.world import SensorSpec, generate_floorplan

SHORT = SensorSpec(range_lambda=3.0, n_rays=120)
START = GridPose(1, 1)

# (plan seed, scorer, predictor kind, sensor, budget, sha256 of the record
# lines after the header)
ROWS = [
    (0, "mapex", "noisy_oracle", SensorSpec(), 30,
     "88d0a9c4f53695353f78d248830cdaacc431f534546c38b5f34595d9fddc15c7"),
    (1, "mapex", "patch", SHORT, 40,
     "35f6018cbb71d6392227a40f70b1932ce868ad626d179b50f68cbe7a29098c80"),
    (2, "deterministic", "noisy_oracle", SHORT, 40,
     "52f33ba9de129bdf8cffda9e85787abba8f8f103fde26fe4fc1d6928ebb9258a"),
    (3, "no_variance", "patch", SHORT, 40,
     "b12a4ddb5c5aa58ef5fc9ee686231dacbf8f4df173f795a91f1a058e42886bd7"),
    (4, "observed_map", "passthrough", SHORT, 40,
     "cceea4d78afc70bc38df13e8eec103829bf3560590cef0e39fad9b7986e40c23"),
    (5, "no_visibility", "noisy_oracle", SHORT, 40,
     "b6fe86b31d87590257f20fa0abf68a241575513c6b882d92ed4accaf758f5a3e"),
    (6, "nearest", "passthrough", SHORT, 40,
     "076e22ed4bf6b6a6095c401944c26d42b0ca2bd17a6170e26970c77aff7d93d2"),
    (7, "variance_only", "patch", SHORT, 40,
     "0e1c2cea798c05c382d00d75a74622d8ea80c1ee12c23746f82fbb2c617c8b0a"),
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A glob of three generated 60x60 plans, none of them a row's plan."""
    folder = tmp_path_factory.mktemp("corpus")
    for k in range(100, 103):
        save_pgm(generate_floorplan(k, 60, 60), folder / f"gen{k:04d}.pgm")
    return str(folder / "*.pgm")


@pytest.mark.parametrize("plan, scorer, kind, sensor, budget, digest", ROWS,
                         ids=[f"{r[1]}-{r[2]}" for r in ROWS])
def test_a_tiny_row_writes_its_golden_record(tmp_path, corpus, plan, scorer, kind, sensor,
                                              budget, digest):
    maps = MapSource(kind="generate", map_seed=plan, count=1, width=60, height=60)
    [(label, row_maps, gt)] = cli.materialize_maps(maps)
    predictor = PredictorSpec(kind=kind, ensemble=3, corpus=corpus if kind == "patch" else None)
    cfg = ExperimentConfig(maps=row_maps, starts=[START], scorers=[scorer], budget=budget,
                           min_cluster_size=5, max_waypoint_age=10, sensor=sensor,
                           predictor=predictor, checkpoint_every=10, tu_goals=0,
                           output_dir=str(tmp_path), snapshots=False)
    spec = cli.RowSpec(label, 0, START, 0, scorer, 0)
    assert cli.run_row(cfg, spec, gt, tmp_path)["status"] == "ok"
    data = (tmp_path / spec.name / "record.jsonl").read_bytes()
    assert hashlib.sha256(data[data.index(b"\n") + 1:]).hexdigest() == digest

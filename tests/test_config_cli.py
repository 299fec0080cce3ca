import concurrent.futures
import csv
import json
import math
import multiprocessing
import os
import shlex
import subprocess
import sys
import tempfile
import textwrap
import tomllib
from dataclasses import asdict, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exploresim import cli, config
from exploresim.cli import (
    RowHeader,
    RowSpec,
    _row_header,
    corner_starts,
    main,
    materialize_maps,
    replay,
    run_experiment,
    run_row,
)
from exploresim.config import (
    PREDICTOR_KINDS,
    ExperimentConfig,
    MapSource,
    PredictorSpec,
    parse_config,
)
from exploresim.errors import ConfigError, RecordMismatchError
from exploresim.frontier import SCORER_KINDS
from exploresim.grid import FREE, OCCUPIED, GridPose, OccupancyGrid, load_pgm, new_grid, save_pgm
from exploresim.infogain import RaycastConfig
from exploresim.metrics import topological_understanding
from exploresim.planner import EpisodeConfig
from exploresim.world import SensorSpec, generate_floorplan


def write_config(path, text):
    path.write_text(text)
    return path


def test_minimal_config_applies_defaults(tmp_path):
    gt = OccupancyGrid(np.zeros((20, 20)), 0.1)
    save_pgm(gt, tmp_path / "room.pgm")
    cfg_path = write_config(tmp_path / "exp.toml", f"""
[maps]
glob = '{tmp_path}/room.pgm'
""")
    cfg = parse_config(cfg_path)
    assert cfg.budget == 1000
    assert cfg.sensor.range_lambda == 20.0
    assert cfg.sensor.n_rays == 2500
    assert cfg.raycast.epsilon == 0.8
    assert cfg.predictor.ensemble == 3
    assert cfg.scorers == ["mapex"]
    assert cfg.starts == "corners"
    assert cfg.seeds == [0]
    # every key the file leaves out takes the dataclass default
    assert cfg == ExperimentConfig(maps=MapSource(kind="files", glob=f"{tmp_path}/room.pgm"))
    # an empty file generates its maps
    assert parse_config(write_config(tmp_path / "empty.toml", "")) == ExperimentConfig(
        maps=MapSource(kind="generate"))


def test_config_rejects_bad_epsilon(tmp_path):
    cfg_path = write_config(tmp_path / "exp.toml", "[raycast]\nepsilon = -1\n")
    with pytest.raises(ConfigError, match=r"^\[raycast\] epsilon: "):
        parse_config(cfg_path)


# Each unknown key or table and the start of the ConfigError that names it;
# the INI file's key and section names are unknown too.
UNKNOWN = {
    "bogus = 1": "bogus: unknown key",
    "[maps]\nfoo = 1": "[maps] foo: unknown key",
    "[maps]\nsource = 'files'": "[maps] source: unknown key",
    "[sensor]\nrays = 90": "[sensor] rays: unknown key",
    "[predictor.extra]\nx = 1": "[predictor] extra: unknown table",
}


def test_config_rejects_unknown_key(tmp_path):
    for text, message in UNKNOWN.items():
        with pytest.raises(ConfigError) as exc:
            parse_config(write_config(tmp_path / "exp.toml", text + "\n"))
        assert str(exc.value) == message, text


def test_config_rejects_unknown_section(tmp_path):
    for table in ("bogus", "episode", "metrics", "output"):
        with pytest.raises(ConfigError) as exc:
            parse_config(write_config(tmp_path / "exp.toml", f"[{table}]\nx = 1\n"))
        assert str(exc.value) == f"{table}: unknown table"


# Each value of the wrong type and the key its ConfigError starts with.
MISTYPED = {
    "budget = 'soon'": "budget",
    "budget = true": "budget",  # a bool is not an int
    "budget = 1.5": "budget",
    "snapshots = 1": "snapshots",
    "scorers = 'mapex'": "scorers",  # a string is not a list
    "seeds = [0, '1']": "seeds",
    "output_dir = 3": "output_dir",
    "starts = [[1]]": "starts",
    "starts = [[1, 2.5]]": "starts",
    "starts = [1, 2]": "starts",
    "[starts]\nposes = '5,5'": "starts",  # a table where a key belongs
    "maps = 3": "maps",
    "[maps]\nglob = 5": "[maps] glob",
    "[sensor]\nn_rays = 'many'": "[sensor] n_rays",
    "[raycast]\nepsilon = false": "[raycast] epsilon",
    "[predictor]\nkind = ['patch']": "[predictor] kind",
}


def test_config_rejects_type_mismatch(tmp_path):
    for text, where in MISTYPED.items():
        with pytest.raises(ConfigError) as exc:
            parse_config(write_config(tmp_path / "exp.toml", text + "\n"))
        assert str(exc.value).startswith(where + ": expected "), text


def test_an_int_sets_a_float_field_as_a_float(tmp_path):
    # The record header writes the field, so 8 and 8.0 would not be the same row.
    cfg = parse_config(write_config(tmp_path / "exp.toml", "[sensor]\nrange_lambda = 8\n"))
    assert cfg.sensor.range_lambda == 8.0 and type(cfg.sensor.range_lambda) is float


def test_config_rejects_a_file_it_cannot_read(tmp_path):
    with pytest.raises(ConfigError, match="^cannot parse "):
        parse_config(write_config(tmp_path / "exp.toml", "[maps\nglob = 'x'\n"))
    with pytest.raises(ConfigError, match="^cannot parse "):
        parse_config(write_config(tmp_path / "exp.toml", "[maps]\nsource = files\n"))
    (tmp_path / "binary.toml").write_bytes(b"budget = 1\n\xff\xfe\n")
    with pytest.raises(ConfigError, match="^cannot parse "):
        parse_config(tmp_path / "binary.toml")
    with pytest.raises(ConfigError, match="^cannot read config file "):
        parse_config(tmp_path / "missing.toml")


def test_config_requires_map_source(tmp_path):
    cfg_path = write_config(tmp_path / "exp.toml", "[maps]\nkind = 'files'\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg_path)
    assert str(exc.value).startswith("[maps] glob: ")


def test_config_unknown_scorer(tmp_path):
    cfg_path = write_config(tmp_path / "exp.toml", "scorers = ['bogus']\n")
    with pytest.raises(ConfigError, match="^scorers: "):
        parse_config(cfg_path)


def test_config_rejects_negative_tu_goals(tmp_path):
    text = "tu_goals = {}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path / "exp.toml", text.format(-1)))
    assert str(exc.value).startswith("tu_goals: ")
    assert parse_config(write_config(tmp_path / "exp.toml", text.format(0))).tu_goals == 0


def _experiment(**changes):
    return ExperimentConfig(**{"maps": MapSource(kind="generate")} | changes)


# Each value parse_config rejects: the TOML text, the "[table] key" or "key"
# its ConfigError starts with, and the same value built in code.
REJECTED = {
    "unknown scorer": ("scorers = ['bogus']", "scorers", lambda: _experiment(scorers=["bogus"])),
    "no scorer": ("scorers = []", "scorers", lambda: _experiment(scorers=[])),
    "negative budget": ("budget = -1", "budget", lambda: _experiment(budget=-1)),
    "negative min_cluster_size": ("min_cluster_size = -1", "min_cluster_size",
                                  lambda: _experiment(min_cluster_size=-1)),
    "negative max_waypoint_age": ("max_waypoint_age = -1", "max_waypoint_age",
                                  lambda: _experiment(max_waypoint_age=-1)),
    "negative checkpoint_every": ("checkpoint_every = -1", "checkpoint_every",
                                  lambda: _experiment(checkpoint_every=-1)),
    "negative tu_goals": ("tu_goals = -1", "tu_goals", lambda: _experiment(tu_goals=-1)),
    "no seed": ("seeds = []", "seeds", lambda: _experiment(seeds=[])),
    "no pose": ("starts = []", "starts", lambda: _experiment(starts=[])),
    "repeated scorer": ("scorers = ['nearest', 'mapex', 'nearest']", "scorers",
                        lambda: _experiment(scorers=["nearest", "mapex", "nearest"])),
    "repeated seed": ("seeds = [0, 0]", "seeds", lambda: _experiment(seeds=[0, 0])),
    "repeated start": ("starts = [[5, 5], [6, 5], [5, 5]]", "starts",
                       lambda: _experiment(starts=[GridPose(5, 5), GridPose(6, 5),
                                                   GridPose(5, 5)])),
    "unknown start policy": ("starts = 'random'", "starts",
                             lambda: _experiment(starts="random")),
    "unknown map source": ("[maps]\nkind = 'web'", "[maps] kind",
                           lambda: MapSource(kind="web")),
    "files without glob": ("[maps]\nkind = 'files'", "[maps] glob",
                           lambda: MapSource(kind="files")),
    "no maps": ("[maps]\ncount = 0", "[maps] count", lambda: MapSource(kind="generate", count=0)),
    "zero resolution": ("[maps]\nresolution = 0", "[maps] resolution",
                        lambda: MapSource(kind="files", glob="maps/*.pgm", resolution=0.0)),
    "nan resolution": ("[maps]\nresolution = nan", "[maps] resolution",
                       lambda: MapSource(kind="files", glob="maps/*.pgm", resolution=math.nan)),
    "infinite resolution": ("[maps]\nresolution = inf", "[maps] resolution",
                            lambda: MapSource(kind="files", glob="maps/*.pgm",
                                              resolution=math.inf)),
    "plan too small": ("[maps]\nwidth = 5", "[maps] width",
                       lambda: MapSource(kind="generate", width=5)),
    "room count range reversed": ("[maps]\nrooms_min = 5\nrooms_max = 2", "[maps] rooms_max",
                                  lambda: MapSource(kind="generate", rooms_min=5, rooms_max=2)),
    "corridor too wide": ("[maps]\nwidth = 60\nheight = 60\ncorridor_width = 45",
                          "[maps] corridor_width",
                          lambda: MapSource(kind="generate", width=60, height=60,
                                            corridor_width=45)),
    "unknown predictor": ("[predictor]\nkind = 'bogus'", "[predictor] kind",
                          lambda: PredictorSpec(kind="bogus")),
    "empty ensemble": ("[predictor]\nensemble = 0", "[predictor] ensemble",
                       lambda: PredictorSpec(ensemble=0)),
    "patch without corpus": ("[predictor]\nkind = 'patch'", "[predictor] corpus",
                             lambda: PredictorSpec(kind="patch")),
    "external without command": ("[predictor]\nkind = 'external'", "[predictor] command",
                                 lambda: PredictorSpec(kind="external")),
    "external naming no command": ("[predictor]\nkind = 'external'\ncommand = ' ; '",
                                   "[predictor] command",
                                   lambda: PredictorSpec(kind="external", command=" ; ")),
    "flip rate above 1": ("[predictor]\nflip_rate = 2", "[predictor] flip_rate",
                          lambda: PredictorSpec(flip_rate=2.0)),
    "zero patch block": ("[predictor]\nkind = 'patch'\ncorpus = 'c/*.pgm'\nblock = 0",
                         "[predictor] block",
                         lambda: PredictorSpec(kind="patch", corpus="c/*.pgm", block=0)),
    "zero patch ring": ("[predictor]\nkind = 'patch'\ncorpus = 'c/*.pgm'\nring = 0",
                        "[predictor] ring",
                        lambda: PredictorSpec(kind="patch", corpus="c/*.pgm", ring=0)),
    "too few sensor rays": ("[sensor]\nn_rays = 2", "[sensor] n_rays",
                            lambda: SensorSpec(n_rays=2)),
    "negative epsilon": ("[raycast]\nepsilon = -1", "[raycast] epsilon",
                         lambda: RaycastConfig(epsilon=-1.0)),
    "nan epsilon": ("[raycast]\nepsilon = nan", "[raycast] epsilon",
                    lambda: RaycastConfig(epsilon=math.nan)),
    "infinite epsilon": ("[raycast]\nepsilon = inf", "[raycast] epsilon",
                         lambda: RaycastConfig(epsilon=math.inf)),
    "nan cast range": ("[raycast]\nrange_lambda = nan", "[raycast] range_lambda",
                       lambda: RaycastConfig(range_lambda=math.nan)),
    "infinite cast range": ("[raycast]\nrange_lambda = inf", "[raycast] range_lambda",
                            lambda: RaycastConfig(range_lambda=math.inf)),
    "nan sensor range": ("[sensor]\nrange_lambda = nan", "[sensor] range_lambda",
                         lambda: SensorSpec(range_lambda=math.nan)),
    "infinite sensor range": ("[sensor]\nrange_lambda = inf", "[sensor] range_lambda",
                              lambda: SensorSpec(range_lambda=math.inf)),
}


@pytest.mark.parametrize("text, where, build", REJECTED.values(), ids=REJECTED.keys())
def test_dataclasses_reject_what_parse_config_rejects(tmp_path, text, where, build):
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path / "exp.toml", text + "\n"))
    assert str(exc.value).startswith(where + ": ")
    with pytest.raises(ValueError):
        build()


# External predictor commands, and the commands they split into.
SPLIT_COMMANDS = {
    "quoted ';'": ("python -c 'import sys; print(1)'",
                   [["python", "-c", "import sys; print(1)"]]),
    "quoted and bare ';'": ("a 'x;y' ; b", [["a", "x;y"], ["b"]]),
    "escaped ';'": (r"a \; b", [["a", ";", "b"]]),
    "bare ';'": ("a b; c d", [["a", "b"], ["c", "d"]]),
}


@pytest.mark.parametrize("command, expected", SPLIT_COMMANDS.values(), ids=SPLIT_COMMANDS.keys())
def test_only_a_bare_semicolon_separates_external_commands(command, expected):
    assert PredictorSpec(kind="external", command=command).commands == expected


@settings(max_examples=200, deadline=None)
@given(command=st.text(alphabet="ab ;", min_size=1))
def test_a_command_with_no_quote_or_escape_splits_at_every_semicolon(command):
    expected = [words for c in command.split(";") if (words := shlex.split(c))]
    assume(expected)
    assert PredictorSpec(kind="external", command=command).commands == expected


# Bad floor-plan settings: the [maps] values, and the key the error names.
BAD_PLANS = {
    "plan too small": ({"width": 5}, "width"),
    "corridor too wide": ({"width": 60, "height": 60, "corridor_width": 45}, "corridor_width"),
    "room count range reversed": ({"rooms_min": 5, "rooms_max": 2}, "rooms_max"),
    "negative map seed": ({"map_seed": -2}, "map_seed"),
}


@pytest.mark.parametrize("values, key", BAD_PLANS.values(), ids=BAD_PLANS.keys())
def test_bad_floor_plan_settings_stop_run_and_generate_maps(tmp_path, capsys, values, key):
    # The settings fail when they are read, in one line, before any map or row.
    text = "[maps]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
    cfg_path = write_config(tmp_path / "exp.toml", f"output_dir = '{tmp_path}/out'\n" + text)
    flags = [a for k, v in values.items() for a in ("--" + k.replace("_", "-"), str(v))]
    for argv in (["run", str(cfg_path)],
                 ["generate-maps", "--out", str(tmp_path / "maps"), *flags]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, argv
        assert err.startswith(f"explore: error: [maps] {key}: "), err
    assert not (tmp_path / "out").exists() and not (tmp_path / "maps").exists()
    with pytest.raises(ValueError, match=f"^{key}: "):
        MapSource(kind="generate", **values)


EVERY_KEY = """
starts = [[3, 4], [5, 6]]
scorers = ["nearest", "variance_only"]
budget = 77
min_cluster_size = 4
max_waypoint_age = 9
checkpoint_every = 25
tu_goals = 12
output_dir = "out"
seeds = [1, 2]
snapshots = false

[maps]
kind = "files"
glob = "maps/*.pgm"
count = 3
width = 50
height = 70
map_seed = 9
rooms_min = 2
rooms_max = 4
corridor_width = 5
resolution = 0.2

[sensor]
range_lambda = 7.5
n_rays = 90

[raycast]
epsilon = 0.5
n_rays = 24
range_lambda = 6.5

[predictor]
kind = "patch"
ensemble = 2
flip_rate = 0.1
command = "predict --fast"
corpus = "corpus/*.pgm"
block = 8
ring = 3
"""


def test_every_key_sets_its_field(tmp_path):
    data = tomllib.loads(EVERY_KEY)
    given_keys = {(t, k) for t, v in data.items() if isinstance(v, dict) for k in v}
    given_keys |= {(None, k) for k, v in data.items() if not isinstance(v, dict)}
    tables = {name: cls for name, cls in get_type_hints(ExperimentConfig).items()
              if is_dataclass(cls)}
    settable = {(None, f.name) for f in fields(ExperimentConfig) if f.name not in tables}
    settable |= {(t, f.name) for t, cls in tables.items() for f in fields(cls)}
    assert given_keys == settable and len(settable) == 32
    parsed = parse_config(write_config(tmp_path / "exp.toml", EVERY_KEY))
    assert parsed == ExperimentConfig(
        maps=MapSource("files", "maps/*.pgm", 3, 50, 70, 9, 2, 4, 5, 0.2),
        starts=[GridPose(3, 4), GridPose(5, 6)], scorers=["nearest", "variance_only"],
        budget=77, min_cluster_size=4, max_waypoint_age=9, sensor=SensorSpec(7.5, 90),
        raycast=RaycastConfig(0.5, 24, 6.5),
        predictor=PredictorSpec("patch", 2, 0.1, "predict --fast", "corpus/*.pgm", 8, 3),
        checkpoint_every=25, tu_goals=12, output_dir="out", seeds=[1, 2], snapshots=False,
    )
    # every value above differs from its default
    default = ExperimentConfig(maps=MapSource(kind="generate"))
    for cfg, dflt in ((parsed, default), (parsed.maps, default.maps),
                      (parsed.sensor, default.sensor), (parsed.raycast, default.raycast),
                      (parsed.predictor, default.predictor)):
        for name, value in vars(cfg).items():
            assert value != getattr(dflt, name), name


def test_poses_imply_explicit_starts(tmp_path):
    cfg = parse_config(write_config(tmp_path / "exp.toml", "starts = [[5, 5], [7, 9]]\n"))
    assert cfg.starts == [GridPose(5, 5), GridPose(7, 9)]
    assert all(type(p) is GridPose for p in cfg.starts)


def test_the_documented_example_parses(tmp_path):
    example = textwrap.dedent(config.__doc__.split("A complete file:")[1])
    cfg = parse_config(write_config(tmp_path / "exp.toml", example))
    assert cfg.maps == MapSource(kind="files", glob="maps/*.pgm")
    assert cfg.starts == [GridPose(1, 1), GridPose(30, 40)]


@settings(max_examples=60, deadline=None)
@given(sensor=st.builds(SensorSpec, st.floats(0.01, 100.0), st.integers(4, 10_000)),
       raycast=st.builds(RaycastConfig, st.floats(0.01, 10.0), st.integers(8, 1000),
                         st.floats(0.01, 100.0)),
       kind=st.sampled_from(PREDICTOR_KINDS), ensemble=st.integers(1, 8),
       flip_rate=st.floats(0.0, 1.0), command=st.none() | st.text(min_size=1),
       corpus=st.none() | st.sampled_from(["corpus/*.pgm", "/data/maps/*.pgm", "a b/c?.pgm"]),
       block=st.integers(1, 64), ring=st.integers(1, 8),
       scorer=st.sampled_from(SCORER_KINDS), budget=st.integers(0, 10**6),
       ints=st.tuples(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000)))
def test_header_round_trips_the_row_settings(sensor, raycast, kind, ensemble, flip_rate,
                                             command, corpus, block, ring, scorer, budget, ints):
    try:
        predictor = PredictorSpec(kind, ensemble, flip_rate, command, corpus, block, ring)
    except ValueError:  # an external command that names no command, or that shlex cannot split
        assume(False)
    assume(kind != "patch" or corpus)
    min_cluster_size, max_waypoint_age, checkpoint_every = ints
    cfg = ExperimentConfig(
        maps=MapSource(kind="generate", count=1), scorers=[scorer], budget=budget,
        min_cluster_size=min_cluster_size, max_waypoint_age=max_waypoint_age, sensor=sensor,
        raycast=raycast, predictor=predictor, checkpoint_every=checkpoint_every,
    )
    written = _row_header(cfg, RowSpec("gen0000", 0, GridPose(1, 1), 0, scorer, 0))
    header = config.from_table(RowHeader, json.loads(json.dumps(asdict(written))))
    assert header == written
    assert header.episode == EpisodeConfig(budget, scorer, sensor, raycast, min_cluster_size,
                                           max_waypoint_age, checkpoint_every)
    assert header.predictor == replace(predictor, corpus=corpus and os.path.abspath(corpus))
    assert len(header.member_seeds) == ensemble


def test_a_row_writes_exactly_this_header_line(tmp_path):
    # Resume compares the header line whole, so a change to its bytes re-runs
    # every stored row, although the episode lines stay the same.
    cfg = _tiny_row_config(tmp_path, predictor=PredictorSpec(kind="noisy_oracle", ensemble=2))
    [(label, one, gt)] = materialize_maps(cfg.maps)
    spec = RowSpec(label, 0, GridPose(1, 1), 0, "nearest", 0)
    run_row(replace(cfg, maps=one), spec, gt, tmp_path)
    assert (tmp_path / spec.name / "record.jsonl").read_text().splitlines()[0] == (
        '{"episode":{"budget_t":10,"checkpoint_every":5,"max_waypoint_age":50,'
        '"min_cluster_size":10,"raycast":{"epsilon":0.8,"n_rays":60,"range_lambda":20.0},'
        '"scorer":"nearest","sensor":{"n_rays":120,"range_lambda":3.0}},'
        '"map":{"corridor_width":8,"count":1,"glob":null,"height":60,"kind":"generate",'
        '"map_seed":0,"resolution":0.1,"rooms_max":12,"rooms_min":6,"width":60},'
        '"map_label":"gen0000","member_seeds":[2968811710,3831201730],'
        '"predictor":{"block":16,"command":null,"corpus":null,"ensemble":2,"flip_rate":0.05,'
        '"kind":"noisy_oracle","ring":2},"rules":1,"seed":0,"snapshots":true,"start":[1,1],'
        '"tu_goals":0,"type":"header"}')


def _sealed_box(n=20):
    cells = np.zeros((n, n))
    cells[0, :] = cells[-1, :] = OCCUPIED
    cells[:, 0] = cells[:, -1] = OCCUPIED
    return cells


def test_corner_starts_open_square_room():
    gt = OccupancyGrid(_sealed_box(12), 0.1)
    starts = corner_starts(gt)
    assert starts == [GridPose(1, 1), GridPose(10, 1), GridPose(1, 10), GridPose(10, 10)]


def test_corner_starts_single_free_cell():
    cells = np.ones((9, 9))
    cells[4, 6] = FREE
    gt = OccupancyGrid(cells, 0.1)
    assert corner_starts(gt) == [GridPose(6, 4)]


def test_corner_starts_lists_a_cell_two_corners_share_once():
    # A one-cell-wide column: each end is the nearest cell to two corners.
    cells = np.ones((60, 60))
    cells[5:55, 30] = FREE
    gt = OccupancyGrid(cells, 0.1)
    assert corner_starts(gt) == [GridPose(30, 5), GridPose(30, 54)]


def test_corner_starts_l_shape_matches_brute_force():
    cells = _sealed_box(24)
    cells[1:23, 12:23] = OCCUPIED  # block the right half: free region is an L
    cells[16:23, 1:23] = FREE
    cells[0, :] = cells[-1, :] = OCCUPIED
    cells[:, 0] = cells[:, -1] = OCCUPIED
    gt = OccupancyGrid(cells, 0.1)
    starts = corner_starts(gt)
    assert len(starts) == 4
    free = [(x, y) for y in range(24) for x in range(24) if cells[y, x] == FREE]
    for (cx, cy), got in zip([(0, 0), (23, 0), (0, 23), (23, 23)], starts):
        best = min(free, key=lambda p: ((p[0] - cx) ** 2 + (p[1] - cy) ** 2, p[1], p[0]))
        assert got == GridPose(*best)


def test_corner_starts_requires_free_cells():
    gt = OccupancyGrid(np.ones((6, 6)), 0.1)
    with pytest.raises(ValueError):
        corner_starts(gt)


SMALL_EXPERIMENT = """
starts = {starts}
budget = 30
scorers = {scorers}
min_cluster_size = 4
checkpoint_every = 15
tu_goals = 10
output_dir = {out}
seeds = {seeds}

[maps]
count = {count}
width = 64
height = 64
map_seed = 5
rooms_min = 2
rooms_max = 3
corridor_width = 6

[sensor]
range_lambda = 3.0
n_rays = 180

[raycast]
epsilon = 0.8
n_rays = 16
range_lambda = 3.0

[predictor]
kind = "noisy_oracle"
flip_rate = 0.05
"""


def _small_experiment(out, count=1, scorers=("nearest",), seeds=(0,), starts="corners"):
    """SMALL_EXPERIMENT's text; each value is written as JSON, which TOML reads alike."""
    return SMALL_EXPERIMENT.format(count=count, scorers=json.dumps(list(scorers)),
                                   seeds=json.dumps(list(seeds)), out=json.dumps(str(out)),
                                   starts=json.dumps(starts))


def _write_experiment(tmp_path, **values):
    return write_config(tmp_path / "exp.toml", _small_experiment(tmp_path / "results", **values))


def test_run_experiment_four_corner_rows(tmp_path):
    cfg = parse_config(_write_experiment(tmp_path))
    rows = run_experiment(cfg)
    assert len(rows) == 4  # 1 map x 4 corners x 1 scorer x 1 seed
    assert all(r["status"] == "ok" for r in rows)
    assert (tmp_path / "results" / "results.csv").exists()


def test_run_experiment_combinatorics(tmp_path):
    cfg = parse_config(_write_experiment(tmp_path, count=2, scorers=["nearest", "mapex"]))
    rows = run_experiment(cfg)
    assert len(rows) == 16  # 2 maps x 4 starts x 2 scorers x 1 seed


def test_run_experiment_resume_skips_completed_rows(tmp_path):
    cfg = parse_config(_write_experiment(tmp_path))
    rows1 = run_experiment(cfg)
    records = sorted((tmp_path / "results").glob("*/record.jsonl"))
    stamps = {p: p.stat().st_mtime_ns for p in records}
    rows2 = run_experiment(cfg)
    assert rows1 == rows2
    for p in records:
        assert p.stat().st_mtime_ns == stamps[p]


def _tiny_row_config(tmp_path, **changes):
    """One short row on a 60x60 plan; `changes` override its settings."""
    settings = dict(
        starts=[GridPose(1, 1)], scorers=["nearest"], budget=10,
        sensor=SensorSpec(3.0, 120), predictor=PredictorSpec(kind="passthrough", ensemble=1),
        checkpoint_every=5, tu_goals=0, output_dir=str(tmp_path),
    )
    return ExperimentConfig(maps=MapSource(kind="generate", count=1, width=60, height=60),
                            **(settings | changes))


def test_resume_reruns_a_row_whose_config_changed(tmp_path):
    # A stored row is reused only when its record starts with the header
    # this run would write: a lower budget re-runs the row and drops the
    # snapshots the longer run left.
    cfg = _tiny_row_config(tmp_path, budget=30)
    assert run_experiment(cfg)[0]["steps"] == 30
    cfg.budget = 10
    assert run_experiment(cfg)[0]["steps"] == 10
    row_dir = _first_row_dir(tmp_path)
    assert sorted(p.name for p in row_dir.glob("obs_*.pgm")) == [
        "obs_t00005.pgm", "obs_t00010.pgm"]
    assert json.loads((row_dir / "record.jsonl").read_text().splitlines()[-1])["t"] == 10


def test_resume_reruns_a_row_whose_tu_goals_changed(tmp_path):
    assert run_experiment(_tiny_row_config(tmp_path))[0]["tu_final"] == ""
    [row] = run_experiment(_tiny_row_config(tmp_path, tu_goals=5))
    assert 0.0 <= row["tu_final"] <= 1.0
    assert row["tu_checkpoints"].startswith("5:")


def test_resume_reruns_a_row_whose_snapshots_setting_changed(tmp_path):
    run_experiment(_tiny_row_config(tmp_path, snapshots=False))
    assert not list(_first_row_dir(tmp_path).glob("*.pgm"))
    run_experiment(_tiny_row_config(tmp_path))
    assert sorted(p.name for p in _first_row_dir(tmp_path).glob("obs_*.pgm")) == [
        "obs_t00005.pgm", "obs_t00010.pgm"]


def test_an_interrupted_rerun_never_returns_the_old_metrics(tmp_path, monkeypatch):
    # A re-run deletes the old metrics before it writes its record, so a
    # run cut after the record is written runs again on resume.
    assert run_experiment(_tiny_row_config(tmp_path, budget=15, tu_goals=5))[0]["steps"] == 15

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    with monkeypatch.context() as mp:
        mp.setattr(cli, "topological_understanding", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(_tiny_row_config(tmp_path, budget=25, tu_goals=5))
    row_dir = _first_row_dir(tmp_path)
    assert not (row_dir / "metrics.json").exists()
    [row] = run_experiment(_tiny_row_config(tmp_path, budget=25, tu_goals=5))
    assert row["steps"] == 25
    assert json.loads((row_dir / "record.jsonl").read_text().splitlines()[-1])["t"] == 25


def test_a_metrics_write_cut_midway_leaves_no_metrics_a_resume_trusts(tmp_path, monkeypatch):
    # A row stopped while it writes its metrics, by a full disk or a kill,
    # leaves no metrics file, so a resume runs it again.
    cfg = _tiny_row_config(tmp_path, scorers=["nearest", "mapex"])

    def cut(obj, fh, **kwargs):
        fh.write("{")
        raise OSError("No space left on device")

    with monkeypatch.context() as mp:
        mp.setattr(cli.json, "dump", cut)
        rows = run_experiment(cfg)
    assert [r["status"] for r in rows] == ["error: No space left on device"] * 2
    assert [r["status"] for r in run_experiment(cfg)] == ["ok", "ok"]


def test_resume_reruns_a_row_made_under_other_rules(tmp_path, monkeypatch):
    # A row stored by a version with other RULES runs again, drops its old
    # snapshots and recomputes its metrics.
    run_experiment(_tiny_row_config(tmp_path))
    row_dir = _first_row_dir(tmp_path)
    (row_dir / "obs_t00015.pgm").write_bytes(b"stale")
    metrics = json.loads((row_dir / "metrics.json").read_text())
    (row_dir / "metrics.json").write_text(json.dumps(metrics | {"steps": -1}))
    monkeypatch.setattr(cli, "RULES", cli.RULES + 1)
    [row] = run_experiment(_tiny_row_config(tmp_path))
    assert row == metrics | {"wall_time_s": row["wall_time_s"]}
    assert sorted(p.name for p in row_dir.glob("obs_*.pgm")) == [
        "obs_t00005.pgm", "obs_t00010.pgm"]
    header = json.loads((row_dir / "record.jsonl").read_text().splitlines()[0])
    assert header["rules"] == cli.RULES


def test_run_experiment_explicit_starts(tmp_path):
    cfg = parse_config(_write_experiment(tmp_path, starts=[[31, 31]]))
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0]["start_x"] == 31 and rows[0]["start_y"] == 31


def test_episode_record_is_deterministic(tmp_path):
    cfg_a = parse_config(_write_experiment(tmp_path))
    # run twice into separate directories
    rows_a = run_experiment(cfg_a)
    rec_a = sorted((tmp_path / "results").glob("*/record.jsonl"))[0].read_bytes()

    other = tmp_path / "again"
    cfg_b = parse_config(write_config(tmp_path / "exp2.toml", _small_experiment(other)))
    run_experiment(cfg_b)
    rec_b = sorted(other.glob("*/record.jsonl"))[0].read_bytes()
    assert rec_a == rec_b


def test_record_log_structure(tmp_path):
    cfg = parse_config(_write_experiment(tmp_path))
    run_experiment(cfg)
    record = sorted((tmp_path / "results").glob("*/record.jsonl"))[0]
    lines = [json.loads(l) for l in record.read_text().splitlines()]
    assert lines[0]["type"] == "header"
    assert lines[-1]["type"] == "end"
    steps = [l for l in lines if l["type"] == "step"]
    assert [s["t"] for s in steps] == sorted(s["t"] for s in steps)
    cov = [s["coverage"] for s in steps]
    assert all(b >= a - 1e-9 for a, b in zip(cov, cov[1:]))
    assert any(l["type"] == "replan" for l in lines)


# A row that ends "complete" at t=93, so t+1 is a multiple of checkpoint_every
# and the episode stops before its checkpoint at 94.
COMPLETES_ON_A_CHECKPOINT = """
starts = [[1, 1]]
budget = 2000
scorers = ["nearest"]
checkpoint_every = 1
tu_goals = 0
output_dir = {out}

[maps]
count = 1
width = 60
height = 60

[sensor]
range_lambda = 4.0
n_rays = 200

[predictor]
kind = "passthrough"
ensemble = 2
"""


def _first_row_dir(results):
    return sorted(results.glob("*/record.jsonl"))[0].parent


def test_replay_reemits_identical_snapshots(tmp_path):
    configs = [
        _write_experiment(tmp_path),
        write_config(tmp_path / "complete.toml",
                     COMPLETES_ON_A_CHECKPOINT.format(out=json.dumps(str(tmp_path / "complete")))),
    ]
    for i, cfg_path in enumerate(configs):
        cfg = parse_config(cfg_path)
        run_experiment(cfg)
        row_dir = _first_row_dir(Path(cfg.output_dir))
        originals = sorted(row_dir.glob("*.pgm"))
        assert originals  # checkpoint snapshots were written
        out = tmp_path / f"replayed{i}"
        written = replay(row_dir / "record.jsonl", out)
        assert written
        assert {p.name for p in out.iterdir()} == {p.name for p in originals}
        assert {p.name for p in written} == {p.name for p in originals}
        for orig in originals:
            assert (out / orig.name).read_bytes() == orig.read_bytes()
    end = json.loads((row_dir / "record.jsonl").read_text().splitlines()[-1])
    assert (end["reason"], end["t"]) == ("complete", 93)


def _tampered_copy(record, dest, kind):
    """Copy of a record with one step's coverage or one replan's chosen
    frontier changed; returns the t of the changed line."""
    lines = record.read_text().splitlines()
    for i, line in enumerate(lines):
        obj = json.loads(line)
        if kind == "step" and obj["type"] == "step" and obj["t"] >= 3:
            obj["coverage"] += 1.0
        elif kind == "replan" and obj["type"] == "replan" and obj["chosen"] is not None:
            obj["chosen"][0] += 1
        else:
            continue
        lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        dest.write_text("\n".join(lines) + "\n")
        return obj["t"]
    raise AssertionError(f"record has no {kind} line to change")


def test_replay_verifies_the_record(tmp_path, capsys):
    cfg = parse_config(_write_experiment(tmp_path))
    run_experiment(cfg)
    record = _first_row_dir(tmp_path / "results") / "record.jsonl"
    for kind in ("step", "replan"):
        bad = tmp_path / f"bad_{kind}.jsonl"
        t = _tampered_copy(record, bad, kind)
        with pytest.raises(RecordMismatchError, match=rf"\(t={t}\) differs"):
            replay(bad, tmp_path / "out")
        capsys.readouterr()
        assert main(["replay", str(bad), "--out", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and f"t={t}" in err
    assert main(["replay", str(record), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()

    # Records written before the header held the dataclasses, then the map
    # source, by field name.
    old = tmp_path / "old.jsonl"
    lines = record.read_text().splitlines()
    header = json.loads(lines[0])
    old_map = {"kind": "generated", "seed": 0, "width": 60, "height": 60, "rooms_min": 2,
               "rooms_max": 3, "corridor_width": 6, "resolution": 0.1}
    for header, message in (({k: v for k, v in header.items() if k != "episode"},
                             "missing 1 required positional argument: 'episode'"),
                            (header | {"map": old_map}, "header [map] seed: unknown key")):
        old.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        assert main(["replay", str(old), "--out", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert message in err


def test_replay_refuses_a_record_made_under_other_rules(tmp_path, capsys):
    run_experiment(_tiny_row_config(tmp_path))
    lines = (_first_row_dir(tmp_path) / "record.jsonl").read_text().splitlines()
    old = tmp_path / "old.jsonl"
    old.write_text("\n".join([json.dumps(json.loads(lines[0]) | {"rules": cli.RULES - 1}),
                              *lines[1:]]) + "\n")
    message = f"recorded under rules {cli.RULES - 1}, this version runs rules {cli.RULES}"
    with pytest.raises(RecordMismatchError, match=message):
        replay(old, tmp_path / "out")
    assert main(["replay", str(old), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize("extra", ["5", "[]", "{}", "garbage"])
def test_replay_reports_a_line_past_the_reruns_end(tmp_path, capsys, extra):
    # A line after the re-run's last one fails with one line, whether or
    # not it is JSON, and whatever JSON it is.
    run_experiment(_tiny_row_config(tmp_path))
    record = _first_row_dir(tmp_path) / "record.jsonl"
    n = len(record.read_text().splitlines()) + 1
    with record.open("a") as fh:
        fh.write(extra + "\n")
    with pytest.raises(RecordMismatchError, match=rf"line {n} \(past the re-run's end\) differs"):
        replay(record, tmp_path / "out")
    assert main(["replay", str(record), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("replay failed: ")


def _nested_key_removed(header, *path):
    header = json.loads(json.dumps(header))
    table = header
    for key in path[:-1]:
        table = table[key]
    del table[path[-1]]
    return header


@pytest.mark.parametrize("first_line, message", [
    pytest.param(lambda h: h | {"map": h["map"] | {"kind": "file"}}, r"\[map\] kind: must be",
                 id="map-kind-file"),
    pytest.param(lambda h: h | {"episode": h["episode"] | {"budget_t": -1}},
                 r"\[episode\] budget_t: must be", id="episode-budget_t--1"),
    pytest.param(lambda h: h | {"predictor": h["predictor"] | {"ensemble": 0}},
                 r"\[predictor\] ensemble: must be", id="predictor-ensemble-0"),
    pytest.param(lambda h: 5, "the first line is not a header object", id="not-an-object"),
    pytest.param(lambda h: h | {"map": 3}, "map: expected MapSource, got 3", id="map-3"),
    pytest.param(lambda h: h | {"map": h["map"] | {"count": 2}}, "map: 2 maps, not one",
                 id="map-count-2"),
    pytest.param(lambda h: h | {"start": [1]}, r"start: expected GridPose, got \[1\]",
                 id="start-one-int"),
    pytest.param(lambda h: h | {"start": "xy"}, "start: expected GridPose, got 'xy'",
                 id="start-text"),
    pytest.param(lambda h: h | {"start": [0, 0]}, r"start: GridPose\(x=0, y=0\) is not a free",
                 id="start-wall"),
    pytest.param(lambda h: h | {"member_seeds": ["a", "b", "c"]},
                 r"member_seeds: expected list\[int\], got \['a', 'b', 'c'\]", id="seeds-text"),
    pytest.param(lambda h: h | {"member_seeds": [-5]}, r"member_seeds: must be >= 0, got \[-5\]",
                 id="seeds-negative"),
    pytest.param(lambda h: h | {"seed": -1}, "seed: must be >= 0, got -1", id="seed-negative"),
    pytest.param(lambda h: h | {"map": h["map"] | {"map_seed": -1}},
                 r"\[map\] map_seed: must be >= 0, got -1", id="map-seed-negative"),
    pytest.param(lambda h: h | {"member_seeds": []}, "member_seeds: 0 seeds for 1 ensemble",
                 id="seeds-too-few"),
    pytest.param(lambda h: h | {"member_seeds": [0, 1]}, "member_seeds: 2 seeds for 1 ensemble",
                 id="seeds-too-many"),
    pytest.param(lambda h: h | {"rules": True}, "rules: expected int, got True",
                 id="rules-true"),
    pytest.param(lambda h: _nested_key_removed(h, "episode", "sensor", "n_rays"),
                 "header is not the one this version writes", id="no-episode-sensor-n_rays"),
    pytest.param(lambda h: _nested_key_removed(h, "map", "count"),
                 "header is not the one this version writes", id="no-map-count"),
    pytest.param(lambda h: json.dumps(h).replace("header", "he\xffder").encode("latin-1") + b"\n",
                 "type: must be 'header'", id="not-utf8"),
])
def test_replay_reports_a_rejected_header_value(tmp_path, capsys, first_line, message):
    # A first line that is no header of this version, or a header with a
    # value its dataclass, its type or its map rejects, fails with one line.
    cfg = ExperimentConfig(maps=MapSource(kind="generate", count=1, width=60, height=60),
                           predictor=PredictorSpec(kind="passthrough", ensemble=1))
    header = asdict(_row_header(cfg, RowSpec("gen0000", 0, GridPose(1, 1), 0, "nearest", 0)))
    line = first_line(header)
    record = tmp_path / "record.jsonl"
    record.write_bytes(line if isinstance(line, bytes) else json.dumps(line).encode() + b"\n")
    with pytest.raises(RecordMismatchError, match=message):
        replay(record, tmp_path / "out")
    assert main(["replay", str(record), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("replay failed: ")


def test_replay_requires_exactly_the_header_keys_a_row_writes(tmp_path, capsys):
    cfg = ExperimentConfig(maps=MapSource(kind="generate", count=1, width=60, height=60),
                           predictor=PredictorSpec(kind="passthrough", ensemble=1))
    header = asdict(_row_header(cfg, RowSpec("gen0000", 0, GridPose(1, 1), 0, "nearest", 0)))
    record = tmp_path / "record.jsonl"
    missing = [({k: v for k, v in header.items() if k != key},
                "recorded under rules None" if key == "rules"
                else f"missing 1 required positional argument: '{key}'") for key in header]
    for bad, message in [*missing, (header | {"extra": 1}, "extra: unknown key")]:
        record.write_text(json.dumps(bad) + "\n")
        with pytest.raises(RecordMismatchError, match=message):
            replay(record, tmp_path / "out")
        assert main(["replay", str(record), "--out", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("replay failed: ")


@settings(max_examples=15, deadline=None)
@given(map_seed=st.integers(0, 99), corner=st.integers(0, 3),
       scorer=st.sampled_from(SCORER_KINDS),
       predictor=st.sampled_from(["passthrough", "noisy_oracle"]))
def test_replay_reproduces_any_record(map_seed, corner, scorer, predictor):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        cfg = ExperimentConfig(
            maps=MapSource(kind="generate", count=1, width=60, height=60, map_seed=map_seed),
            scorers=[scorer], budget=30, sensor=SensorSpec(3.0, 120),
            raycast=RaycastConfig(n_rays=16, range_lambda=3.0),
            predictor=PredictorSpec(kind=predictor, ensemble=2), checkpoint_every=7,
            tu_goals=0, output_dir=tmp,
        )
        label, _, gt = materialize_maps(cfg.maps)[0]
        spec = RowSpec(label, 0, corner_starts(gt)[corner], corner, scorer, 0)
        assert run_row(cfg, spec, gt, out)["status"] == "ok"
        originals = sorted(p.name for p in (out / spec.name).glob("*.pgm"))
        written = replay(out / spec.name / "record.jsonl", out / "replayed")
        assert sorted(p.name for p in written) == originals


def test_tu_final_scores_the_final_map(tmp_path):
    # The episode runs to t=50 and its last checkpoint is at t=30: tu_final
    # must be the TU of the final map (0.55), not the t=30 value (0.275), and
    # must not depend on where the checkpoints fall.
    gt = generate_floorplan(0, 80, 80)
    tu_final = {}
    for every in (30, 50):
        cfg = ExperimentConfig(
            maps=MapSource(kind="generate", count=1, width=80, height=80),
            scorers=["nearest"], budget=50, sensor=SensorSpec(3.0, 200),
            predictor=PredictorSpec(kind="passthrough", ensemble=1),
            checkpoint_every=every, tu_goals=40, output_dir=str(tmp_path),
        )
        spec = RowSpec("gen0000", 0, GridPose(1, 1), 0, "nearest", 0)
        result = run_row(cfg, spec, gt, tmp_path / f"every{every}")
        assert result["steps"] == 50
        tu_final[every] = result["tu_final"]
        if every == 30:
            assert result["tu_checkpoints"] == "30:0.2750"  # checkpoints only
    assert tu_final == {30: 0.55, 50: 0.55}


def test_replay_from_another_directory_with_relative_globs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "maps").mkdir()
    save_pgm(generate_floorplan(0, 60, 60), tmp_path / "maps" / "plan[1].pgm")
    cfg = ExperimentConfig(
        maps=MapSource(kind="files", glob="maps/*.pgm"), starts=[GridPose(1, 1)],
        scorers=["nearest"], budget=10, sensor=SensorSpec(3.0, 120),
        predictor=PredictorSpec(kind="patch", ensemble=1, corpus="maps/*.pgm"),
        checkpoint_every=5, tu_goals=0, output_dir="results",
    )
    assert run_experiment(cfg)[0]["status"] == "ok"
    record = _first_row_dir(tmp_path / "results") / "record.jsonl"
    header = json.loads(record.read_text().splitlines()[0])
    # Absolute, and escaped: the pattern "plan[1].pgm" would match only "plan1.pgm".
    assert header["map"]["glob"] == str(tmp_path / "maps" / "plan[[]1].pgm")
    assert header["predictor"]["corpus"] == str(tmp_path / "maps" / "*.pgm")

    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    written = replay(record, tmp_path / "replayed")
    assert sorted(p.name for p in written) == sorted(p.name for p in record.parent.glob("*.pgm"))

    (tmp_path / "maps" / "plan[1].pgm").unlink()
    assert main(["replay", str(record), "--out", str(tmp_path / "replayed")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("replay failed: ") and "matched no files" in err


def test_failed_row_leaves_its_traceback(tmp_path):
    failing = shlex.join([sys.executable, "-c", "raise SystemExit(3)"])
    cfg = parse_config(_write_experiment(tmp_path))
    cfg.starts = [GridPose(31, 31)]
    cfg.predictor = PredictorSpec(kind="external", ensemble=1, command=failing)
    [row] = run_experiment(cfg)
    assert row["status"].startswith("error: ensemble member 0:")
    assert row["steps"] == "" and row["tu_final"] == ""
    error = next((tmp_path / "results").glob("*/error.txt"))
    text = error.read_text()
    assert text.startswith("Traceback") and "ExternalPredictorError" in text
    assert "EnsembleError: ensemble member 0:" in text

    cfg.predictor = PredictorSpec(kind="passthrough", ensemble=1)
    [row] = run_experiment(cfg)  # the same row, now succeeding
    assert row["status"] == "ok"
    assert not error.exists()


def test_cli_replay_reports_a_failing_predictor_in_one_line(tmp_path, capsys):
    # The recorded run's external predictor copied its input; at replay it exits 3.
    script = tmp_path / "predictor.py"
    script.write_text("import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[2])\n")
    cfg = parse_config(_write_experiment(tmp_path))
    cfg.starts = [GridPose(31, 31)]
    cfg.predictor = PredictorSpec(kind="external", ensemble=1,
                                  command=shlex.join([sys.executable, str(script)]))
    [row] = run_experiment(cfg)
    assert row["status"] == "ok"
    script.write_text("raise SystemExit(3)\n")
    record = _first_row_dir(tmp_path / "results") / "record.jsonl"
    assert main(["replay", str(record), "--out", str(tmp_path / "replayed")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("replay failed: ensemble member 0: ") and " exited 3;" in err


def test_cli_generate_maps_and_score_map(tmp_path, capsys):
    rc = main(["generate-maps", "--out", str(tmp_path / "maps"), "--count", "2",
               "--width", "60", "--height", "60", "--map-seed", "3"])
    assert rc == 0
    maps = sorted((tmp_path / "maps").glob("*.pgm"))
    assert len(maps) == 2
    gt = load_pgm(maps[0])
    assert set(np.unique(gt.cells)) <= {0.0, 1.0}

    rc = main(["score-map", str(maps[0]), str(maps[0])])
    assert rc == 0
    out = capsys.readouterr().out
    assert "coverage: 100.00" in out
    assert "iou_occupied: 1.0000" in out


def test_cli_score_map_rejects_zero_tu_goals(tmp_path, capsys):
    path = tmp_path / "room.pgm"
    save_pgm(OccupancyGrid(_sealed_box(), 0.1), path)
    with pytest.raises(SystemExit) as exc:
        main(["score-map", str(path), str(path), "--tu-start", "1,1", "--tu-goals", "0"])
    assert exc.value.code == 2
    assert "--tu-goals" in capsys.readouterr().err


def test_cli_reports_a_bad_config_in_one_line(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "exp.toml", "[maps]\nkind = 'files'\n")
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr() == (
        "", "explore: error: [maps] glob: required when maps come from files\n")
    assert main(["generate-maps", "--out", str(tmp_path / "maps"), "--count", "0"]) == 2
    assert capsys.readouterr() == ("", "explore: error: [maps] count: must be >= 1, got 0\n")
    assert not (tmp_path / "maps").exists()

    # An output path that is a file, or lies under one, cannot be a directory.
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    before = sorted(tmp_path.iterdir())
    cfg_path = write_config(tmp_path / "exp.toml", _small_experiment(taken))
    for argv, name, path in ((["run", str(cfg_path)], "output_dir", taken),
                             (["generate-maps", "--out", str(taken / "maps")], "--out",
                              taken / "maps")):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"explore: error: {name}: cannot make directory {path}: ")
    assert sorted(tmp_path.iterdir()) == before and taken.read_text() == "a file\n"


def test_cli_run_rejects_an_empty_corpus_before_any_row(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path / "exp.toml", textwrap.dedent("""
        starts = [[5, 5]]
        scorers = ["nearest", "mapex"]
        output_dir = "out"

        [maps]
        count = 1
        width = 60
        height = 60

        [predictor]
        kind = "patch"
        corpus = "nothing/*.pgm"
    """))
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr() == (
        "", "explore: error: [predictor] corpus: 'nothing/*.pgm' matched no files\n")
    assert not (tmp_path / "out").exists()


def test_cli_run_needs_a_corpus_file_per_patch_member(tmp_path, capsys, monkeypatch):
    # Patch members that shared their one corpus file would all predict the
    # same map, so the variance, and every mapex score, would be 0.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus").mkdir()
    save_pgm(generate_floorplan(1, 60, 60), tmp_path / "corpus" / "plan.pgm")
    experiment = textwrap.dedent("""
        starts = [[1, 1]]
        scorers = ["mapex"]
        budget = 10
        tu_goals = 0
        output_dir = "out"

        [maps]
        count = 1
        width = 60
        height = 60

        [sensor]
        range_lambda = 3.0
        n_rays = 120

        [predictor]
        kind = "patch"
        corpus = "corpus/*.pgm"
        ensemble = {}
    """)
    assert main(["run", str(write_config(tmp_path / "two.toml", experiment.format(2)))]) == 2
    assert capsys.readouterr() == ("", "explore: error: [predictor] corpus: 'corpus/*.pgm' "
                                       "matched 1 file(s), fewer than the 2 ensemble members\n")
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match="fewer than the 2 ensemble members"):
        cli.build_ensemble(PredictorSpec(kind="patch", ensemble=2, corpus="corpus/*.pgm"),
                           generate_floorplan(0, 60, 60), [0, 1])

    assert main(["run", str(write_config(tmp_path / "one.toml", experiment.format(1)))]) == 0
    assert "1 rows, 1 ok" in capsys.readouterr().out


def test_cli_run_exit_code(tmp_path, capsys):
    cfg_path = _write_experiment(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "4 rows, 4 ok" in out


def test_cli_run_rejects_a_worker_count_below_one(tmp_path, capsys):
    cfg_path = _write_experiment(tmp_path)
    for workers in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(cfg_path), "--workers", workers])
        assert exc.value.code == 2
        assert f"--workers: must be >= 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


class _PoolRecorder:
    """Stands in for ProcessPoolExecutor: records its size, runs rows in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, item):
        future = concurrent.futures.Future()
        future.set_result(fn(item))
        return future


def test_a_batch_starts_no_more_pool_processes_than_it_has_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _PoolRecorder)
    monkeypatch.setattr(_PoolRecorder, "sizes", [])
    cfg = _tiny_row_config(tmp_path, scorers=["nearest", "mapex"])
    rows = run_experiment(cfg, workers=8)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert _PoolRecorder.sizes == [2]
    run_experiment(replace(cfg, scorers=["nearest"], output_dir=str(tmp_path / "one")),
                   workers=8)
    assert _PoolRecorder.sizes == [2]  # one row runs in this process


def test_a_dead_pool_worker_is_a_failed_row(tmp_path, monkeypatch, capsys):
    # The worker of the last corner row dies without a word. Each worker has
    # finished a row before it takes the next, so two rows are done by then;
    # the rest, the dead row among them, fail and run again on resume.
    cfg_path = write_config(tmp_path / "exp.toml", textwrap.dedent(f"""
        budget = 10
        tu_goals = 0
        scorers = ["nearest"]
        output_dir = {json.dumps(str(tmp_path / "results"))}

        [maps]
        count = 1
        width = 60
        height = 60

        [sensor]
        range_lambda = 3.0
        n_rays = 120

        [predictor]
        kind = "noisy_oracle"
    """))
    cfg = parse_config(cfg_path)
    [(_, _, gt)] = materialize_maps(cfg.maps)
    victim = corner_starts(gt)[-1]
    real_run_row = cli.run_row

    def dies_on_the_victim(cfg, spec, gt, out_dir):
        if spec.start == victim:
            os._exit(3)
        return real_run_row(cfg, spec, gt, out_dir)

    fork = multiprocessing.get_context("fork")  # carries the patch into the workers
    with monkeypatch.context() as mp:
        mp.setattr(cli, "run_row", dies_on_the_victim)
        mp.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                   partial(concurrent.futures.ProcessPoolExecutor, mp_context=fork))
        assert main(["run", str(cfg_path), "--workers", "2"]) == 1
    assert "FAILED" in capsys.readouterr().out
    with open(tmp_path / "results" / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(r["start_x"]), int(r["start_y"])) for r in rows] == corner_starts(gt)
    assert rows[-1]["status"] == "error: worker died"
    assert sum(r["status"] == "ok" for r in rows) >= 2
    records = {}
    for r in rows:
        row_dir = tmp_path / "results" / f"gen0000__s{r['start_x']}-{r['start_y']}__nearest__seed0"
        if r["status"] == "ok":
            records[row_dir] = (row_dir / "record.jsonl").stat().st_mtime_ns
        else:
            assert r["status"] == "error: worker died" and r["steps"] == ""
            assert "worker process of the pool died" in (row_dir / "error.txt").read_text()

    assert main(["run", str(cfg_path), "--workers", "2"]) == 0
    assert "4 rows, 4 ok" in capsys.readouterr().out
    for row_dir, stamp in records.items():  # finished rows are not run again
        assert (row_dir / "record.jsonl").stat().st_mtime_ns == stamp
    assert not list((tmp_path / "results").glob("*/error.txt"))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_run_reports_each_finished_row_on_stderr(tmp_path, monkeypatch, capsys, workers):
    cfg_path = write_config(tmp_path / "exp.toml", textwrap.dedent(f"""
        budget = 10
        tu_goals = 0
        scorers = ["nearest"]
        output_dir = {json.dumps(str(tmp_path / "results"))}

        [maps]
        count = 1
        width = 60
        height = 60

        [sensor]
        range_lambda = 3.0
        n_rays = 120
    """))
    [(_, _, gt)] = materialize_maps(parse_config(cfg_path).maps)
    starts = corner_starts(gt)
    names = [f"gen0000__s{s.x}-{s.y}__nearest__seed0" for s in starts]
    real_run_row = cli.run_row

    def fails_on_the_second(cfg, spec, gt, out_dir):
        if spec.start == starts[1]:
            raise RuntimeError("this row fails")
        return real_run_row(cfg, spec, gt, out_dir)

    fork = multiprocessing.get_context("fork")  # carries the patch into the workers
    monkeypatch.setattr(cli, "run_row", fails_on_the_second)
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        partial(concurrent.futures.ProcessPoolExecutor, mp_context=fork))
    assert main(["run", str(cfg_path), "--workers", workers]) == 1
    out, err = capsys.readouterr()
    assert out.startswith(f"4 rows, 3 ok, 1 failed; results in {tmp_path / 'results'}/")
    lines = [ln.split(" ") for ln in err.splitlines()]
    assert [ln[0] for ln in lines] == ["[1/4]", "[2/4]", "[3/4]", "[4/4]"]
    assert sorted((name, status) for _, name, status, _ in lines) == sorted(
        (name, "FAILED" if name == names[1] else "ok") for name in names)
    seconds = [float(ln[3].removesuffix("s")) for ln in lines]
    assert all(ln[3].endswith("s") for ln in lines) and seconds == sorted(seconds)
    with open(tmp_path / "results" / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(r["start_x"]), int(r["start_y"])) for r in rows] == starts  # task order


def test_no_predictor_state_crosses_rows(tmp_path):
    # Each row gets a fresh ensemble: the same patch row, run twice in one
    # process, writes the same record and snapshots both times. Two noise
    # corpora make the members disagree, so the predictions reach the record.
    rng = np.random.default_rng(0)
    for k in range(2):
        save_pgm(OccupancyGrid((rng.random((40, 40)) < 0.3).astype(float)),
                 tmp_path / f"corpus{k}.pgm")
    cfg = _tiny_row_config(tmp_path, scorers=["mapex"], budget=30, max_waypoint_age=5,
                           predictor=PredictorSpec(kind="patch", ensemble=2,
                                                   corpus=str(tmp_path / "corpus*.pgm")))
    [(label, one, gt)] = materialize_maps(cfg.maps)
    spec = RowSpec(label, 0, GridPose(1, 1), 0, "mapex", 0)
    outputs = []
    for out in ("first", "second"):
        run_row(replace(cfg, maps=one), spec, gt, tmp_path / out)
        row_dir = tmp_path / out / spec.name
        outputs.append({p.name: p.read_bytes()
                        for p in [row_dir / "record.jsonl", *row_dir.glob("*.pgm")]})
    assert outputs[0] == outputs[1]
    lines = [json.loads(ln) for ln in outputs[0]["record.jsonl"].splitlines()]
    replans = [ln for ln in lines if ln["type"] == "replan"]
    assert len(replans) >= 2 and any(s[3] > 0 for r in replans for s in r["scores"])


def test_cli_score_map_prints_the_tu_of_its_inputs(tmp_path, capsys):
    gt_path, obs_path = tmp_path / "gt.pgm", tmp_path / "obs.pgm"
    save_pgm(generate_floorplan(0, 60, 60), gt_path)
    save_pgm(new_grid(60, 60), obs_path)  # all unknown: plans cross unseen walls
    start = corner_starts(load_pgm(gt_path))[0]
    argv = ["score-map", str(obs_path), str(gt_path), "--tu-start", f"{start.x},{start.y}",
            "--tu-goals", "20", "--tu-seed", "3"]
    assert main(argv) == 0
    tu = topological_understanding(load_pgm(obs_path), load_pgm(gt_path), start,
                                   n_goals=20, seed=3)
    assert 0.0 < tu < 1.0
    assert capsys.readouterr().out.splitlines()[-1] == f"topological_understanding: {tu:.4f}"


def test_cli_score_map_reports_bad_input_in_one_line(tmp_path, capsys):
    room, small = tmp_path / "room.pgm", tmp_path / "small.pgm"
    save_pgm(OccupancyGrid(_sealed_box(), 0.1), room)
    save_pgm(OccupancyGrid(_sealed_box(12), 0.1), small)
    (tmp_path / "text.pgm").write_text("not a map\n")
    for argv, message in (
        ([str(room), str(room), "--tu-start", "0,0"], "must be a free ground-truth cell"),
        ([str(small), str(room)], "vs footprint"),
        ([str(tmp_path / "nope.pgm"), str(room)], "No such file"),
        ([str(tmp_path / "text.pgm"), str(room)], "not a binary PGM"),
    ):
        assert main(["score-map", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, argv
        assert err.startswith("explore: error: ") and message in err, err
    for start in ("1", "1,x", "1,2,3"):
        with pytest.raises(SystemExit) as exc:
            main(["score-map", str(room), str(room), "--tu-start", start])
        assert exc.value.code == 2
        assert "--tu-start: expected x,y" in capsys.readouterr().err


def test_cli_score_map_requires_a_three_label_observed_map(tmp_path, capsys):
    # Frontiers and predictors assume a three-label observed map without
    # checking it; a map from outside is checked where it enters.
    grey, room = tmp_path / "grey.pgm", tmp_path / "room.pgm"
    save_pgm(OccupancyGrid(np.full((20, 20), 0.3), 0.1), grey)
    save_pgm(OccupancyGrid(_sealed_box(), 0.1), room)
    assert main(["score-map", str(grey), str(room)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert "not a three-label map" in err, err


def test_cli_replay_reports_an_unreadable_record(tmp_path, capsys):
    (tmp_path / "text.jsonl").write_text("not json\n")
    for name in ("nope.jsonl", "text.jsonl"):
        assert main(["replay", str(tmp_path / name), "--out", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("replay failed: ")


def test_a_files_batch_globs_its_maps_once(tmp_path, monkeypatch):
    (tmp_path / "maps").mkdir()
    for seed in (0, 1):
        save_pgm(generate_floorplan(seed, 60, 60), tmp_path / "maps" / f"gen{seed:04d}.pgm")
    cfg = ExperimentConfig(
        maps=MapSource(kind="files", glob=str(tmp_path / "maps" / "*.pgm")),
        starts=[GridPose(1, 1)], scorers=["nearest", "mapex"], budget=10,
        sensor=SensorSpec(3.0, 120), predictor=PredictorSpec(kind="passthrough", ensemble=1),
        checkpoint_every=5, tu_goals=0, output_dir=str(tmp_path / "results"),
    )
    patterns = []
    real_glob = cli.globmod.glob
    monkeypatch.setattr(cli.globmod, "glob", lambda p: patterns.append(p) or real_glob(p))
    rows = run_experiment(cfg)
    assert [r["status"] for r in rows] == ["ok"] * 4
    assert patterns.count(cfg.maps.glob) == 1
    # Each row's header names its own file, by every MapSource field.
    for row_dir in sorted((tmp_path / "results").glob("gen*")):
        header = json.loads((row_dir / "record.jsonl").read_text().splitlines()[0])
        assert header["map"] == asdict(replace(cfg.maps, glob=str(
            tmp_path / "maps" / f"{header['map_label']}.pgm")))


def test_cli_run_rejects_two_map_files_with_one_stem(tmp_path, capsys):
    # Both would write the rows of map "plan" into the same row directories.
    for sub in ("a", "b"):
        (tmp_path / "maps" / sub).mkdir(parents=True)
        save_pgm(generate_floorplan(0, 60, 60), tmp_path / "maps" / sub / "plan.pgm")
    cfg_path = write_config(tmp_path / "exp.toml", textwrap.dedent(f"""
        output_dir = {json.dumps(str(tmp_path / "results"))}

        [maps]
        glob = {json.dumps(str(tmp_path / "maps" / "*" / "plan.pgm"))}
    """))
    assert main(["run", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("explore: error: [maps] glob: ")
    assert str(tmp_path / "maps" / "a" / "plan.pgm") in err
    assert str(tmp_path / "maps" / "b" / "plan.pgm") in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("setting, message", [
    ('scorers = ["nearest", "nearest"]\nseeds = [0, 0]\n',
     "scorers: 'nearest' is listed more than once"),
    ('seeds = [3, 1, 3]\n', "seeds: 3 is listed more than once"),
    ('starts = [[5, 5], [5, 5]]\n', "starts: [5, 5] is listed more than once"),
])
def test_cli_run_rejects_a_repeated_row_before_any_row(tmp_path, capsys, monkeypatch, setting,
                                                       message):
    # Repeated rows would share one row directory.
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path / "exp.toml", 'output_dir = "out"\n' + setting)
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr() == ("", f"explore: error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting, message", [
    ('starts = [[0, 0]]\n\n[maps]\ncount = 1\nwidth = 60\nheight = 60\n',
     "start GridPose(x=0, y=0) is not a free cell of map gen0000"),
    ('[maps]\nglob = "none/*.pgm"\n', "[maps] glob: 'none/*.pgm' matched no files"),
    # A row would fail at its first scan (nan range), never end its casts
    # (inf epsilon), see one cell (inf resolution) or find no command (" ; ").
    ("[sensor]\nrange_lambda = nan\n",
     "[sensor] range_lambda: must be finite and positive, got nan"),
    ("[raycast]\nepsilon = inf\n", "[raycast] epsilon: must be finite and positive, got inf"),
    ("[maps]\nresolution = inf\n", "[maps] resolution: must be finite and positive, got inf"),
    ("max_waypoint_age = -1\n", "max_waypoint_age: must be >= 0, got -1"),
    ("seeds = [-1]\n", "seeds: must be >= 0, got -1"),
    ("[predictor]\nkind = 'external'\ncommand = ' ; '\n",
     "[predictor] command: lists no command, got ' ; '"),
    # Inputs every row would fail on: a map file that is no P5 PGM, a patch
    # member whose files hold no window, a command shlex cannot split.
    ('[maps]\nglob = "text/*.pgm"\n',
     "[maps] {tmp}/text/plan.pgm: not a binary PGM (magic b'P2', expected b'P5') "
     "(byte offset 0)"),
    ('[maps]\nglob = "walls/*.pgm"\n', "[maps] {tmp}/walls/plan.pgm: the map has no free cell"),
    ("[maps]\ncount = 1\nwidth = 60\nheight = 60\n\n"
     "[predictor]\nkind = 'patch'\nensemble = 2\ncorpus = 'corpus/*.pgm'\n",
     "[predictor] corpus: member 1's files corpus/b.pgm hold no 20x20 window "
     "(block + 2 * ring)"),
    ("[maps]\ncount = 1\nwidth = 60\nheight = 60\n\n"
     "[predictor]\nkind = 'patch'\nensemble = 1\ncorpus = 'text/*.pgm'\n",
     "[predictor] corpus: text/plan.pgm: not a binary PGM (magic b'P2', expected b'P5') "
     "(byte offset 0)"),
    ("[predictor]\nkind = 'external'\ncommand = '\"unclosed'\n",
     "[predictor] command: cannot split '\"unclosed': No closing quotation"),
])
def test_cli_run_rejected_config_makes_no_output_directory(tmp_path, capsys, monkeypatch,
                                                          setting, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "text").mkdir()
    (tmp_path / "text" / "plan.pgm").write_text("P2\n2 2\n255\n0 0 0 0\n")
    (tmp_path / "corpus").mkdir()
    save_pgm(generate_floorplan(0, 60, 60), tmp_path / "corpus" / "a.pgm")
    save_pgm(new_grid(19, 40), tmp_path / "corpus" / "b.pgm")  # one side short of 16 + 2 * 2
    (tmp_path / "walls").mkdir()
    save_pgm(OccupancyGrid(np.ones((60, 60))), tmp_path / "walls" / "plan.pgm")
    cfg_path = write_config(tmp_path / "exp.toml", 'output_dir = "out"\n' + setting)
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr() == ("", f"explore: error: {message.format(tmp=tmp_path)}\n")
    assert not (tmp_path / "out").exists()


ROOT = Path(cli.__file__).resolve().parents[2]


def _modules_loaded_by(imports, package):
    """The modules of `package` that a fresh interpreter has loaded after `imports`."""
    probe = (f"import sys, {imports}; "
             f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_none_of_its_modules():
    # Each name is imported from the module that defines it; the package re-exports none.
    assert _modules_loaded_by("exploresim", "exploresim") == "['exploresim']\n"


def test_the_package_runs_without_scipy():
    # numpy is the one runtime dependency; scipy is installed for the tests.
    assert _modules_loaded_by("exploresim.cli", "scipy") == "[]\n"
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]

import json
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exploresim import (
    FREE,
    OCCUPIED,
    SCORER_KINDS,
    ConfigError,
    GridPose,
    OccupancyGrid,
    RaycastConfig,
    RecordMismatchError,
    SensorSpec,
    generate_floorplan,
    load_pgm,
    save_pgm,
)
from exploresim.cli import (
    RowSpec,
    corner_starts,
    main,
    materialize_maps,
    replay,
    run_experiment,
    run_row,
)
from exploresim.config import ExperimentConfig, MapSource, PredictorSpec, parse_config


def write_config(path, text):
    path.write_text(text)
    return path


def test_minimal_config_applies_defaults(tmp_path):
    gt = OccupancyGrid(np.zeros((20, 20)), 0.1)
    save_pgm(gt, tmp_path / "room.pgm")
    cfg_path = write_config(tmp_path / "exp.ini", f"""
[maps]
glob = {tmp_path}/room.pgm
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


def test_config_rejects_bad_epsilon(tmp_path):
    cfg_path = write_config(tmp_path / "exp.ini", """
[maps]
source = generate

[raycast]
epsilon = -1
""")
    with pytest.raises(ConfigError):
        parse_config(cfg_path)


def test_config_rejects_unknown_key(tmp_path):
    cfg_path = write_config(tmp_path / "exp.ini", """
[maps]
source = generate
foo = 1
""")
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg_path)
    assert "foo" in str(exc.value)


def test_config_rejects_unknown_section(tmp_path):
    cfg_path = write_config(tmp_path / "exp.ini", "[bogus]\nx = 1\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg_path)
    assert "bogus" in str(exc.value)


def test_config_rejects_type_mismatch(tmp_path):
    cfg_path = write_config(tmp_path / "exp.ini", """
[maps]
source = generate

[episode]
budget = soon
""")
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg_path)
    assert "budget" in str(exc.value)


def test_config_requires_map_source(tmp_path):
    cfg_path = write_config(tmp_path / "exp.ini", "[maps]\nsource = files\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg_path)
    assert "glob" in str(exc.value)


def test_config_unknown_scorer(tmp_path):
    cfg_path = write_config(tmp_path / "exp.ini", """
[maps]
source = generate

[episode]
scorer = bogus
""")
    with pytest.raises(ConfigError):
        parse_config(cfg_path)


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
    assert corner_starts(gt) == [GridPose(6, 4)] * 4


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
[maps]
source = generate
count = {count}
width = 64
height = 64
map_seed = 5
rooms_min = 2
rooms_max = 3
corridor_width = 6

[starts]
policy = {policy}
{poses_line}

[episode]
budget = 30
scorer = {scorers}
min_cluster_size = 4

[sensor]
range = 3.0
rays = 180

[raycast]
epsilon = 0.8
rays = 16
range = 3.0

[predictor]
kind = noisy_oracle
flip_rate = 0.05

[metrics]
checkpoint_every = 15
tu_goals = 10

[output]
dir = {out}
seeds = {seeds}
"""


def _write_experiment(tmp_path, count=1, scorers="nearest", seeds="0",
                      policy="corners", poses_line=""):
    return write_config(tmp_path / "exp.ini", SMALL_EXPERIMENT.format(
        count=count, scorers=scorers, seeds=seeds, out=tmp_path / "results",
        policy=policy, poses_line=poses_line,
    ))


def test_run_experiment_four_corner_rows(tmp_path):
    cfg = parse_config(_write_experiment(tmp_path))
    rows = run_experiment(cfg)
    assert len(rows) == 4  # 1 map x 4 corners x 1 scorer x 1 seed
    assert all(r["status"] == "ok" for r in rows)
    assert (tmp_path / "results" / "results.csv").exists()


def test_run_experiment_combinatorics(tmp_path):
    cfg = parse_config(_write_experiment(tmp_path, count=2, scorers="nearest,mapex"))
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


def test_resume_reruns_a_row_whose_config_changed(tmp_path):
    # A stored row is reused only when its record starts with the header
    # this run would write: a lower budget re-runs the row and drops the
    # snapshots the longer run left.
    cfg = ExperimentConfig(
        maps=MapSource(kind="generate", count=1, width=60, height=60),
        starts=[GridPose(1, 1)], scorers=["nearest"], budget=30,
        sensor=SensorSpec(3.0, 120), predictor=PredictorSpec(kind="passthrough", ensemble=1),
        checkpoint_every=5, tu_goals=0, output_dir=str(tmp_path),
    )
    assert run_experiment(cfg)[0]["steps"] == 30
    cfg.budget = 10
    assert run_experiment(cfg)[0]["steps"] == 10
    row_dir = _first_row_dir(tmp_path)
    assert sorted(p.name for p in row_dir.glob("obs_*.pgm")) == [
        "obs_t00005.pgm", "obs_t00010.pgm"]
    assert json.loads((row_dir / "record.jsonl").read_text().splitlines()[-1])["t"] == 10


def test_run_experiment_explicit_starts(tmp_path):
    cfg = parse_config(_write_experiment(
        tmp_path, policy="explicit", poses_line="poses = 31,31"))
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0]["start_x"] == 31 and rows[0]["start_y"] == 31


def test_episode_record_is_deterministic(tmp_path):
    cfg_a = parse_config(_write_experiment(tmp_path / "a" if False else tmp_path))
    # run twice into separate directories
    rows_a = run_experiment(cfg_a)
    rec_a = sorted((tmp_path / "results").glob("*/record.jsonl"))[0].read_bytes()

    other = tmp_path / "again"
    cfg_text = SMALL_EXPERIMENT.format(count=1, scorers="nearest", seeds="0",
                                       out=other, policy="corners", poses_line="")
    cfg_b = parse_config(write_config(tmp_path / "exp2.ini", cfg_text))
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
[maps]
source = generate
count = 1
width = 60
height = 60

[starts]
policy = explicit
poses = 1,1

[episode]
budget = 2000
scorer = nearest

[sensor]
range = 4.0
rays = 200

[predictor]
kind = passthrough
ensemble = 2

[metrics]
checkpoint_every = 1
tu_goals = 0

[output]
dir = {out}
"""


def _first_row_dir(results):
    return sorted(results.glob("*/record.jsonl"))[0].parent


def test_replay_reemits_identical_snapshots(tmp_path):
    configs = [
        _write_experiment(tmp_path),
        write_config(tmp_path / "complete.ini",
                     COMPLETES_ON_A_CHECKPOINT.format(out=tmp_path / "complete")),
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
        label, gt = materialize_maps(cfg.maps)[0]
        spec = RowSpec(label, 0, corner_starts(gt)[corner], corner, scorer, 0)
        assert run_row(cfg, spec, gt, out)["status"] == "ok"
        originals = sorted(p.name for p in (out / spec.name).glob("*.pgm"))
        written = replay(out / spec.name / "record.jsonl", out / "replayed")
        assert sorted(p.name for p in written) == originals


def test_tu_final_scores_the_final_map(tmp_path):
    # The episode runs to t=50 and its last checkpoint is at t=30: tu_final
    # must be the TU of the final map (0.375), not the t=30 value (0.25), and
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
            assert result["tu_checkpoints"] == "30:0.2500"  # checkpoints only
    assert tu_final == {30: 0.375, 50: 0.375}


def test_replay_from_another_directory_with_relative_globs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "maps").mkdir()
    save_pgm(generate_floorplan(0, 60, 60), tmp_path / "maps" / "gen0000.pgm")
    cfg = ExperimentConfig(
        maps=MapSource(kind="files", glob="maps/*.pgm"), starts=[GridPose(1, 1)],
        scorers=["nearest"], budget=10, sensor=SensorSpec(3.0, 120),
        predictor=PredictorSpec(kind="patch", ensemble=2, corpus="maps/*.pgm"),
        checkpoint_every=5, tu_goals=0, output_dir="results",
    )
    assert run_experiment(cfg)[0]["status"] == "ok"
    record = _first_row_dir(tmp_path / "results") / "record.jsonl"
    header = json.loads(record.read_text().splitlines()[0])
    assert header["map"]["path"] == str(tmp_path / "maps" / "gen0000.pgm")
    assert header["predictor"]["corpus"] == str(tmp_path / "maps" / "*.pgm")

    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    written = replay(record, tmp_path / "replayed")
    assert sorted(p.name for p in written) == sorted(p.name for p in record.parent.glob("*.pgm"))


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


def test_cli_generate_maps_and_score_map(tmp_path, capsys):
    rc = main(["generate-maps", "--out", str(tmp_path / "maps"), "--count", "2",
               "--width", "60", "--height", "60", "--seed", "3"])
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


def test_cli_run_exit_code(tmp_path, capsys):
    cfg_path = _write_experiment(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "4 rows, 4 ok" in out

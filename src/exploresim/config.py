"""Experiment configuration: a flat INI file with sections, validated
against the fields of the config dataclasses.

Each key sets one dataclass field and takes that field's type; a key the
file leaves out keeps the field's default. The dataclasses below (and
`SensorSpec`, `RaycastConfig`) are the one place the defaults are written:
they are the standard operating point.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .frontier import SCORER_KINDS
from .grid import DEFAULT_RESOLUTION, GridPose
from .infogain import RaycastConfig
from .world import CORRIDOR_WIDTH, ROOM_COUNT_RANGE, SensorSpec

PREDICTOR_KINDS = ("passthrough", "noisy_oracle", "patch", "external")


@dataclass
class MapSource:
    kind: str  # "files" | "generate"; inferred from `glob` when the file omits it
    glob: str | None = None
    count: int = 10
    width: int = 200
    height: int = 200
    map_seed: int = 0
    rooms_min: int = ROOM_COUNT_RANGE[0]
    rooms_max: int = ROOM_COUNT_RANGE[1]
    corridor_width: int = CORRIDOR_WIDTH
    resolution: float = DEFAULT_RESOLUTION


@dataclass
class PredictorSpec:
    kind: str = "passthrough"
    ensemble: int = 3
    flip_rate: float = 0.05
    command: str | None = None
    corpus: str | None = None
    block: int = 16
    ring: int = 2


@dataclass
class ExperimentConfig:
    maps: MapSource
    starts: str | list[GridPose] = "corners"  # "corners" or explicit poses
    scorers: list[str] = field(default_factory=lambda: ["mapex"])
    budget: int = 1000
    min_cluster_size: int = 10
    max_waypoint_age: int = 50
    sensor: SensorSpec = field(default_factory=SensorSpec)
    raycast: RaycastConfig = field(default_factory=RaycastConfig)
    predictor: PredictorSpec = field(default_factory=PredictorSpec)
    checkpoint_every: int = 100
    tu_goals: int = 100
    output_dir: str = "results"
    seeds: list[int] = field(default_factory=lambda: [0])
    snapshots: bool = True


# section -> (the dataclass its keys set, its keys)
_SECTIONS = {
    "maps": (MapSource, ("source", "glob", "count", "width", "height", "map_seed",
                         "rooms_min", "rooms_max", "corridor_width", "resolution")),
    "starts": (ExperimentConfig, ("policy", "poses")),
    "episode": (ExperimentConfig, ("budget", "scorer", "min_cluster_size", "max_waypoint_age")),
    "sensor": (SensorSpec, ("range", "rays")),
    "raycast": (RaycastConfig, ("epsilon", "rays", "range")),
    "predictor": (PredictorSpec, ("kind", "ensemble", "flip_rate", "command", "corpus",
                                  "block", "ring")),
    "metrics": (ExperimentConfig, ("checkpoint_every", "tu_goals")),
    "output": (ExperimentConfig, ("dir", "seeds", "snapshots")),
}
# Keys whose field has another name; every other key names its field.
# [starts] policy and poses together set ExperimentConfig.starts.
_FIELD = {"source": "kind", "range": "range_lambda", "rays": "n_rays",
          "dir": "output_dir", "scorer": "scorers"}


def _kind(cls, key: str) -> str:
    """Type name of the field a key sets, read off the field's default."""
    name = _FIELD.get(key, key)
    default = next((f.default for f in fields(cls) if f.name == name), None)
    return type(default).__name__ if isinstance(default, (bool, int, float)) else "str"


def _convert(section: str, key: str, kind: str, raw: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return raw.strip()
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {kind}") from None


def _parse_poses(text: str) -> list[GridPose]:
    poses = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            x, y = (int(v) for v in part.split(","))
        except ValueError:
            raise ConfigError(f"[starts] poses: bad pose {part!r}, expected x,y") from None
        poses.append(GridPose(x, y))
    if not poses:
        raise ConfigError("[starts] poses: no poses given")
    return poses


def parse_config(path) -> ExperimentConfig:
    """Read and validate an experiment config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    given: dict[str, dict] = {section: {} for section in _SECTIONS}  # field -> value
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        cls, keys = _SECTIONS[section]
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key [{section}] {key}")
            given[section][_FIELD.get(key, key)] = _convert(section, key, _kind(cls, key), raw)

    maps = given["maps"]
    source = maps.pop("kind", None)
    if source is None:
        source = "files" if maps.get("glob") else "generate"
    if source not in ("files", "generate"):
        raise ConfigError(f"[maps] source: must be 'files' or 'generate', got {source!r}")
    if source == "files" and not maps.get("glob"):
        raise ConfigError("[maps] glob: required when maps come from files")
    maps = MapSource(kind=source, **maps)
    if maps.count < 1:
        raise ConfigError("[maps] count: must be >= 1")

    # ExperimentConfig's own fields that the file sets
    top = given["episode"] | given["metrics"] | given["output"]
    policy = given["starts"].get("policy")
    if policy == "explicit":
        raw = given["starts"].get("poses")
        if raw is None:
            raise ConfigError("[starts] poses: required for explicit starts")
        top["starts"] = _parse_poses(raw)
    elif policy is not None:
        if policy != "corners":
            raise ConfigError(
                f"[starts] policy: must be 'corners' or 'explicit', got {policy!r}")
        top["starts"] = policy

    if "scorers" in top:
        top["scorers"] = [s.strip() for s in top["scorers"].split(",") if s.strip()]
        if not top["scorers"]:
            raise ConfigError("[episode] scorer: at least one scorer required")
        for s in top["scorers"]:
            if s not in SCORER_KINDS:
                raise ConfigError(f"[episode] scorer: unknown kind {s!r}")

    if "budget" in top and top["budget"] < 0:
        raise ConfigError("[episode] budget: must be >= 0")

    try:
        sensor = SensorSpec(**given["sensor"])
    except ValueError as exc:
        raise ConfigError(f"[sensor] {exc}") from exc
    try:
        raycast = RaycastConfig(**given["raycast"])
    except ValueError as exc:
        raise ConfigError(f"[raycast] {exc}") from exc

    predictor = PredictorSpec(**given["predictor"])
    if predictor.kind not in PREDICTOR_KINDS:
        raise ConfigError(f"[predictor] kind: unknown kind {predictor.kind!r}")
    if predictor.ensemble < 1:
        raise ConfigError("[predictor] ensemble: must be >= 1")
    if predictor.kind == "external" and not predictor.command:
        raise ConfigError("[predictor] command: required for the external predictor")
    if predictor.kind == "patch" and not predictor.corpus:
        raise ConfigError("[predictor] corpus: required for the patch predictor")
    if not 0.0 <= predictor.flip_rate <= 1.0:
        raise ConfigError("[predictor] flip_rate: must be in [0, 1]")

    if "seeds" in top:
        raw = top["seeds"]
        try:
            top["seeds"] = [int(s) for s in raw.split(",") if s.strip() != ""]
        except ValueError:
            raise ConfigError(f"[output] seeds: cannot parse {raw!r}") from None
        if not top["seeds"]:
            raise ConfigError("[output] seeds: at least one seed required")

    return ExperimentConfig(maps=maps, sensor=sensor, raycast=raycast, predictor=predictor,
                            **top)

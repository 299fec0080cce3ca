"""Experiment configuration: the config dataclasses, and the flat INI file
with sections that sets their fields.

Each dataclass checks its own values when it is built, in code or from a
file; a check's message starts with the field it rejects. The dataclasses
below (and `SensorSpec`, `RaycastConfig`) are the one place the defaults are
written: they are the standard operating point. Each INI key sets one field
and takes its type; a key the file leaves out keeps the field's default.
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

    def __post_init__(self):
        if self.kind not in ("files", "generate"):
            raise ValueError(f"kind: must be 'files' or 'generate', got {self.kind!r}")
        if self.kind == "files" and not self.glob:
            raise ValueError("glob: required when maps come from files")
        if self.count < 1:
            raise ValueError(f"count: must be >= 1, got {self.count}")


@dataclass
class PredictorSpec:
    kind: str = "passthrough"
    ensemble: int = 3
    flip_rate: float = 0.05
    command: str | None = None
    corpus: str | None = None
    block: int = 16
    ring: int = 2

    def __post_init__(self):
        if self.kind not in PREDICTOR_KINDS:
            raise ValueError(f"kind: unknown kind {self.kind!r}")
        if self.ensemble < 1:
            raise ValueError(f"ensemble: must be >= 1, got {self.ensemble}")
        if self.kind == "external" and not self.command:
            raise ValueError("command: required for the external predictor")
        if self.kind == "patch" and not self.corpus:
            raise ValueError("corpus: required for the patch predictor")
        if not 0.0 <= self.flip_rate <= 1.0:
            raise ValueError(f"flip_rate: must be in [0, 1], got {self.flip_rate}")


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

    def __post_init__(self):
        if self.starts != "corners" and (isinstance(self.starts, str) or not self.starts):
            raise ValueError("starts: must be 'corners' or at least one pose")
        if not self.scorers:
            raise ValueError("scorers: at least one scorer required")
        for s in self.scorers:
            if s not in SCORER_KINDS:
                raise ValueError(f"scorers: unknown kind {s!r}")
        if self.budget < 0:
            raise ValueError(f"budget: must be >= 0, got {self.budget}")
        if self.tu_goals < 0:
            raise ValueError(f"tu_goals: must be >= 0 (0 scores no TU), got {self.tu_goals}")
        if not self.seeds:
            raise ValueError("seeds: at least one seed required")


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
# (dataclass, field) -> the (section, key) that names it in a ConfigError
_KEY_OF = {(cls, _FIELD.get(key, key)): (section, key)
           for section, (cls, keys) in _SECTIONS.items() for key in keys}
_KEY_OF[ExperimentConfig, "starts"] = ("starts", "poses")


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
    return poses


def _build(cls, **values):
    """`cls(**values)`, with a value it rejects reported by section and key."""
    try:
        return cls(**values)
    except ValueError as exc:
        name, _, problem = str(exc).partition(": ")
        section, key = _KEY_OF[cls, name]
        raise ConfigError(f"[{section}] {key}: {problem}") from None


def parse_config(path) -> ExperimentConfig:
    """Read an experiment config file."""
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
    maps.setdefault("kind", "files" if maps.get("glob") else "generate")

    # ExperimentConfig's own fields that the file sets; poses imply explicit
    # starts, as a glob implies map files.
    top = given["episode"] | given["metrics"] | given["output"]
    starts = given["starts"]
    policy = starts.get("policy", "explicit" if "poses" in starts else "corners")
    if policy == "explicit":
        if "poses" not in starts:
            raise ConfigError("[starts] poses: required for explicit starts")
        top["starts"] = _parse_poses(starts["poses"])
    elif policy != "corners":
        raise ConfigError(f"[starts] policy: must be 'corners' or 'explicit', got {policy!r}")
    elif "poses" in starts:
        raise ConfigError("[starts] poses: not allowed with policy = corners")

    if "scorers" in top:
        top["scorers"] = [s.strip() for s in top["scorers"].split(",") if s.strip()]
    if "seeds" in top:
        raw = top["seeds"]
        try:
            top["seeds"] = [int(s) for s in raw.split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"[output] seeds: cannot parse {raw!r}") from None

    return _build(ExperimentConfig, maps=_build(MapSource, **maps),
                  sensor=_build(SensorSpec, **given["sensor"]),
                  raycast=_build(RaycastConfig, **given["raycast"]),
                  predictor=_build(PredictorSpec, **given["predictor"]), **top)

"""Experiment configuration: the config dataclasses, and the TOML file that
sets their fields.

Each dataclass checks its own values when it is built, in code or from a
file; a check's message starts with the field it rejects. The dataclasses
below (and `SensorSpec`, `RaycastConfig`) are the one place the defaults are
written: they are the standard operating point.

The file is TOML with the layout of `dataclasses.asdict(ExperimentConfig)`:
top-level keys set `ExperimentConfig` fields, and the `[maps]`, `[sensor]`,
`[raycast]` and `[predictor]` tables set the fields of those dataclasses.
Each key is the name of the field it sets and has its type (an int will do
for a float); a key the file leaves out keeps the field's default. `starts`
is "corners" or a list of [x, y] cells, and `[maps] kind` defaults to
"files" when the table sets a `glob`, else to "generate". A complete file:

    scorers = ["mapex", "nearest"]
    starts = [[1, 1], [30, 40]]
    budget = 500
    seeds = [0, 1]
    output_dir = "results"

    [maps]
    glob = "maps/*.pgm"

    [sensor]
    range_lambda = 8.0

    [predictor]
    kind = "noisy_oracle"
    flip_rate = 0.1
"""

from __future__ import annotations

import math
import shlex
import tomllib
from contextlib import suppress
from dataclasses import dataclass, field, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError
from .frontier import SCORER_KINDS
from .grid import DEFAULT_RESOLUTION, GridPose
from .infogain import RaycastConfig
from .world import CORRIDOR_WIDTH, ROOM_COUNT_RANGE, SensorSpec, check_floorplan_args

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
        if not (math.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError(f"resolution: must be finite and positive, got {self.resolution}")
        if self.kind == "generate":
            check_floorplan_args(self.width, self.height, (self.rooms_min, self.rooms_max),
                                 self.corridor_width)


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
        if self.kind == "external" and not self.commands:
            raise ValueError(f"command: lists no command, got {self.command!r}")
        if self.kind == "patch" and not self.corpus:
            raise ValueError("corpus: required for the patch predictor")
        if not 0.0 <= self.flip_rate <= 1.0:
            raise ValueError(f"flip_rate: must be in [0, 1], got {self.flip_rate}")
        if self.block < 1:
            raise ValueError(f"block: must be >= 1, got {self.block}")
        if self.ring < 1:
            raise ValueError(f"ring: must be >= 1, got {self.ring}")

    @property
    def commands(self) -> list[list[str]]:
        """The external predictor's commands: `command` split at each ';', and
        each into its words as a POSIX shell would."""
        try:
            return [words for c in (self.command or "").split(";") if (words := shlex.split(c))]
        except ValueError as exc:  # an unclosed quote, or a trailing escape
            raise ValueError(f"command: cannot split {self.command!r}: {exc}") from None


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
        for key in ("budget", "min_cluster_size", "max_waypoint_age", "checkpoint_every"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key}: must be >= 0, got {getattr(self, key)}")
        if self.tu_goals < 0:
            raise ValueError(f"tu_goals: must be >= 0 (0 scores no TU), got {self.tu_goals}")
        if not self.seeds:
            raise ValueError("seeds: at least one seed required")
        # Rows are named by start, scorer and seed, so a repeat would share a row directory.
        starts = [] if self.starts == "corners" else [list(p) for p in self.starts]
        for key, items in (("starts", starts), ("scorers", self.scorers), ("seeds", self.seeds)):
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ValueError(f"{key}: {item!r} is listed more than once")


def _typed(hint, value):
    """A TOML value as a field annotated `hint` holds it: an int becomes a
    float for a float field, and an [x, y] pair of ints a GridPose. Raises
    TypeError when the value does not fit; a bool fits only a bool field."""
    if get_origin(hint) is UnionType:
        for option in get_args(hint):
            with suppress(TypeError):
                return _typed(option, value)
    elif get_origin(hint) is list and type(value) is list:
        return [_typed(get_args(hint)[0], v) for v in value]
    elif hint is GridPose and type(value) is list and len(value) == 2:
        return GridPose(*(_typed(int, v) for v in value))
    elif hint is float and type(value) in (int, float):
        return float(value)
    elif type(value) is hint:
        return value
    raise TypeError(value)


def from_table(cls, table: dict, name: str | None = None):
    """`cls` with the fields a table (TOML, or JSON from a record header)
    sets by name. A key, type or value the table or `cls` rejects raises a
    ConfigError that starts with `[name] key:`, or with `key:` for the
    top-level table."""
    where = f"[{name}] " if name else ""
    hints = get_type_hints(cls)
    annotations = {f.name: f.type for f in fields(cls)}
    values = {}
    for key, value in table.items():
        if key not in annotations:
            kind = "table" if isinstance(value, dict) else "key"
            raise ConfigError(f"{where}{key}: unknown {kind}")
        if is_dataclass(hints[key]) and isinstance(value, dict):
            values[key] = from_table(hints[key], value, key)
            continue
        try:
            values[key] = _typed(hints[key], value)
        except TypeError:
            raise ConfigError(f"{where}{key}: expected {annotations[key]}, "
                              f"got {value!r}") from None
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(where + str(exc)) from None


def parse_config(path) -> ExperimentConfig:
    """Read an experiment config file; the module docstring gives its layout."""
    try:
        with open(path, "rb") as fh:
            data = tomllib.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    maps = data.setdefault("maps", {})
    if isinstance(maps, dict):  # a glob implies map files
        maps.setdefault("kind", "files" if "glob" in maps else "generate")
    return from_table(ExperimentConfig, data)

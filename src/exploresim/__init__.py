"""2D indoor exploration simulator with prediction-driven frontier planning."""

from .errors import (
    ConfigError,
    EnsembleError,
    ExternalPredictorError,
    InvalidStateError,
    PgmParseError,
    RecordMismatchError,
)
from .frontier import (
    SCORER_KINDS,
    FrontierCluster,
    ScoreContext,
    extract_frontiers,
    score_frontier,
)
from .grid import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    GridPose,
    OccupancyGrid,
    load_pgm,
    new_grid,
    save_pgm,
)
from .infogain import (
    RaycastConfig,
    deterministic_raycast,
    info_gain,
    probabilistic_raycast,
    visibility_mask,
)
from .metrics import (
    auc,
    building_footprint,
    coverage_of,
    iou_occupied,
    topological_understanding,
)
from .planner import EpisodeConfig, EpisodeRecord, astar, path_cells, run_episode, waypoint_valid
from .predict import (
    ExternalPredictor,
    NoisyOraclePredictor,
    PassThroughPredictor,
    PatchInpaintingPredictor,
    PredictionSet,
    ensemble_predict,
)
from .world import (
    Scan,
    SensorSpec,
    apply_action,
    generate_floorplan,
    integrate_scan,
    simulate_scan,
)

__version__ = "0.1.0"

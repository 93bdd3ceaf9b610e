"""The study itself: sweeps, metrics, classification, recommendations."""

from .advisor import Advice, CapRecommendation, PowerAdvisor, recommend_cap
from .atomicio import atomic_write_json, atomic_write_text
from .pricing import BatchRepricer
from .benchtrack import (
    SPEEDUP_FLOORS,
    BenchTracker,
    check_floors,
    format_trend,
    time_kernel,
    trend_rows,
)
from .classify import Classification, PowerClass, classify, classify_result
from .engine import EngineStats, ProfileJob, ShardTask, SweepEngine, SweepError
from .metrics import SLOWDOWN_THRESHOLD, Ratios, element_rate, first_slowdown_cap
from .predict import ClassPrediction, predict_class, predicted_cap
from .profiles import (
    ProfileCache,
    merge_shard_ledgers,
    profile_from_ledger,
    run_algorithm_ledger,
    run_algorithm_ledger_shard,
    supports_sharding,
)
from .report import (
    FigureSeries,
    figure2_series,
    figure3_series,
    ipc_by_size_series,
    render_slowdown_table,
    render_table1,
)
from .runner import DEFAULT_VIZ_CYCLES, RunPoint, StudyResult, make_run_point
from .store import ResultStore, StoreMismatchError, sweep_fingerprint
from .validate import PointValidator, ValidationReport, Violation, validate_store
from .study import (
    ALGORITHM_NAMES,
    DATASET_SIZES,
    POWER_CAPS_W,
    StudyConfig,
    phase1_config,
    phase2_config,
    phase3_config,
)

__all__ = [
    "Ratios",
    "element_rate",
    "first_slowdown_cap",
    "SLOWDOWN_THRESHOLD",
    "StudyConfig",
    "phase1_config",
    "phase2_config",
    "phase3_config",
    "POWER_CAPS_W",
    "DATASET_SIZES",
    "ALGORITHM_NAMES",
    "StudyResult",
    "RunPoint",
    "make_run_point",
    "DEFAULT_VIZ_CYCLES",
    "SweepEngine",
    "SweepError",
    "EngineStats",
    "ProfileJob",
    "ShardTask",
    "ResultStore",
    "StoreMismatchError",
    "sweep_fingerprint",
    "PointValidator",
    "ValidationReport",
    "Violation",
    "validate_store",
    "ProfileCache",
    "profile_from_ledger",
    "run_algorithm_ledger",
    "run_algorithm_ledger_shard",
    "merge_shard_ledgers",
    "supports_sharding",
    "BenchTracker",
    "time_kernel",
    "SPEEDUP_FLOORS",
    "trend_rows",
    "format_trend",
    "check_floors",
    "atomic_write_json",
    "atomic_write_text",
    "PowerClass",
    "Classification",
    "classify",
    "classify_result",
    "CapRecommendation",
    "recommend_cap",
    "Advice",
    "PowerAdvisor",
    "BatchRepricer",
    "ClassPrediction",
    "predict_class",
    "predicted_cap",
    "render_table1",
    "render_slowdown_table",
    "figure2_series",
    "figure3_series",
    "ipc_by_size_series",
    "FigureSeries",
]

"""Autotuning: sketches, verifier, cost model, balanced evolutionary search."""

from .compile import CompileEngine, default_engine
from .cost_model import CostModel
from .database import (
    DB_SCHEMA_VERSION,
    Database,
    DatabaseFormatError,
    TuningCache,
    TuningRecord,
)
from .features import FEATURE_NAMES, extract_features
from .sketch import (
    SketchError,
    generate_schedule,
    param_space,
    subspace_of,
)
from .tuner import (
    Candidate,
    TuneResult,
    Tuner,
    autotune,
    measure_stats,
    seed_params,
    tuned_params,
)
from .verifier import verify

__all__ = [
    "autotune",
    "tuned_params",
    "measure_stats",
    "CompileEngine",
    "default_engine",
    "Tuner",
    "TuneResult",
    "Candidate",
    "Database",
    "TuningCache",
    "TuningRecord",
    "DatabaseFormatError",
    "DB_SCHEMA_VERSION",
    "CostModel",
    "extract_features",
    "FEATURE_NAMES",
    "generate_schedule",
    "seed_params",
    "param_space",
    "subspace_of",
    "SketchError",
    "verify",
]

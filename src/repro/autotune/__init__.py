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
    FAMILIES,
    Family,
    SketchError,
    fixed_params,
    generate_schedule,
    param_space,
    seed_params,
    subspace_of,
)
from .tuner import (
    Candidate,
    TuneResult,
    Tuner,
    autotune,
    measure_stats,
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
    "FAMILIES",
    "Family",
    "seed_params",
    "param_space",
    "fixed_params",
    "subspace_of",
    "SketchError",
    "verify",
]

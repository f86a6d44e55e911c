"""Target-centric front end: one ``compile()`` across every backend.

A :class:`Target` bundles a backend's configuration, compile pipeline,
performance model and (where supported) functional executor;
:func:`compile` turns a workload or schedule into a uniform
:class:`Executable`.  See :mod:`repro.target.base` for the protocol and
:mod:`repro.target.targets` for the four kinds.
"""

from .base import Target, TargetError
from .compile import compile
from .executable import (
    Executable,
    RooflineExecutable,
    RooflineProfile,
    UpmemExecutable,
)
from .executor import Executor, default_workers
from .targets import (
    CpuTarget,
    PrimTarget,
    SimplePimTarget,
    UpmemTarget,
    default_params,
    get_target,
    list_targets,
)

__all__ = [
    "compile",
    "Target",
    "TargetError",
    "get_target",
    "list_targets",
    "Executable",
    "UpmemExecutable",
    "RooflineExecutable",
    "RooflineProfile",
    "Executor",
    "default_workers",
    "UpmemTarget",
    "PrimTarget",
    "SimplePimTarget",
    "CpuTarget",
    "default_params",
]

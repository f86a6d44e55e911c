"""ATiM reproduction: an autotuning tensor compiler for DRAM-PIM (UPMEM).

Public API::

    import repro
    from repro.workloads import mtv
    from repro.autotune import autotune

    exe = repro.compile(mtv(4096, 4096), target="upmem")
    out, = exe.run(A=a, B=b)
    outs = exe.run_batch([{"A": a0, "B": b0}, {"A": a1, "B": b1}])
    print(exe.latency, repro.list_targets())

Explicit schedules still compile the same way::

    sch = Schedule(...)              # Table-2 primitives
    exe = repro.compile(sch, target="upmem")
"""

from . import pipeline, te, tir
from .lowering import LowerOptions, lower
from .schedule import Schedule
from .target import (
    Executable,
    Target,
    TargetError,
    compile,
    get_target,
    list_targets,
)
from .upmem import DEFAULT_CONFIG, UpmemConfig
from . import serve
from . import graph
from .graph import ModelGraph
from . import obs
from .obs import Tracer, use_tracer

__version__ = "0.3.0"

__all__ = [
    "te",
    "tir",
    "pipeline",
    "serve",
    "graph",
    "ModelGraph",
    "obs",
    "Tracer",
    "use_tracer",
    "compile",
    "Target",
    "TargetError",
    "Executable",
    "get_target",
    "list_targets",
    "lower",
    "LowerOptions",
    "Schedule",
    "UpmemConfig",
    "DEFAULT_CONFIG",
    "__version__",
]

"""Unified compile pipeline: passes, contexts, managers and artifacts.

Every compile in the repository — ``repro.compile`` (for any target),
``optimize_module``, the autotuner, the baselines and the experiment
harness — routes through a :class:`PassManager` over the same named
passes, with a :class:`PassContext` carrying configuration and
observability hooks; every (workload, params) compile is one
:meth:`repro.autotune.CompileEngine.compile` call, memoized as a
:class:`CompiledArtifact` in an :class:`ArtifactCache`.

Quick tour::

    from repro.pipeline import PassContext, get_pipeline

    ctx = PassContext(opt_level="O2", dump_ir=True)
    module = get_pipeline("build").run(schedule, ctx)
    print(ctx.timing_report())
"""

from .core import (
    OPT_LEVELS,
    FunctionPass,
    Pass,
    PassContext,
    PassInstrument,
    PassManager,
    PassTiming,
    PipelineError,
)
from .artifact import (
    ArtifactCache,
    CacheStats,
    CompiledArtifact,
    artifact_key,
    tuning_key,
    workload_signature,
)
from .passes import (
    EliminateCopyChecks,
    HoistInvariantBranches,
    KernelPass,
    LowerSchedulePass,
    TightenLoopBounds,
    kernel_passes,
)
from .registry import (
    get_pipeline,
    has_pipeline,
    list_pipelines,
    register_pipeline,
)

__all__ = [
    "OPT_LEVELS",
    "Pass",
    "FunctionPass",
    "KernelPass",
    "PassContext",
    "PassInstrument",
    "PassManager",
    "PassTiming",
    "PipelineError",
    "LowerSchedulePass",
    "EliminateCopyChecks",
    "TightenLoopBounds",
    "HoistInvariantBranches",
    "kernel_passes",
    "ArtifactCache",
    "CacheStats",
    "CompiledArtifact",
    "artifact_key",
    "tuning_key",
    "workload_signature",
    "register_pipeline",
    "get_pipeline",
    "has_pipeline",
    "list_pipelines",
]

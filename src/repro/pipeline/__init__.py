"""The compile pipeline and the artifacts it produces.

Every compile in the repository — ``repro.compile`` for any
module-compiling target, the autotuner, the baselines and the experiment
harness — is :data:`build` run over a schedule under a
:class:`PassContext`; every (workload, params) compile is one
:meth:`repro.autotune.CompileEngine.compile` call, memoized as a
:class:`CompiledArtifact` in an :class:`ArtifactCache`.

::

    from repro.pipeline import PassContext, build

    module = build.run(schedule, PassContext(opt_level="O2"))

Per-pass wall time is the ``wall_ms`` argument of the pass spans a
``Tracer(wall_clock=True)`` records; the kernel after level *k* is
``repro.compile(schedule, opt_level="Ok").lowered.kernel``.
"""

from .core import Pass, PassContext, PassManager, PipelineError
from .artifact import (
    ArtifactCache,
    CacheStats,
    CompiledArtifact,
    artifact_key,
    tuning_key,
    workload_signature,
)
from .passes import KernelPass, LowerSchedulePass, build

__all__ = [
    "Pass",
    "KernelPass",
    "LowerSchedulePass",
    "PassContext",
    "PassManager",
    "PipelineError",
    "build",
    "ArtifactCache",
    "CacheStats",
    "CompiledArtifact",
    "artifact_key",
    "tuning_key",
    "workload_signature",
]

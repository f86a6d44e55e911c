"""Candidate compilation through the ``build`` pipeline, with caching.

:meth:`CompileEngine.compile` is the only spelling of "(workload,
params) → lowered module": sketch → ``build`` pipeline (lower + §5.3
passes) → hardware-constraint verification, memoized in a
content-addressed :class:`~repro.pipeline.ArtifactCache`.  Targets,
baselines, the tuner and the harness are callers of it.
The tuner owns a private engine (so its hit-rate accounting is per-run);
``repro.compile`` and the experiment harness share a process-wide
default engine, so re-profiling the same candidate across figures is
free.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..lowering import LoweringError
from ..obs import current_tracer
from ..pipeline import (
    ArtifactCache,
    CompiledArtifact,
    PassContext,
    artifact_key,
    build,
)
from ..schedule import Schedule, ScheduleError
from ..upmem.config import DEFAULT_CONFIG, UpmemConfig
from ..workloads import Workload
from .sketch import SketchError, generate_schedule
from .verifier import verify

__all__ = ["CompileEngine", "default_engine"]


class CompileEngine:
    """Compiles (workload, params) candidates through the ``build``
    pipeline, cache-first.

    One engine wraps one :class:`ArtifactCache`; every compile outcome —
    including sketch/lowering rejections and verification verdicts — is
    cached, so repeated candidates cost one dictionary lookup.
    """

    def __init__(self, cache: Optional[ArtifactCache] = None) -> None:
        self.cache = cache if cache is not None else ArtifactCache()

    # -- cache accounting ---------------------------------------------------
    @property
    def stats(self):
        return self.cache.stats

    def compile(
        self,
        workload: Workload,
        params: Dict[str, int],
        opt_level: str = "O3",
        config: Optional[UpmemConfig] = None,
    ) -> CompiledArtifact:
        """Sketch → lower → optimize → verify; always returns an artifact.

        ``artifact.verified`` says whether ``artifact.module`` may run
        on ``config``'s machine.

        **Immutability contract:** cache hits return the *shared* cached
        ``LoweredModule`` — callers must treat it as read-only (executing
        and profiling are fine; mutating attributes would corrupt every
        later caller hitting the same key).  Use
        ``dataclasses.replace(module, ...)`` to derive a variant.
        """
        # Normalize so config=None and an explicit DEFAULT_CONFIG share
        # one cache entry (callers spell the default both ways).
        config = config if config is not None else DEFAULT_CONFIG
        key = artifact_key(workload, params, config, opt_level=opt_level)
        tracer = current_tracer()
        artifact = self.cache.get(key)
        if tracer.enabled:
            tracer.instant(
                f"artifact-cache {'miss' if artifact is None else 'hit'}",
                track="pipeline",
                cat="compile",
                args={
                    "workload": workload.name,
                    "opt_level": opt_level,
                    "key": key[:12],
                },
            )
        if artifact is None:
            artifact = self.cache.put(
                self._compile(key, workload, params, opt_level, config)
            )
        return artifact

    def _compile(
        self,
        key: str,
        workload: Workload,
        params: Dict[str, int],
        opt_level: str,
        config: UpmemConfig,
    ) -> CompiledArtifact:
        ctx = PassContext(opt_level=opt_level, module_name=workload.name)
        try:
            schedule = generate_schedule(workload, params)
            n_dpus = _grid_dpus(schedule)
            if n_dpus > config.n_dpus:
                # ``verify``'s first test, decided before lowering: one
                # candidate in six of a search asks for more DPUs than
                # the machine has, and lowering is most of a build.
                return CompiledArtifact(
                    key,
                    None,
                    error=f"grid needs {n_dpus} DPUs > {config.n_dpus}"
                    " available",
                )
            module = build.run(schedule, ctx)
        except (SketchError, ScheduleError, LoweringError) as exc:
            return CompiledArtifact(
                key, None, error=f"{type(exc).__name__}: {exc}"
            )
        module.const_inputs = frozenset(workload.const_inputs)
        verified, verify_reason = verify(module, config)
        return CompiledArtifact(
            key, module, verified=verified, verify_reason=verify_reason
        )


def _grid_dpus(schedule: Schedule) -> int:
    """DPUs the schedule's grid asks for: the product, over the distinct
    ``blockIdx.*`` tags its stages bind, of the bound axis's extent —
    what lowering makes ``module.n_dpus`` (a sketch binds each tag at
    one extent)."""
    extents = {
        tag: ivar.extent
        for stage in schedule.stages
        for ivar, tag in stage.binds.items()
        if tag.startswith("blockIdx")
    }
    return math.prod(extents.values())


#: Process-wide engine shared by ``repro.compile`` and the harness.
_DEFAULT_ENGINE = CompileEngine()


def default_engine() -> CompileEngine:
    """The shared process-wide compile engine (and its cache)."""
    return _DEFAULT_ENGINE

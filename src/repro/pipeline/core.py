"""Pass infrastructure: ``Pass``, ``PassContext``, ``PassManager``.

The paper's §5.3 compile flow is a fixed sequence — lowering, then three
PIM-aware kernel rewrites in O1→O3 order — so the framework is what
that needs and no more: a *pass* is a named, level-gated transformation
of a compile object, a *PassContext* says at which level and under which
lowering options one compile runs, and a *PassManager* threads an object
through its passes, reporting each to the ambient tracer.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Tuple

from ..lowering import LowerOptions
from ..obs import current_tracer
from ..optim import LEVELS, check_level

__all__ = ["Pass", "PassContext", "PassManager", "PipelineError"]


class PipelineError(RuntimeError):
    """A pass misbehaved."""


@dataclass
class PassContext:
    """What one pipeline run is told: the §5.3 level, the lowering
    options and the name the module gets."""

    opt_level: str = "O3"
    options: LowerOptions = field(default_factory=LowerOptions)
    module_name: str = "main"

    def __post_init__(self) -> None:
        check_level(self.opt_level)


class Pass:
    """One named transformation in the compile pipeline.

    Subclasses implement :meth:`run`; ``min_level`` gates the pass on the
    context's optimization level (a pass above the level is skipped,
    which is how one pipeline serves O0–O3).
    """

    name: str = "pass"
    min_level: str = "O0"

    def enabled(self, ctx: PassContext) -> bool:
        return LEVELS.index(ctx.opt_level) >= LEVELS.index(self.min_level)

    def run(self, obj: Any, ctx: PassContext) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} min_level={self.min_level}>"


class PassManager:
    """A named, fixed sequence of passes.

    ``run`` threads a compile object through every enabled pass.  Under
    an enabled tracer the run is one span holding a span per executed
    pass (with ``wall_ms`` when the tracer captures wall clock — the
    per-pass timing) and a ``skip`` instant per gated one.
    """

    def __init__(self, passes: Sequence[Pass], name: str = "pipeline") -> None:
        self.name = name
        self.passes: Tuple[Pass, ...] = tuple(passes)

    def run(self, obj: Any, ctx: Optional[PassContext] = None) -> Any:
        tracer = current_tracer()
        ctx = ctx or PassContext()
        # Compilation is host work: passes occupy zero virtual time, so
        # the trace records order/structure (plus wall_ms when the
        # tracer opts into wall-clock capture), not fake durations.
        span = (
            tracer.span(
                f"pipeline {self.name}",
                track="pipeline",
                cat="compile",
                args={"pipeline": self.name, "module": ctx.module_name},
            )
            if tracer.enabled
            else nullcontext()
        )
        with span:
            for p in self.passes:
                if not p.enabled(ctx):
                    if tracer.enabled:
                        tracer.instant(
                            f"skip {p.name}", track="pipeline", cat="compile"
                        )
                    continue
                start = time.perf_counter()
                out = p.run(obj, ctx)
                if out is None:
                    raise PipelineError(
                        f"pass {p.name!r} in pipeline {self.name!r} returned None"
                    )
                obj = out
                if tracer.enabled:
                    args = {"opt_level": ctx.opt_level}
                    if tracer.wall_clock:
                        args["wall_ms"] = (time.perf_counter() - start) * 1e3
                    tracer.timed_span(
                        p.name,
                        track="pipeline",
                        cat="compile",
                        dur_s=0.0,
                        args=args,
                    )
        return obj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = " -> ".join(p.name for p in self.passes)
        return f"<PassManager {self.name!r}: {names}>"

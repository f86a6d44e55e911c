"""Pass infrastructure: ``Pass``, ``PassContext``, ``PassManager``.

The compile flow (schedule → loop TIR → boundary checks → §5.3 passes →
host/kernel split → emission) used to be hard-wired into four call sites.
This module makes it a first-class object, in the spirit of TVM's pass
pipeline: a *pass* is a named transformation over a compile object (a
``Schedule``, a ``LoweredModule`` or a bare kernel ``Stmt``), a
*PassContext* carries target configuration, the optimization level and
observability hooks, and a *PassManager* composes passes into a named,
reorderable pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..lowering import LowerOptions
from ..obs import current_tracer
from ..optim.pipeline import LEVELS
from ..tir import Stmt, stmt_to_str

__all__ = [
    "OPT_LEVELS",
    "Pass",
    "FunctionPass",
    "PassContext",
    "PassInstrument",
    "PassManager",
    "PassTiming",
    "PipelineError",
]

#: PIM-aware optimization levels, paper §5.3 (``optim.LEVELS``).
OPT_LEVELS = LEVELS


class PipelineError(RuntimeError):
    """A pipeline was misconfigured or a pass misbehaved."""


class PassInstrument:
    """Observability hook invoked around every executed pass.

    Subclass and override either method; instruments are registered on a
    :class:`PassContext` and fire for every pass a ``PassManager`` runs
    under that context.
    """

    def run_before_pass(self, pass_name: str, obj: Any, ctx: "PassContext") -> None:
        """Called immediately before a pass runs."""

    def run_after_pass(self, pass_name: str, obj: Any, ctx: "PassContext") -> None:
        """Called immediately after a pass returns (``obj`` is its output)."""


@dataclass
class PassTiming:
    """Wall-clock record of one pass execution (or gate skip)."""

    name: str
    seconds: float
    skipped: bool = False


@dataclass
class PassContext:
    """Shared state threaded through every pass of a pipeline run.

    ``attrs`` is a scratch dictionary passes use to publish side outputs
    (emitted source, verification results, backend estimates) without
    widening the module type.
    """

    #: Target hardware description (``UpmemConfig``); ``None`` = default.
    config: Any = None
    opt_level: str = "O3"
    #: Lowering knobs (``LowerOptions``); defaulted from ``opt_level``.
    options: Any = None
    module_name: str = "main"
    instruments: List[PassInstrument] = field(default_factory=list)
    #: Record a printable IR snapshot after every pass.
    dump_ir: bool = False
    timings: List[PassTiming] = field(default_factory=list)
    ir_dumps: List[Tuple[str, str]] = field(default_factory=list)
    attrs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.opt_level not in OPT_LEVELS:
            raise ValueError(f"opt_level must be one of {OPT_LEVELS}")
        if self.options is None:
            self.options = LowerOptions(optimize=self.opt_level)

    # -- ambient context ----------------------------------------------------
    _CURRENT: ClassVar[List["PassContext"]] = []

    def __enter__(self) -> "PassContext":
        PassContext._CURRENT.append(self)
        return self

    def __exit__(self, *exc) -> None:
        PassContext._CURRENT.pop()

    @classmethod
    def current(cls) -> Optional["PassContext"]:
        """Innermost active context, or ``None`` outside any ``with`` block."""
        return cls._CURRENT[-1] if cls._CURRENT else None

    # -- reporting ----------------------------------------------------------
    def timing_report(self) -> str:
        """One line per pass: name, milliseconds, gate status."""
        lines = []
        for t in self.timings:
            status = "skipped" if t.skipped else f"{t.seconds * 1e3:8.3f} ms"
            lines.append(f"{t.name:<32} {status}")
        return "\n".join(lines)


class Pass:
    """One named transformation in a compile pipeline.

    Subclasses implement :meth:`run`; ``min_level`` gates the pass on the
    context's optimization level (a pass below the level is recorded as
    skipped, preserving O0–O3 semantics under a single pipeline).
    """

    name: str = "pass"
    min_level: str = "O0"

    def enabled(self, ctx: PassContext) -> bool:
        return OPT_LEVELS.index(ctx.opt_level) >= OPT_LEVELS.index(self.min_level)

    def run(self, obj: Any, ctx: PassContext) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} min_level={self.min_level}>"


class FunctionPass(Pass):
    """Adapt a plain ``obj -> obj`` callable into a :class:`Pass`."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        name: Optional[str] = None,
        min_level: str = "O0",
    ) -> None:
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "function_pass")
        self.min_level = min_level

    def run(self, obj: Any, ctx: PassContext) -> Any:
        return self.fn(obj)


def _snapshot(obj: Any) -> str:
    """Best-effort printable IR for ``dump_ir``."""
    kernel = getattr(obj, "kernel", None)
    if isinstance(kernel, Stmt):
        return stmt_to_str(kernel)
    if isinstance(obj, Stmt):
        return stmt_to_str(obj)
    return repr(obj)


class PassManager:
    """An ordered, named, reorderable sequence of passes.

    ``run`` threads a compile object through every enabled pass, firing
    the context's instruments and recording per-pass wall-clock (and IR
    snapshots when ``ctx.dump_ir``).  The pass list is mutable so callers
    and backend extensions can insert, remove or reorder stages.
    """

    def __init__(self, passes: Sequence[Pass] = (), name: str = "pipeline") -> None:
        self.name = name
        self.passes: List[Pass] = list(passes)

    # -- composition --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.passes)

    def __iter__(self):
        return iter(self.passes)

    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def index(self, name: str) -> int:
        for i, p in enumerate(self.passes):
            if p.name == name:
                return i
        raise KeyError(f"pipeline {self.name!r} has no pass named {name!r}")

    def append(self, p: Pass) -> "PassManager":
        self.passes.append(p)
        return self

    def insert_before(self, name: str, p: Pass) -> "PassManager":
        self.passes.insert(self.index(name), p)
        return self

    def insert_after(self, name: str, p: Pass) -> "PassManager":
        self.passes.insert(self.index(name) + 1, p)
        return self

    def remove(self, name: str) -> Pass:
        return self.passes.pop(self.index(name))

    def reorder(self, names: Sequence[str]) -> "PassManager":
        """Rearrange into the given complete order of pass names."""
        if sorted(names) != sorted(self.pass_names()):
            raise PipelineError(
                f"reorder of {self.name!r} must mention each pass exactly"
                f" once (got {list(names)}, have {self.pass_names()})"
            )
        by_name = {p.name: p for p in self.passes}
        self.passes = [by_name[n] for n in names]
        return self

    # -- execution ----------------------------------------------------------
    def run(self, obj: Any, ctx: Optional[PassContext] = None) -> Any:
        tracer = current_tracer()
        ctx = ctx or PassContext.current() or PassContext()
        with ctx:
            # Compilation is host work: passes occupy zero virtual time,
            # so the trace records order/structure (plus wall_ms when the
            # tracer opts into wall-clock capture), not fake durations.
            pipeline_span = (
                tracer.span(
                    f"pipeline {self.name}",
                    track="pipeline",
                    cat="compile",
                    args={"pipeline": self.name, "module": ctx.module_name},
                )
                if tracer.enabled
                else None
            )
            if pipeline_span is not None:
                pipeline_span.__enter__()
            try:
                for p in self.passes:
                    if not p.enabled(ctx):
                        ctx.timings.append(PassTiming(p.name, 0.0, skipped=True))
                        if tracer.enabled:
                            tracer.instant(
                                f"skip {p.name}", track="pipeline", cat="compile"
                            )
                        continue
                    for ins in ctx.instruments:
                        ins.run_before_pass(p.name, obj, ctx)
                    start = time.perf_counter()
                    out = p.run(obj, ctx)
                    if out is None:
                        raise PipelineError(
                            f"pass {p.name!r} in pipeline {self.name!r} returned None"
                        )
                    obj = out
                    wall = time.perf_counter() - start
                    ctx.timings.append(PassTiming(p.name, wall))
                    if tracer.enabled:
                        args = {"opt_level": ctx.opt_level}
                        if tracer.wall_clock:
                            args["wall_ms"] = wall * 1e3
                        tracer.timed_span(
                            p.name,
                            track="pipeline",
                            cat="compile",
                            dur_s=0.0,
                            args=args,
                        )
                    if ctx.dump_ir:
                        ctx.ir_dumps.append((p.name, _snapshot(obj)))
                    for ins in ctx.instruments:
                        ins.run_after_pass(p.name, obj, ctx)
            finally:
                if pipeline_span is not None:
                    pipeline_span.__exit__(None, None, None)
        return obj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PassManager {self.name!r}: {' -> '.join(self.pass_names())}>"

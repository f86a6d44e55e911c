"""Named pipeline registry.

Pipelines are registered as *factories* returning a fresh
:class:`PassManager`, so callers may freely insert/remove/reorder passes
on the instance they get without corrupting the registry.  Backend
extensions (e.g. ``repro.extensions.hbm_pim``) register target-specific
pipelines here instead of monkey-patching the compile flow.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .core import PassManager, PipelineError
from .passes import LowerSchedulePass, kernel_passes

__all__ = [
    "register_pipeline",
    "get_pipeline",
    "has_pipeline",
    "list_pipelines",
]

_PIPELINES: Dict[str, Callable[[], PassManager]] = {}


def register_pipeline(
    name: str, factory: Callable[[], PassManager], overwrite: bool = False
) -> None:
    """Register ``factory`` under ``name``; refuses silent clobbering."""
    if name in _PIPELINES and not overwrite:
        raise PipelineError(f"pipeline {name!r} is already registered")
    _PIPELINES[name] = factory


def get_pipeline(name: str) -> PassManager:
    """A fresh :class:`PassManager` instance for a registered pipeline."""
    try:
        factory = _PIPELINES[name]
    except KeyError:
        raise PipelineError(
            f"unknown pipeline {name!r}; registered: {sorted(_PIPELINES)}"
        ) from None
    return factory()


def has_pipeline(name: str) -> bool:
    return name in _PIPELINES


def list_pipelines() -> List[str]:
    return sorted(_PIPELINES)


# -- built-in pipelines ------------------------------------------------------


def _optimize_pipeline() -> PassManager:
    """The §5.3 kernel passes, gated by the context's opt level."""
    return PassManager(kernel_passes(), name="optimize")


def _build_pipeline() -> PassManager:
    """Full compile: lowering then PIM-aware kernel optimization."""
    return PassManager([LowerSchedulePass(), *kernel_passes()], name="build")


register_pipeline("optimize", _optimize_pipeline)
register_pipeline("build", _build_pipeline)

"""``repro.compile`` — the single user-facing compile entry point.

::

    import repro
    from repro.workloads import mtv

    exe = repro.compile(mtv(4096, 4096), target="upmem")
    out, = exe.run(A=a, B=b)
    print(exe.latency, repro.list_targets())

One call works for every target, for workloads and explicit schedules
alike; there is no other way in.  A model graph is many programs, not
one: :func:`repro.graph.compile_graph` compiles it node by node.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from ..schedule import Schedule
from ..workloads import Workload
from .base import Target
from .executable import Executable
from .targets import get_target

__all__ = ["compile"]


def compile(
    workload_or_schedule: Union[Workload, Schedule],
    target: Union[str, Target] = "upmem",
    opt_level: str = "O3",
    params: Optional[Dict[str, int]] = None,
    **target_args: Any,
) -> Executable:
    """Compile a workload or explicit schedule for a target.

    Parameters
    ----------
    workload_or_schedule:
        A :class:`repro.workloads.Workload` (the target picks or is given
        schedule parameters) or a hand-built
        :class:`repro.schedule.Schedule` (targets with a compile pipeline
        only).  Anything else raises ``TypeError``; a model graph
        compiles through :func:`repro.graph.compile_graph`.
    target:
        A kind string (see :func:`repro.target.list_targets`) or a
        configured :class:`Target` instance.
    opt_level:
        PIM-aware optimization level ``O0``..``O3`` (§5.3).
    params:
        Explicit sketch parameters for workload compilation; default is
        the target's canonical choice (sketch seed, PrIM table, ...).
        Tuned parameters come from the search:
        ``params=tuned_params(workload, db=...)``.
    target_args:
        Handed unchanged to the target's own ``compile``, which names
        every keyword it reads: ``size=`` (prim's parameter table row),
        ``name=`` / ``options=`` (the module name and
        :class:`repro.lowering.LowerOptions` of an explicit schedule on
        upmem).  Any other keyword raises ``TypeError``.

    Returns the target's :class:`Executable` with the uniform
    ``run`` / ``run_batch`` / ``profile`` / ``latency`` surface.
    """
    if not isinstance(workload_or_schedule, (Workload, Schedule)):
        raise TypeError(
            "repro.compile takes a Workload or a Schedule, not"
            f" {type(workload_or_schedule).__name__}; compile a model"
            " graph with repro.graph.compile_graph"
        )
    return get_target(target).compile(
        workload_or_schedule, opt_level=opt_level, params=params,
        **target_args,
    )

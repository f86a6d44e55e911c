"""``repro.compile`` — the single user-facing compile entry point.

::

    import repro
    from repro.workloads import mtv

    exe = repro.compile(mtv(4096, 4096), target="upmem")
    out, = exe.run(A=a, B=b)
    print(exe.latency, repro.list_targets())

One call works for every target, for workloads, explicit schedules and
model graphs alike; there is no other way in.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from .base import Target
from .executable import Executable
from .targets import get_target

__all__ = ["compile"]


def compile(
    workload_or_schedule: Any,
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
        only).
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

    A :class:`repro.graph.ModelGraph` compiles node-by-node instead:
    ``target`` becomes the PIM side of the placement (nodes without a
    PIM sketch stay on the host), ``target_args`` go to
    :func:`~repro.graph.executable.compile_graph` (``placement=``,
    ``policy=``, ``pool=``), and the result is a
    :class:`~repro.graph.executable.GraphExecutable`.
    """
    # Local: ``graph`` sits above ``target`` (its executables hold
    # targets), so the front door reaches up to it only when called.
    from ..graph.executable import compile_graph
    from ..graph.ir import ModelGraph

    if isinstance(workload_or_schedule, ModelGraph):
        if params is not None:
            raise ValueError(
                "params= does not apply to a ModelGraph — pin schedule"
                " parameters per node (set Node.params on the built"
                " graph)"
            )
        return compile_graph(
            workload_or_schedule,
            target=target,
            opt_level=opt_level,
            **target_args,
        )
    return get_target(target).compile(
        workload_or_schedule, opt_level=opt_level, params=params,
        **target_args,
    )

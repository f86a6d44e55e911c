"""``repro.compile`` — the single user-facing compile entry point.

::

    import repro
    from repro.workloads import mtv

    exe = repro.compile(mtv(4096, 4096), target="upmem")
    out, = exe.run(A=a, B=b)
    print(exe.latency, repro.list_targets())

One call works for every registered target, for workloads, explicit
schedules and model graphs alike; there is no other way in.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from ..autotune.tuner import tuned_params
from ..schedule import Schedule
from .base import Target, get_target
from .executable import Executable

__all__ = ["compile"]


def compile(
    workload_or_schedule: Any,
    target: Union[str, Target] = "upmem",
    opt_level: str = "O3",
    params: Optional[Dict[str, int]] = None,
    tuned: bool = False,
    db: Optional[Any] = None,
    tune_trials: int = 64,
    tune_seed: int = 0,
    **hints: Any,
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
        Registered kind string (see :func:`repro.target.list_targets`) or
        a configured :class:`Target` instance.
    opt_level:
        PIM-aware optimization level ``O0``..``O3`` (§5.3).
    params:
        Explicit sketch parameters for workload compilation; default is
        the target's canonical choice (sketch seed, PrIM table, ...).
    tuned:
        Use autotuned parameters instead of the target's canonical
        defaults.  With ``db=`` pointing at an on-disk tuning database
        (see :class:`repro.autotune.TuningCache`), a previously tuned
        (workload, target, config) group resolves instantly from the
        stored best; otherwise ``tune_trials`` search trials run first
        (and persist into ``db`` when given).  Ignored for explicit
        schedules and when ``params`` is passed.
    db / tune_trials / tune_seed:
        Persistent-store path and search budget/seed for ``tuned=True``.
    hints:
        Target-specific extras, e.g. ``size="64MB"`` (PrIM parameter
        table row), ``total_macs=`` (HBM-PIM schedule estimates) or
        ``options=`` (the :class:`repro.lowering.LowerOptions` an
        explicit schedule lowers under on ``upmem``).
        Targets ignore hints they do not understand.

    Returns the target's :class:`Executable` with the uniform
    ``run`` / ``run_batch`` / ``profile`` / ``latency`` surface.

    A :class:`repro.graph.ModelGraph` compiles node-by-node instead:
    ``target`` becomes the PIM side of the placement (glue nodes stay on
    the host), and the result is a
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
                " parameters per node (Node.params / the builder's"
                " params= overrides)"
            )

        graph_hints = {
            k: v
            for k, v in hints.items()
            if k in ("placement", "policy", "pool")
        }
        return compile_graph(
            workload_or_schedule,
            target=target,
            opt_level=opt_level,
            tuned=tuned,
            db=db,
            tune_trials=tune_trials,
            **graph_hints,
        )
    target = get_target(target)
    if (
        tuned
        and params is None
        and not isinstance(workload_or_schedule, Schedule)
    ):
        params = tuned_params(
            workload_or_schedule,
            target=target,
            db=db,
            n_trials=tune_trials,
            seed=tune_seed,
            # Tune at the level the result will compile at: O0 and O3
            # measure differently, so they form separate db groups and
            # must not trade winners.
            opt_level=opt_level,
        )
    return target.compile(
        workload_or_schedule, opt_level=opt_level, params=params, **hints
    )

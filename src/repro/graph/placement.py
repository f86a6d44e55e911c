"""Placement: assign every graph node a Target.

The policy mirrors the paper's system split — the matrix-vector family
(MTV/GEMV/MMTV/TTV, the ops PIM wins on) compiles for the PIM target,
anything else stays on the host.  The GPT-J builders emit no element-wise
glue node: the softmax, GELU and residual adds are host epilogues of the
matvec programs beside them (:func:`repro.workloads.with_epilogue`), so
they go wherever their matvec goes.  Three stock policies:

* ``upmem``   — matvec ops on the PIM target, everything else on host;
* ``cpu``     — the whole graph on the host roofline (the paper's CPU
  baseline for a full decode step);
* ``mixed``   — attention matvecs (tagged ``attn``) on PIM, FC-layer
  matvecs (tagged ``ffn``) on host: the hybrid the end-to-end
  experiment compares.  A host node prices a fused program once, as
  TVM's fusion of injective ops into their producer would.

Slices and reshapes are no nodes but graph views
(:meth:`~repro.graph.ir.ModelGraph.add_view`): nothing places them, and
they sit on the host under every policy.

A node's explicit ``target`` override always wins; the pass validates
that an override (or a policy choice) can actually compile the node —
a workload forced onto a backend without a sketch for it is a
:class:`~repro.graph.ir.GraphError` at placement time, not a confusing
compile failure later.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from ..autotune.sketch import FAMILIES
from ..target import Target, get_target
from .ir import GraphError, ModelGraph, Node

__all__ = ["PIM_OP_NAMES", "PLACEMENT_POLICIES", "place", "is_pim_capable"]

#: The ops the ``upmem`` policy sends to the PIM target: the sketch
#: families that reduce under distributed spatial axes (the matrix-vector
#: family).  Element-wise ``va``/``geva`` are sketchable too but stay
#: host-side under every policy; override per node to push one onto the
#: device.
PIM_OP_NAMES = frozenset(name for name, row in FAMILIES.items() if row.rfactor)

#: Named after where the matvecs go: all on the PIM side, all on the
#: host, or attention on PIM and the FC layers on the host.
PLACEMENT_POLICIES = ("upmem", "cpu", "mixed")


def is_pim_capable(node: Node, pim_target: Target) -> bool:
    """Whether ``pim_target`` can compile the node's workload (a
    workload without a PIM sketch stays on a functional host backend)."""
    return pim_target.supports(node.workload)


def place(
    graph: ModelGraph,
    policy: str = "upmem",
    pim: Union[str, Target] = "upmem",
    host: Union[str, Target] = "cpu",
) -> Dict[str, Target]:
    """Assign a Target to every node; returns ``{node name: Target}``.

    ``pim``/``host`` are resolved once, so every assigned node shares
    one Target instance per side (one pool identity, one config).
    """
    if policy not in PLACEMENT_POLICIES:
        raise GraphError(
            f"unknown placement policy {policy!r};"
            f" choose from {PLACEMENT_POLICIES}"
        )
    graph.validate()
    pim_target = get_target(pim)
    host_target = get_target(host)
    placement: Dict[str, Target] = {}
    for node in graph.nodes:
        placement[node.name] = _place_node(
            node, policy, pim_target, host_target
        )
    return placement


def _place_node(
    node: Node, policy: str, pim_target: Target, host_target: Target
) -> Target:
    if node.target is not None:
        target = get_target(node.target)
        _check_capable(node, target)
        return target
    wants_pim = (
        node.workload.name in PIM_OP_NAMES
        and (policy == "upmem" or (policy == "mixed" and "attn" in node.tags))
    )
    if wants_pim and is_pim_capable(node, pim_target):
        return pim_target
    _check_capable(node, host_target)
    return host_target


def _check_capable(node: Node, target: Target) -> None:
    if not target.supports(node.workload):
        raise GraphError(
            f"node {node.name!r} ({node.workload.name}) cannot compile"
            f" for target {target.kind!r}"
        )

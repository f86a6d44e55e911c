"""Placement: assign every graph node a Target.

The policy mirrors the paper's system split — the matrix-vector family
(MTV/GEMV/MMTV/TTV, the ops PIM wins on) compiles for the PIM target,
anything else stays on the host.  The GPT-J builder emits no element-wise
glue node: the softmax and residual adds are host epilogues of the
matvec programs before them (:func:`repro.workloads.with_epilogue`) and
GELU a host prologue of the one after it
(:func:`repro.workloads.with_prologue`), so they go wherever their
matvec goes.  Three stock policies:

* ``upmem``   — matvec ops on the PIM target, everything else on host;
* ``cpu``     — the whole graph on the host roofline (the paper's CPU
  baseline for a full decode step);
* ``mixed``   — attention matvecs (tagged ``attn``) on PIM, FC-layer
  matvecs (tagged ``ffn``) on host: the hybrid the end-to-end
  experiment compares.  The GPT-J builder emits no ``ffn`` node any
  more: the fused ``qkv_fc`` program makes Q/K/V and the fused ``proj``
  program reads the attention output, so both are tagged ``attn`` and
  their FC rows run on PIM with them — ``mixed`` places a GPT-J step
  exactly as ``upmem`` does (on ``GPTJ_SIM`` its 3-layer step fell from
  1 174 to 1 098 µs when ``fc_proj``, GELU and the second residual add
  left the host; on ``CLUSTER_SIM``, whose host FC projection was the
  cheaper one, it rose from 800 to 841 µs).  A host node prices a
  fused program once, as TVM's fusion of injective ops into their
  producer would.

Slices and reshapes are no nodes but graph views
(:meth:`~repro.graph.ir.ModelGraph.add_view`), and neither is a concat
(:meth:`~repro.graph.ir.ModelGraph.add_concat`): nothing places them,
and they sit on the host under every policy.

The pass is the one way a node gets a backend: the PIM side is the
``upmem`` target and the host side the ``cpu`` roofline.  It validates
that the host can compile every node it keeps — a workload without a
host reference is a :class:`~repro.graph.ir.GraphError` at placement
time, not a confusing compile failure later.
"""

from __future__ import annotations

from typing import Dict

from ..autotune.sketch import FAMILIES
from ..target import Target, get_target
from .ir import GraphError, ModelGraph, Node

__all__ = ["PIM_OP_NAMES", "PLACEMENT_POLICIES", "place"]

#: The ops the ``upmem`` policy sends to the PIM target: the sketch
#: families that reduce under distributed spatial axes (the matrix-vector
#: family).  Element-wise ``va``/``geva`` are sketchable too but stay
#: host-side under every policy.
PIM_OP_NAMES = frozenset(name for name, row in FAMILIES.items() if row.rfactor)

#: Named after where the matvecs go: all on the PIM side, all on the
#: host, or attention on PIM and the FC layers on the host.
PLACEMENT_POLICIES = ("upmem", "cpu", "mixed")


def place(graph: ModelGraph, policy: str = "upmem") -> Dict[str, Target]:
    """Assign a Target to every node; returns ``{node name: Target}``.

    Both sides are resolved once, so every assigned node shares one
    Target instance per side (one pool identity, one config).
    """
    if policy not in PLACEMENT_POLICIES:
        raise GraphError(
            f"unknown placement policy {policy!r};"
            f" choose from {PLACEMENT_POLICIES}"
        )
    graph.validate()
    pim_target = get_target("upmem")
    host_target = get_target("cpu")
    placement: Dict[str, Target] = {}
    for node in graph.nodes:
        placement[node.name] = _place_node(
            node, policy, pim_target, host_target
        )
    return placement


def _place_node(
    node: Node, policy: str, pim_target: Target, host_target: Target
) -> Target:
    wants_pim = (
        node.workload.name in PIM_OP_NAMES
        and (policy == "upmem" or (policy == "mixed" and "attn" in node.tags))
    )
    if wants_pim and pim_target.supports(node.workload):
        return pim_target
    if not host_target.supports(node.workload):
        raise GraphError(
            f"node {node.name!r} ({node.workload.name}) cannot compile"
            f" for target {host_target.kind!r}"
        )
    return host_target

"""``repro.graph`` — end-to-end model graphs over the compile stack.

The layer above per-kernel compilation: a :class:`ModelGraph` is a DAG
of workloads over named tensors (element-wise glue is a host epilogue
or prologue of the program beside it, slices and reshapes are views of
their base and a concat is one host copy of its parts, not nodes).  A
graph compiles for one target (:func:`place` resolves it and checks
that it supports every node).  A linear-scan memory planner reuses dead
intermediate buffers, and a :class:`GraphExecutable` compiles every
node through the serving :class:`~repro.serve.pool.ExecutablePool` and
runs whole decode steps bit-for-bit equal to per-op execution, with an
end-to-end latency model that pays host<->DPU transfers only where the
host reads or makes a tensor and weight staging once per load.  A graph
is not a workload: ``repro.compile`` refuses one, :func:`compile_graph`
is the way in.

Quick tour::

    from repro.graph import ATTN_MASK, compile_graph, gptj_model_graph, plan_memory

    graph = gptj_model_graph(layers=1, capacity=16)
    exe = compile_graph(graph)                   # target="upmem"
    inputs = graph.random_inputs(seed=0)
    inputs[ATTN_MASK][:] = 0.0                   # every cache position valid
    outs = exe.run_tensors(inputs)               # {output name: array}
    for cost in exe.profile().nodes:
        print(cost.node, cost.target, cost.total_s)
    print(plan_memory(graph).reuse_ratio)
"""

from .builder import (
    ATTN_MASK,
    GPTJ_SIM,
    LayerIO,
    gptj_layer_io,
    gptj_layer_nbytes,
    gptj_model_graph,
    small_grid_params,
)
from .executable import (
    GraphExecutable,
    GraphProfile,
    NodeCost,
    compile_graph,
    place,
)
from .ir import GraphError, ModelGraph, Node
from .memory import MemoryPlan, SlotAssignment, arena_stats, plan_memory

__all__ = [
    "GraphError",
    "ModelGraph",
    "Node",
    "GraphExecutable",
    "GraphProfile",
    "NodeCost",
    "compile_graph",
    "MemoryPlan",
    "SlotAssignment",
    "arena_stats",
    "plan_memory",
    "place",
    "GPTJ_SIM",
    "ATTN_MASK",
    "LayerIO",
    "gptj_layer_io",
    "gptj_layer_nbytes",
    "gptj_model_graph",
    "small_grid_params",
]

"""GraphExecutable: a compiled model graph with an end-to-end cost model.

A graph compiles for one target: :func:`place` resolves it and checks
that it supports every node.  Every node compiles through the serving
layer's :class:`~repro.serve.pool.ExecutablePool` (so nodes that share
one program, such as every layer's ``qkv_fc``, compile it once) with the
node's own ``params`` — the builder's pinned grids, or tuned ones
assigned per node.  A :class:`GraphExecutable` is many programs, not one
:class:`~repro.target.Executable`: it runs named tensors
(:meth:`GraphExecutable.run_tensors`) and prices a whole step
(:meth:`GraphExecutable.profile`).  Execution walks the graph's
topological order, one ``Executable.run`` per node — a view is no node:
it is bound as a NumPy view of its base once the base exists, at no
cost, and copied out only when it is a graph output; nor is a concat:
it is bound by one host copy of its parts once the last one exists —
and is bit-for-bit identical to calling each node's ``Executable.run``
by hand at any ``REPRO_MAX_WORKERS``.

Every node is priced from its own executable's profile, in one loop.
A node with a lowered module (``upmem``, ``prim``, ``simplepim``) has
four lines, as the host program around an ATiM kernel moves its tensors
(§5.2.2, §5.4):

* **compute** is launch + kernel + host (the rfactor fold, a host
  epilogue or prologue);
* **H2D** is the module's H2D share of the on-DPU input bytes that are
  not staged: every input the kernel reads that is not a resident
  constant, plus the product of the module's host prologue.  An input
  only the module's host statements read (a softmax mask, a residual
  operand, a prologue's operand) is no share of it;
* **D2H** is the module's whole D2H: every output leaves the device;
* **weight staging** (the constant-input share — weights, the KV
  cache) is charged once per pool load, not per run: the paper's
  "constant tensors ... transferred once before kernel launches".

A roofline node (``cpu``) models its memory traffic inside its compute
number, so it has that line only.  A view or a concat is no node and
has no line: it is host-side, as every node's output and input is.

The aggregate is additive over the deterministic topological order — a
serial device schedule, matching how the server occupies one simulated
machine per flush.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs import current_tracer
from ..serve.pool import ExecutablePool
from ..target import Executable, Target, UpmemExecutable, get_target
from ..upmem.system import Latency
from .ir import Concat, GraphError, ModelGraph, Node, View

__all__ = [
    "NodeCost",
    "GraphProfile",
    "GraphExecutable",
    "compile_graph",
    "place",
    "pool_keys",
]


@dataclass(frozen=True)
class NodeCost:
    """One node's share of the end-to-end latency (seconds)."""

    node: str
    op: str
    target: str
    compute_s: float
    h2d_s: float
    d2h_s: float
    staging_s: float

    @property
    def total_s(self) -> float:
        """Recurring per-run cost (staging is paid once per load)."""
        return self.compute_s + self.h2d_s + self.d2h_s

    def to_dict(self) -> Dict:
        return {
            "node": self.node,
            "op": self.op,
            "target": self.target,
            "compute_ms": self.compute_s * 1e3,
            "h2d_ms": self.h2d_s * 1e3,
            "d2h_ms": self.d2h_s * 1e3,
            "staging_ms": self.staging_s * 1e3,
            "total_ms": self.total_s * 1e3,
        }


@dataclass
class GraphProfile:
    """End-to-end breakdown: per-node costs plus the aggregate."""

    nodes: List[NodeCost] = field(default_factory=list)
    #: Aggregate breakdown; ``h2d`` includes the one-time staging share
    #: so ``latency.total`` is the first-run end-to-end time (the serve
    #: model splits the constant share back out via the graph's
    #: ``const_inputs`` fraction).
    latency: Latency = field(default_factory=Latency)
    #: One-time constant-input staging total (weights, KV cache).
    staging_s: float = 0.0

    @property
    def total(self) -> float:
        return self.latency.total

    @property
    def steady_state_s(self) -> float:
        """Per-run latency once weights are staged."""
        return self.latency.total - self.staging_s


def _check_graph(graph: ModelGraph) -> None:
    if not isinstance(graph, ModelGraph):
        raise TypeError(
            f"a graph compiles from a ModelGraph, not {type(graph).__name__}"
        )
    graph.validate()


def place(graph: ModelGraph, target: Union[str, Target] = "upmem") -> Target:
    """The one :class:`~repro.target.Target` ``graph`` compiles for:
    ``target`` — a kind string or a configured instance, as
    ``repro.compile`` takes — resolved once, after checking that it
    supports every node.  A node it cannot compile is a
    :class:`~repro.graph.ir.GraphError` naming that node here, before
    any program loads, not a confusing compile failure later."""
    _check_graph(graph)
    resolved = get_target(target)
    for node in graph.nodes:
        if not resolved.supports(node.workload):
            raise GraphError(
                f"node {node.name!r} ({node.workload.name}) cannot compile"
                f" for target {resolved.kind!r}"
            )
    return resolved


def pool_keys(graph: ModelGraph, target: Target) -> set:
    """Residency keys of every (workload, target, params) program the
    graph binds — what a long-lived loop pins in the pool, and can pin
    *before* compiling."""
    return {
        ExecutablePool.key_for(node.workload, target, node.params)
        for node in graph.nodes
    }


class GraphExecutable:
    """A model graph compiled node-by-node for one target, the
    :class:`~repro.target.Target` :func:`place` resolved and checked."""

    def __init__(
        self, graph: ModelGraph, target: Target, pool: ExecutablePool
    ) -> None:
        _check_graph(graph)
        if not isinstance(target, Target):
            raise TypeError(
                f"a GraphExecutable takes the Target place() resolves, not"
                f" {type(target).__name__}"
            )
        self.graph = graph
        self.target = target
        self._order = graph.topological_order()
        #: node name -> (Executable, freshly loaded by this compile).
        self._exes: Dict[str, Tuple[Executable, bool]] = {}
        for node in self._order:
            self._exes[node.name] = pool.get(
                node.workload, target, node.params
            )
        #: Per node in topological order, its executable, its
        #: ``(workload input, graph tensor)`` pairs and the views and
        #: concats bound after it: the wiring is the graph's, a run only
        #: looks the tensors up.  ``_input_aliases`` are those over
        #: inputs only.
        schedule = graph.view_schedule(self._order)
        self._input_aliases = schedule[0]
        self._steps: List[
            Tuple[
                Node, Executable, List[Tuple[str, str]],
                List[Union[View, Concat]],
            ]
        ] = [
            (
                node,
                self._exes[node.name][0],
                [(wl, name) for wl, name, _ in node.input_bindings()],
                views,
            )
            for node, views in zip(self._order, schedule[1:])
        ]
        self._profile: Optional[GraphProfile] = None

    # -- introspection -------------------------------------------------------
    @property
    def loaded_program_count(self) -> int:
        """Programs this compile actually loaded (pool misses) rather
        than found resident.  A decode loop watches this to prove
        structure sharing: the first capacity epoch loads everything,
        later epochs load only the two capacity-dependent attention
        programs (the score MMTV with its softmax epilogue, the value
        MMTV), and steps inside an epoch build no executable at all."""
        return sum(1 for _, loaded in self._exes.values() if loaded)

    # -- execution -----------------------------------------------------------
    def run_tensors(
        self, inputs: Dict[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Execute the DAG on ``{input name: array}``; returns
        ``{output name: array}`` in the graph's output order.  An output
        that is a view is copied out of its base, so what a caller keeps
        (a layer's new K/V rows) does not hold the whole base alive —
        the buffers :func:`~repro.graph.memory.plan_memory` plans."""
        missing = [n for n in self.graph.input_names if n not in inputs]
        if missing:
            raise KeyError(
                f"graph {self.graph.name!r} missing inputs {missing}"
            )
        env: Dict[str, np.ndarray] = dict(inputs)
        for alias in self._input_aliases:
            env[alias.name] = alias.bind(env)
        for node, exe, pairs, aliases in self._steps:
            (env[node.output],) = exe.run(
                {wl_name: env[graph_name] for wl_name, graph_name in pairs}
            )
            for alias in aliases:
                env[alias.name] = alias.bind(env)
        views = self.graph.views
        return {
            name: env[name].copy() if name in views else env[name]
            for name in self.graph.output_names
        }

    # -- performance ---------------------------------------------------------
    def profile(self) -> GraphProfile:
        if self._profile is None:
            self._profile = self._build_profile()
        return self._profile

    def trace(self, name: Optional[str] = None) -> None:
        """Replay the profiled cost breakdown into the ambient tracer as
        spans on the "graph" track.

        One wrapping span for the whole graph (``name``, by default
        "graph <graph name>"), one child span per node in topological
        order, with staging / H2D / compute / D2H sub-spans — the
        virtual-clock timeline of a single run.  Spans are emitted from
        the calling thread in deterministic topological order (never
        from inside node execution), so traced output does not depend on
        host threads.  A no-op when tracing is disabled.
        """
        tracer = current_tracer()
        if not tracer.enabled:
            return
        profile = self.profile()
        with tracer.span(
            name or f"graph {self.graph.name}",
            track="graph",
            cat="graph",
            args={
                "nodes": len(profile.nodes),
                "total_ms": profile.total * 1e3,
                "staging_ms": profile.staging_s * 1e3,
            },
        ):
            for cost in profile.nodes:
                with tracer.span(
                    cost.node,
                    track="graph",
                    cat="graph",
                    args={"op": cost.op, "target": cost.target},
                ):
                    for line, dur_s in (
                        ("staging", cost.staging_s), ("h2d", cost.h2d_s),
                        ("compute", cost.compute_s), ("d2h", cost.d2h_s),
                    ):
                        if dur_s > 0 or line == "compute":
                            tracer.timed_span(
                                line, track="graph", cat="graph", dur_s=dur_s
                            )

    def _build_profile(self) -> GraphProfile:
        costs: List[NodeCost] = []
        agg = dict(h2d=0.0, kernel=0.0, d2h=0.0, host=0.0, launch=0.0)
        staging_total = 0.0
        # Staging is charged once per distinct const graph tensor (heads
        # share one compiled program but stage separate KV caches).  A
        # graph compiled entirely from a warm pool staged nothing: its
        # weights are already device-resident.
        fresh = any(loaded for _, loaded in self._exes.values())
        staged_tensors: set = set()
        for node in self._order:
            exe = self._exes[node.name][0]
            lat = exe.profile().latency
            # A roofline has no module and moves no byte over a bus.
            unstaged, total_in, const_tensors = (
                self._input_bytes(node, exe.lowered)
                if isinstance(exe, UpmemExecutable) else (0, 0, [])
            )
            # ``total_in`` counts const bytes lat.h2d omits (ROADMAP item 5).
            per_byte = lat.h2d / total_in if total_in else 0.0
            h2d = unstaged * per_byte
            staging = 0.0
            if fresh:
                for graph_name, nbytes in const_tensors:
                    if graph_name not in staged_tensors:
                        staged_tensors.add(graph_name)
                        staging += nbytes * per_byte
            costs.append(NodeCost(
                node=node.name,
                op=node.workload.name,
                target=self.target.kind,
                compute_s=lat.launch + lat.kernel + lat.host,
                h2d_s=h2d,
                d2h_s=lat.d2h,
                staging_s=staging,
            ))
            agg["kernel"] += lat.kernel
            agg["launch"] += lat.launch
            agg["host"] += lat.host
            agg["h2d"] += h2d + staging
            agg["d2h"] += lat.d2h
            staging_total += staging
        return GraphProfile(
            nodes=costs, latency=Latency(**agg), staging_s=staging_total
        )

    def _input_bytes(self, node: Node, module) -> Tuple[int, int, list]:
        """Input-byte breakdown of one node's module: (on-DPU bytes not
        staged, all on-DPU bytes, [(const graph tensor, nbytes), ...]).
        An input only the module's host statements read (a softmax mask,
        a residual operand, the operand of a host prologue) is no share
        of the H2D the module prices; a buffer its ``host_pre``
        statements make (a prologue's product) is, every run.

        A tensor is staged-once only when *both* sides agree it is
        resident: the workload keeps that input slot on the device
        (``workload.const_inputs``) *and* the graph declares the tensor
        constant (``add_input(const=True)``).  A dynamic graph input or
        an intermediate bound to a const slot carries fresh data every
        run — that is recurring H2D, not staging.
        """
        unstaged = total = 0
        const_tensors: List[Tuple[str, int]] = []
        const_names = node.workload.const_inputs or frozenset()
        graph_const = self.graph.const_inputs
        h2d = [spec.global_buffer for spec in module.transfer("h2d")]
        for buffer in h2d:
            if buffer not in module.inputs:  # a host_pre product
                unstaged += buffer.nbytes
                total += buffer.nbytes
        on_dpus = {buffer.name for buffer in h2d}
        for wl_name, graph_name, _ in node.input_bindings():
            if wl_name not in on_dpus:
                continue
            nbytes = self.graph.tensor_nbytes(graph_name)
            total += nbytes
            if wl_name in const_names and graph_name in graph_const:
                const_tensors.append((graph_name, nbytes))
            else:
                unstaged += nbytes
        return unstaged, total, const_tensors


def compile_graph(
    graph: ModelGraph, target: Union[str, Target] = "upmem"
) -> GraphExecutable:
    """Compile a model graph for one target: :func:`place` it, then
    compile each node through a fresh
    :class:`~repro.serve.pool.ExecutablePool` large enough to hold them
    all.  A long-lived loop that shares one pool across graphs (the
    decode engine) builds :class:`GraphExecutable` itself."""
    resolved = place(graph, target)
    pool = ExecutablePool(capacity=max(8, len(graph.nodes)))
    return GraphExecutable(graph, resolved, pool)

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

On a host target (the ``cpu`` roofline) a node's line is its whole
profile: the roofline models its memory traffic inside the compute
number, and nothing crosses a bus.  On the PIM target the latency model
mirrors the serving timing model (§5.4), extended with the host/device
boundary:

* **compute** (launch + kernel + host reduce) is charged per node from
  the node's own target profile;
* **dynamic H2D** is charged only for inputs *crossing* onto the device
  — produced on the host (by a program whose module ends in host
  statements: an rfactor fold, a host epilogue), arriving as a
  non-constant external input, or read through a view or a concat, or
  made by the module's own host prologue; a kernel's output hands off
  in MRAM for free, and an input only the module's host statements
  read (a softmax mask, a residual operand, a prologue's operand) never
  crosses;
* **D2H** is charged only when the node's output *leaves* the device
  (a view, a concat, or a graph output reads it) or is produced on the
  host, which always brings the kernel's result back;
* a **view** is a host-side alias with no cost line of its own: it
  prices as the host glue it replaces minus that glue's compute, so its
  base still pays the D2H and its readers the H2D; a **concat** is a
  host-side copy priced the same way: no line, the D2H of its parts'
  producers, the H2D of its readers;
* **weight staging** (the constant-input share of H2D — weights, the KV
  cache) is charged once per pool load, not per run: the paper's
  "constant tensors ... transferred once before kernel launches".

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
from ..target import Executable, Target, get_target
from ..upmem.system import Latency
from .ir import Concat, GraphError, ModelGraph, Node, View

__all__ = [
    "NodeCost",
    "GraphProfile",
    "GraphExecutable",
    "compile_graph",
    "place",
    "pool_keys",
    "PIM_KIND",
]

#: The PIM target kind: its executables run on the (simulated) PIM
#: machine, and data they produce stays device-resident until the host
#: reads it.  Every other kind a graph compiles for is a host roofline.
PIM_KIND = "upmem"


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
    #: Whether any input crossed host->device / the output device->host.
    crossing_in: bool
    crossing_out: bool

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
            "crossing_in": self.crossing_in,
            "crossing_out": self.crossing_out,
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


def place(graph: ModelGraph, target: Union[str, Target] = "upmem") -> Target:
    """The one :class:`~repro.target.Target` ``graph`` compiles for:
    ``target`` — a kind string or a configured instance, as
    ``repro.compile`` takes — resolved once, after checking that it
    supports every node.  A node it cannot compile is a
    :class:`~repro.graph.ir.GraphError` naming that node here, before
    any program loads, not a confusing compile failure later."""
    if not isinstance(graph, ModelGraph):
        raise TypeError(
            f"a graph compiles from a ModelGraph, not {type(graph).__name__}"
        )
    graph.validate()
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
    """A model graph compiled node-by-node for one target."""

    def __init__(
        self, graph: ModelGraph, target: Target, pool: ExecutablePool
    ) -> None:
        graph.validate()
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
        self._plan = None

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

    @property
    def memory_plan(self):
        """Linear-scan intermediate-buffer plan (computed lazily)."""
        if self._plan is None:
            from .memory import plan_memory

            self._plan = plan_memory(self.graph)
        return self._plan

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
                    if cost.staging_s > 0:
                        tracer.timed_span(
                            "staging", track="graph", cat="graph",
                            dur_s=cost.staging_s,
                        )
                    if cost.h2d_s > 0:
                        tracer.timed_span(
                            "h2d", track="graph", cat="graph", dur_s=cost.h2d_s
                        )
                    tracer.timed_span(
                        "compute", track="graph", cat="graph",
                        dur_s=cost.compute_s,
                    )
                    if cost.d2h_s > 0:
                        tracer.timed_span(
                            "d2h", track="graph", cat="graph", dur_s=cost.d2h_s
                        )

    def _build_profile(self) -> GraphProfile:
        costs: List[NodeCost] = []
        agg = dict(h2d=0.0, kernel=0.0, d2h=0.0, host=0.0, launch=0.0)
        kind = self.target.kind
        if kind != PIM_KIND:
            # Host backends (rooflines) model their memory traffic
            # inside the compute number: nothing crosses a bus.
            for node in self._order:
                lat = self._exes[node.name][0].profile().latency
                costs.append(NodeCost(
                    node=node.name,
                    op=node.workload.name,
                    target=kind,
                    compute_s=lat.total,
                    h2d_s=0.0,
                    d2h_s=0.0,
                    staging_s=0.0,
                    crossing_in=False,
                    crossing_out=False,
                ))
                agg["kernel"] += lat.kernel
                agg["launch"] += lat.launch
                agg["host"] += lat.host + lat.h2d + lat.d2h
            return GraphProfile(nodes=costs, latency=Latency(**agg))
        graph_outputs = set(self.graph.output_names)
        # Node outputs a view or a concat reads on the host.
        viewed = {view.base for view in self.graph.views.values()}
        viewed.update(
            part for concat in self.graph.concats.values()
            for part in concat.parts
        )
        staging_total = 0.0
        # Staging is charged once per distinct const graph tensor (heads
        # share one compiled program but stage separate KV caches).  A
        # graph compiled entirely from a warm pool staged nothing: its
        # weights are already device-resident.
        fresh = any(loaded for _, loaded in self._exes.values())
        staged_tensors: set = set()
        for node in self._order:
            lat = self._exes[node.name][0].profile().latency
            crossing, const_bytes, total_in, const_tensors = (
                self._input_bytes(node)
            )
            per_byte = lat.h2d / total_in if total_in else 0.0
            h2d = crossing * per_byte
            staging = 0.0
            if fresh:
                for graph_name, nbytes in const_tensors:
                    if graph_name not in staged_tensors:
                        staged_tensors.add(graph_name)
                        staging += nbytes * per_byte
            leaves = (
                node.output in graph_outputs
                or node.output in viewed
                or self._made_on_host(node)
            )
            d2h = lat.d2h if leaves else 0.0
            costs.append(NodeCost(
                node=node.name,
                op=node.workload.name,
                target=kind,
                compute_s=lat.launch + lat.kernel + lat.host,
                h2d_s=h2d,
                d2h_s=d2h,
                staging_s=staging,
                crossing_in=crossing > 0,
                crossing_out=leaves,
            ))
            agg["kernel"] += lat.kernel
            agg["launch"] += lat.launch
            agg["host"] += lat.host
            agg["h2d"] += h2d + staging
            agg["d2h"] += d2h
            staging_total += staging
        return GraphProfile(
            nodes=costs, latency=Latency(**agg), staging_s=staging_total
        )

    def _made_on_host(self, node: Node) -> bool:
        """Whether ``node``'s output is produced on the host: by a
        module that ends in host statements (an rfactor fold, a host
        epilogue) — its D2H is paid whoever reads it, and a reader pays
        the H2D."""
        return bool(self._exes[node.name][0].lowered.host_post)

    def _input_bytes(self, node: Node):
        """Input-byte breakdown of one node on the PIM target: (bytes crossing
        host->device, const bytes, total input bytes, [(const graph
        tensor, nbytes), ...]).  An input only the module's host
        statements read (a softmax mask, a residual operand, the operand
        of a host prologue) never crosses, and is no share of the H2D
        the module prices; what crosses in its place is a buffer the
        module's ``host_pre`` statements make (a prologue's product),
        on the host every run.

        A tensor is staged-once only when *both* sides agree it is
        resident: the workload keeps that input slot on the device
        (``workload.const_inputs``) *and* the graph declares the tensor
        constant (``add_input(const=True)``).  A dynamic graph input
        bound to a const slot carries fresh data every run — that is
        recurring H2D, not staging — and an intermediate bound to a
        const slot follows the ordinary producer rules.
        """
        crossing = const_bytes = total = 0
        const_tensors: List[Tuple[str, int]] = []
        const_names = node.workload.const_inputs or frozenset()
        graph_const = self.graph.const_inputs
        module = self._exes[node.name][0].lowered
        h2d = [spec.global_buffer for spec in module.transfer("h2d")]
        for buffer in h2d:
            if buffer not in module.inputs:  # a host_pre product
                crossing += buffer.nbytes
                total += buffer.nbytes
        on_dpus = {buffer.name for buffer in h2d}
        for wl_name, graph_name, _ in node.input_bindings():
            if wl_name not in on_dpus:
                continue
            nbytes = self.graph.tensor_nbytes(graph_name)
            total += nbytes
            if wl_name in const_names and graph_name in graph_const:
                const_bytes += nbytes
                const_tensors.append((graph_name, nbytes))
                continue
            producer = self.graph.producer(graph_name)
            # None: a dynamic external input or a view, on the host.
            if producer is None or self._made_on_host(producer):
                crossing += nbytes
        return crossing, const_bytes, total, const_tensors


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

"""GraphExecutable: a compiled model graph with an end-to-end cost model.

Every node compiles through the serving layer's
:class:`~repro.serve.pool.ExecutablePool` (so nodes that share one
program, such as every layer's ``fc``, compile it once) with the node's
own ``params`` — the builder's pinned grids, or tuned ones assigned per
node.  Execution walks the graph's topological order, one
``Executable.run`` per node, and is bit-for-bit identical to calling
each node's ``Executable.run`` by hand at any ``REPRO_MAX_WORKERS``.

The latency model mirrors the serving timing model (§5.4), extended with
placement boundaries:

* **compute** (launch + kernel + host reduce) is charged per node from
  the node's own target profile;
* **dynamic H2D** is charged only for inputs *crossing* onto the device
  — produced by a host-placed node or arriving as a non-constant
  external input; a PIM-resident producer hands off in MRAM for free;
* **D2H** is charged only when the node's output *leaves* the device
  (a host-placed consumer, or a graph output);
* **weight staging** (the constant-input share of H2D — weights, the KV
  cache) is charged once per pool load, not per run: the paper's
  "constant tensors ... transferred once before kernel launches".

The aggregate is additive over the deterministic topological order — a
serial device schedule, matching how the server occupies one simulated
machine per flush.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs import current_tracer
from ..serve.pool import ExecutablePool
from ..target import Executable, Target, get_target
from ..upmem.system import Latency
from .ir import ModelGraph, Node
from .placement import place

__all__ = [
    "NodeCost",
    "GraphProfile",
    "GraphExecutable",
    "compile_graph",
    "pool_keys",
    "PIM_SUBSTRATE_KINDS",
]

#: Target kinds whose executables run on the (simulated) PIM machine —
#: data they produce stays device-resident until a host-placed consumer
#: or a graph output forces it back over the bus.
PIM_SUBSTRATE_KINDS = frozenset({"upmem", "prim", "simplepim"})


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


def pool_keys(graph: ModelGraph, placement: Dict[str, Target]) -> set:
    """Residency keys of every (workload, target, params) program a
    placed graph binds — what a long-lived loop pins in the pool, and
    can pin *before* compiling."""
    return {
        ExecutablePool.key_for(
            node.workload, placement[node.name], node.params
        )
        for node in graph.nodes
    }


class GraphExecutable(Executable):
    """A model graph compiled node-by-node for a placement."""

    def __init__(
        self,
        graph: ModelGraph,
        placement: Dict[str, Target],
        pool: ExecutablePool,
        target: Any = "upmem",
    ) -> None:
        super().__init__(get_target(target), workload=graph, params=None)
        graph.validate()
        missing = [n.name for n in graph.nodes if n.name not in placement]
        if missing:
            raise ValueError(f"placement misses nodes {missing}")
        self.graph = graph
        self.placement = placement
        self._order = graph.topological_order()
        #: node name -> (Executable, freshly loaded by this compile).
        self._exes: Dict[str, Tuple[Executable, bool]] = {}
        for node in self._order:
            exe, loaded = pool.get(
                node.workload, placement[node.name], node.params
            )
            self._exes[node.name] = (exe, loaded)
        #: Per node in topological order, its executable and its
        #: ``(workload input, graph tensor)`` pairs: the wiring is the
        #: graph's, a run only looks the tensors up.
        self._steps: List[Tuple[Node, Executable, List[Tuple[str, str]]]] = [
            (
                node,
                self._exes[node.name][0],
                [(wl, name) for wl, name, _ in node.input_bindings()],
            )
            for node in self._order
        ]
        self._profile: Optional[GraphProfile] = None
        self._plan = None

    # -- introspection -------------------------------------------------------
    @property
    def loaded_program_count(self) -> int:
        """Programs this compile actually loaded (pool misses) rather
        than found resident.  A decode loop watches this to prove
        structure sharing: the first capacity epoch loads everything,
        later epochs load only capacity-dependent attention programs,
        and steps inside an epoch build no executable at all."""
        return sum(1 for _, loaded in self._exes.values() if loaded)

    @property
    def memory_plan(self):
        """Linear-scan intermediate-buffer plan (computed lazily)."""
        if self._plan is None:
            from .memory import plan_memory

            self._plan = plan_memory(self.graph)
        return self._plan

    # -- execution -----------------------------------------------------------
    def run(
        self, inputs: Optional[Dict[str, np.ndarray]] = None, **named
    ) -> List[np.ndarray]:
        """Execute the DAG; returns the graph outputs in declaration
        order."""
        env = self.run_tensors(self._named_inputs(inputs, named))
        return [env[name] for name in self.graph.output_names]

    def run_tensors(
        self, inputs: Dict[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Like :meth:`run`, returning ``{output name: array}``."""
        missing = [n for n in self.graph.input_names if n not in inputs]
        if missing:
            raise KeyError(
                f"graph {self.graph.name!r} missing inputs {missing}"
            )
        env: Dict[str, np.ndarray] = dict(inputs)
        for node, exe, pairs in self._steps:
            (env[node.output],) = exe.run(
                {wl_name: env[graph_name] for wl_name, graph_name in pairs}
            )
        return {name: env[name] for name in self.graph.output_names}

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

    @property
    def latency(self) -> float:
        """First-run end-to-end seconds (includes weight staging; see
        :attr:`GraphProfile.steady_state_s` for the warmed number)."""
        return self.profile().total

    def _build_profile(self) -> GraphProfile:
        graph_outputs = set(self.graph.output_names)
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
            exe, loaded = self._exes[node.name]
            kind = self.placement[node.name].kind
            on_pim = kind in PIM_SUBSTRATE_KINDS
            lat = exe.profile().latency
            if not on_pim:
                # Host backends (rooflines) model their memory traffic
                # inside the compute number; boundary transfers are
                # charged on the PIM side of each edge.
                cost = NodeCost(
                    node=node.name,
                    op=node.workload.name,
                    target=kind,
                    compute_s=lat.total,
                    h2d_s=0.0,
                    d2h_s=0.0,
                    staging_s=0.0,
                    crossing_in=False,
                    crossing_out=False,
                )
                agg["kernel"] += lat.kernel
                agg["launch"] += lat.launch
                agg["host"] += lat.host + lat.h2d + lat.d2h
            else:
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
                leaves = node.output in graph_outputs or any(
                    self.placement[c.name].kind not in PIM_SUBSTRATE_KINDS
                    for c in self.graph.consumers(node.output)
                )
                d2h = lat.d2h if leaves else 0.0
                cost = NodeCost(
                    node=node.name,
                    op=node.workload.name,
                    target=kind,
                    compute_s=lat.launch + lat.kernel + lat.host,
                    h2d_s=h2d,
                    d2h_s=d2h,
                    staging_s=staging,
                    crossing_in=crossing > 0,
                    crossing_out=leaves,
                )
                agg["kernel"] += lat.kernel
                agg["launch"] += lat.launch
                agg["host"] += lat.host
                agg["h2d"] += h2d + staging
                agg["d2h"] += d2h
                staging_total += staging
            costs.append(cost)
        return GraphProfile(
            nodes=costs, latency=Latency(**agg), staging_s=staging_total
        )

    def _input_bytes(self, node: Node):
        """Input-byte breakdown of one PIM-placed node: (bytes crossing
        host->device, const bytes, total input bytes, [(const graph
        tensor, nbytes), ...]).

        A tensor is staged-once only when *both* sides agree it is
        resident: the workload keeps that input slot on the device
        (``workload.const_inputs``) *and* the graph declares the tensor
        constant (``add_input(const=True)``).  A dynamic graph input
        bound to a const slot carries fresh data every run — that is
        recurring H2D, not staging — and an intermediate bound to a
        const slot follows the ordinary producer-placement rules.
        """
        crossing = const_bytes = total = 0
        const_tensors: List[Tuple[str, int]] = []
        const_names = node.workload.const_inputs or frozenset()
        graph_const = self.graph.const_inputs
        for wl_name, graph_name, _ in node.input_bindings():
            nbytes = self.graph.tensor_nbytes(graph_name)
            total += nbytes
            if wl_name in const_names and graph_name in graph_const:
                const_bytes += nbytes
                const_tensors.append((graph_name, nbytes))
                continue
            producer = self.graph.producer(graph_name)
            if producer is None:
                # Dynamic external input: arrives from the host.
                crossing += nbytes
            elif (
                self.placement[producer.name].kind not in PIM_SUBSTRATE_KINDS
            ):
                crossing += nbytes
        return crossing, const_bytes, total, const_tensors


def compile_graph(
    graph: ModelGraph,
    target: Union[str, Target] = "upmem",
    placement: Optional[Dict[str, Target]] = None,
    policy: str = "default",
    pool: Optional[Any] = None,
    opt_level: str = "O3",
) -> GraphExecutable:
    """Compile a model graph: place every node, then compile each
    through an :class:`~repro.serve.pool.ExecutablePool`.

    ``target`` is the PIM side of the placement (``repro.compile``
    routes its ``target=`` and its other keywords here); pass an
    explicit ``placement`` dict to bypass the policy entirely.
    """
    if placement is None:
        placement = place(graph, policy=policy, pim=target)
    if pool is None:
        pool = ExecutablePool(
            capacity=max(8, len(graph.nodes)), opt_level=opt_level
        )
    return GraphExecutable(graph, placement, pool, target=target)

"""Model-graph IR: named tensors, operator nodes, deterministic order.

A :class:`ModelGraph` is a DAG of :class:`Node` operators over *named
graph tensors*.  Every tensor is either an external input (declared with
:meth:`ModelGraph.add_input`, optionally constant — weights, the KV
cache) or the output of exactly one node; a node binds each of its
workload's input tensors to a graph tensor by name.  Graphs validate
structurally (unique names, resolvable references, shape agreement,
acyclicity) and expose a *deterministic* topological order — ties break
on node insertion order, so two identically built graphs schedule, plan
memory and charge latency identically on any machine.

The graph is the unit the rest of the stack consumes: ``repro.compile``
turns one into a :class:`~repro.graph.executable.GraphExecutable`, the
serving pool keys requests by :meth:`ModelGraph.structural_signature`,
and the memory planner walks :meth:`topological_order`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import te
from ..pipeline import workload_signature
from ..target.base import Target
from ..workloads import Workload

__all__ = ["GraphError", "Node", "ModelGraph"]


def _target_identity(target: Any):
    """Signature-stable identity of a per-node target override: the full
    compile-relevant identity for Target instances, the kind string as
    written otherwise."""
    if isinstance(target, Target):
        return target.identity()
    return None if target is None else str(target)


class GraphError(ValueError):
    """A model graph is structurally invalid."""


@dataclass
class Node:
    """One operator: a workload plus its graph-tensor wiring.

    ``inputs`` maps the *workload's* input tensor names (``"A"``,
    ``"B"``, ...) to graph tensor names; ``output`` names the graph
    tensor this node defines.  ``target`` (assigned on a built graph:
    ``graph.nodes[i].target = "upmem"``) pins the node to a backend,
    overriding whatever the placement pass would choose;
    ``params`` carries explicit schedule parameters for compiling
    targets (serving-grade graphs pin small grids — the canonical
    max-parallelism defaults cost seconds of simulator host time per
    run).  ``tags`` label the node for placement policies (``"glue"``,
    ``"attn"``, ``"ffn"``, ...).
    """

    name: str
    workload: Workload
    inputs: Dict[str, str]
    output: str
    target: Optional[Any] = None
    params: Optional[Dict[str, int]] = None
    tags: frozenset = frozenset()

    def input_bindings(self) -> List[Tuple[str, str, Tuple[int, ...]]]:
        """(workload input name, graph tensor name, expected shape) in
        the workload's declared input order."""
        out = []
        for tensor in self.workload.inputs:
            try:
                graph_name = self.inputs[tensor.name]
            except KeyError:
                raise GraphError(
                    f"node {self.name!r} does not bind workload input"
                    f" {tensor.name!r} (binds {sorted(self.inputs)})"
                ) from None
            out.append((tensor.name, graph_name, tuple(tensor.shape)))
        return out


class ModelGraph:
    """A validated DAG of workloads over named tensors."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        #: External inputs as TE placeholders (name -> Tensor); the
        #: placeholder carries shape/dtype/nbytes, so the graph presents
        #: the same ``inputs`` surface as a :class:`Workload` (the serve
        #: timing model reads ``t.buffer.nbytes`` off it).
        self._inputs: "Dict[str, te.Tensor]" = {}
        self._const: set = set()
        self.nodes: List[Node] = []
        self._producers: Dict[str, Node] = {}

    # -- construction -------------------------------------------------------
    def add_input(
        self,
        name: str,
        shape: Sequence[int],
        dtype: str = "float32",
        const: bool = False,
    ) -> str:
        """Declare an external input tensor.  ``const`` marks weights /
        KV-cache tensors that stay resident on the device across runs
        (staged once per load, like :attr:`Workload.const_inputs`)."""
        if name in self._inputs or name in self._producers:
            raise GraphError(f"tensor {name!r} is already defined")
        self._inputs[name] = te.placeholder(tuple(shape), dtype, name)
        if const:
            self._const.add(name)
        return name

    def add_node(
        self,
        name: str,
        workload: Workload,
        inputs: Dict[str, str],
        output: str,
        params: Optional[Dict[str, int]] = None,
        tags: Sequence[str] = (),
    ) -> Node:
        """Append an operator node.  Forward references to tensors that
        a later node defines are allowed; :meth:`validate` settles them."""
        if any(node.name == name for node in self.nodes):
            raise GraphError(f"node {name!r} is already defined")
        if output in self._inputs or output in self._producers:
            raise GraphError(f"tensor {output!r} is already defined")
        node = Node(
            name=name,
            workload=workload,
            inputs=dict(inputs),
            output=output,
            params=dict(params) if params else None,
            tags=frozenset(tags),
        )
        self.nodes.append(node)
        self._producers[output] = node
        return node

    # -- tensors ------------------------------------------------------------
    @property
    def inputs(self) -> List[te.Tensor]:
        """External input placeholders, in declaration order."""
        return list(self._inputs.values())

    @property
    def const_inputs(self) -> frozenset:
        """Names of external inputs resident across runs (weights, KV)."""
        return frozenset(self._const)

    @property
    def input_names(self) -> List[str]:
        return list(self._inputs)

    @property
    def output_names(self) -> List[str]:
        """Graph outputs: node-defined tensors no node consumes, in
        producing-node order."""
        consumed = {g for node in self.nodes for g in node.inputs.values()}
        return [
            node.output for node in self.nodes if node.output not in consumed
        ]

    def tensor_shape(self, name: str) -> Tuple[int, ...]:
        if name in self._inputs:
            return tuple(self._inputs[name].shape)
        try:
            return tuple(self._producers[name].workload.output.shape)
        except KeyError:
            raise GraphError(f"unknown tensor {name!r}") from None

    def tensor_nbytes(self, name: str) -> int:
        if name in self._inputs:
            return self._inputs[name].buffer.nbytes
        try:
            return self._producers[name].workload.output.buffer.nbytes
        except KeyError:
            raise GraphError(f"unknown tensor {name!r}") from None

    def producer(self, name: str) -> Optional[Node]:
        """The node defining ``name`` (None for external inputs)."""
        return self._producers.get(name)

    def consumers(self, name: str) -> List[Node]:
        """Nodes reading ``name``, in insertion order."""
        return [n for n in self.nodes if name in n.inputs.values()]

    # -- validation / ordering ----------------------------------------------
    def validate(self) -> None:
        """Check structure: every reference resolves, shapes agree, the
        graph is acyclic, and there is at least one output."""
        if not self.nodes:
            raise GraphError(f"graph {self.name!r} has no nodes")
        for node in self.nodes:
            for wl_name, graph_name, shape in node.input_bindings():
                if (
                    graph_name not in self._inputs
                    and graph_name not in self._producers
                ):
                    raise GraphError(
                        f"node {node.name!r} reads undefined tensor"
                        f" {graph_name!r}"
                    )
                got = self.tensor_shape(graph_name)
                if got != shape:
                    raise GraphError(
                        f"node {node.name!r} input {wl_name!r} expects"
                        f" shape {shape}, but tensor {graph_name!r} has"
                        f" shape {got}"
                    )
            extra = set(node.inputs) - {
                t.name for t in node.workload.inputs
            }
            if extra:
                raise GraphError(
                    f"node {node.name!r} binds unknown workload inputs"
                    f" {sorted(extra)}"
                )
        self.topological_order()  # raises on cycles
        if not self.output_names:
            raise GraphError(f"graph {self.name!r} has no outputs")

    def topological_order(self) -> List[Node]:
        """Kahn's algorithm with insertion-order tie-breaking: among
        ready nodes, the earliest-added runs first.  Purely structural —
        the same graph orders identically everywhere."""
        index = {node.name: i for i, node in enumerate(self.nodes)}
        deps: Dict[str, List[str]] = {}
        dependents: Dict[str, List[str]] = {n.name: [] for n in self.nodes}
        for node in self.nodes:
            node_deps = []
            for graph_name in node.inputs.values():
                producer = self._producers.get(graph_name)
                if producer is not None and producer.name != node.name:
                    node_deps.append(producer.name)
            deps[node.name] = node_deps
            for d in node_deps:
                dependents.setdefault(d, []).append(node.name)
        remaining = {name: len(set(ds)) for name, ds in deps.items()}
        ready = sorted(
            (name for name, n in remaining.items() if n == 0),
            key=index.__getitem__,
        )
        order: List[Node] = []
        by_name = {node.name: node for node in self.nodes}
        while ready:
            name = ready.pop(0)
            order.append(by_name[name])
            freed = []
            for dep in set(dependents.get(name, ())):
                remaining[dep] -= 1
                if remaining[dep] == 0:
                    freed.append(dep)
            if freed:
                ready = sorted(ready + freed, key=index.__getitem__)
        if len(order) != len(self.nodes):
            stuck = sorted(set(by_name) - {n.name for n in order})
            raise GraphError(f"graph {self.name!r} has a cycle through {stuck}")
        return order

    # -- identity -----------------------------------------------------------
    def structural_signature(self) -> tuple:
        """Stable structural identity for cache/pool keying: two
        separately built but identical graphs share compiled programs
        and batch together in the server; any difference in wiring,
        shapes, per-node params or target overrides separates them."""
        return (
            "modelgraph",
            self.name,
            tuple(
                (
                    name,
                    tuple(tensor.shape),
                    tensor.dtype,
                    name in self._const,
                )
                for name, tensor in self._inputs.items()
            ),
            tuple(
                (
                    node.name,
                    workload_signature(node.workload),
                    tuple(sorted(node.inputs.items())),
                    node.output,
                    # Tags and overrides steer placement, and placement
                    # picks the compiled program — they must separate
                    # batch keys exactly like params do.
                    _target_identity(node.target),
                    tuple(sorted(node.tags)),
                    tuple(sorted((node.params or {}).items())),
                )
                for node in self.nodes
            ),
        )

    # -- reference execution -------------------------------------------------
    def random_inputs(self, seed: int = 0) -> Dict[str, np.ndarray]:
        """Random arrays for every external input (same convention as
        :meth:`Workload.random_inputs`)."""
        rng = np.random.default_rng(seed)
        return {
            name: rng.random(tuple(t.shape), dtype=np.float32)
            for name, t in self._inputs.items()
        }

    def reference_outputs(
        self, inputs: Dict[str, np.ndarray], all_tensors: bool = False
    ) -> Dict[str, np.ndarray]:
        """NumPy reference of the whole graph: every node's reference
        implementation, in topological order.  Returns the graph outputs
        (or every tensor with ``all_tensors=True``)."""
        env: Dict[str, np.ndarray] = dict(inputs)
        for node in self.topological_order():
            args = [
                env[graph_name]
                for _, graph_name, _ in node.input_bindings()
            ]
            env[node.output] = node.workload.reference(*args)
        if all_tensors:
            return env
        return {name: env[name] for name in self.output_names}

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelGraph({self.name!r}: {len(self.nodes)} nodes,"
            f" {len(self._inputs)} inputs, {len(self.output_names)} outputs)"
        )

"""Model-graph IR: named tensors, operator nodes, deterministic order.

A :class:`ModelGraph` is a DAG of :class:`Node` operators over *named
graph tensors*.  Every tensor is an external input (declared with
:meth:`ModelGraph.add_input`, optionally constant — weights, the KV
cache), the output of exactly one node, a :class:`View` (declared
with :meth:`ModelGraph.add_view`): a contiguous slice or reshape of
another tensor, which no node computes and no buffer holds — TVM's
``Buffer`` with an element offset — or a :class:`Concat` (declared with
:meth:`ModelGraph.add_concat`), the inverse: 1-D tensors laid end to
end by one host copy, which no node computes either but which is a
buffer of its own.  A node binds each of its workload's
input tensors to a graph tensor by name.  Graphs validate
structurally (unique names, resolvable references, shape agreement,
acyclicity) and expose a *deterministic* topological order — ties break
on node insertion order, so two identically built graphs schedule, plan
memory and charge latency identically on any machine.

The graph is the unit the rest of :mod:`repro.graph` consumes:
:func:`~repro.graph.executable.compile_graph` compiles it for one
target into a :class:`~repro.graph.executable.GraphExecutable`, and the memory
planner walks :meth:`topological_order`.  A graph is not a workload:
``repro.compile`` refuses one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import te
from ..pipeline import workload_signature
from ..workloads import Workload

__all__ = ["GraphError", "Node", "View", "Concat", "ModelGraph"]


class GraphError(ValueError):
    """A model graph is structurally invalid."""


@dataclass
class Node:
    """One operator: a workload plus its graph-tensor wiring.

    ``inputs`` maps the *workload's* input tensor names (``"A"``,
    ``"B"``, ...) to graph tensor names; ``output`` names the graph
    tensor this node defines.  ``params`` carries explicit schedule
    parameters for compiling targets (serving-grade graphs pin small
    grids — the canonical max-parallelism defaults cost seconds of
    simulator host time per run).
    """

    name: str
    workload: Workload
    inputs: Dict[str, str]
    output: str
    params: Optional[Dict[str, int]] = None

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


@dataclass(frozen=True)
class View:
    """A graph tensor that aliases another: the ``prod(shape)`` elements
    of ``base``'s row-major storage from element ``offset`` on, read as
    ``shape``.  Zero flops, zero bytes: a run binds it to a NumPy view of
    the base's array."""

    name: str
    base: str
    offset: int
    shape: Tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def bind(self, env: Dict[str, np.ndarray]) -> np.ndarray:
        """This view of its base's array in ``env`` (sharing its memory
        when the array is contiguous, as every graph tensor is)."""
        flat = env[self.base].reshape(-1)
        return flat[self.offset:self.offset + self.size].reshape(self.shape)


@dataclass(frozen=True)
class Concat:
    """A 1-D graph tensor that is its 1-D ``parts``, in order, end to
    end.  Zero flops: a run binds it with one host copy of the parts'
    arrays into a buffer of its own."""

    name: str
    parts: Tuple[str, ...]
    size: int

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.size,)

    def bind(self, env: Dict[str, np.ndarray]) -> np.ndarray:
        """A fresh array holding the parts' arrays in ``env``."""
        return np.concatenate([env[part] for part in self.parts])


class ModelGraph:
    """A validated DAG of workloads over named tensors."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        #: External inputs as TE placeholders (name -> Tensor); the
        #: placeholder carries shape, dtype and nbytes.
        self._inputs: "Dict[str, te.Tensor]" = {}
        self._const: set = set()
        self.nodes: List[Node] = []
        self._producers: Dict[str, Node] = {}
        #: Views by name, in declaration order.
        self.views: Dict[str, View] = {}
        #: Concats by name, in declaration order.
        self.concats: Dict[str, Concat] = {}
        #: Node outputs, views and concats, in declaration order.
        self._defined: List[str] = []

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
        if self._defines(name):
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
    ) -> Node:
        """Append an operator node.  Forward references to tensors that
        a later node defines are allowed; :meth:`validate` settles them."""
        if any(node.name == name for node in self.nodes):
            raise GraphError(f"node {name!r} is already defined")
        if self._defines(output):
            raise GraphError(f"tensor {output!r} is already defined")
        node = Node(
            name=name,
            workload=workload,
            inputs=dict(inputs),
            output=output,
            params=dict(params) if params else None,
        )
        self.nodes.append(node)
        self._producers[output] = node
        self._defined.append(output)
        return node

    def add_view(
        self, name: str, base: str, offset: int, shape: Sequence[int]
    ) -> str:
        """Declare ``name`` as the ``shape``-shaped block of ``base``'s
        row-major elements starting at ``offset``: a slice, a reshape,
        or both.  ``base`` (an input, a node output or another view)
        must already be defined; the block must lie inside it."""
        where = f"view {name!r}"
        if self._defines(name):
            raise GraphError(f"{where}: tensor {name!r} is already defined")
        if not self._defines(base):
            raise GraphError(f"{where}: unknown base tensor {base!r}")
        shape = tuple(shape)
        if not shape or not all(
            isinstance(n, (int, np.integer)) and n > 0 for n in shape
        ):
            raise GraphError(
                f"{where}: shape {shape} is not a contiguous block"
                " (a non-empty tuple of positive extents)"
            )
        view = View(name, base, int(offset), tuple(int(n) for n in shape))
        room = math.prod(self.tensor_shape(base))
        if view.offset < 0 or view.offset + view.size > room:
            raise GraphError(
                f"{where}: elements [{view.offset}, {view.offset + view.size})"
                f" are out of range of {base!r} ({room} elements)"
            )
        self.views[name] = view
        self._defined.append(name)
        return name

    def add_concat(self, name: str, parts: Sequence[str]) -> str:
        """Declare ``name`` as the 1-D tensors ``parts`` laid end to
        end: the inverse of :meth:`add_view`.  Every part must already
        be defined and be 1-D; a node reading the concat expects the
        sum of their sizes (:meth:`validate`)."""
        where = f"concat {name!r}"
        if self._defines(name):
            raise GraphError(f"{where}: tensor {name!r} is already defined")
        parts = tuple(parts)
        if not parts:
            raise GraphError(f"{where}: no parts")
        for part in parts:
            if not self._defines(part):
                raise GraphError(f"{where}: unknown part {part!r}")
            if len(self.tensor_shape(part)) != 1:
                raise GraphError(
                    f"{where}: part {part!r} has shape"
                    f" {self.tensor_shape(part)}, not a 1-D one"
                )
        size = sum(self.tensor_shape(part)[0] for part in parts)
        self.concats[name] = Concat(name, parts, size)
        self._defined.append(name)
        return name

    def _defines(self, name: str) -> bool:
        return (
            name in self._inputs or name in self._producers
            or name in self.views or name in self.concats
        )

    # -- tensors ------------------------------------------------------------
    @property
    def const_inputs(self) -> frozenset:
        """Names of external inputs resident across runs (weights, KV)."""
        return frozenset(self._const)

    @property
    def input_names(self) -> List[str]:
        return list(self._inputs)

    @property
    def output_names(self) -> List[str]:
        """Graph outputs: node outputs, views and concats that no node,
        no view and no concat reads, in declaration order."""
        read = {g for node in self.nodes for g in node.inputs.values()}
        read.update(view.base for view in self.views.values())
        read.update(
            part for concat in self.concats.values() for part in concat.parts
        )
        return [name for name in self._defined if name not in read]

    def tensor_shape(self, name: str) -> Tuple[int, ...]:
        if name in self._inputs:
            return tuple(self._inputs[name].shape)
        if name in self.views:
            return self.views[name].shape
        if name in self.concats:
            return self.concats[name].shape
        try:
            return tuple(self._producers[name].workload.output.shape)
        except KeyError:
            raise GraphError(f"unknown tensor {name!r}") from None

    def tensor_nbytes(self, name: str) -> int:
        if name in self._inputs:
            return self._inputs[name].buffer.nbytes
        if name in self.views:
            view = self.views[name]
            base = self.tensor_nbytes(view.base)
            return base // math.prod(self.tensor_shape(view.base)) * view.size
        if name in self.concats:
            return sum(map(self.tensor_nbytes, self.concats[name].parts))
        try:
            return self._producers[name].workload.output.buffer.nbytes
        except KeyError:
            raise GraphError(f"unknown tensor {name!r}") from None

    def producer(self, name: str) -> Optional[Node]:
        """The node defining ``name`` (None for external inputs, views
        and concats)."""
        return self._producers.get(name)

    def storage(self, name: str) -> str:
        """The tensor whose memory ``name`` is: ``name`` itself, or the
        input, node output or concat its chain of views ends at."""
        while name in self.views:
            name = self.views[name].base
        return name

    def _sources(self, name: str) -> List[str]:
        """The inputs and node outputs ``name``'s elements come from:
        through views to their base, through concats to every part."""
        name = self.storage(name)
        if name in self.concats:
            return [
                source for part in self.concats[name].parts
                for source in self._sources(part)
            ]
        return [name]

    def view_schedule(
        self, order: Sequence[Node]
    ) -> List[List[Union[View, Concat]]]:
        """When a run in ``order`` binds each view and concat: entry
        ``i + 1`` holds those whose latest source is ``order[i]``'s
        output, entry 0 those over external inputs only — each in
        declaration order, so one over a view or a concat comes after
        it."""
        at = {node.output: i + 1 for i, node in enumerate(order)}
        schedule: List[List[Union[View, Concat]]] = [
            [] for _ in range(len(order) + 1)
        ]
        for name in self._defined:
            alias = self.views.get(name) or self.concats.get(name)
            if alias is None:
                continue
            reads = alias.parts if name in self.concats else (alias.base,)
            at[name] = max(at.get(read, 0) for read in reads)
            schedule[at[name]].append(alias)
        return schedule

    # -- validation / ordering ----------------------------------------------
    def validate(self) -> None:
        """Check structure: every reference resolves, shapes agree, the
        graph is acyclic, and there is at least one output."""
        if not self.nodes:
            raise GraphError(f"graph {self.name!r} has no nodes")
        for node in self.nodes:
            for wl_name, graph_name, shape in node.input_bindings():
                if not self._defines(graph_name):
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
        ready nodes, the earliest-added runs first.  A node reading a
        view depends on whatever produces the view's storage, and one
        reading a concat on whatever produces each part.  Purely
        structural — the same graph orders identically everywhere."""
        index = {node.name: i for i, node in enumerate(self.nodes)}
        deps: Dict[str, List[str]] = {}
        dependents: Dict[str, List[str]] = {n.name: [] for n in self.nodes}
        for node in self.nodes:
            node_deps = []
            for graph_name in node.inputs.values():
                for source in self._sources(graph_name):
                    producer = self._producers.get(source)
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
        """Stable structural identity: two separately built but
        identical graphs share it; any difference in inputs, wiring,
        shapes, per-node params, views or concats (their parts'
        order included) separates them (the golden graph table pins its
        digest per builder case)."""
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
                    tuple(sorted((node.params or {}).items())),
                )
                for node in self.nodes
            ),
            tuple(
                (view.name, view.base, view.offset, view.shape)
                for view in self.views.values()
            ),
            tuple(
                (concat.name, concat.parts) for concat in self.concats.values()
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
        implementation, in topological order, each view and concat
        bound once its sources exist.  Returns the graph outputs (or
        every tensor with ``all_tensors=True``)."""
        env: Dict[str, np.ndarray] = dict(inputs)
        order = self.topological_order()
        schedule = self.view_schedule(order)
        for alias in schedule[0]:
            env[alias.name] = alias.bind(env)
        for node, aliases in zip(order, schedule[1:]):
            args = [
                env[graph_name]
                for _, graph_name, _ in node.input_bindings()
            ]
            env[node.output] = node.workload.reference(*args)
            for alias in aliases:
                env[alias.name] = alias.bind(env)
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

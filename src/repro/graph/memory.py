"""Memory planning: linear-scan buffer reuse over the topological order.

A naive executor gives every intermediate tensor its own buffer, so a
decode step holds ``sum(nbytes of every node output)`` at once.  The
planner walks the graph's deterministic topological order, computes each
intermediate's live range ``[definition, last use]`` (graph outputs stay
live to the end), and linear-scans buffers into reusable *slots*: a
tensor whose last reader has already run frees its slot for the next
definition (best fit by size; a new slot opens only when nothing free
fits).  The resulting arena is what a memory-constrained host would
actually allocate for the serial schedule; weights and external inputs
are accounted separately since they are resident, not transient.  A
view (:meth:`ModelGraph.add_view`) that nodes read gets no buffer: it
lives in its base's, so its readers extend the base's live range.  A
view that is a graph output is copied out of its base when the base is
made (:meth:`~repro.graph.executable.GraphExecutable.run_tensors`), so
the copy is a buffer of its own, live to the end, and the base frees
at its last node reader.  A concat (:meth:`ModelGraph.add_concat`) is
a buffer of its own, defined where its last part is made; the copy
into it is each part's last read there, so a part read by nothing
else frees at the concat.  How
well the arena packs (the serial live peak over the arena) is the
:func:`arena_stats` pair in :meth:`MemoryPlan.to_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .ir import Concat, ModelGraph

__all__ = ["SlotAssignment", "MemoryPlan", "plan_memory", "arena_stats"]


def arena_stats(capacity: int, used: int) -> Dict[str, float]:
    """Utilization/fragmentation summary of any fixed-capacity arena.

    ``utilization`` is the fraction of the arena's capacity the live
    working set actually occupies; ``fragmentation`` is the complement —
    capacity held but not usable by the current occupants.  Shared by
    the intermediate-buffer plan below (capacity = planned arena bytes,
    used = serial live peak) and the paged KV-cache allocator in
    :mod:`repro.decode.kv_cache` (capacity = allocated page tokens,
    used = cached tokens), so both report residency waste in the same
    vocabulary.  An empty arena is fully utilized by convention.
    """
    if capacity <= 0:
        return {"utilization": 1.0, "fragmentation": 0.0}
    utilization = used / capacity
    return {"utilization": utilization, "fragmentation": 1.0 - utilization}


@dataclass(frozen=True)
class SlotAssignment:
    """Where one intermediate tensor lives and for how long."""

    tensor: str
    slot: int
    nbytes: int
    #: Positions in the topological order: defined at ``start``, last
    #: read at ``end`` (``end == len(order)`` for graph outputs).
    start: int
    end: int


@dataclass
class MemoryPlan:
    """Outcome of planning one graph's intermediates."""

    #: Final byte size of each reuse slot (a slot grows to the largest
    #: tensor it ever hosts).
    slot_sizes: List[int] = field(default_factory=list)
    assignments: List[SlotAssignment] = field(default_factory=list)
    #: Sum of slot sizes: bytes the planned arena actually needs.
    arena_bytes: int = 0
    #: Sum of every intermediate's size: the no-reuse allocation.
    naive_bytes: int = 0
    #: Max bytes simultaneously live under the serial schedule (lower
    #: bound no planner can beat).
    peak_live_bytes: int = 0
    #: Resident external tensors, split const (weights/KV) vs dynamic.
    weight_bytes: int = 0
    input_bytes: int = 0

    @property
    def reuse_ratio(self) -> float:
        """naive / arena — how much the planner shrank the footprint."""
        return self.naive_bytes / self.arena_bytes if self.arena_bytes else 1.0

    def to_dict(self) -> Dict:
        """The ``--json`` payload."""
        return {
            "arena_bytes": self.arena_bytes,
            "naive_bytes": self.naive_bytes,
            "peak_live_bytes": self.peak_live_bytes,
            "weight_bytes": self.weight_bytes,
            "input_bytes": self.input_bytes,
            "slots": len(self.slot_sizes),
            "tensors": len(self.assignments),
            "reuse_ratio": self.reuse_ratio,
            **arena_stats(self.arena_bytes, self.peak_live_bytes),
        }


def plan_memory(graph: ModelGraph) -> MemoryPlan:
    """Plan intermediate-buffer reuse for ``graph``.

    Deterministic: depends only on the graph's structure (topological
    order, tensor sizes), never on placement, thread count or wall time.
    """
    graph.validate()
    order = graph.topological_order()
    schedule = graph.view_schedule(order)
    outputs = set(graph.output_names)

    # Each buffer (node output or concat) with the views that live in it.
    aliases: Dict[str, List[str]] = {}
    for name in graph.views:
        aliases.setdefault(graph.storage(name), []).append(name)

    # Buffers in definition order: each node output, then the concats
    # bound after it (one over external inputs alone first, at 0).
    defined: List[Tuple[str, int]] = []
    for j, bound in enumerate(schedule):
        if j:
            defined.append((order[j - 1].output, j - 1))
        defined.extend(
            (alias.name, max(j - 1, 0)) for alias in bound
            if isinstance(alias, Concat)
        )
    at = dict(defined)

    # Where each tensor is read: by a node, or copied into a concat.
    reads: Dict[str, List[int]] = {}
    for i, node in enumerate(order):
        for name in node.inputs.values():
            reads.setdefault(name, []).append(i)
    for concat in graph.concats.values():
        for part in concat.parts:
            reads.setdefault(part, []).append(at[concat.name])

    # Live ranges of intermediates (node outputs and concats, then the
    # copies of their output views), in definition order.
    ranges: List[Tuple[str, int, int, int]] = []  # (tensor, def, last, nbytes)
    for tensor, start in defined:
        names = [tensor, *aliases.get(tensor, ())]
        copies = [name for name in names[1:] if name in outputs]
        last = len(order) if tensor in outputs else start
        for name in names:
            last = max([last, *reads.get(name, ())])
        ranges.append((tensor, start, last, graph.tensor_nbytes(tensor)))
        ranges.extend(
            (name, start, len(order), graph.tensor_nbytes(name))
            for name in copies
        )

    plan = MemoryPlan()
    plan.naive_bytes = sum(nbytes for _, _, _, nbytes in ranges)
    plan.weight_bytes = sum(
        graph.tensor_nbytes(n) for n in graph.input_names
        if n in graph.const_inputs
    )
    plan.input_bytes = sum(
        graph.tensor_nbytes(n) for n in graph.input_names
        if n not in graph.const_inputs
    )

    slot_sizes: List[int] = []
    free: List[int] = []  # indices of currently unoccupied slots
    expiry: List[Tuple[int, int]] = []  # (end, slot) of live tensors
    for tensor, start, end, nbytes in ranges:
        # Expire tensors whose last reader ran strictly before this
        # definition (a tensor read *by* the defining node must not
        # share its slot — that would alias an input with the output).
        for done_end, slot in list(expiry):
            if done_end < start:
                free.append(slot)
                expiry.remove((done_end, slot))
        # Best fit: the smallest free slot that holds the tensor;
        # otherwise grow the largest free slot / open a new one.
        fitting = sorted(
            (s for s in free if slot_sizes[s] >= nbytes),
            key=lambda s: (slot_sizes[s], s),
        )
        if fitting:
            slot = fitting[0]
            free.remove(slot)
        elif free:
            slot = max(free, key=lambda s: (slot_sizes[s], -s))
            free.remove(slot)
            slot_sizes[slot] = nbytes
        else:
            slot = len(slot_sizes)
            slot_sizes.append(nbytes)
        expiry.append((end, slot))
        plan.assignments.append(
            SlotAssignment(tensor, slot, nbytes, start, end)
        )

    # Peak concurrent live bytes under the serial schedule.
    peak = 0
    for i in range(len(order)):
        live = sum(
            nbytes for _, start, end, nbytes in ranges if start <= i <= end
        )
        peak = max(peak, live)
    plan.peak_live_bytes = peak
    plan.slot_sizes = slot_sizes
    plan.arena_bytes = sum(slot_sizes)
    return plan

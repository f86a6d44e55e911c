"""DecodeEngine: N-layer decode for one *or many* sequences.

The engine closes the loop the rest of the stack leaves open: it owns
the model weights, a :class:`~repro.decode.kv_cache.PagedKVCache`, a
:class:`~repro.decode.residency.WeightResidencyPlanner`, and one shared
:class:`~repro.serve.pool.ExecutablePool`, and drives
:class:`~repro.graph.GraphExecutable` decode steps token after token:

* steps whose cache *capacity* is unchanged reuse that capacity epoch's
  compiled executable outright — zero graph builds, zero pool lookups;
* a step that crossed a page boundary builds the next capacity epoch's
  graph, and the pool serves every capacity-independent program from
  residency (the epoch loads only the two attention programs sized to
  the new capacity, the score MMTV with its softmax epilogue and the
  value MMTV — ``StepReport.compiled_programs`` proves it);
* each step charges, separately and deterministically: per-node compute
  and boundary transfers (from the epoch's
  :class:`~repro.graph.executable.GraphProfile`), weight stage/evict
  traffic (from the residency planner), and cache-extension transfers
  (from the paged cache) — never the profile's one-shot staging number,
  which the planner supersedes.

**Multi-sequence decode** (the continuous-batching substrate): the
paged cache already block-tables several sequences; the engine now
drives them.  :meth:`DecodeEngine.add_sequence` registers a sequence
with its own seeded prompt and hidden state, :meth:`step_seq` decodes
one token of one sequence, and :meth:`step_batch` decodes one token of
*each* scheduled sequence — one iteration of an iteration-level batch.
Sequences at different positions coexist because capacity epochs are
cached per capacity (``max_resident_epochs``), so a mixed-position
batch reuses every epoch it has seen.  Per-sequence
:class:`StepReport` costs are the *solo* costs — bit-for-bit what the
same sequence would report decoded alone — while the batch's device
occupancy is the :class:`IterationReport`'s amortized model: dispatch
paid once, kernels shared per capacity group, per-sequence transfers
serialized (a :class:`repro.serve.Server` flush, which runs as one
stacked grid, pushes its batch once per round instead).

Everything the engine reports is derived from deterministic inputs —
graph structure, simulated latencies, seeded arrays — so a decode run
is bit-for-bit reproducible at any ``REPRO_MAX_WORKERS`` and under any
``REPRO_SIM_MODE``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import (
    ATTN_MASK,
    GPTJ_SIM,
    GraphExecutable,
    gptj_layer_io,
    gptj_layer_nbytes,
    gptj_model_graph,
    place,
    plan_memory,
)
from ..graph.executable import pool_keys
from ..obs import current_tracer
from ..serve.pool import ExecutablePool
from ..workloads.gptj import GPTJConfig
from .kv_cache import CacheError, CacheExtension, PagedKVCache
from .residency import StageEvent, WeightResidencyPlanner

__all__ = ["StepReport", "IterationReport", "DecodeResult", "DecodeEngine"]

#: Weight init scale: keeps hidden states O(1) through the layer
#: recurrence x <- x + attn + ffn across many decode steps.
_WEIGHT_SCALE = np.float32(0.05)


#: A step's outputs may sit this far from the NumPy reference, measured
#: on each tensor's own scale (its largest |element|).  Float32 rounding
#: reaches 1.2e-6 of that scale; an element-wise relative test cannot be
#: used instead, because the un-normalised hidden state grows ~3x per
#: token and an element that cancels to nearly zero then misses any
#: relative tolerance by rounding alone.
_REFERENCE_TOLERANCE = 1e-4


def _matches_reference(got: np.ndarray, want: np.ndarray) -> bool:
    want = np.asarray(want, dtype=np.float64)
    scale = float(np.max(np.abs(want))) or 1.0
    # A NaN compares False, so it fails the check.
    return bool(np.max(np.abs(got - want)) <= _REFERENCE_TOLERANCE * scale)


def _sequence_entropy(name: str) -> int:
    """Stable 63-bit integer from a sequence name (process-independent,
    unlike ``hash()``) — seeds the per-sequence rng stream."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class StepReport:
    """One decoded token's full cost breakdown (seconds).

    Costs are *solo* costs — what this sequence's step costs on its
    own.  Iteration-level sharing across sequences is accounted by
    :class:`IterationReport`, never smeared into per-sequence reports,
    so a report is bit-for-bit identical whether the sequence decoded
    alone or rode in a batch.
    """

    step: int
    #: Which sequence this step decoded.
    sequence: str
    #: Sequence length when the step ran (the positions attention saw).
    position: int
    #: Allocated cache tokens the step's graph was sized to.
    capacity: int
    #: Fresh programs this step's (re)compile loaded; 0 inside an epoch.
    compiled_programs: int
    #: Whether this step built a new capacity epoch's executable.
    replanned: bool
    compute_s: float
    h2d_s: float
    d2h_s: float
    staging_s: float
    cache_growth_s: float
    reference_ok: Optional[bool]
    per_layer: Tuple[Dict, ...] = ()
    stage_events: Tuple[StageEvent, ...] = ()
    cache_events: Tuple[CacheExtension, ...] = ()

    @property
    def total_s(self) -> float:
        return (
            self.compute_s + self.h2d_s + self.d2h_s
            + self.staging_s + self.cache_growth_s
        )

    @property
    def serial_s(self) -> float:
        """The step's bus-serialized share: boundary transfers, weight
        staging and cache growth — paid per sequence even inside an
        iteration-level batch (every replica shares one host<->PIM
        bus)."""
        return (
            self.h2d_s + self.d2h_s + self.staging_s + self.cache_growth_s
        )

    def to_dict(self) -> Dict:
        return {
            "step": self.step,
            "sequence": self.sequence,
            "position": self.position,
            "capacity": self.capacity,
            "compiled_programs": self.compiled_programs,
            "replanned": self.replanned,
            "compute_ms": self.compute_s * 1e3,
            "h2d_ms": self.h2d_s * 1e3,
            "d2h_ms": self.d2h_s * 1e3,
            "staging_ms": self.staging_s * 1e3,
            "cache_growth_ms": self.cache_growth_s * 1e3,
            "total_ms": self.total_s * 1e3,
            "reference_ok": self.reference_ok,
        }


@dataclass(frozen=True)
class IterationReport:
    """One iteration of an iteration-level batch: one token decoded for
    each scheduled sequence, with the amortized device-occupancy model.

    The per-sequence :class:`StepReport` costs stay solo;
    :meth:`device_seconds` is the batch's simulated occupancy:
    dispatch overhead once per iteration, kernel time per *round*
    within each capacity group (sequences at one capacity run one
    program, replicated across idle DPU groups), and bus-serialized
    per-sequence transfers (H2D/D2H, weight staging, cache growth) paid
    by every sequence.  A serve flush, which runs as one stacked grid,
    pushes its batch once a round instead
    (:meth:`repro.upmem.system.PerformanceModel.flush_lines`); a decode
    iteration keeps this serial rule until it too runs, and is priced,
    as one stacked grid.
    """

    reports: Tuple[StepReport, ...]

    def device_seconds(
        self,
        dispatch_overhead_s: float = 0.0,
        replica_groups: int = 1,
    ) -> float:
        if replica_groups < 1:
            raise ValueError(
                f"replica_groups must be >= 1, got {replica_groups}"
            )
        if not self.reports:
            return 0.0
        by_capacity: "OrderedDict[int, List[StepReport]]" = OrderedDict()
        for report in self.reports:
            by_capacity.setdefault(report.capacity, []).append(report)
        total = dispatch_overhead_s
        for group in by_capacity.values():
            rounds = -(-len(group) // replica_groups)  # ceil division
            # Same capacity => same epoch graph => identical kernel
            # cost; one round runs `replica_groups` sequences at once.
            total += rounds * group[0].compute_s
        total += sum(r.serial_s for r in self.reports)
        return total


@dataclass
class _SequenceState:
    """Engine-side state of one decoded sequence."""

    name: str
    x: np.ndarray  # current hidden state (next step's input token)
    rng: np.random.Generator  # per-sequence stream (prompt rows)


@dataclass
class _Epoch:
    """One capacity epoch's compiled working set."""

    capacity: int
    exe: GraphExecutable
    graph: Any
    keys: set
    layer_costs: List[Dict]
    step_costs: Dict[str, float]


@dataclass
class DecodeResult:
    """A full decode run: per-step reports plus the aggregates."""

    layers: int
    tokens: int
    prompt_tokens: int
    page_tokens: int
    steps: List[StepReport] = field(default_factory=list)
    #: Final hidden state of each step (the next step's input token).
    hidden_states: List[np.ndarray] = field(default_factory=list)
    memory_plan: Optional[Any] = None
    #: Name of the last step's model graph (the one ``memory_plan`` is of).
    graph_name: str = ""
    pool_stats: Dict = field(default_factory=dict)
    cache_stats: Dict = field(default_factory=dict)
    residency_stats: Dict = field(default_factory=dict)

    @property
    def replans(self) -> int:
        """Capacity-epoch rebuilds after the first compile."""
        return sum(1 for s in self.steps[1:] if s.replanned)

    @property
    def compiled_programs(self) -> int:
        return sum(s.compiled_programs for s in self.steps)

    @property
    def reference_ok(self) -> Optional[bool]:
        checked = [s.reference_ok for s in self.steps if s.reference_ok is not None]
        return all(checked) if checked else None

    def totals(self) -> Dict[str, float]:
        out = {
            "compute_s": 0.0, "h2d_s": 0.0, "d2h_s": 0.0,
            "staging_s": 0.0, "cache_growth_s": 0.0, "total_s": 0.0,
        }
        for s in self.steps:
            out["compute_s"] += s.compute_s
            out["h2d_s"] += s.h2d_s
            out["d2h_s"] += s.d2h_s
            out["staging_s"] += s.staging_s
            out["cache_growth_s"] += s.cache_growth_s
            out["total_s"] += s.total_s
        return out

    def per_layer_totals(self) -> List[Dict]:
        """Per-layer aggregate across every step: compute, boundary
        transfers, weight staging (with stage/evict counts) and cache
        growth — the fig17 multilayer breakdown."""
        rows: List[Dict] = [
            {
                "layer": layer, "compute_s": 0.0, "h2d_s": 0.0,
                "d2h_s": 0.0, "staging_s": 0.0, "cache_growth_s": 0.0,
                "stages": 0, "evictions": 0,
            }
            for layer in range(self.layers)
        ]
        for step in self.steps:
            for entry in step.per_layer:
                row = rows[entry["layer"]]
                for key in (
                    "compute_s", "h2d_s", "d2h_s",
                    "staging_s", "cache_growth_s",
                ):
                    row[key] += entry[key]
            for ev in step.stage_events:
                rows[ev.layer]["stages" if ev.action == "stage" else "evictions"] += 1
        return rows

    def to_dict(self) -> Dict:
        return {
            "layers": self.layers,
            "tokens": self.tokens,
            "prompt_tokens": self.prompt_tokens,
            "page_tokens": self.page_tokens,
            "replans": self.replans,
            "compiled_programs": self.compiled_programs,
            "reference_ok": self.reference_ok,
            "totals": self.totals(),
            "steps": [s.to_dict() for s in self.steps],
            "per_layer": [
                {
                    (f"{k[:-2]}_ms" if k.endswith("_s") else k):
                        (v * 1e3 if k.endswith("_s") else v)
                    for k, v in row.items()
                }
                for row in self.per_layer_totals()
            ],
            "memory": (
                self.memory_plan.to_dict() if self.memory_plan else None
            ),
            "pool": self.pool_stats,
            "cache": self.cache_stats,
            "residency": self.residency_stats,
        }


class DecodeEngine:
    """Run multi-token decode over an N-layer GPT-J graph."""

    def __init__(
        self,
        config: Optional[GPTJConfig] = None,
        layers: int = 2,
        page_tokens: int = 4,
        pool: Optional[ExecutablePool] = None,
        mram_budget_bytes: Optional[int] = None,
        max_pages: int = 1024,
        seed: int = 0,
        check_references: bool = True,
        max_resident_epochs: int = 1,
    ) -> None:
        self.config = config or GPTJ_SIM
        if layers < 1:
            raise ValueError(f"layers must be >= 1, got {layers}")
        if max_resident_epochs < 1:
            raise ValueError(
                f"max_resident_epochs must be >= 1, got {max_resident_epochs}"
            )
        self.layers = layers
        self.seed = seed
        self.check_references = check_references
        #: How many capacity epochs stay compiled side by side.  1 is
        #: the single-sequence default (an epoch retires when the cache
        #: outgrows it); a multi-sequence engine wants several, because
        #: sequences at different positions revisit different
        #: capacities every iteration.
        self.max_resident_epochs = max_resident_epochs
        self.cache = PagedKVCache(
            d_model=self.config.d_model,
            layers=layers,
            page_tokens=page_tokens,
            max_pages=max_pages,
        )
        #: Per layer, the model graph's tensor names (weights, K and
        #: transposed V caches, new K/V rows) — the builder's, never
        #: re-derived here.
        self._io = [
            gptj_layer_io(self.config, layer) for layer in range(layers)
        ]
        # Deterministic weights: one seeded stream, fixed layer/name
        # order.  Scaled small so the residual recurrence stays tame.
        rng = np.random.default_rng(seed)
        self.weights: Dict[str, np.ndarray] = {
            name: rng.standard_normal(shape, dtype=np.float32) * _WEIGHT_SCALE
            for io in self._io
            for name, shape in io.weights
        }
        layer_nbytes = gptj_layer_nbytes(self.config)
        budget = (
            mram_budget_bytes
            if mram_budget_bytes is not None
            else layers * layer_nbytes  # whole model fits: load once
        )
        self.residency = WeightResidencyPlanner(
            [layer_nbytes] * layers, budget
        )
        # `pool or ...` would drop a caller's pool: an empty pool has
        # __len__ == 0 and is falsy.
        self.pool = pool if pool is not None else ExecutablePool(capacity=64)
        self._seqs: Dict[str, _SequenceState] = {}
        self._epochs: "OrderedDict[int, _Epoch]" = OrderedDict()
        self._global_step = 0

    # -- sequence lifecycle ---------------------------------------------------
    def add_sequence(
        self,
        name: str,
        prompt_tokens: int = 0,
        seed: Optional[int] = None,
    ) -> List[CacheExtension]:
        """Register a sequence with its own deterministic stream.

        The sequence's initial hidden state and (optional) prompt K/V
        rows come from ``default_rng((engine seed, sequence seed))``
        where the sequence seed defaults to a stable hash of ``name`` —
        so re-adding the same sequence on *any* engine built with the
        same model seed replays identically (the recovery path's replay
        contract).  Returns the prompt's cache-extension events.
        """
        if name in self._seqs:
            raise ValueError(f"sequence {name!r} already registered")
        if prompt_tokens < 0:
            raise ValueError(
                f"prompt_tokens must be >= 0, got {prompt_tokens}"
            )
        self.cache.add_sequence(name)
        entropy = _sequence_entropy(name) if seed is None else int(seed)
        rng = np.random.default_rng((self.seed, entropy))
        d = self.config.d_model
        state = _SequenceState(
            name, rng.standard_normal((d,), dtype=np.float32), rng
        )
        self._seqs[name] = state
        events: List[CacheExtension] = []
        if prompt_tokens:
            events = self._prefill_sequence(name, prompt_tokens)
        return events

    def remove_sequence(self, name: str) -> int:
        """Drop a sequence and release its cache pages (completion,
        preemption, or a failed worker losing its residents).  Returns
        the page count freed."""
        if name not in self._seqs:
            raise ValueError(f"unknown sequence {name!r}")
        freed = self.cache.free_sequence(name)
        del self._seqs[name]
        return freed

    def _prefill_sequence(
        self, name: str, prompt_tokens: int
    ) -> List[CacheExtension]:
        d = self.config.d_model
        state = self._seqs[name]
        events: List[CacheExtension] = []
        with current_tracer().span(
            "prefill",
            track="decode",
            cat="decode",
            args={"sequence": name, "tokens": prompt_tokens},
        ):
            for _ in range(prompt_tokens):
                rows = [
                    (
                        state.rng.standard_normal((d,), dtype=np.float32),
                        state.rng.standard_normal((d,), dtype=np.float32),
                    )
                    for _ in range(self.layers)
                ]
                events.extend(self.cache.append(name, rows))
        return events

    # -- page accounting ------------------------------------------------------
    def prompt_pages(self, prompt_tokens: int) -> int:
        """Pages admitting a ``prompt_tokens``-token sequence allocates
        (one block table per layer, whole pages)."""
        per_layer = -(-prompt_tokens // self.cache.page_tokens)
        return self.layers * per_layer

    def step_pages(self, name: str) -> int:
        """Pages the *next* :meth:`step_seq` of ``name`` will allocate
        (its append crosses a page boundary) — the preflight check a
        scheduler runs before including the sequence in an iteration."""
        length = self.cache.length(name)
        if length == 0 or length % self.cache.page_tokens:
            return 0
        return self.layers

    # -- epoch management ----------------------------------------------------
    def _ensure_epoch(self, capacity: int) -> Tuple[_Epoch, int, bool]:
        """Executable for one capacity epoch.

        A resident epoch → zero work.  A new capacity → build the epoch
        graph, compile through the *shared* pool (capacity-independent
        programs pool-hit), pin the new working set, and retire the
        oldest epoch beyond ``max_resident_epochs`` — unpinning only
        keys no surviving epoch still uses."""
        epoch = self._epochs.get(capacity)
        if epoch is not None:
            self._epochs.move_to_end(capacity)
            return epoch, 0, False
        tracer = current_tracer()
        # An epoch rebuild is host-side compile work: zero virtual
        # duration, but the span brackets every pool pin/load event the
        # rebuild generates on the "pool" track.
        with tracer.span(
            f"epoch capacity={capacity}",
            track="decode",
            cat="decode",
            args={"layers": self.layers, "capacity": capacity},
        ):
            graph = gptj_model_graph(
                self.config, layers=self.layers, capacity=capacity
            )
            target = place(graph)
            # Pin the epoch's working set BEFORE compiling: pinning after
            # the fact would let a small pool evict the epoch's own
            # programs while later nodes of the same graph still compile.
            keys = pool_keys(graph, target)
            for key in sorted(keys, key=repr):
                self.pool.pin(key)
            exe = GraphExecutable(graph, target, self.pool)
            layer_costs, step_costs = self._profile_costs(exe)
            epoch = _Epoch(capacity, exe, graph, keys, layer_costs, step_costs)
            self._epochs[capacity] = epoch
            while len(self._epochs) > self.max_resident_epochs:
                _, retired = self._epochs.popitem(last=False)
                survivors: set = set()
                for live in self._epochs.values():
                    survivors |= live.keys
                for stale in sorted(retired.keys - survivors, key=repr):
                    self.pool.unpin(stale)
        return epoch, exe.loaded_program_count, True

    def _profile_costs(
        self, exe: GraphExecutable
    ) -> Tuple[List[Dict], Dict[str, float]]:
        """Split the epoch profile's recurring costs by layer.

        Uses per-node compute and boundary transfers only — the
        profile's one-shot ``staging_s`` is deliberately ignored: the
        residency planner owns weight staging (and re-staging), and the
        paged cache owns KV traffic."""
        layer_costs = [
            {
                "layer": layer, "compute_s": 0.0,
                "h2d_s": 0.0, "d2h_s": 0.0,
                "staging_s": 0.0, "cache_growth_s": 0.0,
            }
            for layer in range(self.layers)
        ]
        totals = {"compute_s": 0.0, "h2d_s": 0.0, "d2h_s": 0.0}
        for cost in exe.profile().nodes:
            layer = int(cost.node.split(".", 1)[0][1:])
            layer_costs[layer]["compute_s"] += cost.compute_s
            layer_costs[layer]["h2d_s"] += cost.h2d_s
            layer_costs[layer]["d2h_s"] += cost.d2h_s
            totals["compute_s"] += cost.compute_s
            totals["h2d_s"] += cost.h2d_s
            totals["d2h_s"] += cost.d2h_s
        return layer_costs, totals

    # -- the token loop ------------------------------------------------------
    def _check_steppable(self, name: str) -> None:
        if name not in self._seqs:
            raise ValueError(f"unknown sequence {name!r}")
        if self.cache.length(name) == 0:
            raise RuntimeError(
                f"sequence {name!r} has no cached positions;"
                f" add_sequence(prompt_tokens=...) first"
            )

    def step_seq(self, name: str) -> StepReport:
        """Decode one token of one registered sequence."""
        self._check_steppable(name)
        capacity = self.cache.capacity(name)
        position = self.cache.length(name)
        tracer = current_tracer()
        step_span = tracer.span(
            f"step {self._global_step}",
            track="decode",
            cat="decode",
            args={
                "sequence": name, "position": position, "capacity": capacity,
            },
        )
        step_span.__enter__()
        try:
            return self._step_body(name, capacity, position, tracer)
        finally:
            step_span.__exit__(None, None, None)

    def step_batch(self, names: Sequence[str]) -> IterationReport:
        """Decode one token of each named sequence — one iteration of
        an iteration-level batch.  Sequences run in the given order
        (the scheduler's priority order), each at its own position and
        capacity; per-sequence reports are solo costs, the iteration's
        shared device occupancy comes from
        :meth:`IterationReport.device_seconds`.

        The whole batch is checked before any sequence steps, so a
        rejected batch (a duplicate or unknown name, a sequence with
        nothing cached, more page crossings than free pages) leaves
        every sequence, the cache and the step counter as they were."""
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate sequences in batch: {list(names)}")
        for name in names:
            self._check_steppable(name)
        pages = sum(self.step_pages(name) for name in names)
        if pages > self.cache.free_pages:
            raise CacheError(
                f"batch {list(names)} crosses into {pages} new pages,"
                f" {self.cache.free_pages} free"
            )
        return IterationReport(
            reports=tuple(self.step_seq(name) for name in names)
        )

    def _step_body(
        self, name: str, capacity: int, position: int, tracer: Any
    ) -> StepReport:
        epoch, compiled, replanned = self._ensure_epoch(capacity)
        state = self._seqs[name]

        stage_events: List[StageEvent] = []
        for layer in range(self.layers):
            stage_events.extend(
                self.residency.access(self._global_step, layer)
            )

        inputs: Dict[str, np.ndarray] = dict(self.weights)
        inputs[self._io[0].x] = state.x
        inputs[ATTN_MASK] = self.cache.attention_mask(name)
        by_head = (-1, self.config.n_heads, self.config.head_dim)
        for layer, io in enumerate(self._io):
            k, v = self.cache.dense_kv(name, layer)
            k_cache, v_cache_t = io.kv_cache
            # Contiguous (heads, span, hd) K and (heads, hd, span) V^T.
            inputs[k_cache] = k.reshape(by_head).transpose(1, 0, 2).copy()
            inputs[v_cache_t] = v.reshape(by_head).transpose(1, 2, 0).copy()
        outs = epoch.exe.run_tensors(inputs)

        reference_ok: Optional[bool] = None
        if self.check_references:
            ref = epoch.graph.reference_outputs(inputs)
            reference_ok = all(
                _matches_reference(outs[name_], ref[name_]) for name_ in ref
            )

        state.x = outs[self._io[-1].y]
        cache_events = self.cache.append(
            name,
            [(outs[io.kv_new[0]], outs[io.kv_new[1]]) for io in self._io],
        )

        per_layer = []
        for layer in range(self.layers):
            entry = dict(epoch.layer_costs[layer])
            entry["staging_s"] = sum(
                e.seconds for e in stage_events if e.layer == layer
            )
            entry["cache_growth_s"] = sum(
                e.seconds for e in cache_events if e.layer == layer
            )
            per_layer.append(entry)

        if tracer.enabled:
            # Per-layer breakdown spans inside the step, then the graph's
            # per-node compute/H2D/D2H replay on its own track.  The layer
            # spans sum to the step's total, so the enclosing step span
            # covers exactly StepReport.total_s of virtual time.
            for entry in per_layer:
                tracer.timed_span(
                    f"layer {entry['layer']}",
                    track="decode",
                    cat="decode",
                    dur_s=(
                        entry["compute_s"] + entry["h2d_s"] + entry["d2h_s"]
                        + entry["staging_s"] + entry["cache_growth_s"]
                    ),
                    args={
                        "compute_ms": entry["compute_s"] * 1e3,
                        "h2d_ms": entry["h2d_s"] * 1e3,
                        "d2h_ms": entry["d2h_s"] * 1e3,
                        "staging_ms": entry["staging_s"] * 1e3,
                        "cache_growth_ms": entry["cache_growth_s"] * 1e3,
                    },
                )
            epoch.exe.trace(name=f"step {self._global_step} graph")

        report = StepReport(
            step=self._global_step,
            position=position,
            capacity=capacity,
            compiled_programs=compiled,
            replanned=replanned,
            compute_s=epoch.step_costs["compute_s"],
            h2d_s=epoch.step_costs["h2d_s"],
            d2h_s=epoch.step_costs["d2h_s"],
            staging_s=sum(e.seconds for e in stage_events),
            cache_growth_s=sum(e.seconds for e in cache_events),
            reference_ok=reference_ok,
            per_layer=tuple(per_layer),
            stage_events=tuple(stage_events),
            cache_events=tuple(cache_events),
            sequence=name,
        )
        self._global_step += 1
        return report

    def hidden_state(self, name: str) -> np.ndarray:
        """The sequence's current hidden state (the last decoded
        token's final-layer output — the engine's "response" payload)."""
        if name not in self._seqs:
            raise ValueError(f"unknown sequence {name!r}")
        return self._seqs[name].x

    def decode(
        self, tokens: int, prompt_tokens: int = 4
    ) -> DecodeResult:
        """Decode ``tokens`` tokens of the sequence ``"seq0"`` end to
        end: ``add_sequence("seq0", prompt_tokens)`` (unless an earlier
        call already did, in which case it continues) followed by
        ``tokens`` single-sequence :meth:`step_batch` iterations."""
        if tokens < 1:
            raise ValueError(f"tokens must be >= 1, got {tokens}")
        if "seq0" not in self._seqs:
            # Deterministic K/V rows standing in for a prompt pass: the
            # loop needs at least one cached position to attend over.
            if prompt_tokens < 1:
                raise ValueError(
                    f"prompt_tokens must be >= 1, got {prompt_tokens}"
                )
            self.add_sequence("seq0", prompt_tokens)
        result = DecodeResult(
            layers=self.layers,
            tokens=tokens,
            prompt_tokens=self.cache.length("seq0"),
            page_tokens=self.cache.page_tokens,
        )
        for _ in range(tokens):
            result.steps.extend(self.step_batch(["seq0"]).reports)
            result.hidden_states.append(self.hidden_state("seq0").copy())
        # The last step's epoch is the most recently used one.
        graph = next(reversed(self._epochs.values())).graph
        result.memory_plan = plan_memory(graph)
        result.graph_name = graph.name
        result.pool_stats = self.pool.stats()
        result.cache_stats = self.cache.stats()
        result.residency_stats = self.residency.stats()
        return result

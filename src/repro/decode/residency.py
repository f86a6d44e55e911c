"""Weight-residency planning: stage/evict layers under an MRAM budget.

GPT-J 6B's per-layer weights (~192 MB as float32) dwarf one DPU's
64 KB… the point is general: once a model's weights exceed the PIM
side's staging budget, "transfer constants once before kernel launches"
(§5.4) stops being a one-time cost and becomes a *schedule* — which
layers sit resident, which get evicted, and when each re-stages.  The
planner tracks that state across decode steps and charges every stage
through the same explicit-transfer model as cache growth
(:func:`repro.decode.kv_cache.h2d_seconds`); evictions are free (the
weights are read-only — dropping them writes nothing back).

Decode accesses layers cyclically (0, 1, …, L-1, step after step),
which makes the offline-optimal ("belady") policy computable exactly:
the resident layer reused furthest in the future is always the one just
*behind* the cursor, and that is the one the planner evicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from ..obs import current_tracer
from ..upmem.config import UpmemConfig
from .kv_cache import h2d_seconds

__all__ = ["ResidencyError", "StageEvent", "WeightResidencyPlanner"]


class ResidencyError(RuntimeError):
    """Budget cannot hold a single layer, or a layer is out of range."""


@dataclass(frozen=True)
class StageEvent:
    """One residency transition while serving an access."""

    step: int
    layer: int
    #: ``"stage"`` (host→device transfer, charged) or ``"evict"``
    #: (read-only drop, free).
    action: str
    nbytes: int
    seconds: float


class WeightResidencyPlanner:
    """Stateful stage/evict scheduler over one model's layer weights."""

    def __init__(self, layer_nbytes: Sequence[int], budget_nbytes: int) -> None:
        if not layer_nbytes:
            raise ResidencyError("layer_nbytes must name at least one layer")
        biggest = max(layer_nbytes)
        if budget_nbytes < biggest:
            raise ResidencyError(
                f"budget {budget_nbytes} B cannot stage the largest layer"
                f" ({biggest} B) — no schedule exists"
            )
        self.layer_nbytes = tuple(int(n) for n in layer_nbytes)
        self.budget_nbytes = int(budget_nbytes)
        self.config = UpmemConfig()
        self._resident: Set[int] = set()
        self.stages = 0
        self.evictions = 0
        #: Running total of every stage's transfer seconds.
        self.staging_seconds = 0.0

    @property
    def all_fit(self) -> bool:
        """Whole model under budget: the schedule degenerates to the
        existing load-once staging model (L stages, zero evictions)."""
        return sum(self.layer_nbytes) <= self.budget_nbytes

    @property
    def resident_nbytes(self) -> int:
        return sum(self.layer_nbytes[l] for l in self._resident)

    # -- the schedule --------------------------------------------------------
    def _victim(self, incoming: int) -> int:
        """Belady under the cyclic access pattern: next use of resident
        layer r while staging layer l is (r - l) mod L steps away; evict
        the furthest (the layer just behind the cursor)."""
        n = len(self.layer_nbytes)
        return max(
            self._resident, key=lambda l: ((l - incoming) % n, l)
        )

    def access(self, step: int, layer: int) -> List[StageEvent]:
        """Serve one layer access of one decode step.

        Returns the transitions it forced: nothing for a resident hit,
        otherwise the evictions needed to make room followed by the
        stage of ``layer`` (charged at the explicit-transfer rate).
        """
        if not 0 <= layer < len(self.layer_nbytes):
            raise ResidencyError(
                f"layer {layer} out of range for"
                f" {len(self.layer_nbytes)} layers"
            )
        if layer in self._resident:
            return []
        new_events: List[StageEvent] = []
        need = self.layer_nbytes[layer]
        while self.resident_nbytes + need > self.budget_nbytes:
            victim = self._victim(layer)
            self._resident.remove(victim)
            self.evictions += 1
            new_events.append(
                StageEvent(
                    step=step,
                    layer=victim,
                    action="evict",
                    nbytes=self.layer_nbytes[victim],
                    seconds=0.0,
                )
            )
        self._resident.add(layer)
        self.stages += 1
        stage = StageEvent(
            step=step,
            layer=layer,
            action="stage",
            nbytes=need,
            seconds=h2d_seconds(need, self.config),
        )
        new_events.append(stage)
        self.staging_seconds += stage.seconds
        tracer = current_tracer()
        if tracer.enabled:
            for event in new_events:
                if event.action == "stage":
                    tracer.timed_span(
                        f"stage L{event.layer}",
                        track="residency",
                        cat="residency",
                        dur_s=event.seconds,
                        args={"step": event.step, "nbytes": event.nbytes},
                    )
                else:  # evictions are free: a point, not an extent
                    tracer.instant(
                        f"evict L{event.layer}",
                        track="residency",
                        cat="residency",
                        args={"step": event.step, "nbytes": event.nbytes},
                    )
        return new_events

    # -- introspection -------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        return {
            "policy": "belady",
            "layers": len(self.layer_nbytes),
            "budget_bytes": self.budget_nbytes,
            "resident_layers": len(self._resident),
            "resident_bytes": self.resident_nbytes,
            "all_fit": self.all_fit,
            "stages": self.stages,
            "evictions": self.evictions,
            "staging_seconds": self.staging_seconds,
        }

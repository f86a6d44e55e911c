"""Labeled metric series: counters and histograms.

A :class:`MetricsRegistry` holds named metric families; each family
fans out into one series per distinct label set (Prometheus-style, but
in-process and JSON-safe).  Labels are plain ``str -> str`` mappings,
canonicalised by sorting, so ``{"a": "1", "b": "2"}`` and
``{"b": "2", "a": "1"}`` address the same series and ``export()``
output is byte-stable.

The registry makes no timing claims of its own — pair it with the
:class:`~repro.obs.tracer.Tracer` (every tracer owns one as
``tracer.metrics``) when samples should line up with a trace.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["Counter", "Histogram", "MetricsRegistry"]

Labels = Optional[Dict[str, str]]
_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Labels) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (events, bytes, hits)."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: Dict[_LabelKey, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, labels: Labels = None) -> float:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        key = _label_key(labels)
        with self._lock:
            value = self._values.get(key, 0.0) + amount
            self._values[key] = value
            return value

    def value(self, labels: Labels = None) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def export(self) -> Dict[str, Any]:
        with self._lock:
            series = [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ]
        return {"name": self.name, "kind": self.kind, "series": series}


class Histogram:
    """Observations bucketed by fixed edges, plus sum/count/min/max.

    ``edges`` are the *upper* bounds of the finite buckets; one
    overflow bucket catches everything above the last edge, so
    ``len(counts) == len(edges) + 1``.
    """

    kind = "histogram"

    DEFAULT_EDGES = (
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
    )

    def __init__(
        self, name: str, edges: Optional[Sequence[float]] = None
    ) -> None:
        self.name = name
        chosen = tuple(float(e) for e in (edges or self.DEFAULT_EDGES))
        if list(chosen) != sorted(chosen) or len(set(chosen)) != len(chosen):
            raise ValueError(
                f"histogram {name!r} edges must be strictly increasing,"
                f" got {chosen}"
            )
        self.edges = chosen
        self._series: Dict[_LabelKey, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    def _blank(self) -> Dict[str, Any]:
        return {
            "counts": [0] * (len(self.edges) + 1),
            "sum": 0.0,
            "count": 0,
            "min": None,
            "max": None,
        }

    def observe(self, value: float, labels: Labels = None) -> None:
        value = float(value)
        key = _label_key(labels)
        with self._lock:
            series = self._series.setdefault(key, self._blank())
            bucket = len(self.edges)
            for i, edge in enumerate(self.edges):
                if value <= edge:
                    bucket = i
                    break
            series["counts"][bucket] += 1
            series["sum"] += value
            series["count"] += 1
            series["min"] = (
                value if series["min"] is None else min(series["min"], value)
            )
            series["max"] = (
                value if series["max"] is None else max(series["max"], value)
            )

    def value(self, labels: Labels = None) -> Dict[str, Any]:
        series = self._series.get(_label_key(labels))
        if series is None:
            return self._blank()
        return {**series, "counts": list(series["counts"])}

    def export(self) -> Dict[str, Any]:
        with self._lock:
            series = [
                {
                    "labels": dict(key),
                    "counts": list(s["counts"]),
                    "sum": s["sum"],
                    "count": s["count"],
                    "min": s["min"],
                    "max": s["max"],
                }
                for key, s in sorted(self._series.items())
            ]
        return {
            "name": self.name,
            "kind": self.kind,
            "edges": list(self.edges),
            "series": series,
        }


Metric = Union[Counter, Histogram]


class MetricsRegistry:
    """Named metric families, created on first use.

    ``registry.counter("pool.hits").inc(labels={"key": label})`` — the
    family is created if absent, re-fetched (and type-checked) if not.
    ``export()`` returns a JSON-safe dict, families and series sorted,
    suitable for ``json.dump(..., sort_keys=True)`` byte-stability.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, **kwargs) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as"
                    f" {metric.kind}, not {cls.kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(
        self, name: str, edges: Optional[Sequence[float]] = None
    ) -> Histogram:
        metric = self._get(name, Histogram, edges=edges)
        if edges is not None and tuple(float(e) for e in edges) != metric.edges:
            raise ValueError(
                f"histogram {name!r} already registered with edges"
                f" {metric.edges}"
            )
        return metric

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def export(self) -> Dict[str, Any]:
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.export() for name, metric in sorted(metrics)}

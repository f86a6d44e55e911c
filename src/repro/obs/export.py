"""The trace exporter: Chrome trace-event JSON.

:func:`chrome_trace` is the export in memory and
:func:`write_chrome_trace` the same object on disk; it loads directly
in Perfetto / ``chrome://tracing``.

Track-to-lane mapping: the prefix before the first ``.`` in a track
name is its *subsystem* and becomes the Chrome ``pid`` (so "pipeline",
"serve.requests" and "serve.device" render as separate process groups
with named lanes); the full track name becomes the ``tid``.  Both are
assigned by sorted order, and the JSON is dumped with sorted keys, so
the same tracer contents always serialise to the same bytes.

Virtual seconds become Chrome microseconds (the unit the viewers
expect); values are rounded to 3 decimals (nanosecond grain) purely to
keep float formatting stable across platforms.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Tuple

from .tracer import Tracer

__all__ = ["chrome_trace", "write_chrome_trace"]


def _jsonable(value: Any) -> Any:
    """``value`` in plain JSON types, for the trace's args and the
    harness's ``--json`` rows: finite floats as they are, NaN and ±inf
    as their ``repr`` (bare ``NaN`` is not JSON), tuples as lists, sets
    as lists sorted by ``repr``, NumPy scalars through ``item()``,
    anything else as its ``repr``."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        value = sorted(value, key=repr)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    # NumPy scalars and one-value arrays, duck-typed: ``obs`` imports no
    # NumPy, and any value with an ``item()`` exports what it holds.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):  # an array of more than one value
            pass
    return repr(value)


def _lanes(tracer: Tracer) -> Dict[str, Tuple[int, int, str]]:
    """track -> (pid, tid, subsystem), assigned in sorted order."""
    tracks = tracer.tracks()
    subsystems = sorted({t.split(".", 1)[0] for t in tracks})
    pid_of = {s: i + 1 for i, s in enumerate(subsystems)}
    lanes: Dict[str, Tuple[int, int, str]] = {}
    tid = 0
    for track in tracks:
        tid += 1
        subsystem = track.split(".", 1)[0]
        lanes[track] = (pid_of[subsystem], tid, subsystem)
    return lanes


def _us(seconds: float) -> float:
    """Virtual seconds -> Chrome microseconds, nanosecond-rounded."""
    return round(seconds * 1e6, 3)


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The tracer's contents as a Chrome trace-event JSON object."""
    lanes = _lanes(tracer)
    events: List[Dict[str, Any]] = []
    named_pids = set()
    for track, (pid, tid, subsystem) in sorted(lanes.items()):
        if pid not in named_pids:
            named_pids.add(pid)
            events.append(
                {
                    "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": subsystem},
                }
            )
        events.append(
            {
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": track},
            }
        )
    for phase, name, track, ts, cat, args, wall_ts in tracer.events:
        pid, tid, _ = lanes[track]
        out: Dict[str, Any] = {
            "ph": phase,
            "name": name,
            "pid": pid,
            "tid": tid,
            "ts": _us(ts),
        }
        if cat:
            out["cat"] = cat
        if phase == "i":
            out["s"] = "t"
        args = _jsonable(args) if args else None
        if wall_ts is not None:
            args = dict(args or {})
            args["wall_ms"] = round(wall_ts * 1e3, 6)
        if args:
            out["args"] = args
        events.append(out)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual", "generator": "repro.obs"},
    }


def write_chrome_trace(tracer: Tracer, path: str) -> Dict[str, Any]:
    """Write the Chrome trace JSON to ``path`` (byte-deterministic for
    virtual-clock tracers); returns the exported object."""
    payload = chrome_trace(tracer)
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True, indent=1)
        f.write("\n")
    return payload


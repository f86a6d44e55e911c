"""Structural validation of Chrome trace-event JSON.

:func:`trace_lint` checks what the CI benchmark-smoke job needs to
trust an uploaded trace artifact:

* the file parses as JSON and has a non-empty ``traceEvents`` list;
* every event carries the required fields for its phase;
* per (pid, tid) lane, timestamps are monotonically non-decreasing;
* per lane, "B"/"E" events balance like parentheses and each "E"
  closes the "B" with the matching name.

``python -m repro.obs TRACE.json`` runs it on a file.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

__all__ = ["trace_lint"]

_TIMED_PHASES = ("B", "E", "i", "C", "X")


def trace_lint(payload: Any) -> List[str]:
    """Return the list of problems found (empty == clean).

    ``payload`` is a parsed trace (an object or a bare event array) or
    the path of a trace file.
    """
    if isinstance(payload, str):
        try:
            with open(payload) as f:
                payload = json.load(f)
        except (OSError, ValueError) as exc:
            return [f"not valid trace JSON: {exc}"]

    if isinstance(payload, dict):
        events = payload.get("traceEvents")
    elif isinstance(payload, list):
        events = payload
    else:
        return [f"trace must be an object or array, got {type(payload).__name__}"]
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    if not events:
        return ["traceEvents is empty"]

    problems: List[str] = []
    last_ts: Dict[Tuple[Any, Any], float] = {}
    stacks: Dict[Tuple[Any, Any], List[str]] = {}

    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event #{i} is not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            problems.append(f"event #{i} has no phase ('ph')")
            continue
        lane = (event.get("pid"), event.get("tid"))
        if phase == "M":
            continue
        if phase in _TIMED_PHASES:
            ts = event.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(
                    f"event #{i} ({phase} {event.get('name')!r}) has no"
                    " numeric ts"
                )
                continue
            prev = last_ts.get(lane)
            if prev is not None and ts < prev:
                problems.append(
                    f"event #{i} ({phase} {event.get('name')!r}) moves"
                    f" lane pid={lane[0]} tid={lane[1]} backwards:"
                    f" ts {ts} < {prev}"
                )
            last_ts[lane] = max(prev, ts) if prev is not None else ts
        if phase == "B":
            stacks.setdefault(lane, []).append(str(event.get("name")))
        elif phase == "E":
            stack = stacks.setdefault(lane, [])
            if not stack:
                problems.append(
                    f"event #{i} closes {event.get('name')!r} on lane"
                    f" pid={lane[0]} tid={lane[1]} with no open span"
                )
            else:
                opened = stack.pop()
                name = event.get("name")
                if name is not None and str(name) != opened:
                    problems.append(
                        f"event #{i} closes {name!r} but the open span on"
                        f" lane pid={lane[0]} tid={lane[1]} is {opened!r}"
                    )

    for lane, stack in sorted(stacks.items(), key=repr):
        if stack:
            problems.append(
                f"lane pid={lane[0]} tid={lane[1]} ends with unclosed"
                f" span(s): {stack}"
            )
    return problems


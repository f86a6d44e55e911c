"""Unified observability: virtual-clock tracing, its export and lint.

One timeline from compile to decode.  Every subsystem (pipeline, pool,
serve, graph, KV cache, weight residency, decode loop) reports into the
process-wide — but explicitly scoped — :class:`Tracer`: nested spans,
instant events and counter samples on named *tracks*, stamped with
**virtual-clock** times derived from the simulated cost models (never
wall time), so a trace is bit-for-bit identical at any host thread
count and under ``REPRO_SIM_MODE=verify``.  Wall-clock capture is an
opt-in (``Tracer(wall_clock=True)``) for host profiling and is the one
thing that makes a trace machine-dependent.

Tracing is off by default: the ambient tracer is a shared
:data:`NULL_TRACER` whose every method is a no-op, so instrumented hot
paths pay nothing when nobody is looking.  Scope a real tracer with
:func:`use_tracer`; its :attr:`Tracer.events` list is the whole trace
(:attr:`Tracer.spans` and :meth:`Tracer.top_spans` fold it).  Then:

* :func:`write_chrome_trace` — Chrome trace-event JSON (loads in
  Perfetto / ``chrome://tracing``): one process per subsystem, one
  thread per track, balanced B/E span events; :func:`chrome_trace` is
  the same object in memory;
* :func:`trace_lint` — structural validation (valid JSON, monotonic
  timestamps per track, balanced B/E events), also runnable as
  ``python -m repro.obs trace.json``.

::

    from repro.obs import Tracer, use_tracer, write_chrome_trace

    tracer = Tracer()
    with use_tracer(tracer):
        engine.decode(tokens=5)
    write_chrome_trace(tracer, "decode_trace.json")
    for span in tracer.top_spans(5):
        print(span.name, span.dur)
"""

from .tracer import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    TraceEvent,
    Tracer,
    current_tracer,
    use_tracer,
)
from .export import chrome_trace, write_chrome_trace
from .lint import trace_lint

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "SpanRecord",
    "current_tracer",
    "use_tracer",
    "chrome_trace",
    "write_chrome_trace",
    "trace_lint",
]

"""Wall-clock spans around the program's public entry points.

The traced run times each layer from outside: for the length of one
pass, the public functions and methods listed in :data:`PROBES` are
replaced by wrappers that record a span (name, start, end, parent,
thread) and are put back afterwards.  Names are resolved by
string, so a probed name a refactor removed is skipped and its metrics
read 0 — the run does not crash.  The end-to-end run never imports this
file's wrappers into the program.

A layer's ``*_s`` metric is the **self** time of its spans: the part of
the span no child span covers.  Where children overlap — jobs of one
``Executor.map`` running on two pool threads — the overlapped wall time
is split evenly among the spans active at that moment, so self times of
all spans always sum to the wall time of the pass, whatever the thread
count.  (A thread blocked on the GIL inside a span still counts as
active: at width 2 the cost of contention shows up as *larger*
``upmem.run_s``, not as executor time.)
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = "bench.pass"


class Span:
    __slots__ = ("name", "start", "end", "parent", "tid", "children")

    def __init__(self, name: str, parent: Optional["Span"], tid: int) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.tid = tid
        self.children: List["Span"] = []


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Objects hooks set aside for after the pass (last graph built,
        #: lowered modules executed).
        self.kept: Dict[str, Any] = {}
        self._local = threading.local()
        self._tids: Dict[int, int] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        ident = threading.get_ident()
        tid = self._tids.setdefault(ident, len(self._tids))
        span = Span(name, parent, tid)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.children.append(span)
            self.spans.append(span)

    def adopt(self, fn: Callable, parent: Span) -> Callable:
        """``fn`` for a pool thread: spans it opens there become
        children of ``parent`` (the ``Executor.map`` that fanned out)."""

        def run(item):
            stack = self._stack()
            if stack:  # sequential path: already under ``parent``
                return fn(item)
            stack.append(parent)
            try:
                return fn(item)
            finally:
                stack.pop()

        return run


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

# Hooks see (recorder, args, result-or-None, exception-or-None).


def _hook_rejected(rec, args, result, exc) -> None:
    if exc is not None:
        rec.counters["lowering.rejected"] += 1


def _hook_lanes(rec, args, result, exc) -> None:
    executor, _, points = args[:3]
    rec.counters["upmem.lanes"] += len(points)
    rec.kept.setdefault("modules", {})[id(executor.module)] = executor.module


def _hook_graph(rec, args, result, exc) -> None:
    if result is not None:
        rec.kept["graph"] = result


def _hook_step(rec, args, result, exc) -> None:
    if result is None:
        return
    c = rec.counters
    c["decode.replans"] += bool(result.replanned)
    c["decode.compiled_programs"] += result.compiled_programs
    c["graph.virtual_compute_ms"] += result.compute_s * 1e3
    c["graph.virtual_h2d_ms"] += result.h2d_s * 1e3
    c["graph.virtual_d2h_ms"] += result.d2h_s * 1e3
    c["graph.virtual_staging_ms"] += result.staging_s * 1e3
    c["decode.virtual_cache_growth_ms"] += result.cache_growth_s * 1e3


def _optim_name(args) -> str:
    return "optim." + str(getattr(args[0], "name", "pass"))


#: (module, attribute path, span name or callable(args) -> name,
#:  calls metric or None, hook or None).  The time metric of a span is
#: ``SELF_METRIC[name]`` (default ``name + "_s"``).  A function that
#: other modules import by name is probed where it is *used*.
PROBES: List[Tuple[str, str, Any, Optional[str], Optional[Callable]]] = [
    ("repro.autotune.compile", "generate_schedule", "schedule.sketch",
     "schedule.sketch_calls", None),
    ("repro.pipeline.passes", "lower", "lowering.lower",
     "lowering.lower_calls", _hook_rejected),
    ("repro.pipeline.passes", "KernelPass.run", _optim_name, None, None),
    ("repro.pipeline.core", "PassManager.run", "pipeline.run", None, None),
    ("repro.upmem.system", "PerformanceModel.profile", "upmem.profile",
     "upmem.profile_calls", None),
    ("repro.upmem.vectorize", "KernelPlan.__init__", "upmem.plan_build",
     "upmem.plan_builds", None),
    ("repro.upmem.vectorize", "HostProgram.__init__", "upmem.plan_build",
     "upmem.plan_builds", None),
    ("repro.upmem.executor", "FunctionalExecutor.prepare", "upmem.run",
     None, None),
    ("repro.upmem.executor", "FunctionalExecutor.run_points", "upmem.run",
     "upmem.run_calls", _hook_lanes),
    ("repro.upmem.executor", "FunctionalExecutor.finalize", "upmem.run",
     None, None),
    ("repro.autotune.tuner", "Tuner.tune", "autotune.search", None, None),
    ("repro.target.compile", "compile", "target.compile",
     "target.compile_calls", None),
    ("repro.target", "compile", "target.compile",
     "target.compile_calls", None),
    ("repro", "compile", "target.compile", "target.compile_calls", None),
    ("repro.target.executor", "Executor.map", "target.executor",
     "target.executor_maps", None),  # wrapped specially: see _wrap_map
    ("repro.decode.engine", "gptj_model_graph", "graph.build", None,
     _hook_graph),
    ("repro.decode.engine", "place", "graph.place", None, None),
    ("repro.graph.executable", "GraphExecutable.__init__", "graph.compile",
     None, None),
    ("repro.graph.executable", "GraphExecutable.run_tensors", "graph.run",
     "graph.run_calls", None),
    ("repro.decode.engine", "DecodeEngine.step_seq", "decode.step",
     "decode.steps", _hook_step),
    ("repro.decode.kv_cache", "PagedKVCache.append", "decode.kv_append",
     None, None),
    ("repro.decode.kv_cache", "PagedKVCache.dense_kv", "decode.kv_gather",
     None, None),
    ("repro.decode.kv_cache", "PagedKVCache.attention_mask",
     "decode.kv_gather", None, None),
    ("repro.serve.server", "Server.submit", "serve.submit", None, None),
    ("repro.serve.server", "Server.tick", "serve.tick", None, None),
    ("repro.serve.server", "Server.drain", "serve.tick", None, None),
    ("repro.serve.pool", "ExecutablePool.get", "serve.pool_load", None, None),
    ("repro.cluster.cluster", "Cluster.run", "cluster.loop", None, None),
    ("repro.cluster.worker", "Worker.iterate", "cluster.iterate", None, None),
]

#: Span name -> metric its self time is reported as.
SELF_METRIC = {
    "pipeline.run": "pipeline.run_self_s",
    "autotune.search": "autotune.search_self_s",
    "target.executor": "target.executor_self_s",
    "graph.run": "graph.run_self_s",
    "decode.step": "decode.step_self_s",
    "serve.submit": "serve.submit_self_s",
    "serve.tick": "serve.tick_self_s",
    "cluster.loop": "cluster.loop_self_s",
    "cluster.iterate": "cluster.iterate_self_s",
    ROOT: "bench.unattributed_s",
}


def _wrap(rec: Recorder, fn: Callable, name: Any, calls, hook) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(args) if callable(name) else name
        if calls:
            rec.counters[calls] += 1
        with rec.span(span_name):
            if hook is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                hook(rec, args, None, exc)
                raise
            hook(rec, args, result, None)
            return result

    return wrapper


def _wrap_map(rec: Recorder, fn: Callable, name: str, calls) -> Callable:
    """``Executor.map``: count jobs and hand the span to pool threads."""

    @functools.wraps(fn)
    def wrapper(self, job, items):
        items = list(items)
        rec.counters[calls] += 1
        rec.counters["target.executor_jobs"] += len(items)
        with rec.span(name) as span:
            return fn(self, rec.adopt(job, span), items)

    return wrapper


@contextmanager
def probes(rec: Recorder) -> Iterator[List[str]]:
    """Install every resolvable probe; yields the list that were not
    found; restores the originals on exit."""
    installed: List[Tuple[Any, str, Any]] = []
    missing: List[str] = []
    wrapped: Dict[int, Callable] = {}
    try:
        for module, path, name, calls, hook in PROBES:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module}:{path}")
                continue
            # One wrapper per function however many names reach it, so
            # repro.compile is one span, not three nested ones.
            wrapper = wrapped.get(id(original))
            if wrapper is None:
                if path == "Executor.map":
                    wrapper = _wrap_map(rec, original, name, calls)
                else:
                    wrapper = _wrap(rec, original, name, calls, hook)
                wrapped[id(original)] = wrapper
            setattr(owner, attr, wrapper)
            installed.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------

Segment = Tuple[float, float, float]  # start, end, weight


def self_times(root: Span) -> Dict[str, float]:
    """Self seconds per span name under ``root``; the values sum to
    ``root.end - root.start`` (see the module docstring for how
    overlapping children share wall time)."""
    totals: Dict[str, float] = defaultdict(float)
    work: List[Tuple[Span, List[Segment]]] = [
        (root, [(root.start, root.end, 1.0)])
    ]
    while work:
        span, segments = work.pop()
        if not span.children:
            totals[span.name] += sum((b - a) * w for a, b, w in segments)
            continue
        children = sorted(span.children, key=lambda c: c.start)
        granted: Dict[int, List[Segment]] = {id(c): [] for c in children}
        cuts = sorted(
            {t for a, b, _ in segments for t in (a, b)}
            | {t for c in children for t in (c.start, c.end)}
        )
        seg_i = 0
        child_i = 0
        active: List[Span] = []
        for a, b in zip(cuts, cuts[1:]):
            while seg_i < len(segments) and segments[seg_i][1] <= a:
                seg_i += 1
            if seg_i == len(segments):
                break
            s0, _, weight = segments[seg_i]
            while child_i < len(children) and children[child_i].start <= a:
                active.append(children[child_i])
                child_i += 1
            active = [c for c in active if c.end > a]
            if s0 > a or b <= a:
                continue  # a gap between this span's own segments
            if not active:
                totals[span.name] += (b - a) * weight
            else:
                share = weight / len(active)
                for child in active:
                    granted[id(child)].append((a, b, share))
        for child in children:
            work.append((child, granted[id(child)]))
    return dict(totals)


def layer_metrics(rec: Recorder, root: Span) -> Dict[str, float]:
    """Span self times and counters under their metric names."""
    out: Dict[str, float] = {}
    for name, seconds in self_times(root).items():
        metric = SELF_METRIC.get(name, name + "_s")
        out[metric] = out.get(metric, 0.0) + seconds
    counters = dict(rec.counters)
    lanes = counters.pop("upmem.lanes", 0.0)
    out.update(counters)
    if counters.get("upmem.run_calls"):
        out["upmem.lanes_per_run"] = lanes / counters["upmem.run_calls"]
    return out


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def write_chrome_trace(rec: Recorder, root: Span, path: str, meta: Dict) -> int:
    """Write the spans as Chrome trace-event JSON (one lane per thread,
    complete "X" events in start order); returns the event count."""
    ids = {id(s): i for i, s in enumerate(rec.spans)}
    events: List[Dict] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": "perf " + str(meta.get("workload", ""))}}
    ]
    for tid in sorted({s.tid for s in rec.spans}):
        events.append(
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
             "args": {"name": "main" if tid == root.tid else f"pool-{tid}"}}
        )
    # Parents first at equal start, so viewers nest them properly.
    for span in sorted(rec.spans, key=lambda s: (s.tid, s.start, -s.end)):
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "pid": 1,
                "tid": span.tid,
                "ts": round((span.start - root.start) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "args": {
                    "id": ids[id(span)],
                    "parent": ids.get(id(span.parent)),
                    "pass": meta.get("pass"),
                },
            }
        )
    with open(path, "w") as f:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta},
            f,
        )
        f.write("\n")
    return len(events)


# ---------------------------------------------------------------------------
# the program's own tracer, and measurements taken after the pass
# ---------------------------------------------------------------------------


def program_tracer():
    """A ``repro.obs.Tracer`` stamping wall time: installed for the
    traced pass so its cost is part of ``obs.overhead_share``."""
    return importlib.import_module("repro.obs").Tracer(wall_clock=True)


def use_program_tracer(tracer):
    return importlib.import_module("repro.obs").use_tracer(tracer)


def lint(path: str) -> List[str]:
    """The program's trace lint over a Chrome trace file."""
    problems = importlib.import_module("repro.obs").trace_lint(path)
    return [f"{path}: {p}" for p in problems]


def export_program_trace(tracer, path: str) -> List[str]:
    """Write the program tracer's events and lint the file."""
    importlib.import_module("repro.obs").write_chrome_trace(tracer, path)
    return lint(path)


def after_pass_metrics(rec: Recorder) -> Dict[str, float]:
    """Figures read off objects the probes set aside: scalar fallbacks
    in the vector plans that ran, and the memory plan of the last graph
    built (planned here, timed on its own: no pass calls the planner)."""
    out: Dict[str, float] = {}
    modules = rec.kept.get("modules", {})
    if modules:
        plan_for = importlib.import_module("repro.upmem").plan_for
        out["upmem.fallbacks"] = sum(
            len(plan_for(m).fallbacks) for m in modules.values()
        )
    graph = rec.kept.get("graph")
    if graph is not None:
        plan_memory = importlib.import_module("repro.graph").plan_memory
        t0 = time.perf_counter()
        plan = plan_memory(graph)
        out["graph.plan_memory_s"] = time.perf_counter() - t0
        out["graph.nodes"] = len(graph.nodes)
        out["graph.arena_reuse_ratio"] = plan.reuse_ratio
    return out

"""The five workloads, written against the program's public API.

This is the only file that imports ``repro`` for the end-to-end run; the
surface it touches is listed in ``perf/README.md`` so a refactor knows
what it has to keep.  Each workload has the same four methods:

``__init__(seed, sizes)``
    build the inputs (from ``perf.traffic``) and whatever a long-lived
    process would build once — set-up, untimed;
``run_pass()``
    one timed pass over fresh program objects; returns a :class:`Pass`;
``digest(result)``
    sha256 over the pass's outputs — equal across passes and processes
    of one seed, or the run fails;
``check(result)``
    the untimed correctness checks: (attempted, failed, messages).
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro import autotune as _autotune
from repro import cluster as _cluster
from repro import decode as _decode
from repro import graph as _graph
from repro import serve as _serve
from repro import upmem as _upmem
from repro import workloads as _workloads

from . import traffic


@dataclass
class Pass:
    """What one pass did, on both clocks' terms except host time (the
    caller holds the stopwatch)."""

    #: Operations attempted / failed inside the pass (trials, kernel
    #: runs, tokens, requests).
    ops: int
    failed: int
    #: Simulated seconds the pass spans.
    virtual_s: float
    #: Workload-specific virtual end-to-end metrics (spec.py names).
    virtual: Dict[str, float] = field(default_factory=dict)
    #: Per-layer counts read off the program's own result objects.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Program objects ``digest``/``check`` need; never serialized.
    payload: Any = None


def _sha(chunks: Sequence[bytes]) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _bytes(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the rank a sample count supports)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    # float32 accumulation over up to 8M terms against NumPy's pairwise
    # float64/float32 sums: 1e-3 relative is the repo's own tolerance.
    return bool(
        np.allclose(
            np.asarray(got, dtype=np.float64),
            np.asarray(want, dtype=np.float64),
            rtol=1e-3,
            atol=1e-3,
        )
    )


def _compile_cache_counts(before, after) -> Dict[str, float]:
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    return {"pipeline.cache_hits": hits, "pipeline.cache_misses": misses}


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------


class Tune:
    """Cold autotuning searches, one per op, private cache each."""

    def __init__(self, seed: int, sizes: Dict) -> None:
        self.seed = seed
        self.n_trials = sizes["n_trials"]
        self.workloads = [
            _workloads.make_workload(op, sizes["size"]) for op in sizes["ops"]
        ]
        #: The paper's baseline: PrIM's hand-written kernel, same size.
        self.prim_latency = [
            repro.compile(wl, target="prim", size=sizes["size"]).latency
            for wl in self.workloads
        ]
        self._engines: List[Any] = []

    def run_pass(self, db: Optional[str] = None, resume: bool = False) -> Pass:
        """``db`` (traced run only) persists measurements and compiles
        through engines kept on ``self``, so :meth:`run_pass` with
        ``resume=True`` can replay the same searches from both."""
        extra: List[Dict] = [{} for _ in self.workloads]
        if db is not None:
            if not self._engines:
                self._engines = [
                    _autotune.CompileEngine() for _ in self.workloads
                ]
            extra = [
                {"db": db, "resume": resume, "engine": engine}
                for engine in self._engines
            ]
        results = [
            _autotune.autotune(
                wl, n_trials=self.n_trials, seed=self.seed, **kwargs
            )
            for wl, kwargs in zip(self.workloads, extra)
        ]
        trials = sum(len(r.measured) for r in results)
        best = [r.best_latency for r in results]
        speedups = [p / b for p, b in zip(self.prim_latency, best)]
        hits = sum(r.compile_cache_hits for r in results)
        misses = sum(r.compile_cache_misses for r in results)
        m_hits = sum(r.measure_cache_hits for r in results)
        m_misses = sum(r.measure_cache_misses for r in results)
        return Pass(
            ops=trials,
            failed=0,
            virtual_s=sum(best),
            virtual={
                "virtual_speedup_vs_prim": math.exp(
                    sum(math.log(s) for s in speedups) / len(speedups)
                )
            },
            counts={
                "pipeline.cache_hits": hits,
                "pipeline.cache_misses": misses,
                "autotune.trials": trials,
                "autotune.candidates_built": hits + misses,
                "autotune.useful_ratio": trials / max(1, hits + misses),
                "autotune.measure_cache_hit_rate": m_hits
                / max(1, m_hits + m_misses),
            },
            payload=results,
        )

    def digest(self, result: Pass) -> str:
        return _sha(
            [
                repr((sorted(r.best_params.items()), r.best_latency)).encode()
                for r in result.payload
            ]
        )

    def check(self, result: Pass) -> Tuple[int, int, List[str]]:
        """Each winner recompiles through the front door to the latency
        the search reported and computes the right answer."""
        failed: List[str] = []
        for wl, res in zip(self.workloads, result.payload):
            exe = repro.compile(wl, params=res.best_params)
            if exe.latency != res.best_latency:
                failed.append(
                    f"tune {wl.name}: recompiled latency {exe.latency!r}"
                    f" != best_latency {res.best_latency!r}"
                )
            inputs = wl.random_inputs(seed=self.seed)
            (out,) = exe.run(inputs)
            if not _close(out, wl.reference_output(inputs)):
                failed.append(f"tune {wl.name}: winner output != reference")
        return 2 * len(self.workloads), len(failed), failed


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class Kernels:
    """Steady-state functional execution of compiled kernels."""

    def __init__(self, seed: int, sizes: Dict) -> None:
        nominal = [
            (op, tuple(_workloads.SIZED_WORKLOADS[op][size]))
            for op, size in sizes["kernels"]
        ]
        self.items = []
        for i, (op, shape) in enumerate(traffic.kernel_shapes(seed, nominal)):
            wl = getattr(_workloads, op)(*shape)
            exe = repro.compile(wl, target="upmem")
            self.items.append((wl, exe, wl.random_inputs(seed=seed * 16 + i)))

    def run_pass(self) -> Pass:
        before = _autotune.default_engine().stats.snapshot()
        outs = [exe.run(inputs) for _, exe, inputs in self.items]
        after = _autotune.default_engine().stats.snapshot()
        return Pass(
            ops=len(outs),
            failed=0,
            virtual_s=sum(exe.latency for _, exe, _ in self.items),
            counts=_compile_cache_counts(before, after),
            payload=outs,
        )

    def digest(self, result: Pass) -> str:
        return _sha([_bytes(out[0]) for out in result.payload])

    def check(self, result: Pass) -> Tuple[int, int, List[str]]:
        failed: List[str] = []
        fallbacks = 0
        for (wl, exe, inputs), out in zip(self.items, result.payload):
            if not _close(out[0], wl.reference_output(inputs)):
                failed.append(f"kernels {wl.name}{wl.shape}: output != reference")
            fallbacks += len(_upmem.plan_for(exe.lowered).fallbacks)
        if fallbacks:
            failed.append(f"kernels: {fallbacks} scalar fallbacks in vector plans")
        return len(self.items) + 1, len(failed), failed


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


#: Largest distance between a graph output and its NumPy reference that
#: still counts as equal, as a share of the reference tensor's largest
#: element.  float32 rounding reaches 1.2e-6 over a hundred seeds; a
#: wrong element is off by its own size.
_GRAPH_TOLERANCE = 1e-4


@contextmanager
def _graph_runs_vs_reference() -> Iterator[List[float]]:
    """For an untimed check pass: every ``GraphExecutable.run_tensors``
    inside the block also evaluates ``graph.reference_outputs`` (NumPy)
    on the same inputs; yields the list that receives, per run, the
    worst distance of an output from its reference on the scale of that
    tensor.

    ``DecodeEngine(check_references=True)`` makes the same comparison
    element by element (rtol 2e-3, atol 1e-5), which float32 rounding
    alone fails once the un-normalised hidden state has grown: at six
    tokens and three layers an element that cancels to nearly zero
    misses it at about one seed in thirty (16, 37, 76 and 92 of the
    first hundred).  Measuring on the tensor's scale has no such seeds.
    """
    errors: List[float] = []
    original = _graph.GraphExecutable.run_tensors

    def run_tensors(self, inputs):
        outs = original(self, inputs)
        reference = self.graph.reference_outputs(inputs)
        distances = []
        for name, want in reference.items():
            want = np.asarray(want, dtype=np.float64)
            scale = float(np.max(np.abs(want))) or 1.0
            distances.append(np.max(np.abs(outs[name] - want)) / scale)
        errors.append(float(np.max(distances)))  # NaN stays NaN
        return outs

    _graph.GraphExecutable.run_tensors = run_tensors
    try:
        yield errors
    finally:
        _graph.GraphExecutable.run_tensors = original


class Decode:
    """Multi-sequence decode on a fresh engine per pass."""

    def __init__(self, seed: int, sizes: Dict) -> None:
        self.seed = seed
        self.sizes = sizes
        prompts = traffic.decode_prompts(seed, sizes["sequences"])
        # The name seeds each sequence's prompt rows and first hidden
        # state inside the engine, so it carries the seed too.
        self.sequences = [(f"r{seed}-q{i}", p) for i, p in enumerate(prompts)]

    def run_pass(self) -> Pass:
        sizes = self.sizes
        before = _autotune.default_engine().stats.snapshot()
        engine = _decode.DecodeEngine(
            layers=sizes["layers"],
            page_tokens=sizes["page_tokens"],
            check_references=False,
            max_resident_epochs=sizes["max_resident_epochs"],
            seed=self.seed,
        )
        names = [name for name, _ in self.sequences]
        for name, prompt in self.sequences:
            engine.add_sequence(name, prompt_tokens=prompt)
        reports = []
        for _ in range(sizes["iterations"]):
            reports.extend(engine.step_batch(names).reports)
        after = _autotune.default_engine().stats.snapshot()
        kv = engine.cache.stats()
        pool = engine.pool.stats()
        virtual_s = sum(r.total_s for r in reports)
        return Pass(
            ops=len(reports),
            failed=0,
            virtual_s=virtual_s,
            counts={
                **_compile_cache_counts(before, after),
                "decode.kv_pages_used": kv["pages_allocated"],
                "decode.kv_utilization": kv["utilization"],
                "serve.pool_hits": pool["hits"],
                "serve.pool_misses": pool["misses"],
                "serve.pool_evictions": pool["evictions"],
            },
            payload=(engine, reports),
        )

    def digest(self, result: Pass) -> str:
        engine, _ = result.payload
        return _sha([_bytes(engine.hidden_state(n)) for n, _ in self.sequences])

    def check(self, result: Pass) -> Tuple[int, int, List[str]]:
        """A second pass whose every graph execution is compared with
        the graph's NumPy reference, and which must end in the same
        hidden states as the timed passes."""
        with _graph_runs_vs_reference() as errors:
            checked = self.run_pass()
        _, reports = checked.payload
        failed = [
            f"decode {r.sequence} step {r.step}: graph output is {error:.3g}"
            " of its largest element away from the reference"
            for r, error in zip(reports, errors)
            if not error <= _GRAPH_TOLERANCE
        ]
        if len(errors) != len(reports):
            failed.append(
                f"decode: {len(errors)} graph runs checked for"
                f" {len(reports)} tokens"
            )
        attempted = len(reports) + 1
        if self.digest(checked) != self.digest(result):
            failed.append("decode: checked pass ended in different hidden states")
        return attempted, len(failed), failed


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


class Serve:
    """Whole-request dynamic batching under open-loop arrivals."""

    def __init__(self, seed: int, sizes: Dict) -> None:
        self.sizes = sizes
        mix = _serve.gptj_serving_mix(tokens=sizes["tokens"])
        entries = [mix[name] for name in sorted(mix)]
        self.requests = [
            (tick, entries[p], entries[p].workload.random_inputs(seed=s))
            for tick, p, s in traffic.serve_schedule(
                seed, sizes["requests"], len(entries), sizes["mean_gap_ticks"]
            )
        ]

    def run_pass(self) -> Pass:
        sizes = self.sizes
        before = _autotune.default_engine().stats.snapshot()
        pool = _serve.ExecutablePool(capacity=sizes["pool_capacity"])
        tickets = []
        with _serve.Server(
            pool,
            max_batch_size=sizes["max_batch_size"],
            max_wait_ticks=sizes["max_wait_ticks"],
            queue_limit=None,
        ) as server:
            for tick, entry, inputs in self.requests:
                if tick > server.current_tick:
                    server.tick(tick - server.current_tick)
                tickets.append(
                    server.submit(
                        _serve.Request(
                            workload=entry.workload,
                            inputs=inputs,
                            target="upmem",
                            params=entry.params,
                        )
                    )
                )
            server.drain()
            elapsed = server.elapsed
            metrics = server.metrics
        after = _autotune.default_engine().stats.snapshot()
        done = [t for t in tickets if t.done]
        latencies = [t.response.latency_s for t in done]
        stats = pool.stats()
        return Pass(
            ops=len(tickets),
            failed=len(tickets) - len(done),
            virtual_s=elapsed,
            virtual={
                "virtual_ops_per_s": len(done) / elapsed,
                "virtual_latency_ms_p50": _percentile(latencies, 50) * 1e3,
                "virtual_latency_ms_p95": _percentile(latencies, 95) * 1e3,
            },
            counts={
                **_compile_cache_counts(before, after),
                "serve.flushes": metrics.flushes,
                "serve.mean_batch": metrics.mean_batch,
                "serve.pool_hits": stats["hits"],
                "serve.pool_misses": stats["misses"],
                "serve.pool_evictions": stats["evictions"],
                "serve.rejected": metrics.rejected,
                "serve.failed": metrics.failed,
            },
            payload=(tickets, metrics),
        )

    def digest(self, result: Pass) -> str:
        tickets, _ = result.payload
        return _sha(
            [_bytes(t.response.outputs[0]) for t in tickets if t.done]
        )

    def check(self, result: Pass) -> Tuple[int, int, List[str]]:
        tickets, metrics = result.payload
        failed: List[str] = []
        for i, (ticket, (_, entry, inputs)) in enumerate(
            zip(tickets, self.requests)
        ):
            if not ticket.done:
                failed.append(f"serve request {i}: {ticket.status}")
            elif not _close(
                ticket.response.outputs[0],
                entry.workload.reference_output(inputs),
            ):
                failed.append(f"serve request {i}: output != reference")
        if metrics.submitted != (
            metrics.completed + metrics.rejected + metrics.failed
        ):
            failed.append("serve: submitted != completed + rejected + failed")
        return len(tickets) + 1, len(failed), failed


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------


@dataclass
class _TimedSession(_cluster.Session):
    """A session that also keeps each token's virtual timestamp, which
    the per-gap TPOT percentiles need and the program does not retain."""

    token_times: List[float] = field(default_factory=list)

    def record_token(self, t_s: float, digest: str) -> None:
        super().record_token(t_s, digest)
        self.token_times.append(t_s)


def _token_digest(hidden: np.ndarray) -> str:
    return hashlib.sha256(_bytes(hidden)).hexdigest()[:16]


class Cluster:
    """Continuous batching across two workers with one killed.

    A pass runs ``sizes["schedules"]`` arrival schedules one after
    another, each on a fresh cluster, and reports on all their sessions
    together.  The cluster is chaotic in its arrivals — who shares a
    batch, who sits on the killed worker — so one 16-session schedule's
    mean latency moves 14 % between seeds (quartile distance over 72
    seeds; no better with 32 sessions on one cluster).  Independent
    schedules average that down.
    """

    def __init__(self, seed: int, sizes: Dict) -> None:
        self.sizes = sizes
        self.tenants = _cluster.default_tenants()
        by_name = {t.name: t for t in self.tenants}
        self.schedules = [
            [
                dict(
                    spec,
                    ttft_deadline_s=by_name[spec["tenant"]].ttft_slo_s,
                    tpot_deadline_s=by_name[spec["tenant"]].tpot_slo_s,
                )
                for spec in traffic.cluster_sessions(
                    seed,
                    part,
                    sizes["sessions"],
                    [(t.name, t.weight) for t in self.tenants],
                    sizes["mean_interarrival_s"],
                    sizes["burst_prob"],
                    sizes["burst_size"],
                    tuple(sizes["prompt_tokens"]),
                    tuple(sizes["decode_tokens"]),
                    [tuple(m) for m in sizes["model_layers"]],
                )
            ]
            for part in range(sizes["schedules"])
        ]

    def _config(self):
        return _cluster.ClusterConfig(
            n_workers=self.sizes["n_workers"],
            mode="continuous",
            max_batch=self.sizes["max_batch"],
        )

    def _run_schedule(self, specs: List[Dict]):
        sizes = self.sizes
        cluster = _cluster.Cluster(
            self._config(),
            tenants=self.tenants,
            faults=_cluster.FaultInjector.from_events(
                [
                    _cluster.FaultEvent(
                        at_s=sizes["kill_at_s"],
                        worker=sizes["kill_worker"],
                        kind="kill",
                    )
                ],
                n_workers=sizes["n_workers"],
            ),
        )
        sessions = [_TimedSession(**spec) for spec in specs]
        return sessions, cluster.run(sessions)

    def run_pass(self) -> Pass:
        before = _autotune.default_engine().stats.snapshot()
        runs = [self._run_schedule(specs) for specs in self.schedules]
        after = _autotune.default_engine().stats.snapshot()
        sessions = [s for part, _ in runs for s in part]
        results = [result for _, result in runs]

        completed = [s for s in sessions if s.status == "completed"]
        requested = sum(s.decode_tokens for s in sessions)
        tokens = sum(s.tokens_done for s in completed)
        ttft = [s.ttft_s for s in sessions if s.ttft_s is not None]
        gaps_of = {
            s.session_id: [
                b - a for a, b in zip(s.token_times, s.token_times[1:])
            ]
            for s in sessions
        }
        gaps = [g for session_gaps in gaps_of.values() for g in session_gaps]
        met = sum(
            1
            for s in completed
            if s.ttft_s <= s.ttft_deadline_s
            and all(g <= s.tpot_deadline_s for g in gaps_of[s.session_id])
        )
        waits = [
            s.admitted_s - s.arrival_s
            for s in sessions
            if s.admitted_s is not None
        ]

        def total(key: str) -> float:
            return sum(r.pool_stats[key] for r in results)

        def mean(values) -> float:
            return sum(values) / len(results)

        return Pass(
            ops=requested,
            failed=requested - tokens,
            # Mean arrival -> last token over the finished sessions.  The
            # makespan (the tail session's finish) moves more between
            # seeds than the mean; it stays in ``virtual_ops_per_s``.
            virtual_s=sum(s.finish_s - s.arrival_s for s in completed)
            / max(1, len(completed)),
            virtual={
                "virtual_ops_per_s": tokens
                / sum(r.makespan_s for r in results),
                "virtual_ttft_ms_p50": _percentile(ttft, 50) * 1e3,
                "virtual_tpot_ms_p50": _percentile(gaps, 50) * 1e3,
                "virtual_tpot_ms_p90": _percentile(gaps, 90) * 1e3,
                "slo_attainment": met / len(sessions),
            },
            counts={
                **_compile_cache_counts(before, after),
                "serve.pool_hits": total("hits"),
                "serve.pool_misses": total("misses"),
                "serve.pool_evictions": total("evictions"),
                "cluster.ticks": sum(r.ticks for r in results),
                "cluster.iterations": sum(r.iterations for r in results),
                "cluster.mean_occupancy": mean(
                    r.mean_occupancy for r in results
                ),
                "cluster.kv_utilization": mean(
                    r.mean_kv_utilization for r in results
                ),
                "cluster.queue_wait_ms_p50": _percentile(waits, 50) * 1e3,
                "cluster.preemptions": sum(s.preemptions for s in sessions),
                "cluster.replays": sum(r.replays for r in results),
                "cluster.rejected": sum(
                    1 for s in sessions if s.status == "rejected"
                ),
            },
            payload=(sessions, results),
        )

    def digest(self, result: Pass) -> str:
        sessions, _ = result.payload
        return _sha(
            ["".join(s.token_digests).encode() for s in sessions]
        )

    def check(self, result: Pass) -> Tuple[int, int, List[str]]:
        sessions, outcomes = result.payload
        failed = [
            f"cluster {s.session_id}: ended {s.status}"
            f" with {s.tokens_done}/{s.decode_tokens} tokens"
            for s in sessions
            if not (
                (s.status == "completed" and s.tokens_done == s.decode_tokens)
                or s.status == "rejected"
            )
        ]
        if not all(outcome.replay_ok for outcome in outcomes):
            failed.append("cluster: a replayed token digest did not match")
        completed = [s for s in sessions if s.status == "completed"]
        n = min(self.sizes["sampled_sessions"], len(completed))
        sampled = [completed[i * len(completed) // n] for i in range(n)]
        config = self._config()
        for s in sampled:
            engine = _decode.DecodeEngine(
                config=config.model,
                layers=s.layers,
                page_tokens=config.page_tokens,
                max_pages=config.max_pages,
                seed=config.engine_seed,
                check_references=False,
            )
            engine.add_sequence(s.sequence, prompt_tokens=s.prompt_tokens)
            solo = []
            for _ in range(s.decode_tokens):
                engine.step_batch([s.sequence])
                solo.append(_token_digest(engine.hidden_state(s.sequence)))
            if solo != s.token_digests:
                failed.append(
                    f"cluster {s.session_id}: token digests differ from a"
                    " solo decode of the same sequence"
                )
        return len(sessions) + 1 + n, len(failed), failed


WORKLOADS = {
    "tune": Tune,
    "kernels": Kernels,
    "decode": Decode,
    "serve": Serve,
    "cluster": Cluster,
}


def versions() -> Dict[str, str]:
    import platform

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": getattr(repro, "__version__", "?"),
    }

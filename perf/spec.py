"""What the benchmark runs and what it reports.

One place for workload sizes, the environment pins and the metric
catalogue; ``BENCHMARK.json`` repeats the catalogue for the driver and
``perf/tests`` checks the two agree.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

#: Seconds one driver run measures (``run_seconds`` in BENCHMARK.json),
#: split evenly over a workload's processes; a process stops starting
#: passes once its share is spent, so every process times >= 1 pass.
RUN_SECONDS = 8

#: name -> why it is here, its operation, whether a process warms up
#: with one discarded pass, whether each process gets a seed of its own,
#: sizes and ``--quick`` sizes.  Sizes are for a 2-core box; ISSUE 11's
#: repeats were cut to fit 114 driver runs in 3420 s, and the cluster's
#: 32 sessions arrive as two independent schedules of 16 (see
#: adapters.Cluster).
WORKLOADS: Dict[str, Dict] = {
    "tune": {
        "why": (
            "cold autotune, 32 trials each of mtv/mmtv/red 64MB, 2 procs"
            " each with its own search seed: sketch, lowering, optim, cost"
            " model; misses the artifact cache; runs nothing functionally"
        ),
        "op": "trial",
        "warm": False,
        # The seed *is* the search: which candidates get built (host
        # time) and how good a winner 32 trials find (virtual time) move
        # 8 % and 14 % between seeds, and about one ten-seed set in
        # eleven spreads wider than the widest bound the driver allows.
        # Two searches per run make that one in two hundred at no cost
        # in time; what is given up is the check that two processes
        # agree, which the other four workloads keep.
        "seed_per_process": True,
        "sizes": {"ops": ["mtv", "mmtv", "red"], "size": "64MB", "n_trials": 32},
        "quick": {"ops": ["red"], "size": "4MB", "n_trials": 4},
    },
    "kernels": {
        "why": (
            "steady Executable.run of 7 O3 default-param upmem kernels"
            " (va,geva 4MB; red,mtv,gemv,ttv,mmtv 64MB), 2 procs:"
            " vectorizer on 2048-lane grids, NumPy-bound"
        ),
        "op": "kernel_run",
        "warm": True,
        "seed_per_process": False,
        "sizes": {
            "kernels": [
                ["va", "4MB"], ["geva", "4MB"], ["red", "64MB"],
                ["mtv", "64MB"], ["gemv", "64MB"], ["ttv", "64MB"],
                ["mmtv", "64MB"],
            ]
        },
        "quick": {"kernels": [["va", "4MB"], ["mtv", "4MB"]]},
    },
    "decode": {
        "why": (
            "fresh 3-layer DecodeEngine, 8 sequences x 6 step_batch"
            " iterations over page boundaries, 2 procs: graph+decode+KV"
            " pager over <=64-lane programs, Python-bound"
        ),
        "op": "token",
        "warm": True,
        "seed_per_process": False,
        "sizes": {
            "layers": 3, "page_tokens": 4, "sequences": 8,
            "iterations": 6, "max_resident_epochs": 4,
        },
        "quick": {
            "layers": 2, "page_tokens": 4, "sequences": 2,
            "iterations": 2, "max_resident_epochs": 4,
        },
    },
    "serve": {
        "why": (
            "serve.Server dynamic batching, 512 requests over the GPT-J"
            " mix, open-loop Poisson arrivals (mean 0.5 tick), 2 procs:"
            " run_batch path, hits pool and caches"
        ),
        "op": "request",
        "warm": True,
        "seed_per_process": False,
        "sizes": {
            "requests": 512, "tokens": 16, "pool_capacity": 8,
            "max_batch_size": 16, "max_wait_ticks": 4,
            "mean_gap_ticks": 0.5,
        },
        "quick": {
            "requests": 32, "tokens": 16, "pool_capacity": 8,
            "max_batch_size": 16, "max_wait_ticks": 4,
            "mean_gap_ticks": 0.5,
        },
    },
    "cluster": {
        "why": (
            "2-worker continuous-batching Cluster, 2 schedules x 16 sessions,"
            " 3 tenants, open-loop bursty arrivals, worker 0 killed at"
            " 0.12 s, 2 procs: tick loop, admission, supervisor, replay"
        ),
        "op": "token",
        "warm": True,
        "seed_per_process": False,
        "sizes": {
            "schedules": 2, "sessions": 16, "n_workers": 2, "max_batch": 8,
            "mean_interarrival_s": 0.02, "burst_prob": 0.3, "burst_size": 4,
            "prompt_tokens": [2, 6], "decode_tokens": [2, 14],
            "model_layers": [[2, 0.75], [3, 0.25]],
            "kill_at_s": 0.12, "kill_worker": 0, "sampled_sessions": 4,
        },
        "quick": {
            "schedules": 1, "sessions": 4, "n_workers": 2, "max_batch": 8,
            "mean_interarrival_s": 0.02, "burst_prob": 0.3, "burst_size": 4,
            "prompt_tokens": [2, 6], "decode_tokens": [2, 6],
            "model_layers": [[2, 0.75], [3, 0.25]],
            "kill_at_s": 0.04, "kill_worker": 0, "sampled_sessions": 2,
        },
    },
}

#: Fresh processes per workload in a full run (a quick run uses one).
PROCESSES = 2

# -- metric catalogue ---------------------------------------------------------
# (name, unit, better, clock, regress bound)
#
# ``END_TO_END`` is what every workload produces and the driver bounds.
# Host bounds are the share of the parent's median a metric may worsen
# by.  The virtual bounds here are sized for the driver, which compares
# runs at *different* seeds (a seed changes the searches, arrivals and
# session mix, and with them the simulated figures); at one seed the
# virtual clock repeats bit-for-bit and ``compare.py`` holds it to
# ``VIRTUAL_BOUND`` instead.
END_TO_END: List[Tuple[str, str, str, str, float]] = [
    ("setup_s", "s", "lower", "host", 0.25),
    ("wall_s", "s", "lower", "host", 0.25),
    ("cpu_s", "s", "lower", "host", 0.25),
    ("ops_per_s", "op/s", "higher", "host", 0.25),
    ("peak_rss_mb", "MB", "lower", "host", 0.10),
    ("virtual_ms", "ms", "lower", "virtual", 0.25),
]

#: Same-seed bound on every virtual-clock metric (``compare.py``).
VIRTUAL_BOUND = 0.005

#: End-to-end metrics only some workloads produce: (name, unit, better,
#: workloads).  All virtual.  The ledger prints them beside END_TO_END
#: on those workloads and omits them elsewhere; the driver's format
#: needs every listed metric from every workload, so BENCHMARK.json
#: carries them unbounded under ``per_layer`` and ``--trace 1`` prints 0
#: where a workload does not produce one.
WORKLOAD_END_TO_END: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("virtual_speedup_vs_prim", "x", "higher", ("tune",)),
    ("virtual_ops_per_s", "op/s", "higher", ("serve", "cluster")),
    ("virtual_latency_ms_p50", "ms", "lower", ("serve",)),
    ("virtual_latency_ms_p95", "ms", "lower", ("serve",)),
    ("virtual_ttft_ms_p50", "ms", "lower", ("cluster",)),
    ("virtual_tpot_ms_p50", "ms", "lower", ("cluster",)),
    ("virtual_tpot_ms_p90", "ms", "lower", ("cluster",)),
    ("slo_attainment", "share", "higher", ("cluster",)),
]

#: Per-layer metrics of the traced run: (name, unit, better).  ``*_s``
#: are host self seconds (span minus what its child spans cover);
#: counts are exact.  perf/README.md says which end-to-end metric on
#: which workload each should move.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("schedule.sketch_s", "s", "lower"),
    ("schedule.sketch_calls", "count", "lower"),
    ("lowering.lower_s", "s", "lower"),
    ("lowering.lower_calls", "count", "lower"),
    ("lowering.rejected", "count", "lower"),
    ("optim.eliminate_copy_checks_s", "s", "lower"),
    ("optim.tighten_loop_bounds_s", "s", "lower"),
    ("optim.hoist_invariant_branches_s", "s", "lower"),
    ("pipeline.run_self_s", "s", "lower"),
    ("pipeline.cache_hits", "count", "higher"),
    ("pipeline.cache_misses", "count", "lower"),
    ("pipeline.cache_hit_rate", "share", "higher"),
    ("upmem.profile_s", "s", "lower"),
    ("upmem.profile_calls", "count", "lower"),
    ("upmem.plan_build_s", "s", "lower"),
    ("upmem.plan_builds", "count", "lower"),
    ("upmem.run_s", "s", "lower"),
    ("upmem.run_calls", "count", "lower"),
    ("upmem.lanes_per_run", "count", "higher"),
    ("upmem.fallbacks", "count", "lower"),
    ("autotune.search_self_s", "s", "lower"),
    ("autotune.trials", "count", "higher"),
    ("autotune.candidates_built", "count", "lower"),
    ("autotune.useful_ratio", "share", "higher"),
    ("autotune.measure_cache_hit_rate", "share", "higher"),
    ("autotune.resume_s", "s", "lower"),
    ("target.compile_s", "s", "lower"),
    ("target.compile_calls", "count", "lower"),
    ("target.executor_self_s", "s", "lower"),
    ("target.executor_maps", "count", "lower"),
    ("target.executor_jobs", "count", "lower"),
    ("graph.build_s", "s", "lower"),
    ("graph.place_s", "s", "lower"),
    ("graph.plan_memory_s", "s", "lower"),
    ("graph.compile_s", "s", "lower"),
    ("graph.run_self_s", "s", "lower"),
    ("graph.run_calls", "count", "lower"),
    ("graph.nodes", "count", "lower"),
    ("graph.arena_reuse_ratio", "x", "higher"),
    ("graph.virtual_compute_ms", "ms", "lower"),
    ("graph.virtual_h2d_ms", "ms", "lower"),
    ("graph.virtual_d2h_ms", "ms", "lower"),
    ("graph.virtual_staging_ms", "ms", "lower"),
    ("decode.step_self_s", "s", "lower"),
    ("decode.steps", "count", "lower"),
    ("decode.replans", "count", "lower"),
    ("decode.compiled_programs", "count", "lower"),
    ("decode.kv_append_s", "s", "lower"),
    ("decode.kv_gather_s", "s", "lower"),
    ("decode.kv_pages_used", "count", "lower"),
    ("decode.kv_utilization", "share", "higher"),
    ("decode.virtual_cache_growth_ms", "ms", "lower"),
    ("serve.submit_self_s", "s", "lower"),
    ("serve.tick_self_s", "s", "lower"),
    ("serve.flushes", "count", "lower"),
    ("serve.mean_batch", "count", "higher"),
    ("serve.pool_hits", "count", "higher"),
    ("serve.pool_misses", "count", "lower"),
    ("serve.pool_evictions", "count", "lower"),
    ("serve.pool_load_s", "s", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.failed", "count", "lower"),
    ("cluster.loop_self_s", "s", "lower"),
    ("cluster.iterate_self_s", "s", "lower"),
    ("cluster.ticks", "count", "lower"),
    ("cluster.iterations", "count", "lower"),
    ("cluster.mean_occupancy", "count", "higher"),
    ("cluster.kv_utilization", "share", "higher"),
    ("cluster.queue_wait_ms_p50", "ms", "lower"),
    ("cluster.preemptions", "count", "lower"),
    ("cluster.replays", "count", "lower"),
    ("cluster.rejected", "count", "lower"),
    ("obs.overhead_share", "share", "lower"),
    ("obs.events", "count", "lower"),
    ("obs.export_s", "s", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
]


def env_pins() -> Dict[str, str]:
    """Environment every workload process runs under (caller's values
    win where already set, so a width-1 comparison is one variable away):
    thread pool <= nproc, the vector simulator, single-threaded BLAS."""
    pins = {
        "REPRO_MAX_WORKERS": str(min(os.cpu_count() or 1, 2)),
        "REPRO_SIM_MODE": "vector",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    }
    return {k: os.environ.get(k, v) for k, v in pins.items()}

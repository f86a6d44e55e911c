"""Quickstart: compile and run tensor programs through the target front end.

Walks the ATiM flow around the single entry point
``repro.compile(workload_or_schedule, target=...)``:

1. compile a standard workload for the simulated UPMEM system, run it
   functionally (single input and a thread-pool-sharded batch) and
   inspect the simulated latency breakdown;
2. hand-build a schedule with the Table-2 primitives (DPU binding,
   tasklet binding, WRAM caching, hierarchical reduction) and compile it
   through the same front door, reading per-pass wall time from a
   wall-clock ``Tracer``;
3. compare one workload across every target — UPMEM, the
   PrIM/SimplePIM baselines and the CPU/GPU rooflines — in one generic
   loop;
4. autotune with a persistent database: measured candidates append to a
   JSON-lines store as the search runs, a second search warm-starts from
   it (replaying measurements instead of re-simulating), and
   ``repro.compile(wl, params=tuned_params(wl, db=...))`` compiles the
   stored best without searching again;
5. serve a stream of requests: a ``repro.serve.Server`` batches mixed
   GPT-J + tensor-op traffic dynamically (grouped by compiled program,
   flushed on batch size or virtual-clock age — wall time never enters
   the decision path) and reports simulated throughput and tail latency;
6. build a whole GPT-J decoder-layer decode step as a
   ``repro.graph.ModelGraph`` — the multi-head attention MMTVs and the
   four FC-shape MTVs, the softmax, GELU and residual adds as host
   epilogues of those programs — compile it with
   ``repro.graph.compile_graph`` (a graph is many programs, not one
   workload: it compiles for one target, every node on PIM, each on its
   own), run its named tensors with ``run_tensors`` against the
   NumPy reference, and print the fig17-style per-node latency
   breakdown plus the memory planner's buffer reuse;
7. decode end-to-end with ``repro.decode.DecodeEngine``: N layers x T
   tokens over a paged KV cache that grows without replanning the graph
   and a weight-residency planner staging/evicting layers under an MRAM
   budget — per-step and per-layer transfer breakdowns, bit-for-bit at
   any worker count;
8. trace a decode run with ``repro.obs``: scope a virtual-clock
   ``Tracer`` over the run, inspect the top spans by simulated
   duration, and export a Chrome trace-event JSON that loads in
   Perfetto — byte-identical at any worker count;
9. serve a multi-tenant trace on a ``repro.cluster.Cluster``: the same
   seeded bursty traffic replays under whole-request flushing and
   continuous (iteration-level) batching, then once more with a worker
   killed mid-decode — the supervisor fences it and the orphaned
   sessions replay on the survivor, every token digest verified.

Run:  python examples/quickstart.py
"""

import os
import tempfile

import numpy as np

import repro
from repro import te
from repro.autotune import TuningCache, autotune, tuned_params
from repro.schedule import Schedule
from repro.workloads import make_workload, mtv

M, K = 1024, 1024


def compile_workload() -> None:
    # 1. One call: workload -> executable for the UPMEM target.  The
    #    target picks canonical sketch parameters (run the autotuner for
    #    tuned ones) and compiles through the shared pass pipeline.
    wl = mtv(M, K)
    exe = repro.compile(wl, target="upmem")

    rng = np.random.default_rng(0)
    a = rng.random((M, K), dtype=np.float32)
    b = rng.random(K, dtype=np.float32)
    (out,) = exe.run(A=a, B=b)
    np.testing.assert_allclose(out, a @ b, rtol=1e-3)
    print("functional check: OK")

    # Independent inputs shard across a thread pool, per DPU group —
    # bit-for-bit identical to sequential run() calls.
    batch = [
        {"A": rng.random((M, K), dtype=np.float32),
         "B": rng.random(K, dtype=np.float32)}
        for _ in range(4)
    ]
    outs = exe.run_batch(batch)
    print(f"run_batch: {len(outs)} results")

    lat = exe.profile().latency
    print(
        f"simulated latency: total {lat.total*1e3:.3f} ms  "
        f"(h2d {lat.h2d*1e3:.3f}, kernel {lat.kernel*1e3:.3f}, "
        f"d2h {lat.d2h*1e3:.3f}, host {lat.host*1e3:.3f})"
    )


def compile_schedule() -> None:
    # 2. Explicit schedules compile through the same front door.
    #    C(i) = sum_k A(i,k) * B(k), 64 DPUs on rows x 4 on the
    #    reduction (rfactor), 16 tasklets, 64-element WRAM tiles.
    A = te.placeholder((M, K), "float32", "A")
    B = te.placeholder((K,), "float32", "B")
    k = te.reduce_axis(K, "k")
    C = te.compute((M,), lambda i: te.sum(A[i, k] * B[k], axis=k), "C")

    sch = Schedule(C)
    s = sch[C]
    k_dpu, _ = s.split(s.op.reduce_axis[0], nparts=4)
    cf = sch.rfactor(C, k_dpu)  # hierarchical reduction
    stage = sch[cf]
    kd_ax, i_ax = stage.op.axis
    (k_in,) = stage.op.reduce_axis
    m_dpu, m_rest = stage.split(i_ax, nparts=64)
    m_thr, m_in = stage.split(m_rest, nparts=16)
    k_blk, k_elem = stage.split(k_in, factor=64)
    stage.reorder(m_dpu, kd_ax, m_thr, m_in, k_blk, k_elem)
    stage.bind(m_dpu, "blockIdx.x")  # DPU binding
    stage.bind(kd_ax, "blockIdx.y")
    stage.bind(m_thr, "threadIdx.x")  # tasklet binding
    sch.cache_read(cf, A, "wram").compute_at(stage, k_blk)
    sch.cache_read(cf, B, "wram").compute_at(stage, k_blk)
    sch.cache_write(cf, "wram").reverse_compute_at(stage, m_thr)
    final = sch[C]
    fo, _ = final.split(final.op.axis[0], nparts=16)
    final.parallel(fo)  # host post-processing

    tracer = repro.Tracer(wall_clock=True)
    with repro.use_tracer(tracer):
        exe = repro.compile(sch, target="upmem", name="mtv_quickstart")
    print("--- compile pipeline ---")
    for span in tracer.spans:
        if span.track == "pipeline" and "wall_ms" in (span.args or {}):
            print(f"{span.name:<32} {span.args['wall_ms']:8.3f} ms")
    print(f"grid: {exe.lowered.n_dpus} DPUs x {exe.lowered.n_tasklets} tasklets")
    print("--- generated UPMEM-C kernel (excerpt) ---")
    print("\n".join(exe.source().splitlines()[:20]))


def compare_targets() -> None:
    # 3. Multi-target comparison: one loop, no per-backend special cases.
    wl = make_workload("mtv", "64MB")
    print(f"--- {wl.name} 64MB across targets ---")
    for kind in repro.list_targets():
        target = repro.get_target(kind)
        if not target.supports(wl):
            print(f"{kind:10s} (not supported)")
            continue
        exe = repro.compile(wl, target=target)
        print(f"{kind:10s} {exe.latency * 1e3:10.3f} ms")


def persistent_tuning() -> None:
    # 4. Persistent tuning: measured candidates land in a versioned
    #    JSON-lines database (one file, many workload/target groups) as
    #    the search runs, so interrupted runs resume and later compiles
    #    reuse the winner.  Real projects keep one db under results/.
    wl = mtv(512, 512)
    with tempfile.TemporaryDirectory() as tmp:
        db = os.path.join(tmp, "tune.jsonl")

        cold = autotune(wl, n_trials=32, seed=0, db=db)
        print(
            f"cold search: best {cold.best_latency * 1e3:.3f} ms "
            f"({cold.measure_cache_misses} candidates simulated)"
        )

        # Same search again: --resume replays every measurement from the
        # store — identical history, zero re-simulation.
        warm = autotune(wl, n_trials=32, seed=0, db=db, resume=True)
        assert warm.history == cold.history
        print(
            f"warm re-run: best {warm.best_latency * 1e3:.3f} ms "
            f"({warm.measure_cache_hits} measurements served from the db)"
        )

        # tuned_params reads the stored best without searching at all.
        params = tuned_params(wl, db=db, n_trials=32)
        exe = repro.compile(wl, target="upmem", params=params)
        assert exe.params == cold.best_params
        records = TuningCache(db).load(cold.db_key)
        print(
            f"tuned compile reused the stored best "
            f"({len(records)} records on disk): {exe.params}"
        )


def serving() -> None:
    # 5. Serving: submit 100 mixed requests (GPT-J 6B MHA, an FC-shaped
    #    MTV, VA/RED background traffic) through the dynamic batcher.
    #    Requests batch only with requests for the same compiled
    #    program; a group flushes at max_batch_size or after
    #    max_wait_ticks virtual-clock ticks, so the run is deterministic
    #    at any thread count.  Throughput/latency are *simulated*
    #    numbers from the targets' performance models.
    from repro.serve import (
        ExecutablePool,
        Server,
        generate_trace,
        gptj_serving_mix,
        replay_trace,
    )

    mix = gptj_serving_mix(tokens=4)
    trace = generate_trace(
        100, sorted(mix), seed=0, burst=16, gap_ticks=8
    )
    with Server(
        ExecutablePool(capacity=8),
        max_batch_size=16,
        max_wait_ticks=4,
        queue_limit=64,
    ) as server:
        tickets = replay_trace(server, trace, mix, target="upmem")
        stats = server.metrics_dict()
    done = sum(t.done for t in tickets)
    print(f"served {done}/{len(tickets)} requests "
          f"({stats['rejected']} rejected) in {stats['flushes']} flushes, "
          f"mean batch {stats['mean_batch']:.1f}")
    print(f"throughput {stats['throughput_rps']:.0f} req/s (simulated),  "
          f"p50 {stats['latency_ms']['p50']:.3f} ms  "
          f"p99 {stats['latency_ms']['p99']:.3f} ms,  "
          f"pool hit rate {stats['pool']['hit_rate']:.0%}")


def model_graphs() -> None:
    # 6. Model graphs: one GPT-J decoder-layer decode step as a DAG of
    #    the paper's ops -- the 1-layer model graph, its attention mask
    #    all zeros (every cache position valid).  The graph compiles
    #    for one target: every node, a matvec with its element-wise
    #    epilogues and prologues on the host around it, on PIM; the
    #    memory planner reuses dead intermediate buffers over the
    #    deterministic topological order; the latency model pays
    #    host<->DPU transfers only where the host makes or reads a
    #    tensor and weight/KV-cache staging once per load.  (Scaled
    #    config + small grids: the functional simulator executes every
    #    node.)
    from repro.graph import (
        ATTN_MASK, compile_graph, gptj_layer_io, gptj_model_graph,
        plan_memory,
    )
    from repro.workloads import GPTJConfig

    config = GPTJConfig("gptj-demo", n_heads=2, d_model=64, head_dim=32)
    graph = gptj_model_graph(config, layers=1, capacity=8)
    exe = compile_graph(graph)  # target="upmem"

    inputs = graph.random_inputs(seed=0)
    inputs[ATTN_MASK][:] = 0.0
    out = gptj_layer_io(config, 0).y
    y = exe.run_tensors(inputs)[out]
    ref = graph.reference_outputs(inputs)[out]
    np.testing.assert_allclose(y, ref, rtol=1e-3, atol=1e-5)
    print(f"decode step: {len(graph)} nodes -> y[:4] = {y[:4]}")

    profile = exe.profile()
    print("--- fig17-style per-node breakdown ---")
    for cost in profile.nodes:
        row = cost.to_dict()
        print(
            f"{row['node']:>14s} {row['target']:>6s}"
            f"  compute {row['compute_ms']:.4f} ms"
            f"  h2d {row['h2d_ms']:.5f}  d2h {row['d2h_ms']:.5f}"
        )
    print(
        f"end-to-end {profile.total*1e3:.3f} ms "
        f"(steady-state {profile.steady_state_s*1e3:.3f} ms after "
        f"{profile.staging_s*1e3:.3f} ms one-time weight staging)"
    )
    plan = plan_memory(graph)
    print(
        f"memory plan: {plan.arena_bytes} B arena vs "
        f"{plan.naive_bytes} B naive ({plan.reuse_ratio:.2f}x reuse)"
    )


def decode() -> None:
    # 7. Full-model decode: every layer, every token, over managed
    #    device memory.  The paged KV cache grows across steps without
    #    replanning the graph (programs recompile only when a page
    #    boundary changes the attention capacity), and a weight-
    #    residency planner stages/evicts layer weights under an MRAM
    #    budget too small to hold them all — both charged through the
    #    explicit transfer model, bit-for-bit at any worker count.
    from repro.decode import DecodeEngine
    from repro.graph import gptj_layer_nbytes
    from repro.workloads import GPTJConfig

    config = GPTJConfig("gptj-demo", n_heads=2, d_model=32, head_dim=16)
    engine = DecodeEngine(
        config=config,
        layers=3,
        page_tokens=4,
        # 2 of 3 layers' weights fit
        mram_budget_bytes=2 * gptj_layer_nbytes(config),
    )
    result = engine.decode(tokens=6, prompt_tokens=6)

    print("--- full-model decode: 3 layers x 6 tokens ---")
    for step in result.steps:
        row = step.to_dict()
        print(
            f"step {row['step']}  pos {row['position']:2d}"
            f"  capacity {row['capacity']:2d}"
            f"  compiled {row['compiled_programs']:2d}"
            f"  compute {row['compute_ms']:.3f} ms"
            f"  staging {row['staging_ms']:.3f} ms"
            f"  growth {row['cache_growth_ms']:.4f} ms"
        )
    totals = result.per_layer_totals()
    print(
        f"replans {result.replans} (page boundaries only), "
        f"stage/evict per layer: "
        + ", ".join(
            f"L{r['layer']}:{r['stages']}/{r['evictions']}" for r in totals
        )
    )
    cache = result.cache_stats
    print(
        f"KV cache: {cache['pages_allocated']} pages x "
        f"{cache['page_tokens']} tokens, utilization "
        f"{cache['utilization']:.2f}, fragmentation "
        f"{cache['fragmentation']:.2f}"
    )


def tracing() -> None:
    # 8. Observability: scope a virtual-clock Tracer over any run and
    #    every subsystem reports into it — per-pass compile spans, pool
    #    hits/misses, per-node graph breakdowns, per-step/per-layer
    #    decode spans, KV-cache appends and weight staging.  Times are
    #    *simulated* seconds from the performance model, so the same
    #    run always produces the same trace, byte-for-byte, at any
    #    thread count.
    from repro.decode import DecodeEngine
    from repro.obs import Tracer, use_tracer, write_chrome_trace
    from repro.workloads import GPTJConfig

    config = GPTJConfig("gptj-demo", n_heads=2, d_model=32, head_dim=16)
    tracer = Tracer()
    with use_tracer(tracer):
        engine = DecodeEngine(config=config, layers=2, page_tokens=4)
        engine.decode(tokens=3, prompt_tokens=4)

    print("--- top 5 spans by simulated duration ---")
    for span in tracer.top_spans(5):
        print(
            f"{span.dur*1e3:9.3f} ms  {span.track:10s} {span.name}"
        )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "decode_trace.json")
        payload = write_chrome_trace(tracer, path)
        print(
            f"exported {len(payload['traceEvents'])} Chrome trace events"
            f" across {len(tracer.tracks())} tracks"
            " (load the JSON in Perfetto / chrome://tracing)"
        )


def cluster() -> None:
    # 9. Cluster serving: one seeded diurnal+bursty multi-tenant trace
    #    (interactive / batch / background SLO classes, mixed model
    #    sizes) replayed through two identically configured 2-worker
    #    clusters that differ only in batching mode, then through a
    #    third with a seeded mid-decode worker kill.  All decisions run
    #    on the virtual clock, so every number repeats exactly.
    from repro.cluster import (
        Cluster,
        ClusterConfig,
        FaultEvent,
        FaultInjector,
        default_tenants,
        generate_cluster_trace,
        sessions_from_trace,
    )

    tenants = default_tenants()
    trace = generate_cluster_trace(
        12, tenants, seed=7,
        mean_interarrival_s=0.02, burst_prob=0.3, burst_size=4,
        decode_tokens=(2, 12),
    )

    print("--- cluster serving: whole-request vs continuous batching ---")
    for mode in ("whole", "continuous"):
        config = ClusterConfig(n_workers=2, mode=mode)
        result = Cluster(config, tenants=tenants).run(
            sessions_from_trace(trace, tenants)
        )
        s = result.summary()
        print(
            f"{mode:11s} {s['completed']} done,"
            f" {s['throughput_tokens_per_s']:7.1f} tok/s,"
            f" p99 TTFT {s['p99_ttft_ms']:7.2f} ms,"
            f" mean batch {s['mean_batch_occupancy']:.2f}"
        )

    faults = FaultInjector.from_events(
        [FaultEvent(at_s=0.12, worker=0, kind="kill")], n_workers=2
    )
    result = Cluster(
        ClusterConfig(n_workers=2, mode="continuous"),
        tenants=tenants, faults=faults,
    ).run(sessions_from_trace(trace, tenants))
    order = " -> ".join(
        f"w{w}:{new}" for _, w, _, new in result.supervisor_transitions
    )
    print(
        f"worker 0 killed mid-decode: {len(result.completed)} done,"
        f" {result.replays} replay(s)"
        f" (digests {'OK' if result.replay_ok else 'MISMATCH'}); {order}"
    )


def main() -> None:
    compile_workload()
    print()
    compile_schedule()
    print()
    compare_targets()
    print()
    persistent_tuning()
    print()
    serving()
    print()
    model_graphs()
    print()
    decode()
    print()
    tracing()
    print()
    cluster()


if __name__ == "__main__":
    main()

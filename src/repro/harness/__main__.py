"""Command-line harness: regenerate any paper experiment.

Usage::

    python -m repro.harness fig3a
    python -m repro.harness fig9 --workloads mtv red --sizes 64MB --trials 64
    python -m repro.harness fig12
    python -m repro.harness fig14 --trials 256
    python -m repro.harness all --trials 32
    python -m repro.harness fig9 --json results/BENCH_fig9.json
    python -m repro.harness fig15 --db results/tune.jsonl --resume \
        --parallel-measure 4
    python -m repro.harness fig16 --requests 64 --json BENCH_fig16.json
    python -m repro.harness fig17 --layers 3 --tokens 5 \
        --trace BENCH_fig17_trace.json

``--json`` writes the raw figure rows plus compile-cache and
tuning-database statistics as machine-readable JSON
(``BENCH_*.json``-style, with a ``schema_version`` field), so
successive runs can be diffed to track the performance trajectory
across PRs.

``--trace PATH`` records every experiment in the run into a
:mod:`repro.obs` virtual-clock tracer and writes a Chrome trace-event
JSON — deterministic (bit-for-bit identical at any
``REPRO_MAX_WORKERS``) and viewable in Perfetto.  ``--trace-jsonl PATH``
additionally dumps
the flat event log.

``--db PATH`` appends every measured tuning candidate to a persistent
JSON-lines database; ``--resume`` warm-starts searches from it (an
interrupted sweep replays instantly up to where it died), and
``--parallel-measure N`` shards each measurement batch across N workers
with bit-for-bit identical results.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments
from .reporting import render_curve, render_table


def _print_rows(rows, title: str) -> None:
    print(render_table(rows, title=title))
    print()


def _tuning_kwargs(args: argparse.Namespace) -> dict:
    """Persistent-tuning knobs shared by every search-driven experiment."""
    return {
        "db": args.db,
        "resume": args.resume,
        "parallel_measure": args.parallel_measure,
    }


def run_experiment(name: str, args: argparse.Namespace):
    """Run one experiment: prints its text report, returns its raw data."""
    if name == "fig3a":
        data = experiments.fig3a_cache_tile_sweep()
        _print_rows(data, "Fig 3a")
    elif name == "fig3b":
        data = experiments.fig3b_tiling_schemes()
        _print_rows(data, "Fig 3b")
    elif name == "fig3c":
        data = experiments.fig3c_dpu_sweep()
        _print_rows(data, "Fig 3c")
    elif name == "fig4":
        data = experiments.fig4_boundary_checks()
        _print_rows(data, "Fig 4")
    elif name == "fig9":
        data = experiments.fig9_tensor_ops(
            workloads=args.workloads or None,
            sizes=args.sizes or None,
            n_trials=args.trials,
            seed=args.seed,
            **_tuning_kwargs(args),
        )
        _print_rows(data, "Fig 9")
    elif name == "tab3":
        data = experiments.table3_parameters(
            workloads=args.workloads or None, n_trials=args.trials,
            seed=args.seed, **_tuning_kwargs(args),
        )
        _print_rows(data, "Table 3")
    elif name == "fig10":
        data = experiments.fig10_gptj(
            n_trials=args.trials, seed=args.seed, **_tuning_kwargs(args)
        )
        _print_rows(data, "Fig 10")
    elif name == "fig11":
        data = experiments.fig11_mmtv_scaling(
            n_trials=args.trials, seed=args.seed, **_tuning_kwargs(args)
        )
        _print_rows(data, "Fig 11")
    elif name == "fig12":
        data = experiments.fig12_pim_opts()
        _print_rows(data, "Fig 12")
    elif name == "fig13":
        data = experiments.fig13_breakdown()
        _print_rows(data, "Fig 13")
    elif name == "fig14":
        data = experiments.fig14_search_strategies(
            n_trials=args.trials, seed=args.seed, **_tuning_kwargs(args)
        )
        for label, curve in data.items():
            print(render_curve(curve, title=f"Fig 14: {label}"))
            print()
    elif name == "fig15":
        data = experiments.fig15_tuning_overhead(
            n_trials=args.trials, seed=args.seed, **_tuning_kwargs(args)
        )
        print("Fig 15: UPMEM candidate latencies (s):")
        print(sorted(data["upmem_measured"])[:10], "...")
        print("CPU candidate latencies (s):")
        print(sorted(data["cpu_measured"])[:10], "...")
        hits = int(data["measure_cache_hits"][0])
        misses = int(data["measure_cache_misses"][0])
        print(f"measurements: {hits} warm (from --db) / {misses} cold")
    elif name == "fig16":
        data = experiments.fig16_serving(
            n_requests=args.requests, seed=args.seed
        )
        _print_rows(data["rows"], "Fig 16 (serving: dynamic batching)")
    elif name == "fig18":
        data = experiments.fig18_cluster(
            n_requests=args.requests, n_workers=args.workers,
            seed=args.seed,
        )
        _print_rows(
            data["rows"],
            "Fig 18 (cluster: whole-request vs continuous batching)",
        )
        fault = data.get("fault_scenario")
        if fault:
            order = " -> ".join(
                f"w{t['worker']}:{t['to']}" for t in fault["transitions"]
            )
            print(
                f"fault scenario: {len(fault['faults'])} fault(s);"
                f" {fault['recovered_sessions']} session(s) replayed"
                f" ({fault['replays']} replays,"
                f" digests {'OK' if fault['replay_ok'] else 'MISMATCH'});"
                f" {fault['completed']} completed; {order}"
            )
    elif name == "sim_speed":
        data = experiments.sim_speed(seed=args.seed)
        _print_rows(data, "Simulator speed (scalar vs vector)")
    elif name == "fig17" and args.layers > 1:
        data = experiments.fig17_multilayer(
            layers=args.layers, tokens=args.tokens, seed=args.seed,
        )
        _print_rows(
            data["rows"],
            f"Fig 17 (full-model decode: {data['graph']},"
            f" {args.tokens} tokens)",
        )
        _print_rows(
            data["per_layer"],
            "Fig 17: per-layer totals (compute / transfers / staging"
            " / cache growth)",
        )
        print(
            f"replans: {data['replans']} (page-boundary epochs);"
            f" programs compiled: {data['compiled_programs']};"
            f" residency: {data['residency']['stages']} stages /"
            f" {data['residency']['evictions']} evictions"
            f" ({data['residency_policy']},"
            f" budget {data['mram_budget_layers']} layers);"
            f" cache: {data['cache']['pages_allocated']} pages,"
            f" fragmentation {data['cache']['fragmentation']:.3f}"
        )
    elif name == "fig17":
        data = experiments.fig17_end_to_end(
            tokens=args.tokens, seed=args.seed
        )
        _print_rows(
            data["rows"],
            f"Fig 17 (end-to-end decode step: {data['graph']})",
        )
        mixed_rows = data["breakdown"].get("mixed") or next(
            iter(data["breakdown"].values())
        )
        _print_rows(mixed_rows, "Fig 17: per-node breakdown (mixed)")
        mem = data["memory"]
        print(
            f"memory plan: arena {mem['arena_bytes']} B over"
            f" {mem['slots']} slots vs naive {mem['naive_bytes']} B"
            f" ({mem['reuse_ratio']:.2f}x reuse;"
            f" peak live {mem['peak_live_bytes']} B;"
            f" utilization {mem['utilization']:.2f})"
        )
    else:
        raise SystemExit(f"unknown experiment {name!r}")
    return data


EXPERIMENTS = (
    "fig3a", "fig3b", "fig3c", "fig4", "fig9", "tab3", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "fig18", "sim_speed",
)


def _jsonable(obj):
    """Best-effort conversion of experiment data to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj if obj == obj and abs(obj) != float("inf") else repr(obj)
    if hasattr(obj, "item"):  # numpy scalars
        return _jsonable(obj.item())
    return repr(obj)


#: Version of the ``--json`` dump layout.  Bump when the payload's
#: structure changes so downstream tooling can detect format drift.
#: History: 1 = implicit/unversioned (PRs 1-7); 2 = adds this field;
#: 3 = fig18 cluster payloads, ``settings.workers``, and versioned
#: ServerMetrics dicts (``schema_version`` inside ``metrics``).
JSON_SCHEMA_VERSION = 3


def write_json(path: str, results, args: argparse.Namespace) -> None:
    """Dump figure rows + compile/tuning cache stats as JSON."""
    stats = experiments.compile_cache_stats()
    measure = experiments.measure_cache_stats()
    payload = {
        "schema_version": JSON_SCHEMA_VERSION,
        "experiments": _jsonable(results),
        "cache_stats": {
            "hits": stats.hits,
            "misses": stats.misses,
            "disk_hits": stats.disk_hits,
            "hit_rate": stats.hit_rate,
        },
        "tuning_stats": {
            # warm = measurements replayed from the persistent --db
            # store, cold = freshly simulated candidates.
            "measure_hits": measure.hits,
            "measure_misses": measure.misses,
            "warm_hit_rate": measure.hit_rate,
        },
        "settings": {
            "trials": args.trials,
            "seed": args.seed,
            "workloads": args.workloads,
            "sizes": args.sizes,
            "db": args.db,
            "resume": args.resume,
            "parallel_measure": args.parallel_measure,
            "requests": args.requests,
            "tokens": args.tokens,
            "layers": args.layers,
            "workers": args.workers,
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the ATiM paper's figures and tables.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS + ("all",))
    parser.add_argument("--trials", type=int, default=48,
                        help="autotuning trials per workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--sizes", nargs="*", default=None)
    parser.add_argument(
        "--requests", type=int, default=32, metavar="N",
        help="traffic-trace length for the serving experiments"
             " (fig16, fig18)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="simulated cluster workers for fig18 (not host threads:"
             " those are REPRO_MAX_WORKERS)",
    )
    parser.add_argument(
        "--tokens", type=int, default=16, metavar="T",
        help="decode positions for the end-to-end graph experiment"
             " (fig17)",
    )
    parser.add_argument(
        "--layers", type=int, default=1, metavar="N",
        help="decoder layers for fig17; >1 switches to the full-model"
             " decode engine (paged KV cache + weight residency)",
    )
    parser.add_argument(
        "--cache-stats", action="store_true",
        help="print compile-cache hit/miss counters after the run",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also dump figure rows + cache stats as JSON to PATH",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON of the run to PATH"
             " (virtual-clock spans; loads in Perfetto /"
             " chrome://tracing)",
    )
    parser.add_argument(
        "--trace-jsonl", metavar="PATH", default=None,
        help="also write the raw trace events as JSON-lines to PATH",
    )
    parser.add_argument(
        "--db", metavar="PATH", default=None,
        help="persistent tuning database (JSON-lines); measured"
             " candidates append to it as the search runs",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="warm-start searches from --db (replays an interrupted or"
             " prior run's measurements instead of re-simulating)",
    )
    parser.add_argument(
        "--parallel-measure", type=int, default=1, metavar="N",
        help="shard each measurement batch across N workers"
             " (results are bit-for-bit identical to serial)",
    )
    args = parser.parse_args(argv)
    if args.resume and not args.db:
        parser.error("--resume requires --db PATH")

    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    from ..obs import Tracer, use_tracer

    tracer = Tracer() if (args.trace or args.trace_jsonl) else None
    results = {}
    with use_tracer(tracer):
        for name in names:
            results[name] = run_experiment(name, args)
    if args.trace:
        from ..obs import trace_lint, write_chrome_trace

        payload = write_chrome_trace(tracer, args.trace)
        print(
            f"wrote Chrome trace ({len(tracer.events)} events,"
            f" {len(tracer.tracks())} tracks) to {args.trace}"
        )
        problems = trace_lint(payload)
        if problems:
            for problem in problems:
                print(f"trace-lint: {problem}", file=sys.stderr)
            return 1
    if args.trace_jsonl:
        from ..obs import write_jsonl

        count = write_jsonl(tracer, args.trace_jsonl)
        print(f"wrote {count} trace events to {args.trace_jsonl}")
    if args.json:
        write_json(args.json, results, args)
        print(f"wrote JSON results to {args.json}")
    if args.cache_stats:
        stats = experiments.compile_cache_stats()
        print(
            f"compile cache: {stats.hits} hits / {stats.misses} misses"
            f" ({stats.hit_rate:.1%} hit rate)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

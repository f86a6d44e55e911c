"""Command-line harness: regenerate any paper experiment.

Usage::

    python -m repro.harness fig3a
    python -m repro.harness fig9 --workloads mtv red --sizes 64MB --trials 64
    python -m repro.harness fig12
    python -m repro.harness fig14 --trials 256
    python -m repro.harness all --trials 32
    python -m repro.harness fig9 --json results/BENCH_fig9.json
    python -m repro.harness fig15 --db results/tune.jsonl --resume
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
``REPRO_MAX_WORKERS``) and viewable in Perfetto.

``--db PATH`` appends every measured tuning candidate to a persistent
JSON-lines database; ``--resume`` warm-starts searches from it (an
interrupted sweep replays instantly up to where it died).

Which driver a name runs, the CLI arguments it receives and how its
result prints are one row of :data:`repro.harness.experiments.TABLE`.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..autotune import default_engine, measure_stats
from ..obs import Tracer, trace_lint, use_tracer, write_chrome_trace
from ..obs.export import _jsonable
from .experiments import KEYWORDS, TABLE, text_report


def run_experiment(name: str, args: argparse.Namespace):
    """Run one experiment: prints its text report, returns its raw data."""
    row = next(
        (row for row in TABLE if row.name == name and row.when(args)), None
    )
    if row is None:
        raise SystemExit(f"unknown experiment {name!r}")
    data = row.run(
        **{KEYWORDS.get(arg, arg): getattr(args, arg) for arg in row.args}
    )
    print(text_report(row.run, data), end="\n\n")
    return data


EXPERIMENTS = tuple(dict.fromkeys(row.name for row in TABLE))


#: Version of the ``--json`` dump layout.  Bump when the payload's
#: structure changes so downstream tooling can detect format drift.
#: History: 1 = implicit/unversioned (PRs 1-7); 2 = adds this field;
#: 3 = fig18 cluster payloads, ``settings.workers``, and versioned
#: ServerMetrics dicts (``schema_version`` inside ``metrics``);
#: 4 = the measurement fan-out entry of ``settings`` removed with the
#: option; 5 = fig17's ``mixed`` row and breakdown removed with per-node
#: placement (a graph compiles for one target); 6 = fig17's breakdown
#: rows lost ``crossing_in``/``crossing_out`` (every edge crosses).
JSON_SCHEMA_VERSION = 6


def write_json(path: str, results, args: argparse.Namespace) -> None:
    """Dump figure rows + compile/tuning cache stats as JSON."""
    stats = default_engine().stats
    measure = measure_stats()
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
        "--db", metavar="PATH", default=None,
        help="persistent tuning database (JSON-lines); measured"
             " candidates append to it as the search runs",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="warm-start searches from --db (replays an interrupted or"
             " prior run's measurements instead of re-simulating)",
    )
    args = parser.parse_args(argv)
    if args.resume and not args.db:
        parser.error("--resume requires --db PATH")

    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    tracer = Tracer() if args.trace else None
    results = {}
    with use_tracer(tracer):
        for name in names:
            results[name] = run_experiment(name, args)
    if args.trace:
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
    if args.json:
        write_json(args.json, results, args)
        print(f"wrote JSON results to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

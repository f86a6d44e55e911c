"""Run the benchmark.

Two ways in:

``python perf/run.py [--traced] [--quick] [--seed N] [--out PATH]``
    the ledger: all five workloads, every metric printed by name and
    unit, one JSON file written for ``perf/compare.py``;

``python perf/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload for the benchmark driver; the last line of standard
    output is the result object the driver's contract asks for.

Either way each workload runs in fresh child processes of this same
file (``--child``), one after another, and the parent only aggregates.
Exit status is non-zero when any operation or correctness check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)

if __package__ in (None, ""):
    # Run as a script: Python put perf/ itself first on the path, where
    # trace.py would shadow the standard library's.  Import as a package
    # from the checkout root instead.
    sys.path[0] = _ROOT

from perf import spec  # noqa: E402

OUT_DIR = os.path.join(_HERE, "out")
#: A child that has not finished by then is killed (the driver allows a
#: whole run 180 s).
CHILD_TIMEOUT_S = 170


# ---------------------------------------------------------------------------
# child: one process of one workload
# ---------------------------------------------------------------------------

#: Seconds the calibration loop takes on the reference box when nothing
#: else runs on its host.  Host seconds are reported *at reference
#: speed*: raw seconds x (reference / calibration measured around them).
#: The reference box flips, for minutes at a time, between this speed
#: and one where the same code runs 1.45-1.7x slower (a busy sibling on
#: the host; no steal time is reported).  Raw seconds from ten runs that
#: straddle a flip have quartiles 40 % apart; scaled, about 5 %.  Within
#: one regime the loop's own jitter adds about 3 %.
CALIBRATION_REFERENCE_S = 0.115


def _calibration_s() -> float:
    """Time a fixed pure-bytecode loop of this file's own."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i * i
    return time.perf_counter() - t0


def _speed_factor(before: float, after: float) -> float:
    """What raw seconds measured between two calibrations are
    multiplied by to read as seconds at reference speed."""
    return CALIBRATION_REFERENCE_S / ((before + after) / 2.0)


def _timed_pass(workload, **kwargs):
    gc.collect()
    gc.freeze()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    result = workload.run_pass(**kwargs)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return result, wall, cpu


def _virtual_metrics(result) -> Dict[str, float]:
    return dict(result.virtual, virtual_ms=result.virtual_s * 1e3)


def _traced_pass(
    name: str, workload, before: float, reference_wall: float
) -> Dict[str, Any]:
    """One pass under the probes and the program's own tracer; returns
    per-layer metrics (see perf/trace.py for what a self time is).
    ``reference_wall`` is the untraced pass before it, at reference
    speed; ``before`` the calibration taken since."""
    from perf import trace

    os.makedirs(OUT_DIR, exist_ok=True)
    kwargs: Dict[str, Any] = {}
    db_path = os.path.join(OUT_DIR, f"tune_db_{os.getpid()}.jsonl")
    if name == "tune":
        kwargs["db"] = db_path
    rec = trace.Recorder()
    tracer = trace.program_tracer()
    with trace.probes(rec) as missing, trace.use_program_tracer(tracer):
        gc.collect()
        gc.freeze()
        with rec.span(trace.ROOT) as root:
            result = workload.run_pass(**kwargs)
    factor = _speed_factor(before, _calibration_s())
    wall = (root.end - root.start) * factor
    layers = trace.layer_metrics(rec, root)
    for metric in layers:
        if metric.endswith("_s"):
            layers[metric] *= factor
    attributed = sum(v for k, v in layers.items() if k.endswith("_s"))
    if abs(attributed - wall) > 1e-6 * max(1.0, wall):
        raise AssertionError(
            f"layer self times sum to {attributed!r}, pass took {wall!r}"
        )
    layers["bench.traced_wall_s"] = wall
    layers.update(result.counts)
    lookups = layers.get("pipeline.cache_hits", 0) + layers.get(
        "pipeline.cache_misses", 0
    )
    if lookups:
        layers["pipeline.cache_hit_rate"] = (
            layers["pipeline.cache_hits"] / lookups
        )
    layers.update(trace.after_pass_metrics(rec))

    problems: List[str] = []
    layers["obs.overhead_share"] = wall / reference_wall - 1.0
    layers["obs.events"] = len(tracer.events)
    if tracer.events:  # functional execution alone emits none
        t0 = time.perf_counter()
        problems += trace.export_program_trace(
            tracer, os.path.join(OUT_DIR, f"obs_{name}.json")
        )
        layers["obs.export_s"] = time.perf_counter() - t0
    own = os.path.join(OUT_DIR, f"trace_{name}.json")
    trace.write_chrome_trace(rec, root, own, {"workload": name, "pass": 1})
    problems += trace.lint(own)

    if name == "tune":
        try:
            t0 = time.perf_counter()
            resumed = workload.run_pass(db=db_path, resume=True)
            layers["autotune.resume_s"] = time.perf_counter() - t0
            if workload.digest(resumed) != workload.digest(result):
                problems.append("tune: resumed search found another winner")
        finally:
            if os.path.exists(db_path):
                os.remove(db_path)
    return {
        "result": result,
        "layers": layers,
        "missing_probes": missing,
        "problems": problems,
    }


def child_main(args) -> int:
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    from perf import adapters  # imports numpy and repro: part of set-up

    entry = spec.WORKLOADS[args.workload]
    started = _calibration_s()
    sizes = entry["quick" if args.quick else "sizes"]
    workload = adapters.WORKLOADS[args.workload](args.seed, sizes)
    if entry["warm"]:
        # Cold compiles, vector-plan builds and pool loads: paid once by
        # a long-lived process, so paid before the stopwatch starts.
        workload.run_pass()
    before = _calibration_s()
    raw_setup_s = time.time() - args.spawned_at
    setup_s = raw_setup_s * _speed_factor(started, before)

    passes: List[Dict[str, float]] = []
    digests = set()
    digest = ""
    spent = 0.0
    while True:
        result, wall, cpu = _timed_pass(workload)
        after = _calibration_s()
        factor = _speed_factor(before, after)
        before = after
        passes.append(
            {"wall_s": wall * factor, "cpu_s": cpu * factor,
             "raw_wall_s": wall, "speed_factor": factor,
             "ops": result.ops, "failed": result.failed}
        )
        digest = workload.digest(result)
        digests.add(digest)
        spent += wall
        if args.trace or spent >= args.seconds:
            break
    record: Dict[str, Any] = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "messages": [],
    }
    if len(digests) != 1:
        record["messages"].append(
            f"{args.workload}: passes of one process produced different outputs"
        )

    if args.trace:
        traced = _traced_pass(
            args.workload, workload, before, passes[-1]["wall_s"]
        )
        result = traced["result"]
        digest = workload.digest(result)
        if digest not in digests:
            record["messages"].append(
                f"{args.workload}: traced pass produced different outputs"
            )
        record["layers"] = traced["layers"]
        record["missing_probes"] = traced["missing_probes"]
        record["messages"] += traced["problems"]
    record["virtual"] = _virtual_metrics(result)
    record["digest"] = digest
    record["checks"] = 0
    if args.check:
        record["checks"], _, messages = workload.check(result)
        record["messages"] += messages
    record["versions"] = adapters.versions()
    print(json.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# parent: spawn, aggregate, print
# ---------------------------------------------------------------------------


def _spawn(workload: str, seed: int, seconds: float, trace: bool,
           quick: bool, check: bool) -> Dict[str, Any]:
    env = dict(os.environ)
    env.update(spec.env_pins())
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)),
        "--spawned-at", repr(time.time()),
    ]
    if quick:
        cmd.append("--quick")
    if check:
        cmd.append("--check")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=env, cwd=_ROOT, text=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload}: child exited with status {proc.returncode}"
        )
    return json.loads(out.strip().splitlines()[-1])


def _summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count of the samples behind a metric."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> Dict[str, Any]:
    """Run one workload in its processes and aggregate their records."""
    entry = spec.WORKLOADS[name]
    processes = 1 if (quick or trace) else spec.PROCESSES
    # Seeds of the processes: one for all, or one each (spec.py says
    # why) numbered so that no two ``--seed`` values share any.
    seeds = [
        seed * spec.PROCESSES + i if entry["seed_per_process"] else seed
        for i in range(processes)
    ]
    # Equal outputs are checked once, in the last process.
    children = [
        _spawn(name, seeds[i], seconds / processes, trace, quick,
               check=(entry["seed_per_process"] or i == processes - 1))
        for i in range(processes)
    ]
    passes = [p for c in children for p in c["passes"]]
    messages = [m for c in children for m in c["messages"]]
    first = children[0]
    virtual = first["virtual"]
    if entry["seed_per_process"]:
        virtual = {
            metric: statistics.fmean(c["virtual"][metric] for c in children)
            for metric in virtual
        }
    else:
        for other in children[1:]:
            if (other["digest"], other["virtual"]) != (
                first["digest"], first["virtual"]
            ):
                messages.append(
                    f"{name}: two processes at one seed disagree on outputs"
                    " or virtual-clock metrics"
                )
    attempted = sum(p["ops"] for p in passes) + sum(
        c["checks"] for c in children
    )
    # Every message is a failed check; a pass's own failed operations
    # (refused requests, unfinished sessions) carry no message.
    failed = sum(p["failed"] for p in passes) + len(messages)

    unit = {m[0]: m[1] for m in spec.END_TO_END + spec.WORKLOAD_END_TO_END}
    end_to_end: Dict[str, Dict[str, Any]] = {}
    if not trace:
        host = {
            "setup_s": [c["setup_s"] for c in children],
            "wall_s": [p["wall_s"] for p in passes],
            "cpu_s": [p["cpu_s"] for p in passes],
            "ops_per_s": [p["ops"] / p["wall_s"] for p in passes],
            "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        }
        for metric, values in host.items():
            end_to_end[metric] = dict(
                _summary(values), unit=unit[metric], clock="host"
            )
    for metric, value in virtual.items():
        end_to_end[metric] = {
            "value": value, "q1": value, "q3": value, "n": 1,
            "unit": unit[metric], "clock": "virtual",
        }
    record = {
        "workload": name,
        "op": entry["op"],
        "sizes": entry["quick" if quick else "sizes"],
        "processes": processes,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "messages": messages,
        "end_to_end": end_to_end,
        "versions": first["versions"],
    }
    if trace:
        record["per_layer"] = first["layers"]
        record["missing_probes"] = first["missing_probes"]
    return record


def driver_result(record: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The contract's result object: with ``--trace 0`` every bounded
    end-to-end metric, with ``--trace 1`` every per-layer one (0 where
    this workload does not produce it)."""
    metrics: Dict[str, Dict[str, Any]] = {}
    if not trace:
        for name, unit, *_ in spec.END_TO_END:
            metrics[name] = {
                "value": record["end_to_end"][name]["value"], "unit": unit
            }
    else:
        for name, unit, _ in spec.PER_LAYER:
            metrics[name] = {
                "value": record["per_layer"].get(name, 0), "unit": unit
            }
        for name, unit, *_ in spec.WORKLOAD_END_TO_END:
            value = record["end_to_end"].get(name, {}).get("value", 0)
            metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def _print_record(record: Dict[str, Any]) -> None:
    print(
        f"\n== {record['workload']}: {record['processes']} process(es),"
        f" {record['passes']} timed pass(es); operations attempted"
        f" {record['attempted']}, succeeded"
        f" {record['attempted'] - record['failed']}, failed"
        f" {record['failed']} =="
    )
    for name, m in record["end_to_end"].items():
        spread = (
            f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
            if m["clock"] == "host" else "  (virtual clock: exact)"
        )
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<6}{spread}")
    if "per_layer" in record:
        print("  -- per layer (one traced pass) --")
        units = {n: u for n, u, _ in spec.PER_LAYER}
        for name in sorted(record["per_layer"]):
            value = record["per_layer"][name]
            print(f"  {name:<36} {value:>14.6g} {units.get(name, '')}")
        wall = record["per_layer"]["bench.traced_wall_s"]
        share = record["per_layer"].get("bench.unattributed_s", 0.0) / wall
        flag = "" if share < 0.05 else "  WARNING: above 5 %"
        print(f"  unattributed share of the pass: {share:.2%}{flag}")
        for probe in record["missing_probes"]:
            print(f"  probe not found (metrics read 0): {probe}")
    for message in record["messages"]:
        print(f"  FAILED: {message}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help=f"timed seconds per workload (default"
                        f" {spec.RUN_SECONDS}; one pass with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one process, seconds not minutes")
    parser.add_argument("--out", help="where the ledger JSON goes"
                        " (default perf/out/ledger[_traced].json)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.trace = bool(args.trace or args.traced)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(spec.RUN_SECONDS)
    if args.child:
        return child_main(args)

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    print(
        "load: open loop on the virtual clock (arrival ticks/seconds are"
        " simulated), so the generator cannot run late on the host;"
        f" seed {args.seed}; pins {spec.env_pins()}"
    )
    records = {}
    for name in names:
        records[name] = run_workload(
            name, args.seed, args.seconds, args.trace, args.quick
        )
        _print_record(records[name])
    ok = all(r["correct"] for r in records.values())

    if args.workload:
        print(json.dumps(driver_result(records[args.workload], args.trace)))
        return 0 if ok else 1

    ledger = {
        "schema": 1,
        "quick": args.quick,
        "traced": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": spec.env_pins(),
        "versions": next(iter(records.values()))["versions"],
        "workloads": records,
    }
    out = args.out or os.path.join(
        OUT_DIR, "ledger_traced.json" if args.trace else "ledger.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"\nwrote {out}; every operation succeeded: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

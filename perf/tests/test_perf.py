"""Checks on the benchmark itself (``python -m pytest perf/tests -q``).

Not part of tier-1: ``testpaths`` in pyproject.toml does not list this
directory.  The two ``--quick`` ledgers take about half a minute.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perf import compare, spec  # noqa: E402


def _run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True,
    )


@pytest.fixture(scope="module")
def quick_ledgers(tmp_path_factory):
    """Two ``--quick`` ledgers of the same code at the same seed."""
    out = []
    for i in range(2):
        path = str(tmp_path_factory.mktemp("ledger") / f"quick{i}.json")
        proc = _run("--quick", "--out", path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with open(path) as f:
            out.append(json.load(f))
    return out


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_matches_the_catalogue(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert benchmark_json["run_seconds"] == spec.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in benchmark_json["workloads"]] == [
        (name, entry["why"]) for name, entry in spec.WORKLOADS.items()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in benchmark_json["end_to_end"]
    ] == [(n, u, b, bound) for n, u, b, _, bound in spec.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in benchmark_json["per_layer"]
    ] == list(spec.PER_LAYER) + [
        (n, u, b) for n, u, b, _ in spec.WORKLOAD_END_TO_END
    ]
    bounds = {m["name"]: m["bound"] for m in benchmark_json["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_ledger_schema_and_names(quick_ledgers):
    ledger = quick_ledgers[0]
    assert ledger["quick"] is True and ledger["traced"] is False
    assert sorted(ledger["workloads"]) == sorted(spec.WORKLOADS)
    everywhere = {m[0] for m in spec.END_TO_END}
    for name, record in ledger["workloads"].items():
        only_here = {
            m[0] for m in spec.WORKLOAD_END_TO_END if name in m[3]
        }
        assert set(record["end_to_end"]) == everywhere | only_here
        assert record["correct"] and record["failed"] == 0
        assert record["attempted"] >= 1
        for metric in record["end_to_end"].values():
            assert metric["value"] > 0  # a metric is omitted, never 0


def test_virtual_clock_repeats_bit_for_bit(quick_ledgers):
    a, b = quick_ledgers
    for name in spec.WORKLOADS:
        for metric, m in a["workloads"][name]["end_to_end"].items():
            if m["clock"] == "virtual":
                other = b["workloads"][name]["end_to_end"][metric]
                assert m["value"] == other["value"], (name, metric)


def test_driver_result_lists_every_metric(benchmark_json):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", "serve", "--quick", "--seconds", "0",
                    "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == [
            m["name"] for m in benchmark_json[key]
        ]
        for m in benchmark_json[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # The traced pass accounts for itself: self times add up to its wall.
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    measured_after_the_pass = (
        "bench.traced_wall_s", "obs.export_s", "graph.plan_memory_s",
        "autotune.resume_s",
    )
    attributed = sum(
        m["value"] for name, m in result["metrics"].items()
        if m["unit"] == "s" and name not in measured_after_the_pass
    )
    assert attributed == pytest.approx(layers["bench.traced_wall_s"], rel=1e-6)
    assert layers["serve.flushes"] > 0 and layers["upmem.run_calls"] > 0


def test_a_corrupted_output_fails_the_check():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from perf import adapters

    workload = adapters.Kernels(0, spec.WORKLOADS["kernels"]["quick"])
    result = workload.run_pass()
    assert workload.check(result)[1] == 0
    result.payload[0][0][7] += 1.0
    attempted, failed, messages = workload.check(result)
    assert failed == 1 and "output != reference" in messages[0]


def test_decode_check_is_steady_across_seeds_and_catches_a_wrong_output():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from perf import adapters
    from repro import graph

    # Seed 16: the engine's own elementwise check_references verdict
    # fails its sixth token by float32 rounding alone.
    workload = adapters.Decode(16, spec.WORKLOADS["decode"]["sizes"])
    result = workload.run_pass()
    assert workload.check(result)[1:] == (0, [])

    original = graph.GraphExecutable.run_tensors

    def one_element_off(self, inputs):
        outs = original(self, inputs)
        name = next(iter(outs))
        outs[name] = outs[name].copy()
        outs[name].flat[3] *= 1.01
        return outs

    graph.GraphExecutable.run_tensors = one_element_off
    try:
        _, failed, messages = workload.check(result)
    finally:
        graph.GraphExecutable.run_tensors = original
    assert failed >= 1 and "away from the reference" in messages[0]


def test_compare_passes_itself_and_flags_a_slowdown(quick_ledgers):
    old = quick_ledgers[0]
    bounds = compare.load_bounds()
    assert compare.measured_alike(old, old) == []
    rows, bad = compare.compare(old, old, bounds)
    assert not bad
    # ISSUE 11 flags +20 % against a 10 % bound; the bound is wider now,
    # so the synthetic slowdown sits the same 10 points beyond it.
    slower = copy.deepcopy(old)
    for key in ("value", "q1", "q3"):
        slower["workloads"]["decode"]["end_to_end"]["wall_s"][key] *= (
            1.1 + bounds["wall_s"][1]
        )
    rows, bad = compare.compare(old, slower, bounds)
    assert bad
    within = copy.deepcopy(old)
    within["workloads"]["decode"]["end_to_end"]["wall_s"]["value"] *= 1.05
    assert not compare.compare(old, within, bounds)[1]
    assert any("decode" in r and "wall_s" in r and "regressed" in r for r in rows)
    other_seed = dict(old, seed=old["seed"] + 1)
    assert compare.measured_alike(old, other_seed)

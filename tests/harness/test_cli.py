"""The `python -m repro.harness` CLI."""

import json
import runpy
import sys

import pytest

from repro.harness import fig14_search_strategies, fig18_cluster, text_report
from repro.harness import __main__ as cli
from repro.harness.__main__ import EXPERIMENTS, JSON_SCHEMA_VERSION, main


def test_experiment_list_covers_all_figures():
    assert set(EXPERIMENTS) == {
        "fig3a", "fig3b", "fig3c", "fig4", "fig9", "tab3", "fig10",
        "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "fig18", "sim_speed",
    }


def test_fig17_runs_and_dumps_json(tmp_path, capsys):
    path = tmp_path / "BENCH_fig17.json"
    assert main(["fig17", "--tokens", "4", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Fig 17" in out and "per-node breakdown" in out
    assert "memory plan:" in out
    payload = json.loads(path.read_text())
    data = payload["experiments"]["fig17"]
    # Per-node breakdowns for both targets.
    assert set(data["breakdown"]) == {"upmem", "cpu"}
    for rows in data["breakdown"].values():
        assert rows and all("total_ms" in row for row in rows)
    assert data["memory"]["arena_bytes"] < data["memory"]["naive_bytes"]
    assert payload["settings"]["tokens"] == 4


@pytest.mark.slow
def test_fig18_runs_and_dumps_json(tmp_path, capsys):
    path = tmp_path / "BENCH_fig18_cluster.json"
    assert main([
        "fig18", "--requests", "12", "--json", str(path),
    ]) == 0
    out = capsys.readouterr().out
    assert "Fig 18" in out and "fault scenario" in out
    payload = json.loads(path.read_text())
    data = payload["experiments"]["fig18"]
    assert {row["mode"] for row in data["rows"]} == {"whole", "continuous"}
    fault = data["fault_scenario"]
    assert fault["replay_ok"] is True
    assert fault["completed"] == data["summaries"]["continuous"]["completed"]
    # ServerMetrics payloads carry their own schema version now.
    assert data["summaries"]["continuous"]["metrics"]["schema_version"] == 2
    assert payload["settings"]["workers"] == 2


@pytest.mark.slow
def test_fig18_trace_lint_clean(tmp_path, capsys):
    from repro.obs import trace_lint

    path = tmp_path / "BENCH_fig18_trace.json"
    assert main([
        "fig18", "--requests", "10", "--trace", str(path),
    ]) == 0
    payload = json.loads(path.read_text())
    assert trace_lint(payload) == []
    processes = {
        e["args"]["name"] for e in payload["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    threads = {
        e["args"]["name"] for e in payload["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    # Per-worker lanes and the control lane made it into the export
    # (the exporter groups "cluster.*" tracks under one process).
    assert "cluster" in processes
    assert "cluster.control" in threads
    assert {"cluster.w0", "cluster.w1"} <= threads


def test_fig3a_runs(capsys):
    assert main(["fig3a"]) == 0
    out = capsys.readouterr().out
    assert "Fig 3a" in out and "cache_elems" in out


def test_fig13_runs(capsys):
    assert main(["fig13"]) == 0
    out = capsys.readouterr().out
    assert "issuable" in out


@pytest.mark.slow
def test_fig9_with_filters(capsys):
    assert main(["fig9", "--workloads", "red", "--sizes", "4MB",
                 "--trials", "8"]) == 0
    out = capsys.readouterr().out
    assert "red" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_python_dash_m_entry_point(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["python -m repro.harness", "fig3b"])
    # As under ``python -m``: the package imported, its __main__ not yet.
    monkeypatch.delitem(sys.modules, "repro.harness.__main__")
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("repro.harness", run_name="__main__")
    assert exited.value.code == 0
    assert "Fig 3b" in capsys.readouterr().out


def test_resume_without_db_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["fig15", "--resume"])
    assert "--resume requires --db PATH" in capsys.readouterr().err


def test_trace_lint_failure_exits_nonzero(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "trace_lint", lambda payload: ["bad span"])
    assert main(["fig3b", "--trace", str(tmp_path / "t.json")]) == 1
    assert "trace-lint: bad span" in capsys.readouterr().err


@pytest.mark.parametrize("argv, run, kwargs", [
    (
        ["fig14", "--trials", "2"], fig14_search_strategies,
        dict(n_trials=2, seed=0, db=None, resume=False),
    ),
    (
        ["fig18", "--requests", "4"], fig18_cluster,
        dict(n_requests=4, n_workers=2, seed=0),
    ),
])
def test_cli_prints_the_benchmark_report(argv, run, kwargs, capsys):
    """The CLI prints, for one call, exactly the text a benchmark saves."""
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed == text_report(run, run(**kwargs)) + "\n\n"


class TestJsonDump:
    def test_rows_and_cache_stats_written(self, tmp_path, capsys):
        path = tmp_path / "BENCH_fig3a.json"
        assert main(["fig3a", "--json", str(path)]) == 0
        assert f"wrote JSON results to {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == JSON_SCHEMA_VERSION
        rows = payload["experiments"]["fig3a"]
        assert rows and all("kernel_ms" in row for row in rows)
        stats = payload["cache_stats"]
        assert set(stats) == {"hits", "misses", "disk_hits", "hit_rate"}
        tuning = payload["tuning_stats"]
        assert set(tuning) == {
            "measure_hits", "measure_misses", "warm_hit_rate"
        }
        assert payload["settings"]["seed"] == 0
        assert payload["settings"]["db"] is None
        assert set(payload["settings"]) == {
            "trials", "seed", "workloads", "sizes", "db", "resume",
            "requests", "tokens", "layers", "workers",
        }

    @pytest.mark.slow
    def test_fig9_json_roundtrips_machine_readable(self, tmp_path):
        path = tmp_path / "BENCH_fig9.json"
        assert main([
            "fig9", "--workloads", "red", "--sizes", "4MB", "--trials", "8",
            "--json", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        row = payload["experiments"]["fig9"][0]
        assert row["workload"] == "red"
        assert isinstance(row["atim_ms"], float)
        assert isinstance(row["atim_params"], dict)

    @pytest.mark.slow
    def test_fig16_serving_metrics_in_json(self, tmp_path, capsys):
        """Acceptance: the serving metrics dict (p50/p95/p99, pool hit
        rate, rejected count) lands in the --json dump."""
        path = tmp_path / "BENCH_fig16.json"
        assert main(["fig16", "--requests", "8", "--json", str(path)]) == 0
        assert "Fig 16" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        data = payload["experiments"]["fig16"]
        rows = data["rows"]
        assert {row["target"] for row in rows} == {"upmem", "cpu"}
        assert {row["max_batch"] for row in rows} == {1, 4, 16}
        snapshot = data["metrics"]["upmem_b16"]
        assert {"p50", "p95", "p99"} <= set(snapshot["latency_ms"])
        assert "hit_rate" in snapshot["pool"]
        assert snapshot["rejected"] == 0
        assert payload["settings"]["requests"] == 8

    @pytest.mark.slow
    def test_fig14_curves_serializable(self, tmp_path):
        path = tmp_path / "BENCH_fig14.json"
        assert main(["fig14", "--trials", "8", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        curves = payload["experiments"]["fig14"]
        assert set(curves) == {
            "default_tvm", "balanced_sampling", "adaptive_epsilon", "atim"
        }
        for curve in curves.values():
            assert all(len(point) == 2 for point in curve)


class TestTraceFlag:
    def test_trace_written_and_lint_clean(self, tmp_path, capsys):
        from repro.obs import trace_lint

        path = tmp_path / "BENCH_fig17_trace.json"
        assert main([
            "fig17", "--layers", "3", "--tokens", "2",
            "--trace", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"wrote Chrome trace" in out and str(path) in out
        payload = json.loads(path.read_text())
        assert trace_lint(payload) == []
        assert payload["otherData"]["clock"] == "virtual"
        # Spans from the decode-side subsystems made it into the export.
        names = {
            e["args"]["name"] for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"pipeline", "pool", "graph", "kv-cache", "decode"} <= names

    def test_no_trace_flag_leaves_no_tracer_active(self, capsys):
        from repro.obs import NULL_TRACER, current_tracer

        assert main(["fig3b"]) == 0
        capsys.readouterr()
        assert current_tracer() is NULL_TRACER


@pytest.mark.slow
class TestPersistentTuningFlags:
    def test_db_written_and_resume_reported_warm(self, tmp_path, capsys):
        db = tmp_path / "tune.jsonl"
        json_path = tmp_path / "BENCH_fig15.json"
        assert main(["fig15", "--trials", "8", "--db", str(db)]) == 0
        assert db.exists()
        out = capsys.readouterr().out
        assert "0 warm (from --db) / 8 cold" in out

        # Same run again with --resume: every measurement is served warm.
        assert main([
            "fig15", "--trials", "8", "--db", str(db), "--resume",
            "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "8 warm (from --db) / 0 cold" in out
        payload = json.loads(json_path.read_text())
        assert payload["experiments"]["fig15"]["measure_cache_hits"] == [8.0]
        assert payload["tuning_stats"]["measure_hits"] >= 8
        assert payload["settings"]["db"] == str(db)
        assert payload["settings"]["resume"] is True

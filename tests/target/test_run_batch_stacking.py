"""``run_batch`` as one lane space: stacked items, byte-sized jobs.

A batch of B executions of one program runs as one vector call over
``B x grid`` lanes.  Whatever the lane cap, the job partition or the
worker count, and however the items share their input arrays, every
item's outputs must be byte-identical to a lone ``run`` — and threads
may only start where the working set pays for them, for a ``run`` (a
batch of one) exactly as for a batch.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.target.executor as executor_module
from repro.decode import DecodeEngine
from repro.graph import gptj_model_graph, place
from repro.graph.builder import GPTJ_SIM
from repro.serve import ExecutablePool, Request, Server, gptj_serving_mix
from repro.upmem import VerifyMismatch, plan_for
from repro.upmem.vectorize import plan as plan_module
from repro.workloads import make_workload, mtv


def _programs():
    """Every serving-mix and decode-graph program, plus a misaligned and
    a host-reduced one: ``label -> (workload, params)``."""
    programs = {
        f"serve:{name}": (entry.workload, entry.params)
        for name, entry in gptj_serving_mix(tokens=16).items()
    }
    graph = gptj_model_graph(GPTJ_SIM, layers=1, capacity=8)
    target = place(graph, "upmem")
    seen = set()
    for node in graph.nodes:
        key = ExecutablePool.key_for(node.workload, target, node.params)
        if key not in seen:
            seen.add(key)
            programs[f"decode:{node.name}"] = (node.workload, node.params)
    programs["mtv-misaligned"] = (
        mtv(70, 55),
        {"m_dpus": 8, "k_dpus": 1, "n_tasklets": 4, "cache": 16,
         "host_threads": 1},
    )
    programs["mtv-rfactor"] = (
        mtv(64, 128),
        {"m_dpus": 4, "k_dpus": 4, "n_tasklets": 2, "cache": 16,
         "host_threads": 2},
    )
    return programs


PROGRAMS = _programs()
_EXES = {}


def _exe(label):
    if label not in _EXES:
        wl, params = PROGRAMS[label]
        _EXES[label] = repro.compile(wl, target="upmem", params=params)
    return _EXES[label]


def _batch(label, owners):
    """One input dict per item; ``owners[name][i]`` names the array item
    ``i`` binds to input ``name`` — equal numbers share one array object."""
    wl, _ = PROGRAMS[label]
    pool = {}
    batch = []
    for i in range(len(next(iter(owners.values())))):
        item = {}
        for name, who in owners.items():
            key = (name, who[i])
            if key not in pool:
                pool[key] = wl.random_inputs(seed=7 * who[i] + 1)[name]
            item[name] = pool[key]
        batch.append(item)
    return batch


@st.composite
def batches(draw):
    label = draw(st.sampled_from(sorted(PROGRAMS)))
    n_items = draw(st.integers(1, 9))
    wl, _ = PROGRAMS[label]
    owners = {
        tensor.name: draw(
            st.lists(st.integers(0, 2), min_size=n_items, max_size=n_items)
        )
        for tensor in wl.inputs
    }
    return label, owners


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g_outs, w_outs in zip(got, want):
        assert len(g_outs) == len(w_outs)
        for g, w in zip(g_outs, w_outs):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


class TestStackedBatchEqualsSoloRuns:
    @settings(max_examples=60, deadline=None)
    @given(
        case=batches(),
        lane_cap=st.sampled_from(["unset", 1, 7, "grid", "grid+1"]),
        workers=st.sampled_from([1, 2, 4]),
        cut_fine=st.booleans(),
    )
    def test_byte_identical(self, case, lane_cap, workers, cut_fine):
        label, owners = case
        exe = _exe(label)
        batch = _batch(label, owners)
        grid = len(exe.executor.grid_points())
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_SIM_MODE", "vector")
            mp.setenv("REPRO_MAX_WORKERS", str(workers))
            want = [[o.copy() for o in exe.run(item)] for item in batch]
            if lane_cap != "unset":
                cap = {"grid": grid, "grid+1": grid + 1}.get(lane_cap, lane_cap)
                plan = plan_for(exe.lowered)
                mp.setattr(
                    plan_module, "_LANE_BUDGET_BYTES",
                    cap * plan._bytes_per_lane,
                )
                assert plan.max_lanes(10 ** 6) == cap
            if cut_fine:
                # Up to ``workers`` jobs whatever the size, so job
                # boundaries fall inside items too.
                mp.setattr(executor_module, "MIN_JOB_BYTES", 1)
            got = exe.run_batch(batch)
        _assert_same_bytes(got, want)

    @pytest.mark.parametrize("mode", ["scalar", "verify"])
    @pytest.mark.parametrize("label", ["serve:red", "decode:L0.attn_score",
                                       "mtv-rfactor"])
    def test_other_sim_modes(self, label, mode, monkeypatch):
        exe = _exe(label)
        wl, _ = PROGRAMS[label]
        owners = {t.name: [0, 1, 1, 2, 0] for t in wl.inputs}
        batch = _batch(label, owners)
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        want = [[o.copy() for o in exe.run(item)] for item in batch]
        monkeypatch.setenv("REPRO_SIM_MODE", mode)
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        monkeypatch.setattr(executor_module, "MIN_JOB_BYTES", 1)
        _assert_same_bytes(exe.run_batch(batch), want)

    def test_jobs_on_more_threads_than_cores(self, monkeypatch):
        """Jobs share the item states and write disjoint regions of
        them: rapid thread switching must not change a byte."""
        label = "serve:va"
        exe = _exe(label)
        wl, _ = PROGRAMS[label]
        batch = _batch(label, {t.name: list(range(9)) for t in wl.inputs})
        want = [[o.copy() for o in exe.run(item)] for item in batch]
        monkeypatch.setenv("REPRO_MAX_WORKERS", "8")
        monkeypatch.setattr(executor_module, "MIN_JOB_BYTES", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                _assert_same_bytes(exe.run_batch(batch), want)
        finally:
            sys.setswitchinterval(interval)


class TestVerifyNamesTheItem:
    def test_mismatch_in_item_two_only(self, monkeypatch):
        label = "serve:fc_mtv"
        exe = _exe(label)
        wl, _ = PROGRAMS[label]
        module = exe.lowered
        batch = [wl.random_inputs(seed=i) for i in range(4)]
        monkeypatch.setenv("REPRO_SIM_MODE", "verify")
        exe.run_batch(batch)  # the gate passes on an honest plan

        real = plan_for(module)

        class _LyingPlan:
            def check_invariants(self, lanes):
                return real.check_invariants(lanes)

            def run_points(self, states, lanes):
                real.run_points(states, lanes)
                states[2][module.outputs[0]] += np.float32(1.0)

        monkeypatch.setitem(module.__dict__["_plans"], "kernel", _LyingPlan())
        with pytest.raises(VerifyMismatch, match=r"batch item 2\b"):
            exe.run_batch(batch)


@pytest.fixture
def thread_starts(monkeypatch):
    """Counts ``threading.Thread.start`` calls (a one-shot pool is gone
    again by the time ``active_count()`` could see it)."""
    starts = []
    original = threading.Thread.start

    def start(self):
        starts.append(self.name)
        return original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return starts


class TestThreadsOnlyWhereTheyPay:
    @pytest.fixture(autouse=True)
    def four_wide(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "4")

    def test_small_program_flush_starts_no_thread(self, thread_starts):
        mix = gptj_serving_mix(tokens=16)
        before = threading.active_count()
        with Server(max_batch_size=8, max_wait_ticks=1) as server:
            tickets = [
                server.submit(
                    Request(
                        workload=entry.workload,
                        inputs=entry.workload.random_inputs(seed=i),
                        target="upmem",
                        params=entry.params,
                    )
                )
                for entry in mix.values()
                for i in range(3)
            ]
            server.drain()
            assert all(t.done for t in tickets)
            assert server.metrics.flushes == len(mix)
            assert threading.active_count() == before
        assert thread_starts == []

    def test_decode_step_starts_no_thread(self, thread_starts):
        engine = DecodeEngine(
            layers=1, page_tokens=4, check_references=False
        )
        engine.add_sequence("s", prompt_tokens=5)
        before = threading.active_count()
        engine.step_seq("s")
        assert threading.active_count() == before
        assert thread_starts == []

    def test_big_batch_uses_the_pool(self, thread_starts):
        """One execution path: ``run(x)`` is ``run_batch([x])[0]`` — the
        same bytes and the same threads, none for a serving-size
        program, one per job for a 64MB one."""
        small = next(iter(gptj_serving_mix(tokens=16).values())).workload
        for wl, threads in ((small, 0), (make_workload("mtv", "64MB"), 4)):
            exe = repro.compile(wl, target="upmem")
            inputs = wl.random_inputs(seed=0)
            (alone,) = exe.run(inputs)
            assert len(thread_starts) == threads
            del thread_starts[:]
            ((batched,),) = exe.run_batch([inputs])
            assert len(thread_starts) == threads
            del thread_starts[:]
            assert alone.tobytes() == batched.tobytes()
            np.testing.assert_allclose(
                alone, wl.reference_output(inputs), rtol=1e-3
            )

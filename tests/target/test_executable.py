"""Executable surface: run / run_batch / profile across targets."""

import numpy as np
import pytest

import repro
from repro.target import Executor
from repro.target.executor import MIN_JOB_BYTES
from repro.upmem.system import PerformanceModel
from repro.workloads import mtv, red, va

from ..conftest import host_threads


def _assert_batches_identical(seq, par):
    assert len(seq) == len(par)
    for s_outs, p_outs in zip(seq, par):
        assert len(s_outs) == len(p_outs)
        for s, p in zip(s_outs, p_outs):
            assert s.dtype == p.dtype and s.shape == p.shape
            assert s.tobytes() == p.tobytes()


class TestExecutorChunking:
    """``Executor.jobs``: contiguous, byte-sized, at most the
    deployment's width (``REPRO_MAX_WORKERS``)."""

    def test_chunks_are_contiguous_partition(self):
        with host_threads(3):
            jobs = Executor().jobs(10, MIN_JOB_BYTES)
        assert [x for job in jobs for x in job] == list(range(10))
        assert [len(job) for job in jobs] == [4, 3, 3]

    def test_more_chunks_than_items(self):
        with host_threads(8):
            jobs = Executor().jobs(2, MIN_JOB_BYTES)
        assert jobs == [range(0, 1), range(1, 2)]

    def test_empty(self):
        with host_threads(4):
            assert Executor().jobs(0, MIN_JOB_BYTES) == []

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_no_job_below_the_crossover(self, workers, monkeypatch):
        # The real crossover is the subject, so only the width is set
        # (``host_threads`` would also lower MIN_JOB_BYTES to 1).
        monkeypatch.setenv("REPRO_MAX_WORKERS", str(workers))
        executor = Executor()
        item = MIN_JOB_BYTES // 64
        for n in (1, 63, 127):  # under two crossovers of work: one job
            assert executor.jobs(n, item) == [range(n)]
        for n in (128, 200, 1000):
            jobs = executor.jobs(n, item)
            assert [x for job in jobs for x in job] == list(range(n))
            assert len(jobs) == min(workers, n * item // MIN_JOB_BYTES)
            assert all(len(job) * item >= MIN_JOB_BYTES for job in jobs)

    def test_map_order_preserved(self):
        with host_threads(4) as pools:
            result = Executor().map(lambda x: x * x, range(20))
        assert result == [x * x for x in range(20)]
        assert pools == [4]


class TestUpmemRunBatch:
    """run_batch must match N lone run() calls bit-for-bit while
    sharding across the thread pool (acceptance criterion)."""

    @pytest.mark.parametrize(
        "wl,params",
        [
            (
                mtv(96, 80),
                {"m_dpus": 8, "k_dpus": 1, "n_tasklets": 4, "cache": 16,
                 "host_threads": 1},
            ),
            (
                # rfactor: grid has a reduction dimension + host combine.
                mtv(64, 128),
                {"m_dpus": 4, "k_dpus": 4, "n_tasklets": 2, "cache": 16,
                 "host_threads": 2},
            ),
            (va(1000), {"n_dpus": 8, "n_tasklets": 4, "cache": 32}),
            (
                # Misaligned shape: boundary tiles exercise partial copies.
                mtv(70, 55),
                {"m_dpus": 8, "k_dpus": 1, "n_tasklets": 4, "cache": 16,
                 "host_threads": 1},
            ),
        ],
        ids=["mtv", "mtv-rfactor", "va", "mtv-misaligned"],
    )
    def test_bit_for_bit(self, wl, params):
        exe = repro.compile(wl, target="upmem", params=params)
        batch = [wl.random_inputs(seed=i) for i in range(4)]
        with host_threads(1) as pools:
            seq = [exe.run(inputs) for inputs in batch]
            assert pools == []
        with host_threads(4) as pools:
            par = exe.run_batch(batch)
            assert pools == [4]
        _assert_batches_identical(seq, par)

    def test_single_item_batch(self):
        wl = mtv(64, 64)
        exe = repro.compile(wl, target="upmem")
        ins = wl.random_inputs(0)
        (seq,) = exe.run(ins)
        with host_threads(4) as pools:
            ((par,),) = exe.run_batch([ins])
            assert pools == [4]
        assert seq.tobytes() == par.tobytes()

    def test_sequential_worker_path(self):
        wl = va(512)
        exe = repro.compile(
            wl, target="upmem",
            params={"n_dpus": 4, "n_tasklets": 2, "cache": 16},
        )
        batch = [wl.random_inputs(seed=i) for i in range(3)]
        with host_threads(1) as pools:
            sequential = exe.run_batch(batch)
            assert pools == []
        with host_threads(4) as pools:
            _assert_batches_identical(sequential, exe.run_batch(batch))
            assert pools == [4]

    def test_outputs_match_reference(self):
        wl = mtv(48, 32)
        exe = repro.compile(wl, target="upmem")
        batch = [wl.random_inputs(seed=i) for i in range(3)]
        for outs, inputs in zip(exe.run_batch(batch), batch):
            np.testing.assert_allclose(
                outs[0], wl.reference_output(inputs), rtol=1e-3
            )


class TestRooflineRunBatch:
    def test_cpu_batch_matches_reference(self):
        wl = mtv(64, 48)
        exe = repro.compile(wl, target="cpu")
        batch = [wl.random_inputs(seed=i) for i in range(6)]
        with host_threads(3) as pools:
            results = exe.run_batch(batch)
            assert pools == [3]
        for outs, inputs in zip(results, batch):
            np.testing.assert_allclose(
                outs[0], wl.reference_output(inputs), rtol=1e-5
            )


class TestExecutableSurface:
    def test_upmem_module_accessors(self):
        exe = repro.compile(mtv(64, 64), target="upmem")
        assert exe.lowered.n_dpus >= 1
        assert "for" in exe.script()
        assert "void" in exe.source()

    def test_missing_input_named(self):
        wl = mtv(32, 32)
        exe = repro.compile(wl, target="upmem")
        with pytest.raises(KeyError, match="A"):
            exe.run(B=np.zeros(32, np.float32))
        cpu = repro.compile(wl, target="cpu")
        with pytest.raises(KeyError, match="A"):
            cpu.run(B=np.zeros(32, np.float32))

    def test_simplepim_profile_override_consistent(self):
        """SimplePIM keeps functional execution while profiling with the
        framework's documented overheads."""
        wl = red(8192)
        exe = repro.compile(wl, target="simplepim")
        upmem_like = PerformanceModel(exe.target.config).profile(exe.lowered)
        assert exe.profile().latency.total > upmem_like.latency.total
        ins = wl.random_inputs(0)
        (out,) = exe.run(ins)
        np.testing.assert_allclose(
            out, wl.reference_output(ins), rtol=1e-3
        )


class TestEveryKindExecutes:
    """Every target's executable runs and profiles: the base class has
    no "cannot run" default left to fall back on."""

    KINDS = ["cpu", "prim", "simplepim", "upmem"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_run_and_profile(self, kind):
        wl = va(4096)
        exe = repro.compile(wl, target=kind)
        ins = wl.random_inputs(seed=1)
        (out,) = exe.run(ins)
        np.testing.assert_allclose(out, wl.reference_output(ins), rtol=1e-5)
        assert exe.profile().latency.total == pytest.approx(exe.latency)

    @pytest.mark.parametrize("kind", KINDS)
    def test_run_batch_matches_lone_runs(self, kind):
        wl = va(4096)
        exe = repro.compile(wl, target=kind)
        batch = [wl.random_inputs(seed=i) for i in range(3)]
        lone = [exe.run(inputs) for inputs in batch]
        _assert_batches_identical(lone, exe.run_batch(batch))
        assert exe.run_batch([]) == []

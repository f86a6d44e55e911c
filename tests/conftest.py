"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

import repro
import repro.target.executor as executor_module
from repro import te
from repro.schedule import Schedule
from repro.upmem import FunctionalExecutor, UpmemConfig


@contextmanager
def host_threads(width: int):
    """Run a block at ``REPRO_MAX_WORKERS=width`` with every lane space
    cut as fine as that width allows (the tests' programs are far below
    the 8 MB where threads start on their own); yields the list that
    receives the width of each ``ThreadPoolExecutor`` built inside, so a
    thread-invariance test can show its threaded side really threaded."""
    pools = []

    class CountedPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_MAX_WORKERS", str(width))
        mp.setattr(executor_module, "MIN_JOB_BYTES", 1)
        mp.setattr(executor_module, "ThreadPoolExecutor", CountedPool)
        yield pools


def at_both_widths(run):
    """``run()`` on the caller's thread, then as jobs on 4-thread pools —
    having checked that the first built no pool and the second did."""
    with host_threads(1) as pools:
        serial = run()
        assert pools == []
    with host_threads(4) as pools:
        threaded = run()
        assert pools and set(pools) == {4}
    return serial, threaded


@pytest.fixture
def small_config() -> UpmemConfig:
    """A small UPMEM system for fast verifier/system tests."""
    return UpmemConfig().with_(n_ranks=2)


def make_mtv_schedule(
    m: int,
    k: int,
    m_dpus: int = 4,
    n_tasklets: int = 2,
    cache: int = 16,
    k_dpus: int = 1,
):
    """A scheduled MTV used across lowering/optim/executor tests."""
    A = te.placeholder((m, k), "float32", "A")
    B = te.placeholder((k,), "float32", "B")
    kk = te.reduce_axis(k, "k")
    C = te.compute((m,), lambda i: te.sum(A[i, kk] * B[kk], axis=kk), "C")
    sch = Schedule(C)
    s = sch[C]
    (i,) = s.op.axis
    if k_dpus > 1:
        k_dpu, _ = s.split(s.op.reduce_axis[0], nparts=k_dpus)
        cf = sch.rfactor(C, k_dpu)
        stage = sch[cf]
        kd_ax, i_ax = stage.op.axis
        (k_in,) = stage.op.reduce_axis
        target = cf
    else:
        stage, kd_ax, i_ax, k_in, target = s, None, i, s.op.reduce_axis[0], C
    i_dpu, i_rest = stage.split(i_ax, nparts=m_dpus)
    i_thr, i_tile = stage.split(i_rest, nparts=n_tasklets)
    k_blk, k_elem = stage.split(k_in, factor=cache)
    order = [i_dpu] + ([kd_ax] if kd_ax is not None else [])
    order += [i_thr, i_tile, k_blk, k_elem]
    stage.reorder(*order)
    stage.bind(i_dpu, "blockIdx.x")
    if kd_ax is not None:
        stage.bind(kd_ax, "blockIdx.y")
    stage.bind(i_thr, "threadIdx.x")
    sch.cache_read(target, A, "wram").compute_at(stage, k_blk)
    sch.cache_read(target, B, "wram").compute_at(stage, k_blk)
    sch.cache_write(target, "wram").reverse_compute_at(stage, i_thr)
    if k_dpus > 1:
        s_final = sch[C]
        (fi,) = s_final.op.axis
        fo, _ = s_final.split(fi, nparts=2)
        s_final.parallel(fo)
    return sch


def run_and_check(sch, inputs: dict, reference: np.ndarray, opt_level="O3",
                  rtol=1e-3, atol=1e-5):
    """Compile+execute a schedule; assert output matches reference."""
    module = repro.compile(sch, opt_level=opt_level).lowered
    out, = FunctionalExecutor(module).run(inputs)
    np.testing.assert_allclose(out, reference, rtol=rtol, atol=atol)
    return module

"""A flush is priced as the stacked grid ``run_batch`` runs: one launch,
kernels once per round of DPU-group replicas, one rank-parallel push
per direction a round, host statements per request, and the constant
inputs' staging once per pool load."""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.serve import Request, Server, gptj_serving_mix
from repro.serve.server import DISPATCH_OVERHEAD_S
from repro.target import UpmemTarget
from repro.upmem import DEFAULT_CONFIG
from repro.upmem.system import PerformanceModel

from .conftest import tiny_mix

_EXES = {}


def _exe(name, target="upmem"):
    """The tiny mix's program ``name``, compiled once per module."""
    if (name, target) not in _EXES:
        entry = tiny_mix()[name]
        params = entry.params if target == "upmem" else None
        _EXES[name, target] = repro.compile(
            entry.workload, target=target, params=params
        )
    return _EXES[name, target]


def _lines(exe, batch, staging_due=False):
    return Server()._batch_lines(exe, batch, staging_due, ("k",))


def _duration(exe, batch, staging_due=False):
    return sum(_lines(exe, batch, staging_due).values())


@pytest.mark.parametrize("name", sorted(tiny_mix()))
@pytest.mark.parametrize("batch", [2, 5, 16])
def test_transfer_lines_are_the_stacked_grids(name, batch):
    """Within one round, a flush of B moves its tensors as one push
    over B x G DPUs."""
    exe = _exe(name)
    model = PerformanceModel(exe.target.config)
    lines = _lines(exe, batch)
    for direction in ("h2d", "d2h"):
        assert lines[direction] == model._transfer_time(
            exe.lowered, direction, replicas=batch
        )
    assert lines["launch"] == exe.profile().latency.launch
    assert lines["kernel"] == exe.profile().latency.kernel
    assert lines["host"] == batch * exe.profile().latency.host


@pytest.mark.parametrize("name", sorted(tiny_mix()))
def test_a_flush_of_one_is_one_run(name):
    exe = _exe(name)
    latency = exe.profile().latency
    assert _duration(exe, 1) == pytest.approx(
        DISPATCH_OVERHEAD_S + latency.total, rel=1e-12
    )
    staging = PerformanceModel(exe.target.config)._transfer_time(
        exe.lowered, "h2d",
        replicas=exe.target.config.n_dpus // exe.lowered.n_dpus,
        staging=True,
    )
    assert _lines(exe, 1, staging_due=True)["staging"] == staging
    assert (staging > 0) == bool(exe.workload.const_inputs)


def test_fc_mtv_pays_its_broadcast_on_every_flush():
    """The serving mix's FC matvec broadcasts its input vector to every
    DPU on each run; only the weight matrix is staged once.  A flush of
    one after the load costs exactly one run, broadcast included."""
    entry = gptj_serving_mix()["fc_mtv"]
    with Server(max_batch_size=1) as server:
        first, second = server.submit_many(
            [
                Request(entry.workload, entry.workload.random_inputs(seed=i),
                        params=entry.params)
                for i in range(2)
            ]
        )
        exe, _ = server.pool.get(entry.workload, "upmem", entry.params)
    latency = exe.profile().latency
    assert latency.h2d > 300e-6  # the per-run broadcast of x
    assert second.response.execute_s == pytest.approx(
        DISPATCH_OVERHEAD_S + latency.total, rel=1e-12
    )
    staging = first.response.execute_s - second.response.execute_s
    assert staging == pytest.approx(_lines(exe, 1, True)["staging"])


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(tiny_mix())), batch=st.integers(1, 15))
def test_a_bigger_flush_never_costs_less_nor_more_than_solo_flushes(
    name, batch
):
    exe = _exe(name)
    grown = _duration(exe, batch + 1)
    assert _duration(exe, batch) <= grown <= (batch + 1) * _duration(exe, 1)


def test_the_roofline_amortizes_only_its_launch():
    exe = _exe("mtv", target="cpu")
    latency = exe.profile().latency
    lines = _lines(exe, 7, staging_due=True)
    assert lines["launch"] == latency.launch
    assert lines["kernel"] == 7 * latency.kernel
    assert lines["staging"] == 0.0


def test_a_batch_past_the_replica_groups_pushes_once_a_round():
    """On a one-rank machine the 4-DPU ``mtv`` fits 16 replicas: a flush
    of 20 is two rounds, pushing 16 replicas and then 4."""
    config = DEFAULT_CONFIG.with_(n_ranks=1)
    entry = tiny_mix()["mtv"]
    exe = repro.compile(
        entry.workload, target=UpmemTarget(config), params=entry.params
    )
    model = PerformanceModel(config)
    assert config.n_dpus // exe.lowered.n_dpus == 16
    kernel = exe.profile().latency.kernel
    assert _lines(exe, 16)["kernel"] == kernel
    lines = _lines(exe, 20)
    assert lines["kernel"] == 2 * kernel
    for direction in ("h2d", "d2h"):
        assert lines[direction] == (
            model._transfer_time(exe.lowered, direction, replicas=16)
            + model._transfer_time(exe.lowered, direction, replicas=4)
        )
    assert _lines(exe, 32)["d2h"] == 2 * model._transfer_time(
        exe.lowered, "d2h", replicas=16
    )


def test_a_baselines_profile_adjustments_ride_along():
    """SimplePIM's profile adds a host-side output gather to the
    module's D2H: a flush pays it once per request on top of the
    stacked pushes."""
    exe = repro.compile(tiny_mix()["va"].workload, target="simplepim")
    model = PerformanceModel(exe.target.config)
    latency = exe.profile().latency
    gather = latency.d2h - model.profile(exe.lowered).latency.d2h
    assert gather > 0
    assert _duration(exe, 1) == pytest.approx(
        DISPATCH_OVERHEAD_S + latency.total, rel=1e-12
    )
    groups = exe.target.config.n_dpus // exe.lowered.n_dpus
    pushes = model._transfer_time(exe.lowered, "d2h", replicas=groups)
    assert _lines(exe, groups)["d2h"] == pytest.approx(
        groups * gather + pushes, rel=1e-12
    )

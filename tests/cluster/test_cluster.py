"""End-to-end cluster behavior: batching modes, SLO admission,
preemption, quotas, routing, and fault handling."""

import pytest

from repro.cluster import (
    COMPLETED,
    KILL,
    REJECTED,
    STALL,
    Cluster,
    ClusterConfig,
    FaultEvent,
    FaultInjector,
    Session,
    TenantSpec,
    default_tenants,
    generate_cluster_trace,
    sessions_from_trace,
)
from repro.obs import Tracer, chrome_trace, trace_lint, use_tracer
from repro.serve.server import DISPATCH_OVERHEAD_S

from .conftest import run_small, small_config, small_trace


class TestContinuousMode:
    def test_all_sessions_complete(self):
        result, _ = run_small(n=8)
        assert len(result.completed) == 8
        assert all(s.status == COMPLETED for s in result.sessions)
        assert result.makespan_s > 0
        assert result.tokens_decoded == sum(
            s.decode_tokens for s in result.sessions
        )

    def test_token_latencies_metered(self):
        result, _ = run_small(n=6)
        metrics = result.metrics.to_dict(elapsed_s=result.makespan_s)
        assert metrics["ttft_ms"]["count"] == 6
        assert metrics["tpot_ms"]["count"] == 6
        assert metrics["completed"] == 6
        assert set(metrics["per_tenant"]) <= {
            "interactive", "batch", "background"
        }

    def test_iteration_level_joins(self):
        """Bursty arrivals join in-flight batches: some iteration runs
        a batch larger than 1 even though arrivals are staggered."""
        result, _ = run_small(
            n=10,
            trace_kwargs=dict(
                mean_interarrival_s=0.01, burst_prob=0.5, burst_size=3
            ),
        )
        assert max(result.occupancy_samples) > 1

    def test_sessions_retire_individually(self):
        """In continuous mode short sessions finish while long ones
        keep decoding: completion order is not admission order."""
        tenants, sessions = small_trace(n=8, decode_tokens=(2, 12))
        cluster = Cluster(small_config(), tenants=tenants)
        result = cluster.run(sessions)
        finish = {s.session_id: s.finish_s for s in result.completed}
        admitted = {s.session_id: s.admitted_s for s in result.completed}
        by_admit = sorted(finish, key=lambda k: (admitted[k], k))
        by_finish = sorted(finish, key=lambda k: (finish[k], k))
        assert by_admit != by_finish


class TestWholeRequestMode:
    def test_baseline_completes(self):
        result, _ = run_small(n=8, mode="whole")
        assert len(result.completed) == 8

    def test_continuous_beats_whole_on_bursty_trace(self):
        kwargs = dict(
            n=12,
            trace_kwargs=dict(
                mean_interarrival_s=0.02, burst_prob=0.3, burst_size=4,
                decode_tokens=(2, 12),
            ),
        )
        cont, _ = run_small(mode="continuous", **kwargs)
        whole, _ = run_small(mode="whole", **kwargs)
        assert (
            cont.throughput_tokens_per_s > whole.throughput_tokens_per_s
        )
        assert (
            cont.metrics.ttft.percentile(99)
            < whole.metrics.ttft.percentile(99)
        )

    def test_sealed_worker_admits_nothing_mid_batch(self):
        """Whole-request flushing: a worker's batch admission instants
        are strictly separated — nobody joins between a batch's first
        admission and its last completion."""
        result, cluster = run_small(n=10, mode="whole", n_workers=1)
        batches = {}
        for s in result.completed:
            batches.setdefault(s.admitted_s, []).append(s)
        instants = sorted(batches)
        assert len(instants) > 1  # more than one flush actually happened
        for prev, nxt in zip(instants, instants[1:]):
            # The next batch's admission waits for the previous batch
            # to drain completely.
            assert max(s.finish_s for s in batches[prev]) <= nxt


class TestSLOAdmission:
    def test_unsatisfiable_deadline_rejected_at_submit(self):
        """Regression (ISSUE 10 polish): a request whose TTFT deadline
        cannot be met even by an empty cluster is refused at submit
        time — counted per tenant — instead of timing out in-queue."""
        tenants, sessions = small_trace(n=4)
        doomed = Session(
            session_id="doomed", tenant="interactive", arrival_s=0.0,
            prompt_tokens=2, decode_tokens=2,
            ttft_deadline_s=0.0,  # < dispatch overhead: unsatisfiable
        )
        cluster = Cluster(small_config(), tenants=tenants)
        result = cluster.run(sessions + [doomed])
        assert doomed.status == REJECTED
        assert doomed.admitted_s is None  # never sat in the queue
        tenant = result.metrics.per_tenant["interactive"]
        assert tenant["rejected_slo"] == 1
        assert result.metrics.rejected == 1
        # Everyone else still completes.
        assert len(result.completed) == 4

    @pytest.mark.parametrize("scale, refused", [
        (1.0 - 1e-9, True),
        (1.0, False),
    ], ids=["below", "at"])
    def test_the_ttft_floor_is_the_servers_dispatch_overhead(
        self, scale, refused
    ):
        """The cluster and the server price one dispatch with one
        constant: a TTFT deadline just under it is refused at submit,
        one equal to it is not."""
        tenants, sessions = small_trace(n=2)
        edge = Session(
            session_id="edge", tenant="interactive", arrival_s=0.0,
            prompt_tokens=2, decode_tokens=2,
            ttft_deadline_s=DISPATCH_OVERHEAD_S * scale,
        )
        result = Cluster(small_config(), tenants=tenants).run(
            sessions + [edge]
        )
        tenant = result.metrics.per_tenant["interactive"]
        assert tenant["rejected_slo"] == int(refused)
        assert (edge.status == REJECTED and edge.admitted_s is None) == (
            refused
        )

    def test_satisfiable_deadline_not_rejected(self):
        tenants, sessions = small_trace(n=4)
        cluster = Cluster(small_config(), tenants=tenants)
        result = cluster.run(sessions)
        assert result.metrics.rejected == 0

    def test_capacity_infeasible_rejected_at_submit(self):
        """A session whose full-length KV footprint exceeds a whole
        worker's page pool can never finish (no preemption helps):
        refused at submit instead of wedging a worker mid-decode."""
        giant = Session(
            session_id="giant", tenant="batch", arrival_s=0.0,
            prompt_tokens=4, decode_tokens=1000,
            ttft_deadline_s=10.0, tpot_deadline_s=10.0,
        )
        tenants, sessions = small_trace(n=4)
        cluster = Cluster(small_config(), tenants=tenants)
        result = cluster.run(sessions + [giant])
        assert giant.status == REJECTED
        assert giant.admitted_s is None
        assert result.metrics.per_tenant["batch"]["rejected"] == 1
        assert result.metrics.per_tenant["batch"]["rejected_slo"] == 0
        assert len(result.completed) == 4

    def test_queue_cap_rejects_overflow(self):
        tenants, sessions = small_trace(
            n=12, burst_prob=1.0, burst_size=12
        )
        cluster = Cluster(small_config(queue_cap=4), tenants=tenants)
        result = cluster.run(sessions)
        assert any(s.status == REJECTED for s in result.sessions)
        assert result.metrics.rejected > 0


class TestPreemption:
    def _sessions(self):
        # One worker, 4-page pool: the lax session's KV fills the pool;
        # the urgent arrival can only fit by evicting it.
        lax = Session(
            session_id="lax", tenant="batch", arrival_s=0.0,
            prompt_tokens=4, decode_tokens=4,
            ttft_deadline_s=10.0, tpot_deadline_s=10.0,
        )
        urgent = Session(
            session_id="urgent", tenant="interactive", arrival_s=0.03,
            prompt_tokens=4, decode_tokens=2,
            ttft_deadline_s=0.2, tpot_deadline_s=0.2,
        )
        return lax, urgent

    def test_pool_exhaustion_evicts_lower_priority(self):
        lax, urgent = self._sessions()
        cluster = Cluster(
            small_config(n_workers=1, max_pages=4, page_tokens=4)
        )
        result = cluster.run([lax, urgent])
        assert lax.preemptions == 1
        assert lax.replays == 1        # re-admitted via replay
        assert lax.replay_ok is True
        assert urgent.preemptions == 0
        assert {s.status for s in result.sessions} == {COMPLETED}
        assert result.metrics.per_tenant["batch"]["preempted"] == 1

    def test_decode_time_pool_exhaustion_unwedges(self):
        """Regression: sessions that fit at admission but collectively
        exhaust the KV pool mid-decode must not deadlock the worker.
        Two 6-prompt sessions fill all 8 pages (2 pages x 2 layers
        each); both block when token 9 crosses a page boundary, and
        the lowest-priority resident is evicted (for later
        digest-verified replay) so the other can finish."""
        a = Session(
            session_id="a", tenant="interactive", arrival_s=0.0,
            prompt_tokens=6, decode_tokens=8,
            ttft_deadline_s=0.5, tpot_deadline_s=0.5,
        )
        b = Session(
            session_id="b", tenant="batch", arrival_s=0.0,
            prompt_tokens=6, decode_tokens=8,
            ttft_deadline_s=10.0, tpot_deadline_s=10.0,
        )
        cluster = Cluster(
            small_config(n_workers=1, max_pages=8, page_tokens=4)
        )
        result = cluster.run([a, b])
        assert {s.status for s in result.sessions} == {COMPLETED}
        assert b.preemptions >= 1
        assert b.replays >= 1
        assert result.replay_ok is True
        assert a.finish_s < b.finish_s

    def test_urgent_session_served_first_after_preemption(self):
        lax, urgent = self._sessions()
        cluster = Cluster(
            small_config(n_workers=1, max_pages=4, page_tokens=4)
        )
        cluster.run([lax, urgent])
        assert urgent.finish_s < lax.finish_s

    def test_wedged_worker_evicts_only_the_heads_model_size(self):
        """Two 2-layer and two 1-layer sessions each fill half of their
        engine's 8-page pool with a whole-page prompt, so every first
        step crosses a page boundary and the first iteration composes
        nothing.  The 1-layer sessions rank lowest but sit in another
        engine: evicting them frees no page the 2-layer head can use,
        so the same-size peer is evicted instead."""
        def session(name, layers, prompt, ttft_s):
            return Session(
                session_id=name, tenant="t", arrival_s=0.0,
                prompt_tokens=prompt, decode_tokens=4, layers=layers,
                ttft_deadline_s=ttft_s, tpot_deadline_s=ttft_s,
            )

        head = session("head", 2, 8, 0.1)
        peer = session("peer", 2, 8, 5.0)
        low = [session("low0", 1, 16, 10.0), session("low1", 1, 16, 20.0)]
        cluster = Cluster(
            small_config(n_workers=1, max_pages=8, page_tokens=4)
        )
        tracer = Tracer()
        with use_tracer(tracer):
            result = cluster.run([head, peer, *low])
        assert {s.status for s in result.sessions} == {COMPLETED}
        preempted = [
            e.args["session"] for e in tracer.events if e.name == "preempt"
        ]
        assert preempted[0] == "peer"
        assert head.preemptions == 0
        assert result.replay_ok is True


class TestQuotas:
    def test_tenant_quota_serializes_admissions(self):
        tenants = [TenantSpec("solo", quota=1, ttft_slo_s=10.0,
                              tpot_slo_s=10.0)]
        sessions = [
            Session(session_id=f"q{i}", tenant="solo", arrival_s=0.0,
                    prompt_tokens=2, decode_tokens=3,
                    ttft_deadline_s=10.0, tpot_deadline_s=10.0)
            for i in range(2)
        ]
        cluster = Cluster(small_config(n_workers=2), tenants=tenants)
        result = cluster.run(sessions)
        assert len(result.completed) == 2
        first, second = sorted(result.completed, key=lambda s: s.admitted_s)
        # Quota 1: the second session waits for the first to finish
        # even with an idle second worker available.
        assert second.admitted_s >= first.finish_s

    def test_quota_throttles_whole_batches(self):
        """Whole-request mode fills a batch from the queue, skipping
        sessions whose tenant is already at its quota."""
        tenants = [TenantSpec("solo", quota=1, ttft_slo_s=10.0,
                              tpot_slo_s=10.0)]
        sessions = [
            Session(session_id=f"w{i}", tenant="solo", arrival_s=0.0,
                    prompt_tokens=2, decode_tokens=3,
                    ttft_deadline_s=10.0, tpot_deadline_s=10.0)
            for i in range(2)
        ]
        cluster = Cluster(
            small_config(n_workers=1, mode="whole"), tenants=tenants
        )
        result = cluster.run(sessions)
        assert len(result.completed) == 2
        first, second = sorted(result.completed, key=lambda s: s.admitted_s)
        assert second.admitted_s >= first.finish_s

    def test_unknown_tenant_unthrottled(self):
        sessions = [
            Session(session_id=f"u{i}", tenant="mystery", arrival_s=0.0,
                    prompt_tokens=2, decode_tokens=2,
                    ttft_deadline_s=10.0, tpot_deadline_s=10.0)
            for i in range(3)
        ]
        cluster = Cluster(small_config(n_workers=2))
        result = cluster.run(sessions)
        assert len(result.completed) == 3


class TestRouting:
    def test_affinity_keeps_tenant_together(self):
        tenants, sessions = small_trace(n=8)
        cluster = Cluster(small_config(n_workers=2), tenants=tenants)
        cluster.run(sessions)
        stats = cluster.router.stats()
        assert stats["placements"] == 8
        assert stats["affinity_hits"] > 0

    def test_load_spreads_across_workers(self):
        tenants, sessions = small_trace(
            n=10, burst_prob=1.0, burst_size=5
        )
        cluster = Cluster(small_config(n_workers=2), tenants=tenants)
        cluster.run(sessions)
        assert all(w.iterations > 0 for w in cluster.workers)


class TestFaults:
    def test_stall_recovers_without_replay(self):
        """A stall shorter than the dead threshold degrades the worker
        but keeps its state: sessions finish with zero replays."""
        faults = FaultInjector.from_events(
            [FaultEvent(0.04, 0, STALL, duration_s=0.05)], n_workers=2
        )
        result, cluster = run_small(n=6, faults=faults)
        assert len(result.completed) == 6
        assert result.replays == 0
        states = [(old, new) for _, w, old, new
                  in result.supervisor_transitions if w == 0]
        assert ("healthy", "degraded") in states
        assert ("degraded", "healthy") in states

    def test_kill_orphans_replay_and_complete(self):
        faults = FaultInjector.from_events(
            [FaultEvent(0.06, 0, KILL)], n_workers=2
        )
        result, cluster = run_small(n=8, faults=faults)
        assert len(result.completed) == 8
        assert result.replays > 0
        assert result.replay_ok is True
        states = [new for _, w, old, new
                  in result.supervisor_transitions if w == 0]
        assert states == ["degraded", "dead", "recovering", "healthy"]

    def test_recovery_outputs_bit_for_bit_vs_no_fault(self):
        """The acceptance criterion: after a mid-decode worker kill,
        every session's full token-digest stream equals the no-fault
        run's — replay is bit-for-bit, not merely 'it finished'."""
        clean, _ = run_small(n=8)
        faults = FaultInjector.from_events(
            [FaultEvent(0.06, 0, KILL)], n_workers=2
        )
        faulty, _ = run_small(n=8, faults=faults)
        clean_digests = {
            s.session_id: s.token_digests for s in clean.sessions
        }
        faulty_digests = {
            s.session_id: s.token_digests for s in faulty.sessions
        }
        assert clean_digests == faulty_digests

    def test_replay_digest_mismatch_is_reported(self):
        """The replay check is what proves recovery bit-for-bit: corrupt
        one orphan's recorded digest before it is re-admitted and the
        replay must flag that session, and only that one."""
        faults = FaultInjector.from_events(
            [FaultEvent(0.06, 0, KILL)], n_workers=2
        )
        tenants, sessions = small_trace(n=8)
        cluster = Cluster(small_config(), tenants=tenants, faults=faults)
        apply_faults = cluster._apply_faults
        corrupted = []

        def apply_and_corrupt(now_s):
            fired = apply_faults(now_s)
            for orphans in cluster._orphans.values():
                for session in orphans:
                    if session.tokens_done and not corrupted:
                        session.token_digests[0] = "0" * 16
                        corrupted.append(session)
            return fired

        cluster._apply_faults = apply_and_corrupt
        result = cluster.run(sessions)
        (bad,) = corrupted
        assert bad.replays == 1 and bad.replay_ok is False
        assert result.replay_ok is False
        assert result.summary()["replay_ok"] is False
        assert all(s.replay_ok for s in result.sessions if s is not bad)
        assert len(result.completed) == 8

    def test_single_worker_cluster_survives_kill(self):
        faults = FaultInjector.from_events(
            [FaultEvent(0.06, 0, KILL)], n_workers=1
        )
        result, _ = run_small(n=4, n_workers=1, faults=faults)
        assert len(result.completed) == 4
        assert result.replay_ok is True


class TestValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ClusterConfig(mode="magic")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            ClusterConfig(n_workers=0)

    def test_second_run_raises(self):
        """A second run on one instance used to merge into the first:
        the busy clocks, metrics, router and fault cursor carried over."""
        def trace():
            tenants = default_tenants()
            return sessions_from_trace(
                generate_cluster_trace(
                    6, tenants, seed=1, decode_tokens=(2, 4)
                ),
                tenants,
            )

        cluster = Cluster(tenants=default_tenants())
        result = cluster.run(trace())
        assert result.metrics.completed == 6
        with pytest.raises(RuntimeError, match="replays one trace"):
            cluster.run(trace())
        assert result.metrics.completed == 6
        assert cluster.router.placements == 6

    def test_nonconvergence_raises(self):
        tenants, sessions = small_trace(n=2)
        cluster = Cluster(small_config(max_ticks=1), tenants=tenants)
        with pytest.raises(RuntimeError, match="did not converge"):
            cluster.run(sessions)


class TestEmptyTrace:
    def test_aggregates_are_zero(self):
        result = Cluster(small_config()).run([])
        assert (result.ticks, result.iterations) == (0, 0)
        assert result.throughput_tokens_per_s == 0.0
        assert result.mean_occupancy == 0.0
        assert result.mean_kv_utilization == 0.0
        assert result.summary()["completed"] == 0


class TestTracing:
    def test_traced_continuous_run_lints_clean(self):
        """One ``iter`` span per iteration on the worker lanes, and one
        batch-occupancy and one KV-utilization sample with each."""
        tracer = Tracer()
        with use_tracer(tracer):
            result, _ = run_small(n=4)
        assert trace_lint(chrome_trace(tracer)) == []
        lanes = [e for e in tracer.events if e.track.startswith("cluster.w")]
        iters = [e for e in lanes if e.phase == "B" and e.name.startswith("iter ")]
        assert len(iters) == result.iterations > 0
        for series in ("batch_occupancy", "kv_utilization"):
            samples = [e for e in lanes if e.phase == "C" and e.name == series]
            assert len(samples) == result.iterations

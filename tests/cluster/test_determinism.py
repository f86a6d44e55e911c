"""Determinism under failure (ISSUE 10 acceptance): same seed ⇒
identical fault schedule, batch compositions, recovery order and final
responses — at any host thread count and under REPRO_SIM_MODE=verify."""

import dataclasses

from repro.cluster import KILL, FaultEvent, FaultInjector

from ..conftest import at_both_widths
from .conftest import run_small


def _fingerprint(result):
    """Everything observable about a run, in a comparable form."""
    return {
        "summary": result.summary(),
        "sessions": [dataclasses.asdict(s) for s in result.sessions],
        "occupancy": result.occupancy_samples,
        "kv": result.kv_samples,
        "transitions": result.supervisor_transitions,
        "faults": result.faults_fired,
    }


def _kill_faults(n_workers=2):
    return FaultInjector.from_events(
        [FaultEvent(0.06, 0, KILL)], n_workers=n_workers
    )


class TestSameSeed:
    def test_identical_runs(self):
        a, _ = run_small(n=8, seed=5)
        b, _ = run_small(n=8, seed=5)
        assert _fingerprint(a) == _fingerprint(b)

    def test_seed_changes_outcome(self):
        a, _ = run_small(n=8, seed=5)
        b, _ = run_small(n=8, seed=6)
        assert [s.token_digests for s in a.sessions] != [
            s.token_digests for s in b.sessions
        ]

    def test_seeded_fault_schedule_and_recovery_identical(self):
        """A *generated* (not hand-written) fault schedule, fired inside
        the run: schedules, recovery order and final responses all
        repeat exactly."""
        def go():
            faults = FaultInjector(
                2, seed=11, n_faults=2, horizon_s=0.12, stall_s=0.05
            )
            schedule = list(faults.schedule)
            result, _ = run_small(n=8, seed=5, faults=faults)
            return schedule, _fingerprint(result)

        (sched_a, fp_a), (sched_b, fp_b) = go(), go()
        assert sched_a == sched_b
        assert fp_a == fp_b


class TestHostParallelismInvariance:
    def test_max_workers_1_vs_4(self):
        a, b = at_both_widths(lambda: run_small(n=8, seed=5)[0])
        assert _fingerprint(a) == _fingerprint(b)

    def test_max_workers_1_vs_4_under_kill(self):
        # seed=3: the kill at 0.06s catches mid-stream residents on
        # worker 0, so recovery actually replays.
        a, b = at_both_widths(
            lambda: run_small(n=8, seed=3, faults=_kill_faults())[0]
        )
        fp_a, fp_b = _fingerprint(a), _fingerprint(b)
        assert fp_a == fp_b
        assert fp_a["transitions"]  # the kill actually happened
        assert a.replays > 0 and a.replay_ok is True


class TestVerifyMode:
    def test_verify_mode_matches_perf_mode(self, monkeypatch):
        a, _ = run_small(n=6, seed=5)
        monkeypatch.setenv("REPRO_SIM_MODE", "verify")
        b, _ = run_small(n=6, seed=5)
        assert [s.token_digests for s in a.sessions] == [
            s.token_digests for s in b.sessions
        ]
        assert a.summary() == b.summary()

    def test_verify_mode_deterministic_under_kill(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_MODE", "verify")
        a, _ = run_small(n=6, seed=5, faults=_kill_faults())
        b, _ = run_small(n=6, seed=5, faults=_kill_faults())
        assert _fingerprint(a) == _fingerprint(b)
        assert a.replay_ok is True


class TestWorkerCountInvariance:
    def test_digests_independent_of_cluster_size(self):
        """Token streams derive from (engine seed, session name), never
        from placement: a 1-worker and a 4-worker cluster produce the
        same responses for the same trace."""
        a, _ = run_small(n=8, seed=5, n_workers=1)
        b, _ = run_small(n=8, seed=5, n_workers=4)
        assert {s.session_id: s.token_digests for s in a.sessions} == {
            s.session_id: s.token_digests for s in b.sessions
        }

    def test_kill_deterministic_at_1_and_4_workers(self):
        for n_workers in (1, 4):
            runs = [
                _fingerprint(run_small(
                    n=6, seed=5, n_workers=n_workers,
                    faults=_kill_faults(n_workers),
                )[0])
                for _ in range(2)
            ]
            assert runs[0] == runs[1]
            assert runs[0]["summary"]["completed"] == 6
            assert runs[0]["summary"]["replay_ok"] is True

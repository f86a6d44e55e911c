"""Seeded fault schedules: determinism and firing semantics."""

import pytest

from repro.cluster import KILL, STALL, FaultEvent, FaultInjector


class TestSchedule:
    def test_same_seed_same_schedule(self):
        a = FaultInjector(4, seed=9, n_faults=6, horizon_s=2.0)
        b = FaultInjector(4, seed=9, n_faults=6, horizon_s=2.0)
        assert a.schedule == b.schedule
        assert len(a.schedule) == 6

    def test_schedule_sorted_by_time(self):
        inj = FaultInjector(4, seed=1, n_faults=8, horizon_s=1.0)
        times = [e.at_s for e in inj.schedule]
        assert times == sorted(times)

    def test_fire_pops_due_events_once(self):
        events = [
            FaultEvent(0.1, 0, KILL),
            FaultEvent(0.2, 1, STALL, duration_s=0.5),
            FaultEvent(0.9, 0, KILL),
        ]
        inj = FaultInjector.from_events(events)
        assert inj.fire(0.05) == []
        due = inj.fire(0.3)
        assert [e.at_s for e in due] == [0.1, 0.2]
        assert inj.fire(0.3) == []
        last = inj.fire(2.0)
        assert [e.at_s for e in last] == [0.9]
        assert due + last == sorted(events, key=lambda e: (e.at_s, e.worker))

    def test_simultaneous_faults_fire_low_worker_first(self):
        inj = FaultInjector.from_events(
            [FaultEvent(0.1, 1, KILL), FaultEvent(0.1, 0, KILL)]
        )
        assert [e.worker for e in inj.fire(0.2)] == [0, 1]


class TestValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(0.0, 0, "meteor")

    def test_stall_needs_duration(self):
        with pytest.raises(ValueError, match="duration_s"):
            FaultEvent(0.0, 0, STALL)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            FaultInjector(0)

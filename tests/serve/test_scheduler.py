"""DynamicBatcher policy: size/age flush triggers on the virtual clock."""

import pytest

from repro.serve import DynamicBatcher, PendingRequest, Request, Ticket


def _pending(seq, tick=0):
    return PendingRequest(
        seq=seq,
        ticket=Ticket(Request(workload=None)),
        arrival_tick=tick,
        arrival_s=tick * 1e-4,
    )


class TestValidation:
    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            DynamicBatcher(max_batch_size=0)

    def test_rejects_negative_wait(self):
        with pytest.raises(ValueError, match="max_wait_ticks"):
            DynamicBatcher(max_wait_ticks=-1)


class TestSizeTrigger:
    def test_add_reports_full_group(self):
        b = DynamicBatcher(max_batch_size=3)
        assert not b.add("k", _pending(0))
        assert not b.add("k", _pending(1))
        assert b.add("k", _pending(2))

    def test_keys_fill_independently(self):
        b = DynamicBatcher(max_batch_size=2)
        assert not b.add("a", _pending(0))
        assert not b.add("b", _pending(1))
        assert b.add("a", _pending(2))
        assert len(b) == 3

    def test_take_pops_whole_group_in_order(self):
        b = DynamicBatcher(max_batch_size=8)
        for seq in range(3):
            b.add("k", _pending(seq))
        group = b.take("k")
        assert [p.seq for p in group] == [0, 1, 2]
        assert b.take("k") == []
        assert len(b) == 0


class TestAgeTrigger:
    def test_due_after_max_wait(self):
        b = DynamicBatcher(max_batch_size=8, max_wait_ticks=3)
        b.add("k", _pending(0, tick=5))
        assert b.due(6) == []
        assert b.due(7) == []
        assert b.due(8) == ["k"]

    def test_due_orders_by_oldest_seq(self):
        b = DynamicBatcher(max_batch_size=8, max_wait_ticks=0)
        b.add("late", _pending(7, tick=0))
        b.add("early", _pending(2, tick=0))
        assert b.due(0) == ["early", "late"]

    def test_age_measured_from_oldest_member(self):
        b = DynamicBatcher(max_batch_size=8, max_wait_ticks=4)
        b.add("k", _pending(0, tick=0))
        b.add("k", _pending(1, tick=3))  # newer arrival must not reset age
        assert b.due(4) == ["k"]


class TestDrain:
    def test_drain_keys_oldest_first(self):
        b = DynamicBatcher(max_batch_size=8)
        b.add("b", _pending(1))
        b.add("a", _pending(0))
        b.add("c", _pending(2))
        assert b.drain_keys() == ["a", "b", "c"]

    def test_drain_keys_empty(self):
        assert DynamicBatcher().drain_keys() == []

    def test_pending_counts_every_group(self):
        b = DynamicBatcher(max_batch_size=8)
        b.add("a", _pending(0))
        b.add("a", _pending(1))
        b.add("b", _pending(2))
        assert b.pending == 3
        assert [len(b.take(key)) for key in b.drain_keys()] == [2, 1]
        assert b.pending == 0

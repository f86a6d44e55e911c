"""WeightResidencyPlanner: stage/evict schedules under an MRAM budget."""

import pytest

from repro.decode import ResidencyError, WeightResidencyPlanner, h2d_seconds

MB = 1 << 20


def planner(layers=3, budget_layers=2, size=MB):
    return WeightResidencyPlanner([size] * layers, budget_layers * size)


def run_cycles(p, steps):
    events = []
    for step in range(steps):
        for layer in range(len(p.layer_nbytes)):
            events.extend(p.access(step, layer))
    return events


class TestValidation:
    def test_budget_below_largest_layer(self):
        with pytest.raises(ResidencyError, match="no schedule exists"):
            WeightResidencyPlanner([MB, 2 * MB], MB)

    def test_empty_layers(self):
        with pytest.raises(ResidencyError, match="at least one layer"):
            WeightResidencyPlanner([], MB)

    def test_layer_out_of_range(self):
        p = planner()
        with pytest.raises(ResidencyError, match="out of range"):
            p.access(0, 5)


class TestAllFit:
    def test_degenerates_to_load_once(self):
        # Whole model under budget: L stages on the first cycle, then
        # every access hits — the existing load-once staging model.
        p = planner(layers=3, budget_layers=3)
        assert p.all_fit
        first = run_cycles(p, 1)
        assert [e.action for e in first] == ["stage"] * 3
        assert run_cycles(p, 5) == []
        assert p.stages == 3 and p.evictions == 0


class TestEviction:
    def test_staging_charged_evictions_free(self):
        p = planner(layers=3, budget_layers=2)
        events = run_cycles(p, 2)
        stage_s = h2d_seconds(MB, p.config)
        for e in events:
            if e.action == "stage":
                assert e.seconds == stage_s and e.nbytes == MB
            else:
                assert e.action == "evict" and e.seconds == 0.0

    def test_belady_evicts_layer_behind_the_cursor(self):
        p = planner(layers=3, budget_layers=2)
        p.access(0, 0)
        p.access(0, 1)
        events = p.access(0, 2)
        # Staging layer 2: the cyclic future is 0, 1, 2, ... — layer 1
        # is reused furthest away, so it is the Belady victim.
        assert [(e.action, e.layer) for e in events] == [
            ("evict", 1), ("stage", 2),
        ]
        assert p.access(1, 0) == []  # layer 0 stayed resident

    def test_belady_hits_part_of_a_cyclic_scan(self):
        # A cyclic scan one layer wider than the budget: an LRU victim
        # rule would miss on every access, Belady keeps hitting part of
        # the cycle.
        p = planner(layers=3, budget_layers=2)
        run_cycles(p, 4)
        assert p.stages < 12  # 3 accesses x 4 steps

    def test_resident_state_tracked_across_steps(self):
        p = planner(layers=4, budget_layers=2)
        run_cycles(p, 3)
        assert p.resident_nbytes <= p.budget_nbytes
        stats = p.stats()
        assert stats["resident_layers"] == 2
        assert stats["stages"] == p.stages
        assert stats["evictions"] == p.evictions
        assert not stats["all_fit"]
        assert stats["staging_seconds"] == pytest.approx(
            p.stages * h2d_seconds(MB, p.config)
        )


class TestPlan:
    def test_schedule_is_deterministic(self):
        a = planner(layers=5, budget_layers=3)
        b = planner(layers=5, budget_layers=3)
        assert run_cycles(a, 6) == run_cycles(b, 6)

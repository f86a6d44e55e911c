"""DecodeEngine: epochs, program sharing, charging, reference parity."""

import numpy as np
import pytest

from repro.decode import DecodeEngine
from repro.graph.executable import pool_keys
from repro.serve.pool import ExecutablePool

from .conftest import TINY, TINY_LAYER_NBYTES, tiny_engine


class TestEpochs:
    def test_pages_grow_without_replanning(self):
        # prompt 6 at 4/page -> capacity 8; steps 0-2 run there, the
        # append after step 2 (position 9) crosses into capacity 12.
        engine = tiny_engine()
        result = engine.decode(tokens=6, prompt_tokens=6)
        caps = [s.capacity for s in result.steps]
        assert caps == [8, 8, 8, 12, 12, 12]
        # The tentpole claim: inside a capacity epoch nothing compiles
        # and nothing replans; only page-boundary steps rebuild.
        for s in result.steps:
            if s.replanned:
                assert s.step in (0, 3)
            else:
                assert s.compiled_programs == 0
        assert result.replans == 1

    def test_epoch_rebuild_compiles_only_capacity_programs(self):
        engine = tiny_engine()
        result = engine.decode(tokens=6, prompt_tokens=6)
        first, boundary = result.steps[0], result.steps[3]
        # First epoch loads the whole program set, one per node of a
        # layer; the page-boundary epoch pool-hits every
        # capacity-independent program and loads only the two attention
        # programs sized to the new capacity (the score MMTV with its
        # softmax epilogue, the value MMTV).
        assert first.compiled_programs == 4
        assert boundary.compiled_programs == 2

    def test_epoch_keys_pinned_in_pool(self):
        engine = tiny_engine()
        engine.decode(tokens=4, prompt_tokens=6)
        pinned = engine.pool.pinned_keys()
        (epoch,) = engine._epochs.values()
        current = pool_keys(epoch.graph, epoch.exe.target)
        assert current <= pinned or current == pinned
        # Retired capacity-dependent programs are unpinned once their
        # epoch ends.
        assert pinned == current

    def test_shared_pool_survives_under_lru_pressure(self):
        # A pool far too small for the working set: pins must keep the
        # decode loop's programs resident (over capacity) instead of
        # thrashing.
        pool = ExecutablePool(capacity=2)
        engine = tiny_engine(pool=pool)
        result = engine.decode(tokens=5, prompt_tokens=6)
        assert all(
            s.compiled_programs == 0
            for s in result.steps
            if not s.replanned
        )
        (epoch,) = engine._epochs.values()
        assert pool.stats()["resident"] >= len(epoch.keys)


class TestCharging:
    def test_staging_comes_from_residency_not_profile(self):
        # Budget for 1 of 2 layers: every step re-stages both layers
        # (cyclic scan through a single slot), and the charged staging
        # equals the planner's events exactly.
        engine = tiny_engine(mram_budget_bytes=TINY_LAYER_NBYTES)
        result = engine.decode(tokens=4, prompt_tokens=4)
        for s in result.steps:
            assert s.staging_s == pytest.approx(
                sum(e.seconds for e in s.stage_events)
            )
            stages = [e for e in s.stage_events if e.action == "stage"]
            assert len(stages) == 2  # both layers re-stage, every step
        assert engine.residency.stats()["evictions"] > 0

    def test_all_fit_stages_once(self):
        engine = tiny_engine()  # default budget: whole model
        result = engine.decode(tokens=4, prompt_tokens=4)
        assert result.steps[0].staging_s > 0
        for s in result.steps[1:]:
            assert s.staging_s == 0.0 and s.stage_events == ()

    def test_cache_growth_charged_per_layer(self):
        engine = tiny_engine()
        result = engine.decode(tokens=3, prompt_tokens=4)
        for s in result.steps:
            assert len(s.cache_events) == engine.layers
            assert s.cache_growth_s == pytest.approx(
                sum(e.seconds for e in s.cache_events)
            )
            for entry, ev in zip(s.per_layer, s.cache_events):
                assert entry["cache_growth_s"] == pytest.approx(ev.seconds)

    def test_per_layer_breakdown_sums_to_step(self):
        engine = tiny_engine(layers=3)
        result = engine.decode(tokens=3, prompt_tokens=4)
        for s in result.steps:
            for key in ("compute_s", "h2d_s", "d2h_s", "staging_s",
                        "cache_growth_s"):
                assert sum(e[key] for e in s.per_layer) == pytest.approx(
                    getattr(s, key)
                )

    def test_totals_aggregate_steps(self):
        engine = tiny_engine()
        result = engine.decode(tokens=4, prompt_tokens=4)
        totals = result.totals()
        assert totals["total_s"] == pytest.approx(
            sum(s.total_s for s in result.steps)
        )
        per_layer = result.per_layer_totals()
        assert sum(r["compute_s"] for r in per_layer) == pytest.approx(
            totals["compute_s"]
        )


class TestExecution:
    def test_outputs_match_reference_every_step(self):
        result = tiny_engine().decode(tokens=5, prompt_tokens=6)
        assert result.reference_ok is True
        assert all(s.reference_ok for s in result.steps)

    def test_reference_check_survives_hidden_state_growth(self):
        """3 layers x 6 tokens at the default model size, one of the
        seeds (16, 37, 76, 92) whose sixth token used to fail an
        element-wise rtol=2e-3 check by float32 rounding alone: the
        un-normalised hidden state has grown ~3x a token and one
        element cancels to nearly zero."""
        engine = DecodeEngine(
            layers=3, page_tokens=4, max_resident_epochs=4, seed=16
        )
        engine.add_sequence("r16-q1", prompt_tokens=6)
        reports = [engine.step_seq("r16-q1") for _ in range(6)]
        assert [r.reference_ok for r in reports] == [True] * 6

    def test_reference_check_is_on_the_tensor_scale(self):
        from repro.decode.engine import _matches_reference

        want = np.array([1000.0, 1e-6, -250.0], np.float32)
        near = want + np.array([0.05, 0.05, -0.05], np.float32)
        assert _matches_reference(near, want)  # 5e-5 of the scale
        assert not _matches_reference(want + np.float32(0.5), want)
        assert not _matches_reference(
            np.array([1000.0, np.nan, -250.0], np.float32), want
        )

    def test_hidden_state_feeds_back(self):
        engine = tiny_engine()
        result = engine.decode(tokens=3, prompt_tokens=4)
        # The engine's next-step input is the last layer's output.
        np.testing.assert_array_equal(
            result.hidden_states[-1], engine.hidden_state("seq0")
        )
        assert len({h.tobytes() for h in result.hidden_states}) == 3

    def test_appended_kv_rows_come_from_the_graph(self):
        engine = tiny_engine()
        engine.decode(tokens=1, prompt_tokens=4)
        # Position 4 (first decoded token) holds the qkv slices the
        # graph emitted, not zeros.
        k, v = engine.cache.dense_kv("seq0", 0)
        assert k[4].any() and v[4].any()

    def test_decode_requires_prompt(self):
        engine = tiny_engine()
        engine.add_sequence("empty")
        with pytest.raises(RuntimeError, match="no cached positions"):
            engine.step_batch(["empty"])
        with pytest.raises(ValueError, match="prompt_tokens"):
            engine.decode(tokens=1, prompt_tokens=0)

    def test_result_to_dict_is_json_shaped(self):
        import json

        result = tiny_engine().decode(tokens=3, prompt_tokens=4)
        payload = result.to_dict()
        json.dumps(payload)  # no arrays, no numpy scalars
        assert payload["replans"] == result.replans
        assert payload["memory"]["utilization"] > 0
        assert len(payload["per_layer"]) == 2
        assert set(payload["per_layer"][0]) == {
            "layer", "compute_ms", "h2d_ms", "d2h_ms", "staging_ms",
            "cache_growth_ms", "stages", "evictions",
        }


class TestValidation:
    def test_bad_args(self):
        with pytest.raises(ValueError, match="layers"):
            DecodeEngine(config=TINY, layers=0)
        with pytest.raises(ValueError, match="tokens"):
            tiny_engine().decode(tokens=0)

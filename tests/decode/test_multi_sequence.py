"""Multi-sequence decode: several sequences through one engine.

The contract the cluster builds on: per-sequence StepReports are
*solo* costs — bit-for-bit what the same sequence reports decoded
alone on its own engine — for every field except `staging_s` (weight
residency is engine-global state: interleaving sequences changes the
stage/evict schedule, which is physical reality, not noise).  The
functional outputs (hidden states, KV rows) must match exactly.
"""

import numpy as np
import pytest

from repro.decode import CacheError
from repro.decode.engine import DecodeEngine, IterationReport
from repro.serve.pool import ExecutablePool

from ..conftest import at_both_widths
from .conftest import TINY, tiny_engine


def multi_engine(**kwargs):
    kwargs.setdefault("check_references", False)
    kwargs.setdefault("max_resident_epochs", 4)
    return tiny_engine(**kwargs)


class TestSequenceLifecycle:
    def test_add_and_remove(self):
        eng = multi_engine()
        eng.add_sequence("a", prompt_tokens=3)
        assert eng.cache.stats()["sequences"] == 1
        assert eng.cache.length("a") == 3
        freed = eng.remove_sequence("a")
        assert freed > 0
        assert eng.cache.stats()["sequences"] == 0
        with pytest.raises(ValueError, match="unknown sequence 'a'"):
            eng.hidden_state("a")

    def test_no_phantom_sequence(self):
        """The engine registers nothing at construction: a server of
        eight sequences reports eight, not nine."""
        eng = multi_engine()
        assert eng.cache.stats()["sequences"] == 0
        for i in range(8):
            eng.add_sequence(f"s{i}", prompt_tokens=1)
        assert eng.cache.stats()["sequences"] == 8
        with pytest.raises(ValueError, match="unknown sequence 'seq0'"):
            eng.hidden_state("seq0")

    def test_duplicate_add_rejected(self):
        eng = multi_engine()
        eng.add_sequence("a")
        with pytest.raises(ValueError, match="already registered"):
            eng.add_sequence("a")

    def test_unknown_sequence_rejected(self):
        eng = multi_engine()
        with pytest.raises(ValueError, match="unknown sequence"):
            eng.step_seq("ghost")
        with pytest.raises(ValueError, match="unknown sequence"):
            eng.remove_sequence("ghost")

    def test_step_without_prefill_rejected(self):
        eng = multi_engine()
        eng.add_sequence("a")  # no prompt
        with pytest.raises(RuntimeError, match="no cached positions"):
            eng.step_seq("a")

    def test_prompt_is_deterministic_per_name(self):
        """Same engine seed + same sequence name => identical prompt
        rows and initial hidden state, on ANY engine instance — the
        replay-on-recovery contract."""
        e1, e2 = multi_engine(), multi_engine()
        e1.add_sequence("tenant0/req3", prompt_tokens=4)
        e2.add_sequence("tenant0/req3", prompt_tokens=4)
        np.testing.assert_array_equal(
            e1.hidden_state("tenant0/req3"), e2.hidden_state("tenant0/req3")
        )
        for layer in range(e1.layers):
            k1, v1 = e1.cache.dense_kv("tenant0/req3", layer)
            k2, v2 = e2.cache.dense_kv("tenant0/req3", layer)
            np.testing.assert_array_equal(k1, k2)
            np.testing.assert_array_equal(v1, v2)

    def test_distinct_names_get_distinct_streams(self):
        eng = multi_engine()
        eng.add_sequence("a", prompt_tokens=2)
        eng.add_sequence("b", prompt_tokens=2)
        assert not np.array_equal(eng.hidden_state("a"), eng.hidden_state("b"))


class TestSoloBatchEquivalence:
    def test_batched_matches_solo_bit_for_bit(self):
        """Three sequences interleaved through one engine produce, per
        sequence, the exact hidden states / KV / timing (minus
        staging) of running each alone."""
        names = ["a", "b", "c"]
        prompts = {"a": 2, "b": 5, "c": 3}

        shared = multi_engine()
        for n in names:
            shared.add_sequence(n, prompt_tokens=prompts[n])
        batched = {n: [] for n in names}
        for _ in range(6):
            it = shared.step_batch(names)
            for rep in it.reports:
                batched[rep.sequence].append(rep)

        for n in names:
            solo_eng = multi_engine()
            solo_eng.add_sequence(n, prompt_tokens=prompts[n])
            for i in range(6):
                rep = solo_eng.step_seq(n)
                bat = batched[n][i]
                assert bat.position == rep.position
                assert bat.capacity == rep.capacity
                assert bat.compute_s == rep.compute_s
                assert bat.h2d_s == rep.h2d_s
                assert bat.d2h_s == rep.d2h_s
                assert bat.cache_growth_s == rep.cache_growth_s
            np.testing.assert_array_equal(
                shared.hidden_state(n), solo_eng.hidden_state(n)
            )
            for layer in range(shared.layers):
                k_b, v_b = shared.cache.dense_kv(n, layer)
                k_s, v_s = solo_eng.cache.dense_kv(n, layer)
                np.testing.assert_array_equal(k_b, k_s)
                np.testing.assert_array_equal(v_b, v_s)

    def test_batch_deterministic_across_worker_counts(self):
        def run():
            eng = multi_engine()
            eng.add_sequence("a", prompt_tokens=2)
            eng.add_sequence("b", prompt_tokens=4)
            out = []
            for _ in range(5):
                it = eng.step_batch(["a", "b"])
                out.append([r.to_dict() for r in it.reports])
            out.append(eng.hidden_state("a").tobytes())
            out.append(eng.hidden_state("b").tobytes())
            return out

        serial, threaded = at_both_widths(run)
        assert serial == threaded


class TestIterationReport:
    def test_empty_batch(self):
        eng = multi_engine()
        it = eng.step_batch([])
        assert it == IterationReport(reports=())
        assert it.device_seconds(dispatch_overhead_s=1.0) == 0.0

    def test_duplicates_rejected(self):
        eng = multi_engine()
        eng.add_sequence("a", prompt_tokens=2)
        with pytest.raises(ValueError, match="duplicate"):
            eng.step_batch(["a", "a"])

    @pytest.mark.parametrize(
        "batch,error",
        [
            (["a", "nope"], ValueError),  # unknown name after a good one
            (["a", "empty"], RuntimeError),  # no cached positions
            (["a", "b"], CacheError),  # both cross a page, one page free
        ],
        ids=["unknown", "nothing-cached", "pages"],
    )
    def test_rejected_batch_steps_nothing(self, batch, error):
        """A bad batch used to advance the sequences ahead of the bad
        name before raising."""
        eng = multi_engine(layers=1, page_tokens=2, max_pages=3)
        eng.add_sequence("a", prompt_tokens=2)
        eng.add_sequence("b", prompt_tokens=2)
        eng.add_sequence("empty")
        names = ("a", "b", "empty")
        before = {
            n: (eng.cache.length(n), eng.hidden_state(n).tobytes())
            for n in names
        }
        with pytest.raises(error):
            eng.step_batch(batch)
        assert before == {
            n: (eng.cache.length(n), eng.hidden_state(n).tobytes())
            for n in names
        }
        assert eng.cache.stats()["sequences"] == len(names)
        assert eng._global_step == 0 and not eng._epochs
        # ... and the engine still steps a batch that fits.
        (report,) = eng.step_batch(["a"]).reports
        assert report.sequence == "a"

    def test_device_seconds_amortizes_kernels(self):
        """Two same-capacity sequences in one replica group pay the
        kernel once per round; their transfers stay serialized."""
        eng = multi_engine()
        eng.add_sequence("a", prompt_tokens=2)
        eng.add_sequence("b", prompt_tokens=2)
        it = eng.step_batch(["a", "b"])
        a, b = it.reports
        assert a.capacity == b.capacity
        # groups=2: both sequences share one kernel round.
        shared = it.device_seconds(dispatch_overhead_s=0.5, replica_groups=2)
        assert shared == 0.5 + a.compute_s + a.serial_s + b.serial_s
        # groups=1: two rounds of kernels.
        serial = it.device_seconds(dispatch_overhead_s=0.5, replica_groups=1)
        assert serial == 0.5 + 2 * a.compute_s + a.serial_s + b.serial_s
        assert shared < serial

    def test_mixed_capacities_pay_per_group(self):
        eng = multi_engine(page_tokens=4)
        eng.add_sequence("short", prompt_tokens=2)
        eng.add_sequence("long", prompt_tokens=7)
        it = eng.step_batch(["short", "long"])
        s, l = it.reports
        assert s.capacity != l.capacity
        dur = it.device_seconds(dispatch_overhead_s=0.0, replica_groups=8)
        # Summed in the engine's order: the groups' kernels, then the
        # serialized transfers.
        assert dur == s.compute_s + l.compute_s + (s.serial_s + l.serial_s)

    def test_invalid_groups_rejected(self):
        eng = multi_engine()
        eng.add_sequence("a", prompt_tokens=2)
        it = eng.step_batch(["a"])
        with pytest.raises(ValueError, match="replica_groups"):
            it.device_seconds(replica_groups=0)


class TestEpochResidency:
    def test_multiple_epochs_stay_resident(self):
        """Mixed-position batches revisit capacities every iteration;
        with max_resident_epochs they recompile only on first sight."""
        eng = multi_engine(page_tokens=4, max_resident_epochs=4)
        eng.add_sequence("a", prompt_tokens=2)   # capacity 4
        eng.add_sequence("b", prompt_tokens=6)   # capacity 8
        first = eng.step_batch(["a", "b"])
        assert [r.replanned for r in first.reports] == [True, True]
        again = eng.step_batch(["a", "b"])
        assert [r.replanned for r in again.reports] == [False, False]
        assert [r.compiled_programs for r in again.reports] == [0, 0]
        assert len(eng._epochs) == 2

    def test_epoch_eviction_unpins_stale_keys(self):
        eng = multi_engine(page_tokens=2, max_resident_epochs=1)
        eng.add_sequence("a", prompt_tokens=2)
        for _ in range(4):
            eng.step_seq("a")
        # Single-slot semantics: only the live epoch's keys stay pinned.
        (live,) = eng._epochs.values()
        assert eng.pool.stats()["pinned"] == len(live.keys)

    def test_page_preflight_helpers(self):
        eng = multi_engine(page_tokens=4)
        assert eng.prompt_pages(1) == eng.layers
        assert eng.prompt_pages(4) == eng.layers
        assert eng.prompt_pages(5) == 2 * eng.layers
        eng.add_sequence("a", prompt_tokens=4)
        # length==4, next append starts page 2 in every layer.
        assert eng.step_pages("a") == eng.layers
        eng.step_seq("a")
        assert eng.step_pages("a") == 0


class TestLegacySurface:
    def test_seq0_decode_unchanged_by_refactor(self):
        """decode() still produces the identical trajectory whether or
        not other sequences were registered first."""
        plain = tiny_engine(check_references=False)
        r1 = plain.decode(tokens=4, prompt_tokens=2)

        crowded = tiny_engine(
            check_references=False, max_resident_epochs=4
        )
        crowded.add_sequence("bystander", prompt_tokens=3)
        r2 = crowded.decode(tokens=4, prompt_tokens=2)
        for a, b in zip(r1.hidden_states, r2.hidden_states):
            np.testing.assert_array_equal(a, b)

    def test_decode_leaves_named_sequences_untouched(self):
        """decode() is add_sequence("seq0") + step_batch(["seq0"]): it
        draws from seq0's own stream, so sequences already on the engine
        end byte-identical to a run that never called decode()."""
        def run(with_decode):
            eng = multi_engine()
            for name in ("a", "b"):
                eng.add_sequence(name, prompt_tokens=3)
            eng.step_batch(["a", "b"])
            if with_decode:
                eng.decode(tokens=3, prompt_tokens=2)
            eng.step_batch(["a", "b"])
            return [eng.hidden_state(n).tobytes() for n in ("a", "b")]

        assert run(with_decode=True) == run(with_decode=False)

    def test_decode_is_the_named_sequence_path(self):
        via_decode = multi_engine()
        result = via_decode.decode(tokens=3, prompt_tokens=2)
        by_hand = multi_engine()
        by_hand.add_sequence("seq0", prompt_tokens=2)
        for _ in range(3):
            by_hand.step_batch(["seq0"])
        np.testing.assert_array_equal(
            via_decode.hidden_state("seq0"), by_hand.hidden_state("seq0")
        )
        assert {r.sequence for r in result.steps} == {"seq0"}

    def test_shared_pool_across_engines(self):
        pool = ExecutablePool(capacity=64)
        e1 = multi_engine(pool=pool)
        e2 = multi_engine(pool=pool)
        e1.add_sequence("a", prompt_tokens=2)
        r1 = e1.step_seq("a")
        e2.add_sequence("a", prompt_tokens=2)
        r2 = e2.step_seq("a")
        # Second engine's epoch compile is served from the shared pool.
        assert r1.compiled_programs > 0
        assert r2.compiled_programs == 0
        np.testing.assert_array_equal(
            e1.hidden_state("a"), e2.hidden_state("a")
        )

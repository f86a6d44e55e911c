"""Decode determinism: host threads and simulator backends are
invisible — outputs, timings, plans, and schedules are bit-for-bit."""

import hashlib

from repro.decode import DecodeEngine
from repro.graph import GPTJ_SIM

from ..conftest import at_both_widths, host_threads
from .conftest import tiny_engine

TOKENS = 5
PROMPT = 6


def run(**kwargs):
    engine = tiny_engine(layers=3, **kwargs)
    return engine.decode(tokens=TOKENS, prompt_tokens=PROMPT)


def assert_identical(a, b):
    # Hidden states byte-for-byte.
    assert len(a.hidden_states) == len(b.hidden_states)
    for x, y in zip(a.hidden_states, b.hidden_states):
        assert x.tobytes() == y.tobytes()
    # Every reported number, exactly (no approx): step reports, layer
    # breakdowns, stage/cache event streams, plans.
    assert [s.to_dict() for s in a.steps] == [s.to_dict() for s in b.steps]
    assert [s.per_layer for s in a.steps] == [s.per_layer for s in b.steps]
    assert [s.stage_events for s in a.steps] == [
        s.stage_events for s in b.steps
    ]
    assert [s.cache_events for s in a.steps] == [
        s.cache_events for s in b.steps
    ]
    assert a.totals() == b.totals()
    assert a.per_layer_totals() == b.per_layer_totals()
    assert a.memory_plan.to_dict() == b.memory_plan.to_dict()
    assert a.cache_stats == b.cache_stats
    assert a.residency_stats == b.residency_stats
    assert a.to_dict() == b.to_dict()


class TestWorkerCounts:
    def test_serial_vs_parallel_bit_for_bit(self):
        assert_identical(*at_both_widths(run))

    def test_default_matches_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        default = run()
        with host_threads(1):
            assert_identical(default, run())

    def test_constrained_residency_identical_too(self):
        budget = 2 * 12 * 32 * 32 * 4  # 2 of 3 tiny layers
        assert_identical(
            *at_both_widths(lambda: run(mram_budget_bytes=budget))
        )


class TestSimModes:
    def test_verify_mode_bit_for_bit(self, monkeypatch):
        # verify runs every kernel through BOTH the vectorized backend
        # and the scalar interpreter and insists the bytes agree —
        # then the decode run must still be identical to vector mode.
        baseline = run()
        monkeypatch.setenv("REPRO_SIM_MODE", "verify")
        assert_identical(baseline, run())

    def test_scalar_mode_bit_for_bit(self, monkeypatch):
        baseline = run()
        monkeypatch.setenv("REPRO_SIM_MODE", "scalar")
        assert_identical(baseline, run())


class TestExperimentPayload:
    def test_fig17_multilayer_reproduces(self):
        from repro.harness import fig17_multilayer

        a = fig17_multilayer(layers=2, tokens=4)
        b = fig17_multilayer(layers=2, tokens=4)
        assert a == b

    def test_seed_changes_data_not_schedule(self):
        a, b = run(), run(seed=7)
        assert any(
            x.tobytes() != y.tobytes()
            for x, y in zip(a.hidden_states, b.hidden_states)
        )
        # Structure-derived schedules are seed-independent.
        assert [s.capacity for s in a.steps] == [
            s.capacity for s in b.steps
        ]
        assert [s.compiled_programs for s in a.steps] == [
            s.compiled_programs for s in b.steps
        ]


class TestPinnedHiddenStates:
    """The final hidden states of a fixed multi-sequence run, pinned by
    digest: a change to how the engine lays the K/V planes out per head
    (head order, a transpose) moves them, and so does a change to how a
    node splits its reduction (the FC nodes sum ``k_dpus`` partial sums
    per row on the host, in a different order than one DPU's loop), and
    so does a host epilogue's arithmetic (the softmax sums its row as a
    left fold, GELU cubes as ``a*a*a``).  So do the weight draws: the
    QKV and FC-up weights are one ``(7d, d)`` draw since they became one
    program.  Binding the row-stacked earlier draws (``w_qkv`` over
    ``w_fc``) reproduced the earlier digest,
    ``aedbb5016a8d749c24696ffeedc81c5e41ed025a8fce17432f083a25c7a642e1``,
    byte for byte: fusing the two MTVs moved no row's reduction order.
    The two projections are one ``(d, 5d)`` draw since they became one
    program, ``proj``, and that fusion does move the summation order:
    each output row is one 5d-long reduction (8 DPU parts of 80) where
    it was a d-long and a 4d-long one and two residual adds, so the
    digest while they were two programs,
    ``fb01bc5b747c7a5d55ceb5eefc39b4247e879a2288b94a9c99aaf8092e4dda5a``,
    moved with no tolerance loosened (every step still matches its
    reference)."""

    #: sha256 over the eight sequences' final hidden states, in order.
    DIGEST = "f533301662855126c8fedfaa996956c21692aaac22d7f9c3cb0d8e3468200e21"

    def test_multi_sequence_run_is_pinned(self):
        engine = DecodeEngine(
            config=GPTJ_SIM, layers=3, page_tokens=4, seed=5,
            max_resident_epochs=4,
        )
        names = [f"s{i}" for i in range(8)]
        for i, name in enumerate(names):
            engine.add_sequence(name, prompt_tokens=3 + i % 4)
        reports = []
        for _ in range(6):
            reports.extend(engine.step_batch(names).reports)
        assert all(r.reference_ok for r in reports)
        digest = hashlib.sha256()
        for name in names:
            digest.update(engine.hidden_state(name).tobytes())
        assert digest.hexdigest() == self.DIGEST

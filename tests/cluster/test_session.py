"""Session lifecycle, priorities, and latency accounting."""

import numpy as np
import pytest

from repro.cluster import Session, token_digest


def make(sid="s0", **kwargs):
    kwargs.setdefault("tenant", "t")
    kwargs.setdefault("arrival_s", 0.0)
    kwargs.setdefault("prompt_tokens", 2)
    kwargs.setdefault("decode_tokens", 4)
    return Session(session_id=sid, **kwargs)


class TestPriority:
    def test_waiting_uses_ttft_deadline(self):
        s = make(arrival_s=1.0, ttft_deadline_s=0.5)
        assert s.deadline_s() == 1.5

    def test_running_uses_tpot_deadline(self):
        s = make(arrival_s=1.0, ttft_deadline_s=0.5, tpot_deadline_s=0.1)
        s.record_token(2.0, "d0")
        assert s.deadline_s() == 2.1

    def test_priority_total_order(self):
        a = make("a", arrival_s=0.0, ttft_deadline_s=1.0)
        b = make("b", arrival_s=0.0, ttft_deadline_s=1.0)
        assert sorted([b, a], key=lambda s: s.priority())[0] is a

    def test_urgent_beats_lax(self):
        urgent = make("u", ttft_deadline_s=0.1)
        lax = make("l", ttft_deadline_s=5.0)
        assert urgent.priority() < lax.priority()


class TestAccounting:
    def test_ttft_tpot(self):
        s = make(arrival_s=1.0, decode_tokens=3)
        s.record_token(1.5, "d0")
        s.record_token(1.7, "d1")
        s.record_token(1.9, "d2")
        s.finish_s = 1.9
        assert s.ttft_s == 0.5
        assert s.tpot_s == pytest.approx(0.2)
        assert s.done

    def test_single_token_tpot_zero(self):
        s = make(decode_tokens=1)
        s.record_token(0.5, "d0")
        s.finish_s = 0.5
        assert s.tpot_s == 0.0

    def test_unfinished_latencies_none(self):
        s = make()
        assert s.ttft_s is None and s.tpot_s is None

    def test_total_tokens_includes_decoded(self):
        s = make(prompt_tokens=3)
        s.record_token(0.1, "d0")
        assert s.total_tokens == 4


class TestDigest:
    def test_digest_stable_and_value_sensitive(self):
        x = np.arange(4, dtype=np.float32)
        assert token_digest(x) == token_digest(x.copy())
        assert token_digest(x) != token_digest(x + 1)
        assert len(token_digest(x)) == 16

    def test_digest_ignores_layout(self):
        x = np.arange(8, dtype=np.float32).reshape(2, 4)
        assert token_digest(x.T.copy().T) == token_digest(x)

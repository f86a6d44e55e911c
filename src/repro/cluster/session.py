"""Sessions: per-request decode streams with SLOs and replay state.

A :class:`Session` is the cluster's unit of work — one user request
decoding ``decode_tokens`` tokens from a ``prompt_tokens``-token
prompt.  It carries its token *position* (``tokens_done``) through the
whole lifecycle, so iteration-level batching can admit it mid-decode,
retire it individually, preempt it, and — after a worker death — replay
it on another worker from scratch while *proving* the replay
reproduces the original stream: every decoded token's hidden state is
digested (sha256), and a replay re-checks each digest before the
session continues.  Digesting works because the decode engine derives
the sequence's prompt and hidden state from ``(engine seed, sequence
name)`` — any worker built with the same model seed regenerates the
identical stream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "QUEUED", "RUNNING", "COMPLETED", "REJECTED",
    "Session", "token_digest",
]

#: Session lifecycle states.  Preempted and orphaned sessions return to
#: QUEUED (their cluster-side record survives; only worker-side KV is
#: lost) — re-admission replays them, so there is no separate state.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
REJECTED = "rejected"


def token_digest(hidden: np.ndarray) -> str:
    """Short stable digest of one decoded token's hidden state."""
    return hashlib.sha256(np.ascontiguousarray(hidden).tobytes()).hexdigest()[:16]


@dataclass
class Session:
    """One decode request flowing through the cluster."""

    session_id: str
    tenant: str
    arrival_s: float
    prompt_tokens: int
    decode_tokens: int
    #: Model size class — selects the worker-side engine (mixed model
    #: sizes share a worker through per-size engines over one pool).
    layers: int = 2
    #: SLO: first token due within `ttft_deadline_s` of arrival, each
    #: subsequent token within `tpot_deadline_s` of the previous one.
    ttft_deadline_s: float = 1.0
    tpot_deadline_s: float = 0.5

    # -- runtime state (mutated by the cluster) -----------------------------
    status: str = QUEUED
    worker: Optional[int] = None
    tokens_done: int = 0
    admitted_s: Optional[float] = None  # first successful admission
    first_token_s: Optional[float] = None
    last_token_s: Optional[float] = None
    finish_s: Optional[float] = None
    #: Earliest time a re-admission attempt may run (retry backoff).
    not_before_s: float = 0.0
    retries: int = 0
    preemptions: int = 0
    replays: int = 0
    #: Every replayed token's digest matched the original stream.
    replay_ok: bool = True
    #: sha256[:16] of each decoded token's hidden state, in order.
    token_digests: List[str] = field(default_factory=list)

    @property
    def sequence(self) -> str:
        """Engine-side sequence name — also the replay seed root, so it
        must be globally unique and stable across workers."""
        return f"{self.tenant}/{self.session_id}"

    @property
    def done(self) -> bool:
        return self.tokens_done >= self.decode_tokens

    @property
    def total_tokens(self) -> int:
        """Cached positions a (re)admission must hold: prompt plus
        every token already decoded (replay re-appends them)."""
        return self.prompt_tokens + self.tokens_done

    def deadline_s(self) -> float:
        """EDF priority: the next token's due time.  Waiting on the
        first token → TTFT clock from arrival; mid-stream → TPOT clock
        from the previous token."""
        if self.tokens_done == 0 or self.last_token_s is None:
            return self.arrival_s + self.ttft_deadline_s
        return self.last_token_s + self.tpot_deadline_s

    def priority(self) -> Tuple[float, float, str]:
        """Total deterministic order: earliest deadline first, ties by
        arrival then id."""
        return (self.deadline_s(), self.arrival_s, self.session_id)

    def record_token(self, t_s: float, digest: str) -> None:
        self.tokens_done += 1
        self.token_digests.append(digest)
        if self.first_token_s is None:
            self.first_token_s = t_s
        self.last_token_s = t_s

    # -- latency accounting --------------------------------------------------
    @property
    def ttft_s(self) -> Optional[float]:
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> Optional[float]:
        """Mean inter-token time after the first token (the decode
        cadence the TPOT SLO is about); 0.0 for single-token output."""
        if self.finish_s is None or self.first_token_s is None:
            return None
        if self.decode_tokens <= 1:
            return 0.0
        span = self.last_token_s - self.first_token_s
        return span / (self.decode_tokens - 1)

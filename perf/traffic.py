"""Seeded input generation for the five workloads.

Everything a workload receives that depends on ``--seed`` is made here,
from plain NumPy, and handed to the program as data: the program never
sees the seed of an arrival schedule.  ``repro.serve.traffic`` and
``repro.cluster.traffic`` are deliberately not used — ROADMAP item 2
merges them, and the benchmark must measure the same load before and
after.

Load is open-loop on the *virtual* clock: arrival ticks/seconds are
simulated time, so the generator cannot run late on the host and there
is no generator-lag figure to report.

The request and session *mixes* are fixed and the seed orders them:
a seed moves who arrives when, not how much work is offered, so host
time per pass is comparable across seeds.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Each stream below draws from ``default_rng((seed, _STREAM[name]))`` so
#: adding a stream never shifts another's draws.
_STREAM = {"kernels": 1, "decode": 2, "serve": 3, "cluster": 4}


def _rng(seed: int, stream: str, *part: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), _STREAM[stream], *part))


def _apportion(n: int, weights: Sequence[float]) -> List[int]:
    """Split ``n`` items over weights by largest remainder."""
    total = float(sum(weights))
    exact = [n * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: (counts[i] - exact[i], i)
    )
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return counts


def _shuffled_mix(
    rng: np.random.Generator, n: int, values: Sequence, weights: Sequence[float]
) -> List:
    """``n`` draws with exactly the weighted shares, in seeded order."""
    mix = [
        value
        for value, count in zip(values, _apportion(n, weights))
        for _ in range(count)
    ]
    return [mix[i] for i in rng.permutation(n)]


def kernel_shapes(
    seed: int, specs: Sequence[Tuple[str, Tuple[int, ...]]]
) -> List[Tuple[str, Tuple[int, ...]]]:
    """The kernels' shapes: nominal size class, 1-D lengths trimmed.

    ``specs`` are (op, nominal shape).  One-dimensional ops (``va``,
    ``geva``, ``red``) lose up to 63 x 64 trailing elements, drawn per
    op from the seed, so their last tile is imperfect the way real
    lengths are and no exact power of two can be special-cased.  The
    matrix ops keep their nominal shape: trimming them doubles the
    vectorizer's host time by a seed-dependent amount, which would make
    ``wall_s`` measure the draw instead of the code.
    """
    rng = _rng(seed, "kernels")
    out = []
    for op, shape in specs:
        if len(shape) == 1:
            shape = (int(shape[0] - 64 * rng.integers(0, 64)),)
        out.append((op, tuple(int(d) for d in shape)))
    return out


def decode_prompts(seed: int, n_sequences: int) -> List[int]:
    """Prompt length of each decode sequence, drawn from {6, 7, 8}
    (independent draws: a fixed mix would make every seed's virtual
    time identical, and the differences in host work are small)."""
    return [int(p) for p in _rng(seed, "decode").integers(6, 9, n_sequences)]


def serve_schedule(
    seed: int, n_requests: int, n_programs: int, mean_gap_ticks: float
) -> List[Tuple[int, int, int]]:
    """(arrival tick, program index, input seed) per request.

    Poisson inter-arrival ticks; an equal share of requests per program;
    every request gets its own input seed so no two carry the same
    tensors.
    """
    rng = _rng(seed, "serve")
    ticks = np.cumsum(rng.poisson(mean_gap_ticks, n_requests))
    programs = _shuffled_mix(
        rng, n_requests, range(n_programs), [1.0] * n_programs
    )
    return [
        (int(t), int(p), int(seed) * 100003 + i)
        for i, (t, p) in enumerate(zip(ticks, programs))
    ]


def _interleaved_mix(n: int, values: Sequence, weights: Sequence[float]) -> List:
    """``n`` items with exactly the weighted shares, each value spread
    as evenly through the list as its share allows (no seed)."""
    counts = _apportion(n, weights)
    given = [0] * len(values)
    out = []
    for i in range(n):
        j = max(
            range(len(values)),
            key=lambda j: (counts[j] * (i + 1) / n - given[j], -j),
        )
        given[j] += 1
        out.append(values[j])
    return out


def cluster_sessions(
    seed: int,
    part: int,
    n_sessions: int,
    tenant_weights: Sequence[Tuple[str, float]],
    mean_interarrival_s: float,
    burst_prob: float,
    burst_size: int,
    prompt_tokens: Tuple[int, int],
    decode_tokens: Tuple[int, int],
    model_layers: Sequence[Tuple[int, float]],
) -> List[Dict]:
    """Session arrivals of schedule number ``part`` (a pass runs
    several, each on its own cluster): exponential gaps, a share of them
    bursts.

    What is offered is the same at every seed; the seed decides the
    order.  The session shapes are a fixed list — decode lengths spread
    evenly over their range, model sizes interleaved through them in
    their weighted shares (so tokens x layers, the work, is constant),
    prompt lengths cycling — dealt to arrivals in seeded order, as are
    the tenants.  Arrival instants are a stratified sample: the gaps
    are the quantiles of the exponential distribution and a
    ``burst_prob`` share of instants carry ``burst_size`` sessions, both
    in seeded order, so the arrival span is constant too.  With 16
    sessions, independent draws moved the makespan by 19 % and host
    time by 20 % between seeds; this leaves about 14 % on the virtual
    clock whichever of the four orders the seed is left to decide
    (measured one at a time over 70 seeds), which is why a pass averages
    more than one schedule.

    Returns plain dicts (``session_id``, ``tenant``, ``arrival_s``,
    ``prompt_tokens``, ``decode_tokens``, ``layers``); the adapter adds
    each tenant's deadlines and builds the program's session objects.
    """
    rng = _rng(seed, "cluster", part)
    n = n_sessions
    decode_values = range(decode_tokens[0], decode_tokens[1] + 1)
    decodes = _interleaved_mix(n, decode_values, [1.0] * len(decode_values))
    layers = _interleaved_mix(
        n, [v for v, _ in model_layers], [w for _, w in model_layers]
    )
    prompt_span = prompt_tokens[1] - prompt_tokens[0] + 1
    shapes = [
        (prompt_tokens[0] + i % prompt_span, d, l)
        for i, (d, l) in enumerate(zip(sorted(decodes), layers))
    ]
    shapes = [shapes[i] for i in rng.permutation(n)]
    tenants = _shuffled_mix(
        rng, n, [name for name, _ in tenant_weights],
        [w for _, w in tenant_weights],
    )
    bursts: List[int] = []
    pattern = _interleaved_mix(
        n, (1, burst_size), (1.0 - burst_prob, burst_prob)
    )
    while sum(bursts) < n:
        bursts.append(min(pattern[len(bursts)], n - sum(bursts)))
    m = len(bursts)
    gaps = [
        -mean_interarrival_s * float(np.log(1.0 - (i + 0.5) / m))
        for i in rng.permutation(m)
    ]
    bursts = [bursts[i] for i in rng.permutation(m)]
    sessions: List[Dict] = []
    t = 0.0
    for gap, burst in zip(gaps, bursts):
        t += gap
        for _ in range(burst):
            i = len(sessions)
            prompt, decode, n_layers = shapes[i]
            sessions.append(
                {
                    # Unique over the pass: the id names the sequence.
                    "session_id": f"s{part * n + i:04d}",
                    "tenant": tenants[i],
                    "arrival_s": t,
                    "prompt_tokens": int(prompt),
                    "decode_tokens": int(decode),
                    "layers": int(n_layers),
                }
            )
    return sessions

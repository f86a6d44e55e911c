"""``repro.decode`` — full-model decode over managed device memory.

The layer above single-step graph execution: run an N-layer GPT-J model
for T tokens, where the KV cache grows page by page
(:class:`PagedKVCache` — block tables over a fixed page pool, growth
without replanning the step graph), layer weights stage and evict under
an MRAM budget (:class:`WeightResidencyPlanner` — offline-optimal
"belady" eviction over the cyclic layer scan), and one
:class:`~repro.serve.pool.ExecutablePool` keeps every shared program
compiled exactly once across all layers, steps, and capacity epochs
(:class:`DecodeEngine`).

Quick tour::

    from repro.decode import DecodeEngine

    engine = DecodeEngine(layers=2, page_tokens=4)
    result = engine.decode(tokens=6, prompt_tokens=4)
    print(result.totals(), result.replans)
    for row in result.per_layer_totals():
        print(row)

An engine starts with no sequence: :meth:`DecodeEngine.add_sequence`
is the one way to create one (its prompt rows and first hidden state
come from ``default_rng((engine seed, hash of the name))``), and
``decode()`` is ``add_sequence("seq0", prompt_tokens)`` plus one
``step_batch(["seq0"])`` per token.  The engine always places with the
``upmem`` policy, pins the builder's small grids and plans residency
with Belady's rule — options no caller set were removed; the model
graph's tensor names and layer size come from
:func:`repro.graph.gptj_layer_io` / :func:`repro.graph.gptj_layer_nbytes`.

Every number a decode run reports — compute, boundary transfers, weight
staging, cache growth — is deterministic: bit-for-bit identical at any
``REPRO_MAX_WORKERS`` and under ``REPRO_SIM_MODE=verify``.
"""

from .engine import DecodeEngine, DecodeResult, StepReport
from .kv_cache import CacheError, CacheExtension, PagedKVCache, h2d_seconds
from .residency import ResidencyError, StageEvent, WeightResidencyPlanner

__all__ = [
    "DecodeEngine",
    "DecodeResult",
    "StepReport",
    "PagedKVCache",
    "CacheExtension",
    "CacheError",
    "h2d_seconds",
    "WeightResidencyPlanner",
    "StageEvent",
    "ResidencyError",
]

"""Shared fixtures: a tiny GPT-J config the decode loop can afford.

``TINY`` mirrors ``tests/graph/conftest.py`` — 2 heads of 16, d=32 —
so multi-layer multi-token runs (each step executes every node
functionally) stay in the milliseconds.
"""

import pytest

from repro.decode import DecodeEngine
from repro.workloads.gptj import GPTJConfig

TINY = GPTJConfig("gptj-tiny", n_heads=2, d_model=32, head_dim=16)

#: One TINY layer's FC weights (qkv_gen + proj + fc + fc_proj, stacked
#: as two matrices), float32.
TINY_LAYER_NBYTES = 12 * TINY.d_model * TINY.d_model * 4


def tiny_engine(**kwargs) -> DecodeEngine:
    defaults = dict(config=TINY, layers=2, page_tokens=4, seed=0)
    defaults.update(kwargs)
    return DecodeEngine(**defaults)


@pytest.fixture
def engine() -> DecodeEngine:
    return tiny_engine()

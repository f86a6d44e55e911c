"""PagedKVCache invariants under generated operation sequences.

A hypothesis state machine adds, appends to and frees up to three
sequences of a two-layer cache whose pool holds an odd number of pages,
so an append can run dry after its first layer took the last page.  It
keeps each sequence's rows itself.  After every step: the free and the
allocated pages add up to the pool, no page id sits in two block tables,
every layer's table holds ``capacity / page_tokens`` pages and
``capacity`` covers ``length`` with less than one page to spare, and the
cache reads back the rows and mask the model predicts.  A refused
operation raises :class:`CacheError` and changes nothing.
"""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.decode import CacheError, PagedKVCache

LAYERS, PAGE_TOKENS, MAX_PAGES, D = 2, 2, 7, 3
NAMES = st.sampled_from(["a", "b", "c"])


class KVCacheMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.cache = PagedKVCache(
            d_model=D, layers=LAYERS, page_tokens=PAGE_TOKENS,
            max_pages=MAX_PAGES,
        )
        #: sequence -> its appended (k, v) rows per layer, oldest first.
        self.rows = {}
        self.token = 0

    def _snapshot(self):
        return (
            self.cache.free_pages,
            {
                name: (
                    self.cache.length(name),
                    [self.cache.block_table(name, l) for l in range(LAYERS)],
                )
                for name in self.rows
            },
        )

    @rule(name=NAMES)
    def add(self, name):
        if name in self.rows:
            before = self._snapshot()
            with pytest.raises(CacheError, match="already cached"):
                self.cache.add_sequence(name)
            assert self._snapshot() == before
            return
        self.cache.add_sequence(name)
        self.rows[name] = []

    @rule(name=NAMES)
    def append(self, name):
        self.token += 1
        step = [
            (
                np.full((D,), self.token + layer / 10, dtype=np.float32),
                np.full((D,), -self.token - layer / 10, dtype=np.float32),
            )
            for layer in range(LAYERS)
        ]
        if name not in self.rows:
            with pytest.raises(CacheError, match="unknown sequence"):
                self.cache.append(name, step)
            return
        needs_pages = len(self.rows[name]) % PAGE_TOKENS == 0
        before = self._snapshot()
        if needs_pages and self.cache.free_pages < LAYERS:
            with pytest.raises(CacheError, match="exhausted"):
                self.cache.append(name, step)
            assert self._snapshot() == before
            return
        events = self.cache.append(name, step)
        allocated = [bool(e.pages_allocated) for e in events]
        assert allocated == [needs_pages] * LAYERS
        self.rows[name].append(step)

    @rule(name=NAMES)
    def free_sequence(self, name):
        if name not in self.rows:
            with pytest.raises(CacheError, match="unknown sequence"):
                self.cache.free_sequence(name)
            return
        pages = -(-len(self.rows.pop(name)) // PAGE_TOKENS) * LAYERS
        free = self.cache.free_pages
        assert self.cache.free_sequence(name) == pages
        assert self.cache.free_pages == free + pages

    @invariant()
    def free_and_allocated_pages_fill_the_pool(self):
        stats = self.cache.stats()
        assert stats["pages_free"] == self.cache.free_pages
        assert self.cache.free_pages + stats["pages_allocated"] == MAX_PAGES

    @invariant()
    def no_page_is_in_two_block_tables(self):
        held = [
            pid
            for name in self.rows
            for layer in range(LAYERS)
            for pid in self.cache.block_table(name, layer)
        ]
        assert len(held) == len(set(held))
        assert len(held) == MAX_PAGES - self.cache.free_pages

    @invariant()
    def capacity_is_whole_pages_covering_length(self):
        for name, rows in self.rows.items():
            length = self.cache.length(name)
            capacity = self.cache.capacity(name)
            assert length == len(rows)
            for layer in range(LAYERS):
                pages = len(self.cache.block_table(name, layer))
                assert capacity == pages * PAGE_TOKENS
            assert length <= capacity < length + PAGE_TOKENS

    @invariant()
    def reads_return_the_appended_rows(self):
        for name, rows in self.rows.items():
            length = len(rows)
            mask = self.cache.attention_mask(name)
            assert not mask[:length].any()
            assert np.isneginf(mask[length:]).all()
            for layer in range(LAYERS if length else 0):
                k, v = self.cache.dense_kv(name, layer)
                np.testing.assert_array_equal(
                    k[:length], [step[layer][0] for step in rows]
                )
                np.testing.assert_array_equal(
                    v[:length], [step[layer][1] for step in rows]
                )


KVCacheMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestKVCacheInvariants = KVCacheMachine.TestCase

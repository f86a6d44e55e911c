"""ExecutablePool invariants under generated operation sequences.

A hypothesis state machine gets, pins and unpins four ``cpu``-target
workloads (a roofline compile builds no module, so a miss costs
microseconds) in a pool of capacity 2 or 3, and keeps its own count of
gets and its own record of the keys that were pinned when a get loaded
them.  After every step: such a key is still resident while it stays
pinned, the pool holds no more than ``capacity`` programs unless pins
hold it over, every get was a hit or a miss, and a hit on a resident
key returned the very object it holds, with ``loaded=False``.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.serve import ExecutablePool
from repro.workloads import mtv, red, va

WORKLOADS = [va(64), va(128), red(256), mtv(16, 32)]
KEYS = [ExecutablePool.key_for(wl, "cpu") for wl in WORKLOADS]
INDEX = st.integers(0, len(WORKLOADS) - 1)


class PoolMachine(RuleBasedStateMachine):
    @initialize(capacity=st.integers(2, 3))
    def make_pool(self, capacity):
        self.pool = ExecutablePool(capacity=capacity)
        self.gets = 0
        #: Keys a get loaded while they were pinned, until unpinned.
        self.pinned_at_insert = set()

    def _resident(self, key):
        return key in self.pool._entries

    @rule(i=INDEX)
    def get(self, i):
        key = KEYS[i]
        resident = self.pool._entries.get(key)
        exe, loaded = self.pool.get(WORKLOADS[i], "cpu")
        self.gets += 1
        if resident is not None:
            assert exe is resident and loaded is False
        else:
            assert loaded is True
            if key in self.pool.pinned_keys():
                self.pinned_at_insert.add(key)

    @rule(i=INDEX)
    def pin(self, i):
        self.pool.pin(KEYS[i])

    @rule(i=INDEX)
    def unpin(self, i):
        self.pool.unpin(KEYS[i])
        self.pinned_at_insert.discard(KEYS[i])

    @invariant()
    def pinned_at_insert_is_never_evicted(self):
        for key in self.pinned_at_insert:
            assert self._resident(key)

    @invariant()
    def only_pins_hold_the_pool_over_capacity(self):
        pinned = sum(self._resident(k) for k in self.pool.pinned_keys())
        assert len(self.pool) <= max(self.pool.capacity, pinned)

    @invariant()
    def every_get_is_a_hit_or_a_miss(self):
        assert self.pool.hits + self.pool.misses == self.gets


PoolMachine.TestCase.settings = settings(
    max_examples=400, stateful_step_count=30, deadline=None
)
TestPoolInvariants = PoolMachine.TestCase

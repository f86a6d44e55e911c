"""Every front door checks the type of what it is handed, once.

``repro.compile`` takes a Workload or a Schedule, ``Server.submit`` a
Request (whose workload must be a Workload to be served),
``ExecutablePool.get`` and ``ExecutablePool.key_for`` a Workload, and
``compile_graph`` and ``place`` a ModelGraph; each target's ``supports``
answers False for anything but a Workload.
Anything else is refused at the door by a ``TypeError`` naming what it
got — or, for a request's workload, a rejected ticket naming one — and
leaves nothing behind: no compile, no pool entry, no queued request.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.autotune.compile import default_engine
from repro.graph import compile_graph, place
from repro.serve import ExecutablePool, Request, Server
from repro.target import get_target, list_targets
from repro.workloads import va

from .graph.conftest import chain_graph

#: Values of the wrong type for every door: plain data, names that
#: look like a workload or a target, and bare objects.
_PLAIN = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.sampled_from(["mtv", "va", "upmem", "cpu"]),
    st.binary(max_size=8),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
    st.builds(object),
)

#: The program's own objects, each the wrong type for some door.
_GRAPH = chain_graph()
_OBJECTS = {
    "graph": _GRAPH,
    "node": _GRAPH.nodes[0],
    "workload": va(16),
    "request": Request(va(16), {"A": np.zeros(16), "B": np.zeros(16)}),
}


def _wrong(*names):
    """Plain wrong values, plus the named program objects."""
    return _PLAIN | st.sampled_from([_OBJECTS[name] for name in names])


def _compiles():
    stats = default_engine().stats
    return stats.hits + stats.misses


@settings(max_examples=60, deadline=None)
@given(value=_wrong("graph", "node", "request"))
def test_repro_compile_refuses(value):
    before = _compiles()
    with pytest.raises(TypeError, match=type(value).__name__):
        repro.compile(value)
    assert _compiles() == before


@settings(max_examples=60, deadline=None)
@given(value=_wrong("graph", "node", "workload"))
def test_server_submit_refuses(value):
    pool = ExecutablePool()
    with Server(pool=pool, max_batch_size=1) as server:
        with pytest.raises(TypeError, match="takes a Request"):
            server.submit(value)
        if value is not _OBJECTS["workload"]:  # a request may carry one
            ticket = server.submit(Request(value, {"A": np.zeros(16)}))
            assert ticket.rejected
            assert "TypeError: a pool key takes a Workload, not" in (
                ticket.reject_reason
            )
            assert server.metrics.rejected == 1
        assert server.batcher.pending == 0
    assert len(pool) == 0 and pool.misses == 0


@settings(max_examples=60, deadline=None)
@given(value=_wrong("graph", "node", "request"))
def test_pool_get_refuses(value):
    pool = ExecutablePool()
    with pytest.raises(TypeError, match=type(value).__name__):
        pool.get(value)
    assert len(pool) == 0 and pool.misses == 0 and pool.hits == 0


@settings(max_examples=60, deadline=None)
@given(value=_wrong("graph", "node", "request"))
def test_pool_key_for_refuses(value):
    """The residency key is the pool's own door: ``pool_keys`` and the
    decode engine's pins derive it without a ``get``."""
    with pytest.raises(TypeError, match="a pool key takes a Workload, not "
                       + type(value).__name__):
        ExecutablePool.key_for(value, get_target("upmem"))


@pytest.mark.parametrize("kind", list_targets())
@settings(max_examples=60, deadline=None)
@given(value=_wrong("graph", "node", "request"))
def test_no_target_supports_a_non_workload(kind, value):
    """``supports`` is the predicate ``place`` asks of every node: a
    non-workload is False on every target, never an exception."""
    assert get_target(kind).supports(value) is False


@settings(max_examples=60, deadline=None)
@given(value=_wrong("node", "workload", "request"))
def test_compile_graph_refuses(value):
    before = _compiles()
    with pytest.raises(TypeError, match="compiles from a ModelGraph"):
        compile_graph(value)
    assert _compiles() == before


@settings(max_examples=60, deadline=None)
@given(value=_wrong("node", "workload", "request"))
def test_place_refuses(value):
    """``place`` is the door the decode engine calls itself, without
    ``compile_graph``."""
    before = _compiles()
    with pytest.raises(TypeError, match="compiles from a ModelGraph"):
        place(value, "upmem")
    assert _compiles() == before

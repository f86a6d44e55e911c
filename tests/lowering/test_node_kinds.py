"""The IR holds what the lowering emits: a census of the golden corpus.

Every lowered module of the corpus at O0 and O3 — its kernel, host
programs and transfer bases — is walked once, and so is every program
of the GPT-J graph builder, whose host epilogues (softmax, GELU,
residual adds) hold the float ``/`` and the ``exp``/``tanh``
intrinsics no corpus kernel may.  Every concrete statement
kind and loop kind occurs, and every concrete expression kind occurs or
is allowed below with the reason it exists.  A node kind that no
lowering emits fails here: delete it with its handlers instead.
"""

from collections import Counter

import pytest

import repro
from repro.autotune.sketch import generate_schedule
from repro.graph import GPTJ_SIM, gptj_model_graph
from repro.tir import For, ForKind, PrimExpr, Stmt, StmtVisitor
from repro.workloads import tensor_ops

from .golden_corpus import LEVELS, draws

#: Expression kinds the emitted modules hold none of: {kind: why it stays}.
UNEMITTED = {
    "FloorDiv": "`//` in fuse's index recovery (`schedule/relations.py`)"
    " and `bounds.py`; simplify folds every one the corpus builds",
    "FloorMod": "`%` in fuse's index recovery, folded as FloorDiv",
    "LE": "the `<=` of the expression API a te compute may use; no"
    " lowering stage builds one",
    "GT": "as LE, for `>`",
    "GE": "as LE, for `>=`",
    "EQ": "`PrimExpr.equal`, the expression API's equality (`==` is"
    " identity, for hashing)",
    "NE": "as EQ, for inequality; built by its class only",
}


def _concrete(base):
    """The leaf classes below ``base`` in :mod:`repro.tir`: the node
    kinds one can build."""
    below = [k for k in base.__subclasses__() if k.__module__.startswith("repro.tir")]
    if not below:
        return {base}
    return set().union(*map(_concrete, below))


class _Census(StmtVisitor):
    def __init__(self) -> None:
        self.seen = Counter()

    def visit(self, node) -> None:
        self.seen[type(node)] += 1
        super().visit(node)

    def visit_stmt(self, node) -> None:
        self.seen[type(node)] += 1
        if isinstance(node, For):
            self.seen[node.kind] += 1
        super().visit_stmt(node)


def _modules():
    for _, family, shape, params in draws():
        workload = getattr(tensor_ops, family)(*shape)
        for level in LEVELS:
            yield repro.compile(
                generate_schedule(workload, params), name=family,
                opt_level=level,
            ).lowered
    for node in gptj_model_graph(GPTJ_SIM, 1, 8).nodes:
        for level in LEVELS:
            yield repro.compile(
                node.workload, params=node.params, opt_level=level
            ).lowered


@pytest.fixture(scope="module")
def seen():
    census = _Census()
    for module in _modules():
        for stmt in (module.kernel, *module.host_pre, *module.host_post):
            census.visit_stmt(stmt)
        for spec in module.transfers:
            for index in spec.base:
                census.visit(index)
    return census.seen


def test_every_statement_kind_is_emitted(seen):
    missing = {k.__name__ for k in _concrete(Stmt) if not seen[k]}
    assert not missing


def test_every_loop_kind_is_emitted(seen):
    assert all(seen[kind] for kind in ForKind)


def test_every_expression_kind_is_emitted_or_allowed(seen):
    absent = {k.__name__ for k in _concrete(PrimExpr) if not seen[k]}
    assert absent == set(UNEMITTED)

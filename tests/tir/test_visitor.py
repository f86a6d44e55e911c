"""Visitors, mutators, substitution and statement traversal."""

from repro.tir import (
    Buffer,
    BufferLoad,
    BufferStore,
    DmaCopy,
    For,
    ForKind,
    IfThenElse,
    IntImm,
    SeqStmt,
    Var,
    collect_loads,
    collect_vars,
    iter_stmts,
    post_order_exprs,
    seq,
    substitute,
    substitute_stmt,
)
from repro.tir.visitor import StmtMutator


def test_collect_vars_dedup_order():
    i, j = Var("i"), Var("j")
    e = i * 16 + j + i
    assert collect_vars(e) == [i, j]


def test_collect_loads():
    buf = Buffer("A", (8,))
    e = BufferLoad(buf, [Var("i")]) + BufferLoad(buf, [Var("j")])
    assert len(collect_loads(e)) == 2


def test_post_order_yields_leaves_first():
    i = Var("i")
    nodes = list(post_order_exprs(i + 1))
    assert nodes[0] is i
    assert nodes[-1].__class__.__name__ == "Add"


def test_substitute_expr():
    i, j = Var("i"), Var("j")
    e = substitute(i + 1, {i: j * 2})
    assert collect_vars(e) == [j]


def test_substitute_noop_returns_same_object():
    e = Var("i") + 1
    assert substitute(e, {}) is e
    st = BufferStore(Buffer("A", (8,)), e, [IntImm(0)])
    assert substitute_stmt(st, {}) is st


def test_substitute_stmt():
    buf = Buffer("A", (8,))
    i, j = Var("i"), Var("j")
    st = BufferStore(buf, IntImm(0), [i])
    st2 = substitute_stmt(st, {i: j})
    assert st2.indices[0] is j
    w, m = Buffer("W", (8,), scope="wram"), Buffer("M", (64,), scope="mram")
    dma = substitute_stmt(DmaCopy(w, [IntImm(0)], m, [i * 8], 8), {i: j})
    assert collect_vars(dma.src_base[0]) == [j] and dma.size == 8


def test_iter_stmts_covers_nest():
    buf = Buffer("A", (8,))
    store = BufferStore(buf, IntImm(1), [Var("i")])
    loop = For(Var("i"), 8, IfThenElse(Var("i") < 4, store))
    kinds = [type(s).__name__ for s in iter_stmts(loop)]
    assert kinds == ["For", "IfThenElse", "BufferStore"]


def test_seq_flattens():
    buf = Buffer("A", (8,))
    s1 = BufferStore(buf, IntImm(1), [IntImm(0)])
    s2 = BufferStore(buf, IntImm(2), [IntImm(1)])
    nested = seq(s1, seq(s2, s1))
    assert isinstance(nested, SeqStmt)
    assert len(nested.stmts) == 3


def test_seq_singleton_unwrapped():
    buf = Buffer("A", (8,))
    s1 = BufferStore(buf, IntImm(1), [IntImm(0)])
    assert seq(s1) is s1


def test_mutator_deletes_stmt():
    buf = Buffer("A", (8,))
    store = BufferStore(buf, IntImm(1), [Var("i")])
    loop = For(Var("i"), 8, store)

    class Deleter(StmtMutator):
        def visit_BufferStore(self, node):
            return None

    assert Deleter().visit_stmt(loop) is None


def test_mutator_deleting_every_statement_deletes_the_seq():
    buf = Buffer("A", (8,))
    body = SeqStmt([
        BufferStore(buf, IntImm(1), [IntImm(0)]),
        BufferStore(buf, IntImm(2), [IntImm(1)]),
    ])

    class Deleter(StmtMutator):
        def visit_BufferStore(self, node):
            return None

    assert Deleter().visit_stmt(body) is None


def test_mutator_preserves_identity_when_unchanged():
    buf = Buffer("A", (8,))
    store = BufferStore(buf, IntImm(1), [Var("i")])
    loop = For(Var("i"), 8, store)
    assert StmtMutator().visit_stmt(loop) is loop


def test_mutator_if_deletion_drops_the_if():
    buf = Buffer("A", (8,))
    then = BufferStore(buf, IntImm(1), [IntImm(0)])
    node = IfThenElse(Var("i") < 2, then)

    class DropThen(StmtMutator):
        def visit_BufferStore(self, n):
            return None

    assert DropThen().visit_stmt(node) is None


def test_thread_binding_for_requires_tag():
    import pytest

    with pytest.raises(ValueError):
        For(Var("i"), 4, BufferStore(Buffer("A", (4,)), IntImm(0), [IntImm(0)]),
            ForKind.THREAD_BINDING)

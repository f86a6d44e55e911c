"""Pretty printer producing a TIR-script-like rendering of programs."""

from __future__ import annotations

from . import expr as E
from . import stmt as S

__all__ = ["expr_to_str", "stmt_to_str"]

_PRECEDENCE = {
    E.And: 2,
    E.LT: 3,
    E.LE: 3,
    E.GT: 3,
    E.GE: 3,
    E.EQ: 3,
    E.NE: 3,
    E.Add: 4,
    E.Sub: 4,
    E.Mul: 5,
    E.Div: 5,
    E.FloorDiv: 5,
    E.FloorMod: 5,
}


def expr_to_str(expr: E.PrimExpr, parent_prec: int = 0) -> str:
    """Render an expression with minimal parenthesization."""
    if isinstance(expr, E.Var):
        return expr.name
    if isinstance(expr, E.IntImm):
        if expr.dtype == "bool":
            return "True" if expr.value else "False"
        return str(expr.value)
    if isinstance(expr, E.FloatImm):
        return repr(expr.value)
    if isinstance(expr, (E.Min, E.Max)):
        name = "min" if isinstance(expr, E.Min) else "max"
        return f"{name}({expr_to_str(expr.a)}, {expr_to_str(expr.b)})"
    if isinstance(expr, E.UnaryOp):
        return f"{expr.op_name}({expr_to_str(expr.a)})"
    if isinstance(expr, E.Select):
        arms = ", ".join(map(expr_to_str, expr.children()))
        return f"select({arms})"
    if isinstance(expr, E.BinaryOp):
        prec = _PRECEDENCE.get(type(expr), 3)
        text = (
            f"{expr_to_str(expr.a, prec)} {expr.op_name} "
            f"{expr_to_str(expr.b, prec + 1)}"
        )
        if prec < parent_prec:
            return f"({text})"
        return text
    if isinstance(expr, E.BufferLoad):
        idx = ", ".join(expr_to_str(i) for i in expr.indices)
        return f"{expr.buffer.name}[{idx}]"
    raise TypeError(f"cannot print {type(expr).__name__}")


def stmt_to_str(stmt: S.Stmt, indent: int = 0) -> str:
    """Render a statement tree as indented pseudo-Python."""
    pad = "    " * indent
    if isinstance(stmt, S.For):
        head = f"for {stmt.var.name} in range({expr_to_str(stmt.extent)})"
        if stmt.kind is S.ForKind.THREAD_BINDING:
            head += f"  # bind: {stmt.thread_tag}"
        elif stmt.kind is not S.ForKind.SERIAL:
            head += f"  # {stmt.kind.value}"
        return f"{pad}{head}:\n{stmt_to_str(stmt.body, indent + 1)}"
    if isinstance(stmt, S.IfThenElse):
        return (
            f"{pad}if {expr_to_str(stmt.condition)}:\n"
            f"{stmt_to_str(stmt.then_case, indent + 1)}"
        )
    if isinstance(stmt, S.BufferStore):
        idx = ", ".join(expr_to_str(i) for i in stmt.indices)
        return f"{pad}{stmt.buffer.name}[{idx}] = {expr_to_str(stmt.value)}"
    if isinstance(stmt, S.SeqStmt):
        return "\n".join(stmt_to_str(s, indent) for s in stmt.stmts)
    if isinstance(stmt, S.Barrier):
        return f"{pad}barrier()"
    if isinstance(stmt, S.DmaCopy):
        db = ", ".join(expr_to_str(i) for i in stmt.dst_base)
        sb = ", ".join(expr_to_str(i) for i in stmt.src_base)
        return (
            f"{pad}dma_copy({stmt.dst.name}[{db}] <- {stmt.src.name}[{sb}],"
            f" n={stmt.size})"
        )
    raise TypeError(f"cannot print {type(stmt).__name__}")

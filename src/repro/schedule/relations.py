"""Iteration-variable relations (split/fuse) and axis reconstruction."""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..te import IterVar
from ..tir import PrimExpr, Var, simplify

__all__ = ["Split", "Fuse", "reconstruct_roots"]


class Split:
    """``parent`` was split into ``outer * factor + inner``.

    ``exact`` records whether ``factor`` divides the parent extent; inexact
    splits are the source of boundary checks (§5.3 of the paper).
    """

    __slots__ = ("parent", "outer", "inner", "factor", "exact")

    def __init__(self, parent: IterVar, outer: IterVar, inner: IterVar, factor: int):
        self.parent = parent
        self.outer = outer
        self.inner = inner
        self.factor = int(factor)
        self.exact = parent.extent % self.factor == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Split({self.parent.name} -> {self.outer.name}*{self.factor}"
            f"+{self.inner.name})"
        )


class Fuse:
    """``outer`` and ``inner`` were fused into a single ``fused`` axis."""

    __slots__ = ("outer", "inner", "fused")

    def __init__(self, outer: IterVar, inner: IterVar, fused: IterVar) -> None:
        self.outer = outer
        self.inner = inner
        self.fused = fused

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Fuse({self.outer.name}, {self.inner.name} -> {self.fused.name})"


def reconstruct_roots(
    roots: Sequence[IterVar], relations: Sequence[object]
) -> Dict[Var, PrimExpr]:
    """Express each root axis variable in terms of leaf variables.

    Walks the relation list backwards, so later relations (closer to the
    leaves) are resolved first.  The returned mapping is used during
    lowering to rebuild original tensor indices ("address calculation").
    """
    values: Dict[Var, PrimExpr] = {}

    def value_of(iv: IterVar) -> PrimExpr:
        return values.get(iv.var, iv.var)

    for rel in reversed(list(relations)):
        if isinstance(rel, Split):
            values[rel.parent.var] = simplify(
                value_of(rel.outer) * rel.factor + value_of(rel.inner)
            )
        elif isinstance(rel, Fuse):
            fused_val = value_of(rel.fused)
            values[rel.outer.var] = simplify(fused_val // rel.inner.extent)
            values[rel.inner.var] = simplify(fused_val % rel.inner.extent)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown relation {rel!r}")

    return {root.var: values.get(root.var, root.var) for root in roots}


def derives_from_reduce(iv: IterVar, relations: Sequence[object]) -> bool:
    """Whether ``iv`` descends (possibly transitively) from a reduce axis."""
    reduce_set: List[IterVar] = []

    def mark(x: IterVar) -> None:
        if x not in reduce_set:
            reduce_set.append(x)

    for rel in relations:
        if isinstance(rel, Split):
            if rel.parent.is_reduce or rel.parent in reduce_set:
                mark(rel.outer)
                mark(rel.inner)
        elif isinstance(rel, Fuse):
            if (
                rel.outer.is_reduce
                or rel.inner.is_reduce
                or rel.outer in reduce_set
                or rel.inner in reduce_set
            ):
                mark(rel.fused)
    return iv.is_reduce or iv in reduce_set

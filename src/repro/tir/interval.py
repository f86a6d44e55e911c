"""Integer interval arithmetic over TIR expressions.

Used for bounds inference (cache-region sizing), boundary-check proving,
loop-bound tightening and the timing walker's loop partitioning.
"""

from __future__ import annotations

from typing import Dict, Optional

from . import expr as E

__all__ = ["Interval", "eval_interval"]


class Interval:
    """A closed integer interval ``[lo, hi]``; ``None`` bounds are infinite."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Optional[int], hi: Optional[int]) -> None:
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, value: int) -> "Interval":
        return cls(value, value)

    @classmethod
    def everything(cls) -> "Interval":
        return cls(None, None)

    @property
    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"[{self.lo}, {self.hi}]"

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_add(self.lo, other.lo), _add(self.hi, other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(_sub(self.lo, other.hi), _sub(self.hi, other.lo))

    def __mul__(self, other: "Interval") -> "Interval":
        candidates = []
        unbounded = False
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                if a is None or b is None:
                    unbounded = True
                else:
                    candidates.append(a * b)
        if unbounded or not candidates:
            # A product with an unbounded endpoint is unbounded unless the
            # other side is exactly zero; keep it simple and give up.
            if self.lo == self.hi == 0 or other.lo == other.hi == 0:
                return Interval.point(0)
            return Interval.everything()
        return Interval(min(candidates), max(candidates))

    def floordiv(self, other: "Interval") -> "Interval":
        if not other.is_point or other.lo == 0:
            return Interval.everything()
        d = other.lo
        lo = None if self.lo is None else _fdiv_bound(self.lo, d)
        hi = None if self.hi is None else _fdiv_bound(self.hi, d)
        if d < 0:
            lo, hi = hi, lo
        return Interval(lo, hi)

    def floormod(self, other: "Interval") -> "Interval":
        if not other.is_point or other.lo <= 0:
            return Interval.everything()
        d = other.lo
        if (
            self.lo is not None
            and self.hi is not None
            and self.lo // d == self.hi // d
        ):
            return Interval(self.lo % d, self.hi % d)
        return Interval(0, d - 1)

    def min_with(self, other: "Interval") -> "Interval":
        return Interval(_opt(min, self.lo, other.lo), _opt_strict(min, self.hi, other.hi))

    def max_with(self, other: "Interval") -> "Interval":
        return Interval(_opt_strict(max, self.lo, other.lo), _opt(max, self.hi, other.hi))


def _add(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return a + b


def _sub(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return a - b


def _fdiv_bound(a: int, d: int) -> int:
    return a // d


def _opt(f, a: Optional[int], b: Optional[int]) -> Optional[int]:
    """min/max where ``None`` means "unbounded in the weak direction"."""
    if a is None or b is None:
        return None
    return f(a, b)


def _opt_strict(f, a: Optional[int], b: Optional[int]) -> Optional[int]:
    """min/max where a known bound wins over an unbounded one.

    E.g. ``min(x, hi=None)`` with other ``hi=5`` is at most 5.
    """
    if a is None:
        return b
    if b is None:
        return a
    return f(a, b)


def eval_interval(
    expr: E.PrimExpr, env: Dict[E.Var, Interval]
) -> Optional[Interval]:
    """Interval of an integer expression given variable intervals.

    Returns ``None`` for expressions the analysis cannot handle (loads,
    float immediates).  Missing variables are treated as unbounded.
    """
    kind = type(expr)
    if kind is E.IntImm:
        return Interval(expr.value, expr.value)
    if kind is E.Var:
        known = env.get(expr)
        return Interval(None, None) if known is None else known
    combine = _BINARY.get(kind)
    if combine is not None:
        a = eval_interval(expr.a, env)
        b = eval_interval(expr.b, env)
        if a is None or b is None:
            return None
        return combine(a, b)
    return None


# Booleans are the {0, 1} subsets: always true, never true, or either.
_TRUE = Interval(1, 1)
_FALSE = Interval(0, 0)
_EITHER = Interval(0, 1)


def _lt(x: Interval, y: Interval) -> Interval:
    if x.hi is not None and y.lo is not None and x.hi < y.lo:
        return _TRUE
    if x.lo is not None and y.hi is not None and x.lo >= y.hi:
        return _FALSE
    return _EITHER


def _le(x: Interval, y: Interval) -> Interval:
    if x.hi is not None and y.lo is not None and x.hi <= y.lo:
        return _TRUE
    if x.lo is not None and y.hi is not None and x.lo > y.hi:
        return _FALSE
    return _EITHER


def _eq(a: Interval, b: Interval) -> Interval:
    if a.is_point and b.is_point:
        return _TRUE if a.lo == b.lo else _FALSE
    disjoint = (
        a.hi is not None
        and b.lo is not None
        and a.hi < b.lo
        or a.lo is not None
        and b.hi is not None
        and a.lo > b.hi
    )
    return _FALSE if disjoint else _EITHER


def _ne(a: Interval, b: Interval) -> Interval:
    eq = _eq(a, b)
    return _EITHER if eq is _EITHER else (_FALSE if eq is _TRUE else _TRUE)


def _and(a: Interval, b: Interval) -> Interval:
    if a.is_point and a.lo == 0 or b.is_point and b.lo == 0:
        return _FALSE
    if a.is_point and a.lo == 1 and b.is_point and b.lo == 1:
        return _TRUE
    return _EITHER


_BINARY = {
    E.Add: Interval.__add__,
    E.Sub: Interval.__sub__,
    E.Mul: Interval.__mul__,
    E.FloorDiv: Interval.floordiv,
    E.FloorMod: Interval.floormod,
    E.Min: Interval.min_with,
    E.Max: Interval.max_with,
    E.LT: _lt,
    E.LE: _le,
    E.GT: lambda a, b: _lt(b, a),
    E.GE: lambda a, b: _le(b, a),
    E.EQ: _eq,
    E.NE: _ne,
    E.And: _and,
}

"""Expression nodes for the loop-based tensor IR.

The IR holds exactly the expressions ATiM's lowering emits: immediates,
variables, ``+ - * // %``, ``min``/``max``, the six comparisons, ``and``
(the conjunction of boundary conditions) and buffer loads — plus, for
host epilogue and prologue stages only, float ``/``, the
``exp``/``tanh`` intrinsics and the ternary :class:`Select` (a DPU has
no FPU: lowering refuses them in a kernel).  Nodes are immutable;
transformations build new trees (see :mod:`repro.tir.visitor`).

Because nodes never change, facts about a subtree are computed once from
the children's facts and kept on the node: its variables
(:func:`free_vars`), its affine decomposition and whether it already is a
simplifier normal form (both owned by :mod:`repro.tir.simplify`).  These
cache slots are derived data — they are left out of pickles and die with
the node.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

__all__ = [
    "PrimExpr",
    "Var",
    "IntImm",
    "FloatImm",
    "BinaryOp",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "FloorDiv",
    "FloorMod",
    "Min",
    "Max",
    "CmpOp",
    "LT",
    "LE",
    "GT",
    "GE",
    "EQ",
    "NE",
    "And",
    "UnaryOp",
    "Exp",
    "Tanh",
    "Select",
    "BufferLoad",
    "const",
    "as_expr",
    "all_of",
    "free_vars",
]

#: Slots holding facts derived from the subtree; never pickled.
_CACHE_SLOTS = frozenset({"_vars", "_normal", "_affine"})


def _result_dtype(a: "PrimExpr", b: "PrimExpr") -> str:
    """Widen the operand dtypes following a simple int < float lattice."""
    if a.dtype == b.dtype:
        return a.dtype
    if "float" in (a.dtype, b.dtype) or "float32" in (a.dtype, b.dtype):
        return "float32"
    return a.dtype if a.dtype != "int32" else b.dtype


class PrimExpr:
    """Base class of all scalar expressions.

    Every expression carries a ``dtype`` string (``"int32"``, ``"float32"``
    or ``"bool"``).  Python arithmetic operators are overloaded to build IR
    nodes, so index math reads naturally: ``i * 16 + j``.
    """

    __slots__ = ("dtype", "_vars", "_normal")
    #: Slots that make up the node itself (everything but the caches).
    _state_slots: Tuple[str, ...] = ("dtype",)

    def __init__(self, dtype: str) -> None:
        self.dtype = dtype
        self._vars: Optional[Tuple["Var", ...]] = None  # see free_vars()
        self._normal = False  # set by simplify() on its results

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._state_slots = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ())
            if name not in _CACHE_SLOTS
        )

    def children(self) -> Tuple["PrimExpr", ...]:
        """Direct sub-expressions."""
        return ()

    # Pickles hold the node, not what was derived from it: the layout is
    # the one slot-pickling produced before the caches existed.
    def __getstate__(self):
        return None, {name: getattr(self, name) for name in self._state_slots}

    def __setstate__(self, state) -> None:
        self._vars = None
        self._normal = False
        for name, value in state[1].items():
            setattr(self, name, value)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __floordiv__(self, other):
        return FloorDiv(self, as_expr(other))

    def __rfloordiv__(self, other):
        return FloorDiv(as_expr(other), self)

    def __mod__(self, other):
        return FloorMod(self, as_expr(other))

    def __rmod__(self, other):
        return FloorMod(as_expr(other), self)

    def __neg__(self):
        return Sub(const(0, self.dtype), self)

    # -- comparisons (return IR nodes, not Python bools) -----------------
    def __lt__(self, other):
        return LT(self, as_expr(other))

    def __le__(self, other):
        return LE(self, as_expr(other))

    def __gt__(self, other):
        return GT(self, as_expr(other))

    def __ge__(self, other):
        return GE(self, as_expr(other))

    def equal(self, other) -> "EQ":
        """Build an equality comparison node (``==`` is kept for hashing)."""
        return EQ(self, as_expr(other))

    # ``==`` is not overloaded: nodes compare and hash by identity (the
    # object default), so they can live in dicts/sets.

    def __repr__(self) -> str:
        from .printer import expr_to_str

        return expr_to_str(self)


class Var(PrimExpr):
    """A scalar variable, e.g. a loop iterator or a host parameter."""

    __slots__ = ("name",)

    def __init__(self, name: str, dtype: str = "int32") -> None:
        super().__init__(dtype)
        self.name = name
        self._normal = True


class IntImm(PrimExpr):
    """Integer immediate."""

    __slots__ = ("value",)

    def __init__(self, value: int, dtype: str = "int32") -> None:
        super().__init__(dtype)
        self.value = int(value)
        self._vars = ()
        self._normal = True


class FloatImm(PrimExpr):
    """Floating-point immediate."""

    __slots__ = ("value",)

    def __init__(self, value: float, dtype: str = "float32") -> None:
        super().__init__(dtype)
        self.value = float(value)
        self._vars = ()
        self._normal = True


class BinaryOp(PrimExpr):
    """Common base for binary arithmetic nodes."""

    __slots__ = ("a", "b", "_affine")
    op_name = "?"

    def __init__(self, a, b, dtype: Optional[str] = None) -> None:
        a = as_expr(a)
        b = as_expr(b)
        super().__init__(dtype or _result_dtype(a, b))
        self.a = a
        self.b = b
        self._affine = None  # owned by simplify._affine()

    def children(self):
        return self.a, self.b

    def __setstate__(self, state) -> None:
        self._affine = None
        super().__setstate__(state)


class Add(BinaryOp):
    op_name = "+"


class Sub(BinaryOp):
    op_name = "-"


class Mul(BinaryOp):
    op_name = "*"


class Div(BinaryOp):
    """True (float) division."""

    op_name = "/"


class FloorDiv(BinaryOp):
    op_name = "//"


class FloorMod(BinaryOp):
    op_name = "%"


class Min(BinaryOp):
    op_name = "min"


class Max(BinaryOp):
    op_name = "max"


class CmpOp(BinaryOp):
    """Common base for comparisons; result dtype is ``bool``."""

    def __init__(self, a, b) -> None:
        super().__init__(a, b, dtype="bool")


class LT(CmpOp):
    op_name = "<"


class LE(CmpOp):
    op_name = "<="


class GT(CmpOp):
    op_name = ">"


class GE(CmpOp):
    op_name = ">="


class EQ(CmpOp):
    op_name = "=="


class NE(CmpOp):
    op_name = "!="


class And(BinaryOp):
    op_name = "&&"

    def __init__(self, a, b) -> None:
        super().__init__(a, b, dtype="bool")


class UnaryOp(PrimExpr):
    """Common base for the float intrinsics: ``op_name(a)``."""

    __slots__ = ("a",)
    op_name = "?"

    def __init__(self, a) -> None:
        a = as_expr(a)
        super().__init__(a.dtype if a.dtype.startswith("float") else "float32")
        self.a = a

    def children(self):
        return (self.a,)


class Exp(UnaryOp):
    op_name = "exp"


class Tanh(UnaryOp):
    op_name = "tanh"


class Select(PrimExpr):
    """``true_value if condition else false_value``, of the two arms'
    widened dtype whichever arm is taken (a host-only node: a piecewise
    prologue).  The scalar interpreter evaluates the taken arm only, the
    vector compiler both and picks per element, so both arms must read
    in bounds everywhere."""

    __slots__ = ("condition", "true_value", "false_value")
    op_name = "select"

    def __init__(self, condition, true_value, false_value) -> None:
        true_value = as_expr(true_value)
        false_value = as_expr(false_value)
        super().__init__(_result_dtype(true_value, false_value))
        self.condition = as_expr(condition)
        self.true_value = true_value
        self.false_value = false_value

    def children(self):
        return self.condition, self.true_value, self.false_value


class BufferLoad(PrimExpr):
    """Read ``buffer[indices...]``."""

    __slots__ = ("buffer", "indices")

    def __init__(self, buffer, indices: Sequence[PrimExpr]) -> None:
        super().__init__(buffer.dtype)
        self.buffer = buffer
        self.indices: Tuple[PrimExpr, ...] = tuple(as_expr(i) for i in indices)

    def children(self):
        return self.indices


def const(value, dtype: str = "int32") -> PrimExpr:
    """Make an immediate of the requested dtype."""
    if dtype == "bool":
        return IntImm(1 if value else 0, "bool")
    if dtype.startswith("int") or dtype.startswith("uint"):
        return IntImm(int(value), dtype)
    return FloatImm(float(value), dtype)


def as_expr(value) -> PrimExpr:
    """Coerce a Python number (or pass through an expression) into IR."""
    if isinstance(value, PrimExpr):
        return value
    if isinstance(value, bool):
        return IntImm(1 if value else 0, "bool")
    if isinstance(value, int):
        return IntImm(value)
    if isinstance(value, float):
        return FloatImm(value)
    raise TypeError(f"cannot convert {value!r} to PrimExpr")


def free_vars(expr: PrimExpr) -> Tuple[Var, ...]:
    """The distinct variables of ``expr`` in first-seen (post-order) order.

    Computed once per node from its children's tuples, which are shared
    where only one child has variables; expressions hold few variables, so
    a tuple beats a set in both space and lookup time.
    """
    found = expr._vars
    if found is None:
        if type(expr) is Var:
            found = (expr,)
        else:
            found = ()
            for child in expr.children():
                below = free_vars(child)
                if not found:
                    found = below
                elif below is not found:
                    found += tuple(v for v in below if v not in found)
        expr._vars = found
    return found


def all_of(conds: Sequence[PrimExpr]) -> Optional[PrimExpr]:
    """Conjoin a list of boolean expressions; ``None`` if the list is empty."""
    result: Optional[PrimExpr] = None
    for cond in conds:
        result = cond if result is None else And(result, cond)
    return result

"""A scalar TIR interpreter used for functional validation.

Interprets lowered host/kernel statements against numpy-backed buffers.
It is intentionally simple (and slow) and defines the *reference
semantics*: the vectorized compiler in :mod:`repro.upmem.vectorize` must
match it bit for bit, and it alone runs a kernel outside that compiler's
model.  Dispatch is a type-keyed table rather than an ``isinstance``
ladder.
"""

from __future__ import annotations

import operator
from typing import Dict

import numpy as np

from ..tir import (
    Add,
    And,
    Barrier,
    Buffer,
    BufferLoad,
    BufferStore,
    Div,
    DmaCopy,
    EQ,
    Exp,
    FloatImm,
    FloorDiv,
    FloorMod,
    For,
    GE,
    GT,
    IfThenElse,
    IntImm,
    LE,
    LT,
    Max,
    Min,
    Mul,
    NE,
    PrimExpr,
    Select,
    SeqStmt,
    Stmt,
    Sub,
    Tanh,
    Var,
)

__all__ = ["Interpreter", "InterpError"]


class InterpError(RuntimeError):
    """Raised on out-of-model constructs or out-of-bounds accesses."""


# -- expression dispatch ----------------------------------------------------

def _ev_imm(self, expr, env):
    return expr.value


def _ev_var(self, expr, env):
    try:
        return env[expr]
    except KeyError:
        raise InterpError(f"unbound variable {expr.name}") from None


def _binop(op):
    def ev(self, expr, env):
        return op(self.eval(expr.a, env), self.eval(expr.b, env))

    return ev


def _unary(ufunc):
    def ev(self, expr, env):
        return ufunc(self.eval(expr.a, env))

    return ev


def _ev_and(self, expr, env):
    return bool(self.eval(expr.a, env)) and bool(self.eval(expr.b, env))


def _ev_select(self, expr, env):
    # Lazy: only the taken arm runs.  The value has the select's dtype,
    # so a Python-number arm is no weak operand downstream.
    taken = self.eval(expr.condition, env)
    arm = expr.true_value if taken else expr.false_value
    return _NP_DTYPES[expr.dtype](self.eval(arm, env))


def _ev_load(self, expr, env):
    arr = self._array(expr.buffer)
    idx = tuple(int(self.eval(i, env)) for i in expr.indices)
    self._check(expr.buffer, idx)
    return arr[idx]


_EVAL = {
    IntImm: _ev_imm,
    FloatImm: _ev_imm,
    Var: _ev_var,
    Add: _binop(operator.add),
    Sub: _binop(operator.sub),
    Mul: _binop(operator.mul),
    Div: _binop(operator.truediv),
    FloorDiv: _binop(operator.floordiv),
    FloorMod: _binop(operator.mod),
    Min: _binop(min),
    Max: _binop(max),
    LT: _binop(operator.lt),
    LE: _binop(operator.le),
    GT: _binop(operator.gt),
    GE: _binop(operator.ge),
    EQ: _binop(operator.eq),
    NE: _binop(operator.ne),
    And: _ev_and,
    # The float32 ufuncs the workloads' NumPy references call: on a
    # float32 scalar they return the array result's bits.
    Exp: _unary(np.exp),
    Tanh: _unary(np.tanh),
    Select: _ev_select,
    BufferLoad: _ev_load,
}


# -- statement dispatch -----------------------------------------------------

def _ex_seq(self, stmt, env):
    for s in stmt.stmts:
        self.run(s, env)


def _ex_for(self, stmt, env):
    extent = int(self.eval(stmt.extent, env))
    var, body, run = stmt.var, stmt.body, self.run
    for value in range(extent):
        env[var] = value
        run(body, env)
    env.pop(var, None)


def _ex_if(self, stmt, env):
    if self.eval(stmt.condition, env):
        self.run(stmt.then_case, env)


def _ex_store(self, stmt, env):
    arr = self._array(stmt.buffer)
    idx = tuple(int(self.eval(i, env)) for i in stmt.indices)
    self._check(stmt.buffer, idx)
    arr[idx] = self.eval(stmt.value, env)


def _ex_barrier(self, stmt, env):
    pass  # tasklets are interpreted serially


class Interpreter:
    """Executes statements over a ``Buffer -> np.ndarray`` store."""

    def __init__(self, arrays: Dict[Buffer, np.ndarray]) -> None:
        self.arrays = arrays

    # -- expressions --------------------------------------------------------
    def eval(self, expr: PrimExpr, env: Dict[Var, int]):
        try:
            fn = _EVAL[type(expr)]
        except KeyError:
            raise InterpError(
                f"cannot evaluate {type(expr).__name__}"
            ) from None
        return fn(self, expr, env)

    # -- statements ---------------------------------------------------------
    def run(self, stmt: Stmt, env: Dict[Var, int]) -> None:
        try:
            fn = _EXEC[type(stmt)]
        except KeyError:
            raise InterpError(
                f"cannot execute {type(stmt).__name__}"
            ) from None
        fn(self, stmt, env)

    def _dma(self, stmt: DmaCopy, env) -> None:
        dst = self._array(stmt.dst)
        src = self._array(stmt.src)
        dst_base = tuple(int(self.eval(i, env)) for i in stmt.dst_base)
        src_base = tuple(int(self.eval(i, env)) for i in stmt.src_base)
        n = stmt.size
        dst_flat = dst.reshape(-1)
        src_flat = src.reshape(-1)
        doff = int(np.ravel_multi_index(dst_base, dst.shape, mode="clip"))
        soff = int(np.ravel_multi_index(src_base, src.shape, mode="clip"))
        # DMA may legally over-read/over-write within the locally padded
        # tile; clamp to the physical buffers (the pad) like hardware
        # clamps to the MRAM tile allocation.  The bases were clamped per
        # dimension above, so each side has an element left: n_eff >= 1
        # unless n == 0.
        n_eff = min(n, dst_flat.size - doff, src_flat.size - soff)
        dst_flat[doff : doff + n_eff] = src_flat[soff : soff + n_eff]

    # -- helpers -------------------------------------------------------------
    def _array(self, buffer: Buffer) -> np.ndarray:
        try:
            return self.arrays[buffer]
        except KeyError:
            raise InterpError(f"unbound buffer {buffer.name}") from None

    def _check(self, buffer: Buffer, idx) -> None:
        for i, extent in zip(idx, buffer.shape):
            if i < 0 or i >= extent:
                raise InterpError(
                    f"index {idx} out of bounds for {buffer!r}"
                )


_EXEC = {
    SeqStmt: _ex_seq,
    For: _ex_for,
    IfThenElse: _ex_if,
    BufferStore: _ex_store,
    DmaCopy: Interpreter._dma,
    Barrier: _ex_barrier,
}


_NP_DTYPES = {
    "float32": np.float32,
    "float64": np.float64,
    "int32": np.int32,
    "int64": np.int64,
    "bool": np.bool_,
}


def _np_dtype(buffer: Buffer):
    return _NP_DTYPES.get(buffer.dtype, np.float32)

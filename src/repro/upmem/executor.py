"""Functional execution of lowered modules on the simulated UPMEM system.

Runs the full offload sequence per DPU — H2D tile copies, kernel
execution, D2H copies — followed by the host post-processing statements,
against numpy buffers.  This validates the entire compiler (schedules,
boundary checks, caching, address calculation, transfers, hierarchical
reduction) end to end.

Three execution modes, selected by the ``REPRO_SIM_MODE`` environment
variable or a per-executor override:

``vector`` (default)
    The TIR->NumPy compiled plan from :mod:`repro.upmem.vectorize`:
    all lanes of a chunk — grid points, of one item or of several
    stacked batch items — execute as one batched lane axis.  A kernel
    that addresses a host tensor raises ``VectorizeError``.
``scalar``
    The reference :class:`~repro.upmem.interp.Interpreter`, walking the
    AST point by point; it runs any module.
``verify``
    Runs *both* paths and asserts their outputs are identical down to
    the last bit (the equivalence gate); raises :class:`VerifyMismatch`
    otherwise.  Results returned are the vector path's.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..lowering import LoweredModule, TransferSpec
from ..tir import Buffer, Var
from .interp import Interpreter, _np_dtype

__all__ = [
    "FunctionalExecutor",
    "VerifyMismatch",
    "sim_mode",
    "SIM_MODES",
]

SIM_MODES = ("vector", "scalar", "verify")


class VerifyMismatch(AssertionError):
    """The vector and scalar paths disagreed on output bytes."""


def sim_mode(override: Optional[str] = None) -> str:
    """Resolve the functional-simulation mode (env knob, default vector)."""
    mode = override or os.environ.get("REPRO_SIM_MODE", "vector")
    mode = mode.strip().lower()
    if mode not in SIM_MODES:
        raise ValueError(
            f"REPRO_SIM_MODE must be one of {SIM_MODES}, got {mode!r}"
        )
    return mode


class FunctionalExecutor:
    """Executes a :class:`LoweredModule` for correctness checking.

    The offload sequence is exposed in three phases — :meth:`prepare`
    (bind inputs, allocate outputs, run host-side preamble, per item),
    :meth:`run_points` (simulate a slice of the *lane space* of one or
    more prepared items) and :meth:`finalize` (host post-processing, per
    item).  The lane space of a batch is item-major: with ``G`` grid
    points, lane ``i * G + g`` is grid point ``g`` of item ``i``.  Every
    lane reads its item's input arrays and writes its own disjoint tile
    regions of its item's outputs, so any partition of the lane space
    may run in any order, or on several threads.  :meth:`run` composes
    the three phases for a batch of one.
    """

    def __init__(
        self, module: LoweredModule, mode: Optional[str] = None
    ) -> None:
        self.module = module
        self.mode = mode  # None -> read REPRO_SIM_MODE per phase
        self._grid_points: Optional[List[tuple]] = None
        #: The module's vector plan and host programs once a call has
        #: needed them: the plan cache is a locked lookup, and the module
        #: never changes.
        self._kernel_plan = None
        self._host_programs: Dict[str, object] = {}

    # -- mode plumbing ------------------------------------------------------
    def _mode(self) -> str:
        return sim_mode(self.mode)

    def _plan(self):
        if self._kernel_plan is None:
            from .vectorize import plan_for

            self._kernel_plan = plan_for(self.module)
        return self._kernel_plan

    def _host_program(self, which: str):
        program = self._host_programs.get(which)
        if program is None:
            from .vectorize import host_program_for

            program = self._host_programs[which] = host_program_for(
                self.module, which
            )
        return program

    def prepare(self, inputs: Dict[str, np.ndarray]) -> Dict[Buffer, np.ndarray]:
        """Bind named inputs, allocate outputs, run the host preamble."""
        module = self.module
        arrays: Dict[Buffer, np.ndarray] = {}
        for buf in module.inputs:
            try:
                arr = inputs[buf.name]
            except KeyError:
                raise KeyError(
                    f"missing input {buf.name!r}; expected"
                    f" {[b.name for b in module.inputs]}"
                ) from None
            arr = np.asarray(arr, dtype=_np_dtype(buf))
            if tuple(arr.shape) != buf.shape:
                raise ValueError(
                    f"input {buf.name!r} has shape {arr.shape}, expected"
                    f" {buf.shape}"
                )
            arrays[buf] = arr
        for buf in module.outputs + module.intermediates:
            arrays.setdefault(buf, np.zeros(buf.shape, _np_dtype(buf)))

        self._run_host("pre", module.host_pre, arrays)
        return arrays

    def _run_host(
        self, which: str, stmts: Sequence, arrays: Dict[Buffer, np.ndarray]
    ) -> None:
        """Run the ``host_pre`` / ``host_post`` statements on ``arrays``
        in the current mode."""
        if not stmts:
            return

        def interpret(store: Dict[Buffer, np.ndarray]) -> None:
            host = Interpreter(store)
            for stmt in stmts:
                host.run(stmt, {})

        mode = self._mode()
        if mode == "scalar":
            interpret(arrays)
        elif mode == "vector":
            self._host_program(which).run(arrays)
        else:
            # verify: run the compiled program for real, the interpreter
            # on copies, and compare every buffer bitwise.
            shadow = {buf: arr.copy() for buf, arr in arrays.items()}
            self._host_program(which).run(arrays)
            interpret(shadow)
            _compare_buffers(arrays, shadow, f"host_{which}")

    def grid_points(self) -> List[tuple]:
        """All DPU grid coordinates in canonical (row-major) order."""
        if self._grid_points is None:
            extents = [dim.extent for dim in self.module.grid]
            self._grid_points = list(
                itertools.product(*[range(e) for e in extents])
            )
        return self._grid_points

    def run_points(
        self,
        states: Sequence[Dict[Buffer, np.ndarray]],
        lanes: range,
    ) -> None:
        """Simulate ``lanes`` of the lane space of the prepared ``states``
        (one :meth:`prepare` result per batch item)."""
        mode = self._mode()
        if mode == "vector":
            self._plan().run_points(states, lanes)
        elif mode == "scalar":
            for item, points in self._item_points(lanes):
                self._run_points_scalar(states[item], points)
        else:
            self._run_points_verify(states, lanes)

    def _item_points(self, lanes: range):
        """``lanes`` as (item number, that item's grid points) pairs."""
        points = self.grid_points()
        grid = len(points)
        for item in range(lanes.start // grid, -(-lanes.stop // grid)):
            first = item * grid
            yield item, points[max(lanes.start - first, 0) : lanes.stop - first]

    def finalize(self, arrays: Dict[Buffer, np.ndarray]) -> List[np.ndarray]:
        """Run host post-processing; returns the output arrays."""
        self._run_host("post", self.module.host_post, arrays)
        return [arrays[buf] for buf in self.module.outputs]

    def run(self, inputs: Dict[str, np.ndarray]) -> List[np.ndarray]:
        """Execute with named input arrays; returns the output arrays."""
        arrays = self.prepare(inputs)
        self.run_points([arrays], range(self.module.n_dpus))
        return self.finalize(arrays)

    # -- scalar reference path ----------------------------------------------
    def _run_points_scalar(
        self,
        arrays: Dict[Buffer, np.ndarray],
        points: Sequence[tuple],
    ) -> None:
        module = self.module
        grid_vars = module.grid_vars()
        # One shared local store and Interpreter for the whole shard:
        # global entries alias the shared arrays, per-DPU tiles are
        # re-bound (fresh) for every point below.
        local: Dict[Buffer, np.ndarray] = dict(arrays)
        interp = Interpreter(local)
        for point in points:
            self._run_dpu(arrays, local, interp, dict(zip(grid_vars, point)))

    def _run_dpu(
        self,
        global_arrays: Dict[Buffer, np.ndarray],
        local: Dict[Buffer, np.ndarray],
        interp: Interpreter,
        env: Dict[Var, int],
    ) -> None:
        module = self.module

        # H2D: fill MRAM tiles from the part of the tile that lies on the
        # tensor, zero-pad the rest (local padding, §5.3.1).
        for spec in module.transfers:
            tile = np.zeros(spec.shape, _np_dtype(spec.local_buffer))
            local[spec.local_buffer] = tile
            if spec.direction == "h2d":
                box = self._tile_box(spec, interp, env)
                if box is not None:
                    on_tensor, on_tile = box
                    src = global_arrays[spec.global_buffer]
                    tile[on_tile] = src[on_tensor]
        for buf in module.mram_internal:
            local[buf] = np.zeros(buf.shape, _np_dtype(buf))
        for buf in module.wram_buffers:
            local[buf] = np.zeros(buf.shape, _np_dtype(buf))

        interp.run(module.kernel, dict(env))

        # D2H: copy the on-tensor part of the tile back to the host.
        for spec in module.transfers:
            if spec.direction != "d2h":
                continue
            box = self._tile_box(spec, interp, env)
            if box is not None:
                on_tensor, on_tile = box
                dst = global_arrays[spec.global_buffer]
                dst[on_tensor] = local[spec.local_buffer][on_tile]

    # -- equivalence gate ----------------------------------------------------
    def _run_points_verify(
        self,
        states: Sequence[Dict[Buffer, np.ndarray]],
        lanes: range,
    ) -> None:
        """Run the stacked vector call, then the scalar interpreter item
        by item; compare each item's D2H regions bitwise.

        The interpreter runs on copies of the D2H targets — the only
        tensors a kernel the plan takes can write — so nothing runs twice
        on the state the caller gets back.  Only the D2H regions written
        by *these* lanes are compared: under ``run_batch`` other threads
        own the rest of the output arrays.
        """
        module = self.module
        d2h = module.transfer("d2h")
        written = {spec.global_buffer for spec in d2h}
        items = list(self._item_points(lanes))
        shadows = []
        for item, _ in items:
            shadow = dict(states[item])
            for buf in written & shadow.keys():
                shadow[buf] = shadow[buf].copy()
            shadows.append(shadow)
        self._audit_resident(lanes)
        self._plan().run_points(states, lanes)
        probe = Interpreter({})
        grid_vars = module.grid_vars()
        for (item, points), shadow in zip(items, shadows):
            self._run_points_scalar(shadow, points)
            for point in points:
                env = dict(zip(grid_vars, point))
                for spec in d2h:
                    box = self._tile_box(spec, probe, env)
                    if box is None:
                        continue
                    region = box[0]
                    got = states[item][spec.global_buffer][region]
                    want = shadow[spec.global_buffer][region]
                    if got.tobytes() != want.tobytes():
                        raise VerifyMismatch(
                            f"vector/scalar mismatch in"
                            f" {spec.global_buffer.name} at grid point"
                            f" {point} of batch item {item}"
                        )

    def _audit_resident(self, lanes: range) -> None:
        """The vector plan's resident chunk geometry for ``lanes``
        against a fresh build (:meth:`KernelPlan.check_invariants`).
        Reads the plan cache again, so the plan audited is the plan the
        next call runs."""
        from .vectorize import plan_for

        self._kernel_plan = plan = plan_for(self.module)
        problems = plan.check_invariants(lanes)
        if problems:
            raise VerifyMismatch(
                "resident chunk geometry differs from a fresh build: "
                + "; ".join(problems)
            )

    @staticmethod
    def _tile_box(
        spec: TransferSpec, interp: Interpreter, env: Dict[Var, int]
    ):
        """The part of a tile that lies on its tensor, as ``(tensor
        slices, tile slices)``; ``None`` when no element does.  The tile
        is cut at *both* faces of the tensor: a negative origin handed to
        NumPy as a slice start would count from the end."""
        on_tensor, on_tile = [], []
        for origin, extent, dim in zip(
            spec.base, spec.shape, spec.global_buffer.shape
        ):
            start = int(interp.eval(origin, env))
            lo, hi = max(start, 0), min(start + extent, dim)
            if lo >= hi:
                return None
            on_tensor.append(slice(lo, hi))
            on_tile.append(slice(lo - start, hi - start))
        return tuple(on_tensor), tuple(on_tile)


def _compare_buffers(
    got: Dict[Buffer, np.ndarray],
    want: Dict[Buffer, np.ndarray],
    phase: str,
) -> None:
    for buf, arr in want.items():
        other = got.get(buf)
        if other is None or other.tobytes() != arr.tobytes():
            raise VerifyMismatch(
                f"vector/scalar mismatch in {buf.name} after {phase}"
            )

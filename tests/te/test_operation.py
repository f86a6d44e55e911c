"""Tensor-expression DSL: placeholders, computes, reductions."""

import gc

import pytest

from repro import te
from repro.tir import BufferLoad


def _live_tensors() -> int:
    gc.collect()
    return sum(isinstance(o, te.Tensor) for o in gc.get_objects())


class TestPlaceholder:
    def test_shape_dtype_name(self):
        A = te.placeholder((4, 8), "float32", "A")
        assert A.shape == (4, 8)
        assert A.dtype == "float32"
        assert A.name == "A"
        assert repr(A) == "Tensor(A: float32[4x8])"

    def test_auto_name(self):
        A = te.placeholder((4,))
        assert A.name

    def test_indexing_builds_load(self):
        A = te.placeholder((4, 8), "float32", "A")
        load = A[1, 2]
        assert isinstance(load, BufferLoad)
        assert load.buffer is A.buffer

    def test_indexing_arity_checked(self):
        A = te.placeholder((4, 8), "float32", "A")
        with pytest.raises(ValueError):
            A[1]

    def test_indexing_with_itervar(self):
        A = te.placeholder((4,), "float32", "A")
        k = te.reduce_axis(4, "k")
        load = A[k]
        assert load.indices[0] is k.var


class TestCompute:
    def test_elementwise(self):
        A = te.placeholder((8,), "float32", "A")
        C = te.compute((8,), lambda i: A[i] + 1.0, "C")
        op = C.op
        assert not op.is_reduction
        assert len(op.axis) == 1
        assert C.shape == (8,)

    def test_multi_dim_axis_count(self):
        A = te.placeholder((4, 8), "float32", "A")
        C = te.compute((4, 8), lambda i, j: A[i, j] * 2.0, "C")
        assert len(C.op.axis) == 2

    def test_reduction(self):
        A = te.placeholder((4, 8), "float32", "A")
        k = te.reduce_axis(8, "k")
        C = te.compute((4,), lambda i: te.sum(A[i, k], axis=k), "C")
        assert C.op.is_reduction
        assert C.op.combiner == "add"
        assert C.op.reduce_axis[0] is k

    def test_max_reduce(self):
        A = te.placeholder((8,), "float32", "A")
        k = te.reduce_axis(8, "k")
        C = te.compute((1,), lambda i: te.max_reduce(A[k], axis=k), "C")
        assert C.op.combiner == "max"

    def test_min_reduce(self):
        A = te.placeholder((8,), "float32", "A")
        k = te.reduce_axis(8, "k")
        C = te.compute((1,), lambda i: te.min_reduce(A[k], axis=k), "C")
        assert C.op.combiner == "min"

    def test_reduce_requires_reduce_axis(self):
        A = te.placeholder((8,), "float32", "A")
        spatial = te.operation.IterVar(8, "i", "spatial")
        with pytest.raises(ValueError):
            te.sum(A[spatial], axis=spatial)

    def test_input_buffers_deduplicated(self):
        A = te.placeholder((8,), "float32", "A")
        B = te.placeholder((8,), "float32", "B")
        C = te.compute((8,), lambda i: A[i] + B[i] + A[i], "C")
        assert C.op.input_buffers() == [A.buffer, B.buffer]

    def test_output_shape_from_axis(self):
        C = te.compute((3, 5), lambda i, j: i + j, "C", dtype="int32")
        assert C.op.tensor.shape == (3, 5)


class TestIterVar:
    def test_reduce_axis_kind(self):
        k = te.reduce_axis(16, "k")
        assert k.is_reduce
        assert k.extent == 16

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            te.operation.IterVar(4, "x", "banana")

    def test_identity_value(self):
        from repro.te.operation import identity_value
        from repro.tir import FloatImm, IntImm

        assert isinstance(identity_value("add", "float32"), FloatImm)
        assert identity_value("add", "int32").value == 0
        assert identity_value("max", "float32").value < 0
        assert identity_value("min", "float32").value > 0
        assert identity_value("min", "int32").value == 2**31 - 1
        with pytest.raises(ValueError):
            identity_value("xor", "int32")

    def test_producers_registry(self):
        """A declared tensor is its buffer's producer; that is the whole
        registry (there is no process-wide one to grow)."""
        C = te.compute((4,), lambda i: i, "Creg", dtype="int32")
        assert C.buffer.producer is C
        assert not hasattr(te.operation, "PRODUCERS")

    def test_registry_does_not_grow_with_scheduling(self):
        """Caches and rfactor stages belong to their schedule: building
        candidate after candidate must leave no tensor behind (a
        process-wide registry used to keep ~4 kB per candidate)."""
        from repro.autotune.sketch import generate_schedule
        from repro.workloads import mtv

        wl = mtv(64, 64)
        params = {"m_dpus": 4, "k_dpus": 2, "n_tasklets": 2, "cache": 16}
        generate_schedule(wl, params)  # warm any lazy one-time state
        before = _live_tensors()
        for _ in range(3):
            generate_schedule(wl, params)
        assert _live_tensors() == before

    def test_dropped_declarations_are_collected(self):
        """A server that declares workloads in a loop must not leak: the
        producer lives exactly as long as something loads its buffer."""
        before = _live_tensors()
        for n in range(1000):
            A = te.placeholder((8,), "float32", f"A{n}")
            te.compute((8,), lambda i: A[i] + 1.0, f"C{n}")
        del A
        assert _live_tensors() == before

    def test_schedule_finds_a_producer_whose_handle_was_dropped(self):
        from repro.schedule import Schedule

        A = te.placeholder((8,), "float32", "A")
        B = te.compute((8,), lambda i: A[i] * 2.0, "B")
        C = te.compute((8,), lambda i: B[i] + 1.0, "C")
        b_buffer = B.buffer
        del A, B
        gc.collect()
        sch = Schedule(C)
        assert [s.op.name for s in sch.stages] == ["A", "B", "C"]
        assert sch[b_buffer].op.name == "B"

"""Schedule primitives: split/fuse/reorder/bind and their error paths."""

import pytest

from repro import te
from repro.schedule import Schedule, ScheduleError


def make_matvec(m=64, k=32):
    A = te.placeholder((m, k), "float32", "A")
    B = te.placeholder((k,), "float32", "B")
    kk = te.reduce_axis(k, "k")
    C = te.compute((m,), lambda i: te.sum(A[i, kk] * B[kk], axis=kk), "C")
    return A, B, C


class TestSplit:
    def test_split_factor_extents(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        outer, inner = s.split(s.op.axis[0], factor=16)
        assert outer.extent == 4 and inner.extent == 16

    def test_split_nparts_extents(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        outer, inner = s.split(s.op.axis[0], nparts=4)
        assert outer.extent == 4 and inner.extent == 16

    def test_imperfect_split_rounds_up(self):
        A = te.placeholder((10,), "float32", "A")
        C = te.compute((10,), lambda i: A[i], "C")
        s = Schedule(C)[C]
        outer, inner = s.split(s.op.axis[0], factor=4)
        assert outer.extent == 3 and inner.extent == 4

    def test_split_replaces_leaf(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        i = s.op.axis[0]
        outer, inner = s.split(i, factor=16)
        assert i not in s.leaf_iter_vars
        assert s.leaf_iter_vars.index(inner) == s.leaf_iter_vars.index(outer) + 1

    def test_split_requires_one_of_factor_nparts(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        with pytest.raises(ScheduleError):
            s.split(s.op.axis[0])
        with pytest.raises(ScheduleError):
            s.split(s.op.axis[0], factor=2, nparts=2)

    def test_split_non_leaf_rejected(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        i = s.op.axis[0]
        s.split(i, factor=16)
        with pytest.raises(ScheduleError):
            s.split(i, factor=2)

    def test_split_nonpositive_factor(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        with pytest.raises(ScheduleError):
            s.split(s.op.axis[0], factor=0)

    def test_split_preserves_kind(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        ko, ki = s.split(s.op.reduce_axis[0], factor=8)
        assert ko.is_reduce and ki.is_reduce


class TestFuseReorder:
    def test_fuse_extent(self):
        A = te.placeholder((4, 8), "float32", "A")
        C = te.compute((4, 8), lambda i, j: A[i, j], "C")
        s = Schedule(C)[C]
        f = s.fuse(*s.op.axis)
        assert f.extent == 32
        assert s.leaf_iter_vars == [f]

    def test_fuse_requires_adjacent(self):
        A = te.placeholder((4, 8, 2), "float32", "A")
        C = te.compute((4, 8, 2), lambda i, j, k: A[i, j, k], "C")
        s = Schedule(C)[C]
        i, j, k = s.op.axis
        with pytest.raises(ScheduleError):
            s.fuse(i, k)

    def test_fused_axis_keeps_its_kind(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        io, ii = s.split(s.op.axis[0], factor=8)
        ko, ki = s.split(s.op.reduce_axis[0], factor=8)
        spatial = s.fuse(io, ii)
        reduce = s.fuse(ko, ki)
        assert not s.leaf_is_reduce(spatial)
        assert s.leaf_is_reduce(reduce)

    def test_fuse_mixed_kinds_rejected(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        with pytest.raises(ScheduleError):
            s.fuse(s.op.axis[0], s.op.reduce_axis[0])

    def test_reorder(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        i = s.op.axis[0]
        k = s.op.reduce_axis[0]
        s.reorder(k, i)
        assert s.leaf_iter_vars == [k, i]

    def test_reorder_partial_keeps_positions(self):
        A = te.placeholder((4, 8, 2), "float32", "A")
        C = te.compute((4, 8, 2), lambda i, j, k: A[i, j, k], "C")
        s = Schedule(C)[C]
        i, j, k = s.op.axis
        s.reorder(k, i)  # swap i and k, j stays in the middle
        assert s.leaf_iter_vars == [k, j, i]

    def test_reorder_duplicates_rejected(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        i = s.op.axis[0]
        with pytest.raises(ScheduleError):
            s.reorder(i, i)


class TestBindAnnotate:
    def test_bind(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        i = s.op.axis[0]
        s.bind(i, "blockIdx.x")
        assert s.binds[i] == "blockIdx.x"

    def test_bind_unknown_tag(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        with pytest.raises(ScheduleError):
            s.bind(s.op.axis[0], "warpIdx.x")

    def test_double_bind_same_tag_rejected(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        io, ii = s.split(s.op.axis[0], factor=8)
        s.bind(io, "blockIdx.x")
        with pytest.raises(ScheduleError):
            s.bind(ii, "blockIdx.x")

    def test_unroll_parallel_annotations(self):
        _, _, C = make_matvec()
        s = Schedule(C)[C]
        io, ii = s.split(s.op.axis[0], factor=8)
        s.unroll(ii)
        s.parallel(io)
        assert s.annotations[ii] == "unroll"
        assert s.annotations[io] == "parallel"


class TestScheduleGraph:
    def test_stage_lookup(self):
        A, B, C = make_matvec()
        sch = Schedule(C)
        assert sch[C].op is C.op
        assert sch[A].kind == "placeholder"

    def test_stage_order_topological(self):
        A, B, C = make_matvec()
        sch = Schedule(C)
        names = [s.name for s in sch.stages]
        assert names.index("A") < names.index("C")
        assert names.index("B") < names.index("C")

    def test_shared_producer_staged_once(self):
        A = te.placeholder((8,), "float32", "A")
        B = te.compute((8,), lambda i: A[i] * 2.0, "B")
        C = te.compute((8,), lambda i: A[i] + 1.0, "C")
        D = te.compute((8,), lambda i: B[i] + C[i], "D")
        names = [s.name for s in Schedule(D).stages]
        assert sorted(names) == ["A", "B", "C", "D"]
        assert names.index("A") < names.index("B") < names.index("D")

    def test_unknown_buffer_rejected(self):
        _, _, C = make_matvec()
        sch = Schedule(C)
        other = te.placeholder((4,), "float32", "other")
        with pytest.raises(ScheduleError):
            sch[other]

    def test_compute_stages(self):
        _, _, C = make_matvec()
        sch = Schedule(C)
        assert [s.name for s in sch.stages if s.kind == "compute"] == ["C"]

"""UPMEM-C emission from lowered modules."""

import repro
from repro.upmem.emitter import emit_host_pseudocode, emit_kernel_c

from ..conftest import make_mtv_schedule


def module_for(m=64, k=64, level="O3", **kwargs):
    sch = make_mtv_schedule(m, k, **kwargs)
    return repro.compile(sch, opt_level=level).lowered


class TestKernelEmission:
    def test_contains_headers_and_main(self):
        code = emit_kernel_c(module_for())
        assert "#include <mram.h>" in code
        assert "int main(void)" in code

    def test_mram_tiles_declared(self):
        code = emit_kernel_c(module_for())
        assert "__mram_noinit" in code
        assert "A_mram" in code and "C_mram" in code

    def test_wram_buffers_declared_dma_aligned(self):
        code = emit_kernel_c(module_for())
        assert "__dma_aligned" in code

    def test_tasklet_dispatch_uses_me(self):
        code = emit_kernel_c(module_for(n_tasklets=2))
        assert "me()" in code

    def test_dma_intrinsics_present_at_o1_plus(self):
        code = emit_kernel_c(module_for(level="O1"))
        assert "mram_read(" in code
        assert "mram_write(" in code

    def test_no_dma_intrinsics_at_o0(self):
        code = emit_kernel_c(module_for(level="O0"))
        assert "mram_read(" not in code

    def test_boundary_checks_visible_at_o0(self):
        code = emit_kernel_c(module_for(37, 50, level="O0"))
        assert "if (" in code

    def test_barrier_for_multi_stage_kernels(self):
        from repro.autotune.compile import default_engine
        from repro.workloads import red

        module = default_engine().compile(
            red(4096),
            {"n_dpus": 4, "n_tasklets": 2, "cache": 16, "dpu_combine": 1,
             "host_threads": 1},
        ).module
        assert "barrier_wait" in emit_kernel_c(module)


class TestHostEmission:
    def test_alloc_launch_and_transfers(self):
        text = emit_host_pseudocode(module_for())
        assert "dpu_alloc(4" in text
        assert "dpu_launch" in text
        assert "DPU_XFER_FROM_DPU" in text

    def test_host_reduction_rendered(self):
        text = emit_host_pseudocode(module_for(64, 64, k_dpus=2))
        assert "host final reduction" in text

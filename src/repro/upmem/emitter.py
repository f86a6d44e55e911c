"""UPMEM-C code emission from lowered kernels.

Renders the kernel TIR of a :class:`LoweredModule` as the C a UPMEM DPU
program would contain (``dpu-upmem-dpurte-clang`` dialect): tasklet
dispatch via ``me()``, ``__mram_noinit`` tile declarations, WRAM buffers,
``mram_read``/``mram_write`` DMA intrinsics and ``barrier_wait``.  The
output is for inspection and documentation — execution happens in the
simulator — but it makes the generated code reviewable side by side with
PrIM kernels.
"""

from __future__ import annotations

from typing import List

from ..lowering import LoweredModule
from ..tir import (
    Barrier,
    Buffer,
    BufferStore,
    DmaCopy,
    For,
    ForKind,
    IfThenElse,
    SeqStmt,
    Stmt,
    expr_to_str,
    stmt_to_str,
)

__all__ = ["emit_kernel_c", "emit_host_pseudocode"]

def _cname(name: str) -> str:
    """Sanitize a buffer name into a C identifier."""
    return name.replace(".", "_").replace("-", "_")


_C_TYPES = {
    "float32": "float",
    "float64": "double",
    "int32": "int32_t",
    "int64": "int64_t",
    "int8": "int8_t",
    "bool": "uint8_t",
}


def _ctype(buffer: Buffer) -> str:
    return _C_TYPES.get(buffer.dtype, "float")


def _decl(buffer: Buffer) -> str:
    dims = "".join(f"[{d}]" for d in buffer.shape)
    if buffer.scope == "mram":
        return f"__mram_noinit {_ctype(buffer)} {_cname(buffer.name)}{dims};"
    # The kernel declares MRAM tiles and WRAM buffers only.
    return f"__dma_aligned {_ctype(buffer)} {_cname(buffer.name)}{dims};"


def _flat(buffer: Buffer, indices) -> str:
    return "".join(f"[{expr_to_str(i)}]" for i in indices)


class _CEmitter:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def put(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def emit(self, stmt: Stmt) -> None:
        if isinstance(stmt, SeqStmt):
            for s in stmt.stmts:
                self.emit(s)
        elif isinstance(stmt, For):
            if stmt.kind is ForKind.THREAD_BINDING:
                self.put(f"// tasklet loop: {stmt.var.name} = me()")
                self.put(f"unsigned int {stmt.var.name} = me();")
                self.put(
                    f"if ({stmt.var.name} < {expr_to_str(stmt.extent)}) {{"
                )
            else:
                note = (
                    "  // #pragma unroll"
                    if stmt.kind is ForKind.UNROLLED
                    else ""
                )
                self.put(
                    f"for (int {stmt.var.name} = 0; {stmt.var.name} < "
                    f"{expr_to_str(stmt.extent)}; {stmt.var.name}++) {{{note}"
                )
            self.indent += 1
            self.emit(stmt.body)
            self.indent -= 1
            self.put("}")
        elif isinstance(stmt, IfThenElse):
            self.put(f"if ({expr_to_str(stmt.condition)}) {{")
            self.indent += 1
            self.emit(stmt.then_case)
            self.indent -= 1
            self.put("}")
        elif isinstance(stmt, BufferStore):
            lhs = f"{_cname(stmt.buffer.name)}{_flat(stmt.buffer, stmt.indices)}"
            self.put(f"{lhs} = {expr_to_str(stmt.value)};")
        elif isinstance(stmt, DmaCopy):
            nbytes = stmt.nbytes
            dst = f"&{_cname(stmt.dst.name)}{_flat(stmt.dst, stmt.dst_base)}"
            src = f"&{_cname(stmt.src.name)}{_flat(stmt.src, stmt.src_base)}"
            if stmt.dst.scope == "wram":
                self.put(
                    f"mram_read((__mram_ptr void *){src}, {dst}, {nbytes});"
                )
            else:
                self.put(
                    f"mram_write({src}, (__mram_ptr void *){dst}, {nbytes});"
                )
        elif isinstance(stmt, Barrier):
            self.put("barrier_wait(&my_barrier);")
        else:
            raise TypeError(f"cannot emit {type(stmt).__name__}")


def emit_kernel_c(module: LoweredModule) -> str:
    """Render the DPU kernel of ``module`` as UPMEM C."""
    em = _CEmitter()
    em.put("#include <mram.h>")
    em.put("#include <defs.h>")
    em.put("#include <barrier.h>")
    em.put("")
    em.put(f"// kernel: {module.name}  (grid = "
           + " x ".join(f"{d.tag}:{d.extent}" for d in module.grid) + ")")
    em.put("BARRIER_INIT(my_barrier, NR_TASKLETS);")
    em.put("")
    declared = set()
    for spec in module.transfers:
        if spec.local_buffer not in declared:
            em.put(_decl(spec.local_buffer))
            declared.add(spec.local_buffer)
    for buf in module.mram_internal:
        em.put(_decl(buf))
    em.put("")
    em.put("int main(void) {")
    em.indent += 1
    for dim in module.grid:
        em.put(f"const unsigned int {dim.var.name} = DPU_INDEX_{dim.tag[-1].upper()};")
    for buf in module.wram_buffers:
        em.put(_decl(buf))
    em.emit(module.kernel)
    em.put("return 0;")
    em.indent -= 1
    em.put("}")
    return "\n".join(em.lines)


def emit_host_pseudocode(module: LoweredModule) -> str:
    """Render the host side: allocation, transfers, launch, reduction."""
    lines = [f"// host program for {module.name}"]
    lines.append(f"dpu_alloc({module.n_dpus}, &set);")
    lines.append('dpu_load(set, "kernel.bin");')
    for spec in module.transfer("h2d"):
        fn = (
            "dpu_push_xfer(DPU_XFER_TO_DPU"
            if module.options.transfer_mode == "parallel"
            else "dpu_copy_to"
        )
        lines.append(
            f"{fn}, {spec.global_buffer.name} -> {spec.local_buffer.name}"
            f" tile{spec.shape});"
        )
    lines.append("dpu_launch(set, DPU_SYNCHRONOUS);")
    for spec in module.transfer("d2h"):
        lines.append(
            f"dpu_push_xfer(DPU_XFER_FROM_DPU, {spec.local_buffer.name}"
            f" tile{spec.shape} -> {spec.global_buffer.name});"
        )
    for stmt in module.host_post:
        lines.append("// host final reduction:")
        lines.extend(stmt_to_str(stmt).splitlines())
    return "\n".join(lines)

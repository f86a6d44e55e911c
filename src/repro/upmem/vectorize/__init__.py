"""TIR -> NumPy compiler: vectorized functional execution of lowered modules.

Compiles a :class:`LoweredModule`'s kernel and host statements *once* into
a tree of closure-based ops that execute all DPU grid points of a chunk as
one batched "lane" axis — one lane per grid point — instead of re-walking
the AST per point.  The compiled program is **bit-for-bit identical** to
the scalar interpreter's reference semantics (:mod:`repro.upmem.interp`);
``REPRO_SIM_MODE=verify`` checks it on every call.

It compiles every node kind of :mod:`repro.tir`, which holds exactly what
the lowering emits, and has one path.  A kernel outside the model — one
that loads, stores or DMAs a host tensor, which a DPU cannot address and
no lowering emits — raises :class:`VectorizeError` when its plan is
built; only ``REPRO_SIM_MODE=scalar`` runs such a module.

The modules, lowest first (``tests/test_layering.py`` holds the order):

* :mod:`.expr` — the expression compiler, weak-number rules, block and
  checked access forms;
* :mod:`.staging` — kernel normalisation, TIR -> TIR: read through WRAM
  staging, fold the block loop;
* :mod:`.ops` — the statement ops, the reduction fold, the statement
  compiler;
* :mod:`.plan` — :class:`KernelPlan`, its chunk table and placements;
* :mod:`.host` — :class:`HostProgram` and the plan cache.
"""

from .expr import VectorizeError
from .host import HostProgram, host_program_for, plan_for
from .plan import KernelPlan

__all__ = [
    "VectorizeError",
    "KernelPlan",
    "HostProgram",
    "plan_for",
    "host_program_for",
]

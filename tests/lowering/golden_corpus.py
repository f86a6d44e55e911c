"""Golden lowering corpus: seeded (workload, params) draws and their digests.

``golden_lowering.json`` pins, for every draw, the sha256 of the whole
lowered module's text at O0 and O3 — or the rejection, if the sketch or
the lowering refuses the draw.  Regenerate (only when lowering is *meant*
to change) with::

    PYTHONPATH=src python -m tests.lowering.golden_corpus
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, Iterator, List, Tuple

import repro
from repro import te
from repro.autotune.sketch import generate_schedule, param_space
from repro.lowering import LoweredModule, LoweringError
from repro.schedule import Schedule, ScheduleError
from repro.tir import expr_to_str, stmt_to_str
from repro.workloads import tensor_ops

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_lowering.json")
DRAWS_PER_FAMILY = 24
LEVELS = ("O0", "O3")
FAMILIES = ("va", "geva", "red", "mtv", "gemv", "ttv", "mmtv")
#: Defective schedules lowering must keep refusing, with the same message.
DEFECTS = ("unbound", "unattached_cache", "fused_dpu", "inner_blockidx")
DRAWS_PER_DEFECT = 5


def _draw_shape(family: str, rng: random.Random) -> Tuple[int, ...]:
    """Half the draws are powers of two, half are misaligned."""
    aligned = rng.random() < 0.5
    if family in ("va", "geva", "red"):
        if aligned:
            return (1 << rng.randint(13, 24),)
        return (rng.randint(5000, 3_000_000),)
    if family in ("mtv", "gemv"):
        if aligned:
            return (1 << rng.randint(6, 13), 1 << rng.randint(6, 13))
        return (rng.randint(33, 5000), rng.randint(65, 5000))
    if aligned:
        return (1 << rng.randint(3, 8), 1 << rng.randint(4, 9), 1 << rng.randint(6, 9))
    return (rng.randint(3, 200), rng.randint(5, 300), rng.randint(64, 700))


def draws() -> Iterator[Tuple[str, str, Tuple[int, ...], Dict[str, int]]]:
    """``(draw_id, family, shape, params)`` for the whole corpus."""
    for f_idx, family in enumerate(FAMILIES):
        for i in range(DRAWS_PER_FAMILY):
            rng = random.Random(1000 * f_idx + i)
            shape = _draw_shape(family, rng)
            workload = getattr(tensor_ops, family)(*shape)
            space = param_space(workload)
            params = {name: rng.choice(domain) for name, domain in space.items()}
            if "k_dpus" in space:
                # alternate the plain and rfactor subspaces
                factored = [k for k in space["k_dpus"] if k > 1]
                params["k_dpus"] = rng.choice(factored) if i % 2 and factored else 1
            yield f"{family}-{i:02d}", family, shape, params


def defective_schedule(defect: str, h: int, w: int) -> Schedule:
    """A 2-D elementwise schedule with one deliberate ``defect``."""
    A = te.placeholder((h, w), "float32", "A")
    C = te.compute((h, w), lambda i, j: A[i, j] + 1.0, "C")
    sch = Schedule(C)
    s = sch[C]
    i, j = s.op.axis
    if defect == "unbound":
        s.split(i, nparts=4)
    elif defect == "unattached_cache":
        io, _ = s.split(i, nparts=4)
        s.bind(io, "blockIdx.x")
        sch.cache_read(C, A, "wram")  # never compute_at'ed
    elif defect == "fused_dpu":
        # the fused tile straddles rows: no rectangular MRAM tile
        f_dpu, _ = s.split(s.fuse(i, j), nparts=4)
        s.bind(f_dpu, "blockIdx.x")
    elif defect == "inner_blockidx":
        io, ii = s.split(i, nparts=4)
        jo, _ = s.split(j, nparts=2)
        s.reorder(io, ii, jo)
        s.bind(io, "blockIdx.x")
        s.bind(jo, "blockIdx.y")
    else:
        raise KeyError(defect)
    return sch


def defect_draws() -> Iterator[Tuple[str, str, Tuple[int, int]]]:
    """``(draw_id, defect, shape)`` for the schedules lowering must reject."""
    for d_idx, defect in enumerate(DEFECTS):
        for i in range(DRAWS_PER_DEFECT):
            rng = random.Random(9000 + 100 * d_idx + i)
            yield f"{defect}-{i}", defect, (rng.randint(5, 90), rng.randint(6, 200))


def module_text(module: LoweredModule) -> str:
    """Everything lowering decides, rendered as text."""
    lines: List[str] = [
        "grid " + " ".join(f"{d.tag}:{d.var.name}={d.extent}" for d in module.grid),
        f"tasklets {module.n_tasklets} host_threads {module.host_parallel_threads}",
    ]
    for t in module.transfers:
        base = ", ".join(expr_to_str(b) for b in t.base)
        lines.append(
            f"{t.direction} {t.global_buffer.name} -> {t.local_buffer.name}"
            f" [{base}] {t.shape}"
        )
    for buf in module.mram_internal:
        lines.append(f"mram {buf.name} {tuple(buf.shape)}")
    for buf in module.wram_buffers:
        lines.append(
            f"wram {buf.name} {tuple(buf.shape)}"
            f" per_tasklet={module.wram_per_tasklet.get(buf, False)}"
        )
    for label, stmts in (("host_pre", module.host_pre), ("host_post", module.host_post)):
        for s in stmts:
            lines.append(f"{label}:\n{stmt_to_str(s)}")
    lines.append("kernel:\n" + stmt_to_str(module.kernel))
    return "\n".join(lines)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def lower_draw(make_schedule, name: str) -> Dict[str, str]:
    """``{"O0": sha, "O3": sha}`` or ``{"rejected": "<Type>:<sha of message>"}``."""
    entry: Dict[str, str] = {}
    for level in LEVELS:
        try:
            module = repro.compile(
                make_schedule(), name=name, opt_level=level
            ).lowered
        except (ScheduleError, LoweringError) as exc:
            return {"rejected": f"{type(exc).__name__}:{_sha(str(exc))}"}
        entry[level] = _sha(module_text(module))
    return entry


def compute_corpus() -> Dict[str, Dict]:
    corpus: Dict[str, Dict] = {}
    for draw_id, family, shape, params in draws():
        workload = getattr(tensor_ops, family)(*shape)
        corpus[draw_id] = {
            "shape": list(shape),
            "params": params,
            **lower_draw(lambda: generate_schedule(workload, params), family),
        }
    for draw_id, defect, shape in defect_draws():
        corpus[draw_id] = {
            "shape": list(shape),
            **lower_draw(lambda: defective_schedule(defect, *shape), defect),
        }
    return corpus


if __name__ == "__main__":
    corpus = compute_corpus()
    with open(FIXTURE, "w") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")
    rejected = sum("rejected" in e for e in corpus.values())
    print(f"wrote {len(corpus)} draws ({rejected} rejected) to {FIXTURE}")

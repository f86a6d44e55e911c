"""Shared fixtures for the model-graph tests.

The tiny GPT-J configuration keeps functional simulation cheap (the
whole decode step is a few ms of host time) while preserving the real
graph topology: ``n_heads * head_dim == d_model``, the fused QKV/FC-up
MTV and the fused projections, per-head attention, the softmax and
residual host epilogues and the GELU host prologue.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro
from repro import te
from repro.graph import ModelGraph, gptj_model_graph, small_grid_params
from repro.workloads import GPTJConfig, Workload, fc_mtv, mtv, va
from repro.graph.builder import _residual
from repro.workloads.tensor_ops import _read_instead

from ..upmem.test_host_prologues import _gelu_np, _gelu_te, _prologued

TINY = GPTJConfig("gptj-tiny", n_heads=2, d_model=32, head_dim=16)


@pytest.fixture
def tiny_config() -> GPTJConfig:
    return TINY


@pytest.fixture
def tiny_decoder() -> ModelGraph:
    """One decoder layer's decode step over 4 cache positions."""
    return gptj_model_graph(TINY, layers=1, capacity=4)


def chain_graph() -> ModelGraph:
    """x -> mtv -> va(+x2) -> mtv -> y: a minimal multi-buffer chain."""
    g = ModelGraph("chain")
    g.add_input("x", (16,))
    g.add_input("x2", (16,))
    g.add_input("w1", (16, 16), const=True)
    g.add_input("w2", (16, 16), const=True)
    small = {
        "m_dpus": 4, "k_dpus": 1, "n_tasklets": 2, "cache": 16,
        "host_threads": 1, "unroll": 0,
    }
    vsmall = {"n_dpus": 2, "n_tasklets": 2, "cache": 16, "unroll": 0}
    g.add_node("h1", mtv(16, 16), {"A": "w1", "B": "x"}, "t1", params=small)
    g.add_node("add", va(16), {"A": "t1", "B": "x2"}, "t2", params=vsmall)
    g.add_node("h2", mtv(16, 16), {"A": "w2", "B": "t2"}, "y", params=small)
    return g


# -- the glue the builders emitted before it became host epilogues ----------


def host_glue(in_shapes, out_shape, flops: float) -> Workload:
    """A host-only glue workload as the builders emitted one: NumPy
    semantics, a placeholder output, no sketch."""
    inputs = [
        te.placeholder(shape, "float32", f"I{n}")
        for n, shape in enumerate(in_shapes)
    ]
    return Workload(
        name="glue", inputs=inputs,
        output=te.placeholder(tuple(out_shape), "float32", "C"),
        reference=lambda *arrays: arrays[0], flops=flops,
        shape=tuple(out_shape),
    )


def cpu_line_s(workload: Workload) -> float:
    """The compute line the cpu target charges for ``workload``."""
    return repro.compile(workload, target="cpu").profile().latency.total


def removed_glue_s(config: GPTJConfig, span: int) -> float:
    """Per layer, what the cpu target charged for the four glue nodes
    that became host epilogues: the masked softmax, GELU and the two
    residual adds."""
    d, heads = config.d_model, config.n_heads
    softmax = host_glue(
        [(heads, span), (span,)], (heads, span), 6.0 * heads * span
    )
    gelu = host_glue([(4 * d,)], (4 * d,), 8.0 * 4 * d)
    return cpu_line_s(softmax) + cpu_line_s(gelu) + 2 * cpu_line_s(va(d))


def base_of(workload: Workload) -> Workload:
    """The program a host-epilogue or host-prologue workload fuses into
    (itself when it has neither): its kernel over placeholders in the
    place of its kernel inputs, for pricing only."""
    output = workload.kernel_output
    inputs = []
    for tensor in workload.kernel_inputs:
        if tensor in workload.prologues.values():
            fresh = te.placeholder(tensor.shape, tensor.dtype, tensor.name)
            output = _read_instead(output, tensor, fresh)
            tensor = fresh
        inputs.append(tensor)
    return replace(
        workload, inputs=inputs, output=output, kernel_output=None,
        prologues={},
    )


def epilogue_lines_s(exe) -> dict:
    """Per node of a compiled graph, the compute its host epilogue and
    prologue add:
    the node's compute line minus its base program's, compiled for the
    same target with the same params (0 for a node without one)."""
    gained = {}
    for cost, node in zip(exe.profile().nodes, exe.graph.topological_order()):
        base = base_of(node.workload)
        if base.output is node.workload.output:
            gained[node.name] = 0.0
            continue
        lat = repro.compile(
            base, target=exe.placement[node.name], params=node.params,
        ).profile().latency
        line = lat.total if cost.target == "cpu" else lat.launch + lat.kernel + lat.host
        gained[node.name] = cost.compute_s - line
    return gained


def _line_deltas_s(before, after, policy: str) -> dict:
    """Per line, what program ``after`` saves over the ``before``
    programs it replaced, each a ``(workload, tag)`` or ``(workload,
    tag, params)`` compiled standalone at those params (by default its
    small grid) on the side its tag places it under ``policy``, as the
    graph prices it: compute, the H2D share of what crosses (every
    non-const tensor on the DPUs) and the D2H of an output that leaves
    (all of them do)."""

    def lines(workload, tag, params=None):
        if policy == "cpu" or (policy == "mixed" and tag == "ffn"):
            lat = repro.compile(workload, target="cpu").profile().latency
            return {"cpu": lat.total}
        exe = repro.compile(
            workload, params=params or small_grid_params(workload)
        )
        lat = exe.profile().latency
        h2d = [s.global_buffer for s in exe.lowered.transfer("h2d")]
        crossing = sum(
            b.nbytes for b in h2d if b.name not in workload.const_inputs
        )
        return {
            "launch": lat.launch, "kernel": lat.kernel, "host": lat.host,
            "d2h": lat.d2h,
            "h2d": lat.h2d * crossing / sum(b.nbytes for b in h2d),
        }

    old = [lines(*program) for program in before]
    new = lines(*after)
    keys = {key for line in old + [new] for key in line}
    return {
        key: sum(line.get(key, 0.0) for line in old) - new.get(key, 0.0)
        for key in sorted(keys)
    }


def fused_line_deltas_s(config: GPTJConfig, policy: str) -> dict:
    """Per layer, what one ``qkv_fc`` program saves over the separate
    ``qkv_gen`` and ``fc`` programs it replaced, by line
    (``qkv_gen`` and ``qkv_fc`` are ``attn``, ``fc`` was ``ffn``).
    GELU's host line is no term: it moved from ``fc``'s epilogue to
    ``fc_proj``'s prologue at the same price."""
    d = config.d_model
    return _line_deltas_s(
        [(fc_mtv(config, "qkv_gen"), "attn"), (fc_mtv(config, "fc"), "ffn")],
        (mtv(7 * d, d), "attn"),
        policy,
    )


def proj_line_deltas_s(
    config: GPTJConfig, policy: str, glue: bool = True
) -> dict:
    """Per layer, what one ``proj`` program saves over the separate
    ``attn_proj`` (``attn``: the attention projection and the first
    residual add) and ``fc_proj`` (``ffn``: GELU, the FC projection and
    the second residual add) programs it replaced, by line; with
    ``glue=False``, what their base programs (:func:`base_of`: no host
    epilogue or prologue) save, the term left once each node's glue
    lines (:func:`epilogue_lines_s`) are counted apart.  ``fc_proj``
    runs at the grid it was pinned to, 64 row DPUs by its 8-way split
    (a split grid holds at most 256 DPUs since)."""
    d = config.d_model
    pick = (lambda w: w) if glue else base_of
    gelu = _prologued(
        fc_mtv(config, "fc_proj"), _gelu_te, _gelu_np, 8.0 * 4 * d
    )
    fc_proj = pick(_residual(gelu))
    rows = min(64, config.d_model)
    proj = next(
        node.workload for node in gptj_model_graph(config, 1, 4).nodes
        if node.name == "L0.proj"
    )
    return _line_deltas_s(
        [
            (pick(_residual(fc_mtv(config, "qkv_proj"))), "attn"),
            (fc_proj, "ffn", {**small_grid_params(fc_proj), "m_dpus": rows}),
        ],
        (pick(proj), "attn"),
        policy,
    )

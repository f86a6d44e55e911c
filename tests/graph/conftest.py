"""Shared fixtures for the model-graph tests.

The tiny GPT-J configuration keeps functional simulation cheap (the
whole decode step is a few ms of host time) while preserving the real
graph topology: ``n_heads * head_dim == d_model``, the fused QKV/FC-up
MTV and the two projections, per-head attention, the softmax and
residual host epilogues and the GELU host prologue.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro
from repro import te
from repro.graph import ModelGraph, gptj_model_graph, small_grid_params
from repro.workloads import GPTJConfig, Workload, fc_mtv, mtv, va
from repro.workloads.tensor_ops import _read_instead

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


def fused_line_deltas_s(config: GPTJConfig, policy: str) -> dict:
    """Per layer, what one ``qkv_fc`` program saves over the separate
    ``qkv_gen`` and ``fc`` programs it replaced, by line: each of the
    three compiled standalone at its small grid on the side its tag
    places it under ``policy`` (``qkv_gen`` and ``qkv_fc`` are ``attn``,
    ``fc`` was ``ffn``), as the graph prices it — compute, the H2D
    share of the crossing hidden state and the D2H of an output that
    leaves (all three do).  GELU's host line is no term: it moved from
    ``fc``'s epilogue to ``fc_proj``'s prologue at the same price."""
    d = config.d_model
    qkv_fc = mtv(7 * d, d)

    def lines(workload, tag):
        if policy == "cpu" or (policy == "mixed" and tag == "ffn"):
            lat = repro.compile(workload, target="cpu").profile().latency
            return {"cpu": lat.total}
        lat = repro.compile(
            workload, params=small_grid_params(workload)
        ).profile().latency
        weight, x = (t.buffer.nbytes for t in workload.inputs)
        return {
            "launch": lat.launch, "kernel": lat.kernel, "host": lat.host,
            "d2h": lat.d2h, "h2d": lat.h2d * x / (weight + x),
        }

    before = [
        lines(fc_mtv(config, "qkv_gen"), "attn"),
        lines(fc_mtv(config, "fc"), "ffn"),
    ]
    after = lines(qkv_fc, "attn")
    keys = {key for line in before + [after] for key in line}
    return {
        key: sum(line.get(key, 0.0) for line in before) - after.get(key, 0.0)
        for key in sorted(keys)
    }

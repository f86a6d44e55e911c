"""Graph builders: the GPT-J decoder layer as a whole decode step.

One decode step of a GPT-J layer (batch 1, ``tokens`` cached positions)
built from the paper's shape helpers (:func:`repro.workloads.fc_shapes`
gives the four FC-layer MTVs; attention is the per-head MMTV family of
Fig. 10):

* ``qkv_gen``  — MTV (3d x d) producing the fused Q/K/V vector;
* per head ``h``: a glue slice extracting the head's query, the
  attention-score MMTV ``(1, tokens, head_dim)`` against the resident
  K cache, a scaled-softmax glue, and the value MTV ``(head_dim,
  tokens)`` against the (transposed) resident V cache;
* ``concat_heads`` glue, then ``attn_proj`` — MTV (d x d);
* the parallel GPT-J FF branch: ``fc`` — MTV (4d x d), ``gelu`` glue,
  ``fc_proj`` — MTV (d x 4d);
* two ``va`` residual adds folding attention and FF back into the
  stream (GPT-J's parallel block: ``y = x + attn + ff``; layer norms
  are omitted — they move no tensor the planner or the placement story
  cares about).

Weights and the KV cache enter the graph as *const* external inputs —
staged once per load, exactly like :attr:`Workload.const_inputs` in the
serving model.  Matrix-vector nodes carry pinned small-grid schedule
params by default (:func:`small_grid_params`): a decode step executes
every node functionally, and canonical max-parallelism grids cost
seconds of simulator *host* time per node without changing the
simulated-latency story.

``GPTJ_SIM`` is the scaled configuration the end-to-end experiment
defaults to — the real GPT-J 6B/30B configs build the same graph, but a
single 16384x4096 FC is minutes of functional simulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .. import te
from ..autotune.sketch import distributed_extents, fixed_params, pow2_upto
from ..workloads import GPTJConfig, Workload, fc_mtv, mmtv, mtv, va
from .ir import ModelGraph

__all__ = [
    "GPTJ_SIM",
    "small_grid_params",
    "gptj_decoder_graph",
    "gptj_model_graph",
]

#: Scaled GPT-J configuration for functional end-to-end runs: the same
#: graph topology as 6B (``n_heads * head_dim == d_model``), sized so a
#: full decode step simulates in seconds.
GPTJ_SIM = GPTJConfig("gptj-6b-sim", n_heads=4, d_model=128, head_dim=32)


def small_grid_params(
    workload: Workload, max_dpus: int = 64
) -> Dict[str, int]:
    """Pinned small-grid schedule params for one graph node.

    Keeps functional simulation cheap while leaving idle DPU groups for
    the serving layer to replicate batches across.  Simulated latency is
    unaffected by the host-side cost of the grid choice.  The default
    grid cap was 8 DPUs when every grid point was interpreted one at a
    time; the vectorized NumPy backend executes the whole grid as one
    lane axis, so suites now afford 64.

    The outer distributed axis gets up to ``max_dpus`` DPUs, a second
    one up to 2; 2 tasklets, a cache tile of up to 64 elements, no unroll.
    """
    dpus = [
        min(cap, pow2_upto(extent)[-1])
        for cap, extent in zip((max_dpus, 2), distributed_extents(workload))
    ]
    cache = min(64, pow2_upto(workload.shape[-1])[-1])
    return fixed_params(workload, dpus, n_tasklets=2, cache=cache, unroll=0)


def _glue(
    name: str,
    inputs: List[te.Tensor],
    out_shape,
    reference,
    flops: float,
    params: Optional[Dict[str, int]] = None,
) -> Workload:
    """A host-only glue workload: numpy reference semantics, placeholder
    output (no PIM sketch — the placement pass keeps it off the device).
    """
    out = te.placeholder(tuple(out_shape), "float32", "C")
    return Workload(
        name=name,
        inputs=inputs,
        output=out,
        reference=reference,
        flops=flops,
        shape=tuple(out_shape),
        params=dict(params or {}),
    )


def gptj_decoder_graph(
    config: GPTJConfig = GPTJ_SIM,
    tokens: int = 16,
    params: Optional[Dict[str, Dict[str, int]]] = None,
    pin_small_grids: bool = True,
) -> ModelGraph:
    """Build one GPT-J decoder-layer decode step as a :class:`ModelGraph`.

    ``params`` overrides the pinned schedule params per *node name*;
    ``pin_small_grids=False`` leaves matvec nodes unpinned so a tuned
    pool (``tuned=True`` + a tuning db) resolves their parameters.
    """
    if config.n_heads * config.head_dim != config.d_model:
        raise ValueError(
            f"{config.name}: n_heads*head_dim"
            f" ({config.n_heads}*{config.head_dim}) must equal d_model"
            f" ({config.d_model})"
        )
    d, hd, heads = config.d_model, config.head_dim, config.n_heads
    overrides = params or {}

    def node_params(node_name: str, wl: Workload) -> Optional[Dict[str, int]]:
        if node_name in overrides:
            return overrides[node_name]
        return small_grid_params(wl) if pin_small_grids else None

    g = ModelGraph(f"{config.name}-decoder-t{tokens}")
    g.add_input("x", (d,))
    g.add_input("w_qkv", (3 * d, d), const=True)
    g.add_input("w_proj", (d, d), const=True)
    g.add_input("w_fc", (4 * d, d), const=True)
    g.add_input("w_fc_proj", (d, 4 * d), const=True)
    for h in range(heads):
        g.add_input(f"k_cache_{h}", (1, tokens, hd), const=True)
        # V stored transposed so the value contraction is a plain MTV.
        g.add_input(f"v_cache_t_{h}", (hd, tokens), const=True)

    # -- attention branch ---------------------------------------------------
    qkv = fc_mtv(config, "qkv_gen")
    g.add_node(
        "qkv_gen", qkv, {"A": "w_qkv", "B": "x"}, "qkv",
        params=node_params("qkv_gen", qkv), tags=("attn",),
    )

    # Shared per-head workloads: every head is the same program, so the
    # pool compiles each once and all heads reuse it.
    score_wl = mmtv(1, tokens, hd)
    score_wl.params.update({"model": config.name, "layer": "mha_score"})
    value_wl = mtv(hd, tokens)
    value_wl.params.update({"model": config.name, "layer": "mha_value"})
    scale = float(np.sqrt(hd))

    def softmax_ref(s: np.ndarray) -> np.ndarray:
        z = s[0].astype(np.float32) / np.float32(scale)
        z = z - z.max()
        e = np.exp(z)
        return (e / e.sum()).astype(np.float32)

    softmax_wl = _glue(
        "softmax",
        [te.placeholder((1, tokens), "float32", "S")],
        (tokens,),
        softmax_ref,
        flops=5.0 * tokens,
        params={"tokens": tokens, "scale_dim": hd},
    )

    for h in range(heads):
        off = h * hd
        slice_wl = _glue(
            "slice_q",
            [te.placeholder((3 * d,), "float32", "A")],
            (1, hd),
            # Default-bound args pin this head's window: closures over
            # the loop variable would all slice the last head.
            lambda a, off=off: a[None, off:off + hd],
            flops=0.0,
            params={"offset": off, "width": hd},
        )
        g.add_node(
            f"slice_q_{h}", slice_wl, {"A": "qkv"}, f"q_{h}",
            tags=("attn", "glue"),
        )
        g.add_node(
            f"attn_score_{h}", score_wl,
            {"A": f"k_cache_{h}", "B": f"q_{h}"}, f"score_{h}",
            params=node_params(f"attn_score_{h}", score_wl), tags=("attn",),
        )
        g.add_node(
            f"softmax_{h}", softmax_wl, {"S": f"score_{h}"}, f"probs_{h}",
            tags=("attn", "glue"),
        )
        g.add_node(
            f"attn_value_{h}", value_wl,
            {"A": f"v_cache_t_{h}", "B": f"probs_{h}"}, f"head_{h}",
            params=node_params(f"attn_value_{h}", value_wl), tags=("attn",),
        )

    concat_wl = _glue(
        "concat_heads",
        [te.placeholder((hd,), "float32", f"H{h}") for h in range(heads)],
        (d,),
        lambda *hs: np.concatenate(hs).astype(np.float32),
        flops=0.0,
        params={"heads": heads, "width": hd},
    )
    g.add_node(
        "concat_heads", concat_wl,
        {f"H{h}": f"head_{h}" for h in range(heads)}, "attn_concat",
        tags=("attn", "glue"),
    )
    proj = fc_mtv(config, "qkv_proj")
    g.add_node(
        "attn_proj", proj, {"A": "w_proj", "B": "attn_concat"}, "attn_out",
        params=node_params("attn_proj", proj), tags=("attn",),
    )

    # -- feed-forward branch (parallel to attention in GPT-J) ---------------
    fc = fc_mtv(config, "fc")
    g.add_node(
        "fc", fc, {"A": "w_fc", "B": "x"}, "ffn_hidden",
        params=node_params("fc", fc), tags=("ffn",),
    )

    def gelu_ref(a: np.ndarray) -> np.ndarray:
        a = a.astype(np.float32)
        c = np.float32(np.sqrt(2.0 / np.pi))
        return (
            np.float32(0.5) * a
            * (np.float32(1.0) + np.tanh(c * (a + np.float32(0.044715) * a ** 3)))
        ).astype(np.float32)

    gelu_wl = _glue(
        "gelu",
        [te.placeholder((4 * d,), "float32", "A")],
        (4 * d,),
        gelu_ref,
        flops=8.0 * 4 * d,
        params={"n": 4 * d},
    )
    g.add_node(
        "gelu", gelu_wl, {"A": "ffn_hidden"}, "ffn_act", tags=("ffn", "glue")
    )
    fc_proj = fc_mtv(config, "fc_proj")
    g.add_node(
        "fc_proj", fc_proj, {"A": "w_fc_proj", "B": "ffn_act"}, "ffn_out",
        params=node_params("fc_proj", fc_proj), tags=("ffn",),
    )

    # -- residual stream: y = x + attn_out + ffn_out ------------------------
    residual_wl = va(d)
    g.add_node(
        "residual_attn", residual_wl, {"A": "x", "B": "attn_out"}, "resid_1",
        params=node_params("residual_attn", residual_wl), tags=("glue",),
    )
    g.add_node(
        "residual_out", residual_wl, {"A": "resid_1", "B": "ffn_out"}, "y",
        params=node_params("residual_out", residual_wl), tags=("glue",),
    )
    g.validate()
    return g


def gptj_model_graph(
    config: GPTJConfig = GPTJ_SIM,
    layers: int = 2,
    capacity: int = 16,
    params: Optional[Dict[str, Dict[str, int]]] = None,
    pin_small_grids: bool = True,
) -> ModelGraph:
    """Build an N-layer GPT-J decode step sized for a *paged* KV cache.

    The multi-layer counterpart of :func:`gptj_decoder_graph`, shaped so
    one compiled program pool serves every layer of every decode step:

    * ``capacity`` is the KV cache's **allocated** length (a whole
      number of pages), not the sequence length.  Attention reads all
      ``capacity`` positions; an ``attn_mask`` *dynamic* input (0 for
      valid positions, ``-inf`` for unwritten tail slots) folds into the
      scaled softmax, so two steps at different sequence lengths but the
      same page allocation build **structurally identical** graphs — no
      recompile, no replanning, just a new mask vector.  Only crossing a
      page boundary (a bigger ``capacity``) yields a new graph, and even
      then every capacity-independent program pool-hits.
    * every workload instance is shared across layers — all N ``fc``
      nodes bind one :class:`Workload`, so the
      :class:`~repro.serve.pool.ExecutablePool` compiles each program
      once for the whole model;
    * each layer additionally emits its freshly generated key/value rows
      (``k_new_L{l}`` / ``v_new_L{l}``, sliced from the fused QKV
      vector) as graph outputs, so a decode engine can append them to
      the managed cache — the explicit cache-extension transfer — and
      the next step attends over them.

    Tensor naming: layer ``l`` reads hidden state ``h{l}`` (``h0`` is
    aliased to the graph input ``x``) and writes ``h{l+1}``; weights are
    ``w_qkv_L{l}``/``w_proj_L{l}``/``w_fc_L{l}``/``w_fc_proj_L{l}`` and
    per-head caches ``k_cache_L{l}_h{h}`` / ``v_cache_t_L{l}_h{h}``, all
    const (device-resident, staged per the weight-residency plan).
    ``params`` overrides pinned schedule params by *generic* node name
    (``"fc"``, ``"attn_score"``, ...), applied to every layer — per-layer
    parameter splits would defeat the program sharing this graph exists
    to provide.
    """
    if config.n_heads * config.head_dim != config.d_model:
        raise ValueError(
            f"{config.name}: n_heads*head_dim"
            f" ({config.n_heads}*{config.head_dim}) must equal d_model"
            f" ({config.d_model})"
        )
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    d, hd, heads = config.d_model, config.head_dim, config.n_heads
    overrides = params or {}

    def node_params(generic: str, wl: Workload) -> Optional[Dict[str, int]]:
        if generic in overrides:
            return overrides[generic]
        return small_grid_params(wl) if pin_small_grids else None

    g = ModelGraph(f"{config.name}-model-L{layers}-c{capacity}")
    g.add_input("x", (d,))
    g.add_input("attn_mask", (capacity,))
    for layer in range(layers):
        g.add_input(f"w_qkv_L{layer}", (3 * d, d), const=True)
        g.add_input(f"w_proj_L{layer}", (d, d), const=True)
        g.add_input(f"w_fc_L{layer}", (4 * d, d), const=True)
        g.add_input(f"w_fc_proj_L{layer}", (d, 4 * d), const=True)
        for h in range(heads):
            g.add_input(f"k_cache_L{layer}_h{h}", (1, capacity, hd), const=True)
            g.add_input(f"v_cache_t_L{layer}_h{h}", (hd, capacity), const=True)

    # -- workloads shared by every layer (one compiled program each) --------
    qkv_wl = fc_mtv(config, "qkv_gen")
    proj_wl = fc_mtv(config, "qkv_proj")
    fc_wl = fc_mtv(config, "fc")
    fc_proj_wl = fc_mtv(config, "fc_proj")
    score_wl = mmtv(1, capacity, hd)
    score_wl.params.update({"model": config.name, "layer": "mha_score"})
    value_wl = mtv(hd, capacity)
    value_wl.params.update({"model": config.name, "layer": "mha_value"})
    scale = float(np.sqrt(hd))

    def masked_softmax_ref(s: np.ndarray, m: np.ndarray) -> np.ndarray:
        z = s[0].astype(np.float32) / np.float32(scale) + m.astype(np.float32)
        z = z - z.max()
        e = np.exp(z)
        return (e / e.sum()).astype(np.float32)

    softmax_wl = _glue(
        "masked_softmax",
        [
            te.placeholder((1, capacity), "float32", "S"),
            te.placeholder((capacity,), "float32", "M"),
        ],
        (capacity,),
        masked_softmax_ref,
        flops=6.0 * capacity,
        params={"capacity": capacity, "scale_dim": hd},
    )
    slice_q_wls = []
    for h in range(heads):
        off = h * hd
        slice_q_wls.append(
            _glue(
                "slice_q",
                [te.placeholder((3 * d,), "float32", "A")],
                (1, hd),
                lambda a, off=off: a[None, off:off + hd],
                flops=0.0,
                params={"offset": off, "width": hd},
            )
        )
    slice_k_wl = _glue(
        "slice_kv",
        [te.placeholder((3 * d,), "float32", "A")],
        (d,),
        lambda a: a[d:2 * d],
        flops=0.0,
        params={"offset": d, "width": d},
    )
    slice_v_wl = _glue(
        "slice_kv",
        [te.placeholder((3 * d,), "float32", "A")],
        (d,),
        lambda a: a[2 * d:3 * d],
        flops=0.0,
        params={"offset": 2 * d, "width": d},
    )
    concat_wl = _glue(
        "concat_heads",
        [te.placeholder((hd,), "float32", f"H{h}") for h in range(heads)],
        (d,),
        lambda *hs: np.concatenate(hs).astype(np.float32),
        flops=0.0,
        params={"heads": heads, "width": hd},
    )

    def gelu_ref(a: np.ndarray) -> np.ndarray:
        a = a.astype(np.float32)
        c = np.float32(np.sqrt(2.0 / np.pi))
        return (
            np.float32(0.5) * a
            * (np.float32(1.0) + np.tanh(c * (a + np.float32(0.044715) * a ** 3)))
        ).astype(np.float32)

    gelu_wl = _glue(
        "gelu",
        [te.placeholder((4 * d,), "float32", "A")],
        (4 * d,),
        gelu_ref,
        flops=8.0 * 4 * d,
        params={"n": 4 * d},
    )
    residual_wl = va(d)

    # -- the token step: every layer, one new position ----------------------
    for layer in range(layers):
        L = f"L{layer}"
        x_name = "x" if layer == 0 else f"h{layer}"
        g.add_node(
            f"{L}.qkv_gen", qkv_wl,
            {"A": f"w_qkv_L{layer}", "B": x_name}, f"qkv_{L}",
            params=node_params("qkv_gen", qkv_wl), tags=("attn",),
        )
        g.add_node(
            f"{L}.slice_k", slice_k_wl, {"A": f"qkv_{L}"}, f"k_new_{L}",
            tags=("attn", "glue", "kv"),
        )
        g.add_node(
            f"{L}.slice_v", slice_v_wl, {"A": f"qkv_{L}"}, f"v_new_{L}",
            tags=("attn", "glue", "kv"),
        )
        for h in range(heads):
            g.add_node(
                f"{L}.slice_q_{h}", slice_q_wls[h],
                {"A": f"qkv_{L}"}, f"q_{L}_h{h}",
                tags=("attn", "glue"),
            )
            g.add_node(
                f"{L}.attn_score_{h}", score_wl,
                {"A": f"k_cache_L{layer}_h{h}", "B": f"q_{L}_h{h}"},
                f"score_{L}_h{h}",
                params=node_params("attn_score", score_wl), tags=("attn",),
            )
            g.add_node(
                f"{L}.softmax_{h}", softmax_wl,
                {"S": f"score_{L}_h{h}", "M": "attn_mask"},
                f"probs_{L}_h{h}",
                tags=("attn", "glue"),
            )
            g.add_node(
                f"{L}.attn_value_{h}", value_wl,
                {"A": f"v_cache_t_L{layer}_h{h}", "B": f"probs_{L}_h{h}"},
                f"head_{L}_h{h}",
                params=node_params("attn_value", value_wl), tags=("attn",),
            )
        g.add_node(
            f"{L}.concat_heads", concat_wl,
            {f"H{h}": f"head_{L}_h{h}" for h in range(heads)},
            f"attn_concat_{L}",
            tags=("attn", "glue"),
        )
        g.add_node(
            f"{L}.attn_proj", proj_wl,
            {"A": f"w_proj_L{layer}", "B": f"attn_concat_{L}"},
            f"attn_out_{L}",
            params=node_params("attn_proj", proj_wl), tags=("attn",),
        )
        g.add_node(
            f"{L}.fc", fc_wl, {"A": f"w_fc_L{layer}", "B": x_name},
            f"ffn_hidden_{L}",
            params=node_params("fc", fc_wl), tags=("ffn",),
        )
        g.add_node(
            f"{L}.gelu", gelu_wl, {"A": f"ffn_hidden_{L}"}, f"ffn_act_{L}",
            tags=("ffn", "glue"),
        )
        g.add_node(
            f"{L}.fc_proj", fc_proj_wl,
            {"A": f"w_fc_proj_L{layer}", "B": f"ffn_act_{L}"}, f"ffn_out_{L}",
            params=node_params("fc_proj", fc_proj_wl), tags=("ffn",),
        )
        g.add_node(
            f"{L}.residual_attn", residual_wl,
            {"A": x_name, "B": f"attn_out_{L}"}, f"resid_{L}",
            params=node_params("residual_attn", residual_wl), tags=("glue",),
        )
        g.add_node(
            f"{L}.residual_out", residual_wl,
            {"A": f"resid_{L}", "B": f"ffn_out_{L}"}, f"h{layer + 1}",
            params=node_params("residual_out", residual_wl), tags=("glue",),
        )
    g.validate()
    return g

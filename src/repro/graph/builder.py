"""Graph builder: GPT-J decoder layers as a whole decode step.

One decode step of a GPT-J layer (batch 1, ``capacity`` cached
positions) built from the paper's shape helpers
(:func:`repro.workloads.fc_shapes` gives the four FC-layer MTVs;
attention is the multi-head MMTV of Fig. 10,
:func:`repro.workloads.mha_mmtv`) — five nodes:

* ``qkv_fc``  — one MTV (7d x d) over the row-stacked QKV and FC-up
  weights: both read the hidden state, so one PIM program makes the
  fused Q/K/V vector and the FC pre-activation, ``[q | k | v |
  fc_pre]`` (TVM Relay's ``CombineParallelDense``; GPT-J's parallel
  block is what lets the FF branch start from ``x``);
* the query as a view of its first ``d`` elements, shaped ``(heads,
  head_dim)``; ``attn_score`` — the score MMTV ``(heads, capacity,
  head_dim)`` against the resident K cache, followed by each head's
  scaled, masked softmax; ``attn_value`` — the value MMTV ``(heads,
  head_dim, capacity)`` against the (transposed) resident V cache;
* the heads as a view shaped ``(d,)``, then ``attn_proj`` — MTV (d x d)
  followed by the first residual add, ``x + attn_out``;
* the FF branch: ``fc_pre``, the view of the last ``4d`` elements, and
  ``fc_proj`` — GELU over it, then MTV (d x 4d), then the second
  residual add, ``resid + ffn_out`` (GPT-J's parallel block: ``y = x +
  attn + ff``; layer norms are omitted — they move no tensor the
  planner or the placement story cares about).

The softmax and the residual adds are host epilogues of the program
before them (:func:`repro.workloads.with_epilogue`) and GELU a host
prologue of the program after it (:func:`repro.workloads.with_prologue`),
as ATiM keeps the host work around a PIM kernel — the rfactor fold of
§5.2.1 — inside the module: the lowering emits them as ``host_pre`` and
``host_post`` statements, the host-statement model prices them, and a
lane-sliced host program runs them.  No glue is a node of its own, so
under the ``cpu`` or ``mixed`` placement a fused node is priced once by
the CPU roofline, as TVM fuses injective ops into their producer.  The
slices and the reshape compute nothing, so they are graph views
(:meth:`ModelGraph.add_view`), not nodes: no program, no ``exe.run``,
no buffer and no compute line — a 3-layer model step is 15 nodes.  A
view still sits on the host, so the PIM node it reads from pays its D2H
and the PIM node reading it its H2D; so does a program whose output
comes off its host epilogue, and a program whose kernel reads its host
prologue's product (``repro.graph.executable``).

Weights and the KV cache enter the graph as *const* external inputs —
staged once per load, exactly like :attr:`Workload.const_inputs` in the
serving model.  Matrix-vector nodes carry pinned small-grid schedule
params (:func:`small_grid_params`): a decode step executes
every node functionally, and the simulator's *host* time grows with the
grid — canonical max-parallelism grids cost seconds per node — while
the tasklet count only splits each DPU's rows and costs no host time.
The FC nodes also split their reduction across DPUs (ATiM's rfactor
sketch) and fold the parts on the host.

``GPTJ_SIM`` is the scaled configuration the end-to-end experiment
defaults to — the real GPT-J 6B/30B configs build the same graph, but a
single 16384x4096 FC is minutes of functional simulation.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Dict, NamedTuple, Tuple

import numpy as np

from .. import te
from ..autotune.sketch import (
    SEED_TASKLETS,
    distributed_extents,
    family_of,
    fixed_params,
    param_space,
    pow2_upto,
)
from ..workloads import (
    GPTJConfig, Workload, fc_mtv, mmtv, mtv, with_epilogue, with_prologue,
)
from .ir import ModelGraph

__all__ = [
    "GPTJ_SIM",
    "ATTN_MASK",
    "LayerIO",
    "gptj_layer_io",
    "gptj_layer_nbytes",
    "small_grid_params",
    "gptj_model_graph",
]

#: Scaled GPT-J configuration for functional end-to-end runs: the same
#: graph topology as 6B (``n_heads * head_dim == d_model``), sized so a
#: full decode step simulates in seconds.
GPTJ_SIM = GPTJConfig("gptj-6b-sim", n_heads=4, d_model=128, head_dim=32)

#: The model graph's *dynamic* mask input: 0 for valid cache positions,
#: ``-inf`` for the unwritten tail of the last page.
ATTN_MASK = "attn_mask"

#: DPUs a pinned grid may give its first and second distributed axes.
#: Their product, 2 048, is also the most a whole pinned grid takes, the
#: reduction split included: the default machine's DPU count.
_AXIS_CAPS = (64, 32)


def small_grid_params(workload: Workload) -> Dict[str, int]:
    """Pinned small-grid schedule params for one graph node.

    The grid keeps functional simulation cheap while leaving idle DPU
    groups for the serving layer to replicate batches across: the
    simulator's host time grows with the number of DPUs (lanes), not
    with the tasklets inside one.  The grid cap was 8 DPUs when every
    grid point was interpreted one at a time; the vectorized NumPy
    backend executes the whole grid as one lane axis, so suites now
    afford 64.

    The outer distributed axis gets up to 64 DPUs and a second one (the
    attention MMTVs' rows) up to 32, as host time falls with lanes per
    call; the tasklet count ``seed_params`` starts every search from
    (:data:`~repro.autotune.sketch.SEED_TASKLETS`, which the sketch caps
    at each DPU's rows), a cache tile of up to 64 elements, no unroll.

    A spatial-reduce node also splits its reduction across DPUs, as
    ATiM's ``rfactor`` sketch does (§5.2.1): the largest split in
    ``param_space(workload)[row.rfactor]`` — every DPU keeps at least 64
    elements, at most 64 parts for ``mtv``, 8 for ``mmtv`` — whose grid
    stays within the axis caps' product, 64 x 32 = 2 048 DPUs, on top of
    the row axis's cap; a host fold sums the parts.  (A large shape,
    such as a real GPT-J FC, stops there: ``mtv`` at 64 row DPUs splits
    32 ways, not 64, so the grid still compiles on the default machine.)
    On ``GPTJ_SIM`` that is 2 parts for ``qkv_fc`` and ``attn_proj``
    and 8 for ``fc_proj`` (when ``qkv_fc`` was two programs, ``qkv_gen``
    and ``fc``, each split 2 ways as well), which lowers a
    layer's steady step from 1 173 to 752 µs of virtual time; the
    attention MMTVs (reductions of at most 32) stay unsplit.  The host
    pays k lanes where there was one and a fold of about 27 µs per call
    inside a decode pass (61–63 µs before lane slices): the ``decode``
    benchmark's ``wall_s`` rose about 13 % while its ``virtual_ms`` fell
    170.3 → 109.7 ms.  Holding each node at 64 DPUs
    instead (64 / k row DPUs) reached only 125.0 ms, with ``wall_s``
    another 30 % higher: a DPU's extra rows run as tasklet iterations
    of the op tree, which cost more than extra lanes.
    """
    dpus = [
        min(cap, pow2_upto(extent)[-1])
        for cap, extent in zip(_AXIS_CAPS, distributed_extents(workload))
    ]
    cache = min(64, pow2_upto(workload.shape[-1])[-1])
    row = family_of(workload)
    split = {}
    if row.rfactor:
        room = math.prod(_AXIS_CAPS) // math.prod(dpus)
        split[row.rfactor] = max(
            d for d in param_space(workload)[row.rfactor] if d <= room
        )
    return fixed_params(
        workload, dpus, n_tasklets=SEED_TASKLETS, cache=cache, unroll=0,
        **split,
    )


class LayerIO(NamedTuple):
    """One emitted layer's external tensors, by graph-tensor name: what
    a caller of the graph binds and reads back."""

    #: Hidden state in / out.
    x: str
    y: str
    #: ``(name, shape)`` of the three FC weights, in declaration order:
    #: the row-stacked QKV and FC-up weight ``(7d, d)``, the attention
    #: projection and the FC projection.
    weights: Tuple[Tuple[str, Tuple[int, int]], ...]
    #: The layer's K cache ``(heads, span, head_dim)`` and V cache,
    #: stored transposed ``(heads, head_dim, span)`` so the value
    #: contraction is an MMTV too.
    kv_cache: Tuple[str, str]
    #: The step's freshly generated (key, value) rows, graph outputs.
    kv_new: Tuple[str, str]


def gptj_layer_io(config: GPTJConfig, layer: int) -> LayerIO:
    """Tensor names of layer ``layer`` of :func:`gptj_model_graph`.
    Layer ``l`` reads hidden state ``h{l}`` (``h0`` is the graph input
    ``x``) and writes ``h{l+1}``; the last layer's ``y`` is the step's
    result."""
    d = config.d_model
    tag = f"_L{layer}"
    return LayerIO(
        x=f"h{layer}" if layer else "x",
        y=f"h{layer + 1}",
        weights=(
            (f"w_qkv_fc{tag}", (7 * d, d)),
            (f"w_proj{tag}", (d, d)),
            (f"w_fc_proj{tag}", (d, 4 * d)),
        ),
        kv_cache=(f"k_cache{tag}", f"v_cache_t{tag}"),
        kv_new=(f"k_new{tag}", f"v_new{tag}"),
    )


def gptj_layer_nbytes(config: GPTJConfig) -> int:
    """Bytes of one layer's FC weights (float32) — the unit the
    weight-residency budget is counted in: ``12 d^2`` floats, however
    the four matrices of the paper's FC layer are stacked."""
    return 4 * sum(m * k for _, (m, k) in gptj_layer_io(config, 0).weights)


def _softmax(score: Workload, head_dim: int) -> Workload:
    """``score`` followed by each head's scaled softmax, the additive
    mask ``M`` (0 or ``-inf`` per cache position) folded in, as four
    host epilogue stages: row max of the logits, exponentials (the
    logits again, the same bits), row sum, quotient."""
    heads, span = score.output.shape
    scale = np.float32(np.sqrt(head_dim))

    def epilogue(S: te.Tensor, M: te.Tensor) -> te.Tensor:
        def logit(i, j):
            return S[i, j] / float(scale) + M[j]

        k = te.reduce_axis(span, "k_max")
        top = te.compute((heads,), lambda i: te.max_reduce(logit(i, k), axis=k), "Z_max")
        E = te.compute((heads, span), lambda i, j: te.exp(logit(i, j) - top[i]), "E")
        k = te.reduce_axis(span, "k_sum")
        total = te.compute((heads,), lambda i: te.sum(E[i, k], axis=k), "E_sum")
        return te.compute((heads, span), lambda i, j: E[i, j] / total[i], "P")

    def reference(s: np.ndarray, m: np.ndarray) -> np.ndarray:
        z = s.astype(np.float32) / scale + m.astype(np.float32)
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return (e / e.sum(axis=-1, keepdims=True)).astype(np.float32)

    return with_epilogue(
        score, epilogue, reference, flops=6.0 * heads * span,
        extra_inputs=[te.placeholder((span,), "float32", "M")],
    )


def _gelu(fc_proj: Workload) -> Workload:
    """GPT-J's tanh GELU over ``fc_proj``'s vector ``B``, then
    ``fc_proj``: one host prologue stage."""
    c = np.float32(np.sqrt(2.0 / np.pi))

    def gelu(a):
        # a*a*a: the IR has no power (NumPy's a**3 can differ in the
        # last bit, within every tolerance the references are held to).
        return 0.5 * a * (1.0 + te.tanh(float(c) * (a + 0.044715 * (a * a * a))))

    def reference(a: np.ndarray) -> np.ndarray:
        a = a.astype(np.float32)
        return (
            np.float32(0.5) * a
            * (np.float32(1.0) + np.tanh(c * (a + np.float32(0.044715) * a ** 3)))
        ).astype(np.float32)

    return with_prologue(
        fc_proj,
        "B",
        lambda B: te.compute(B.shape, lambda i: gelu(B[i]), "G"),
        reference,
        flops=8.0 * fc_proj.reduce_extent,
    )


def _residual(proj: Workload) -> Workload:
    """``proj`` followed by the residual add ``R + C``, one host
    epilogue stage (``R`` never crosses to the DPUs)."""
    (n,) = proj.output.shape
    R = te.placeholder((n,), "float32", "R")
    return with_epilogue(
        proj,
        lambda C, R: te.compute((n,), lambda i: R[i] + C[i], "D"),
        lambda c, r: r + c,
        flops=float(n),
        extra_inputs=[R],
    )


def _layer_ops(config: GPTJConfig, span: int) -> SimpleNamespace:
    """The workloads a layer binds, built once per graph: every layer
    shares each instance, so the pool compiles each program once for
    the whole model.  ``span`` is the number of cache positions
    attention reads."""
    d, hd, heads = config.d_model, config.head_dim, config.n_heads
    if heads * hd != d:
        raise ValueError(
            f"{config.name}: n_heads*head_dim ({heads}*{hd}) must equal"
            f" d_model ({d})"
        )
    score = mmtv(heads, span, hd)
    score.params.update({"model": config.name, "layer": "mha_score"})
    value = mmtv(heads, hd, span)
    value.params.update({"model": config.name, "layer": "mha_value"})
    # ``qkv_gen``'s 3d rows over ``fc``'s 4d: both contract x.
    qkv_fc = mtv(7 * d, d)
    qkv_fc.params.update({"model": config.name, "layer": "qkv_fc"})
    return SimpleNamespace(
        d=d,
        head_shape=(heads, hd),
        qkv_fc=qkv_fc,
        proj=_residual(fc_mtv(config, "qkv_proj")),
        fc_proj=_residual(_gelu(fc_mtv(config, "fc_proj"))),
        score=_softmax(score, hd),
        value=value,
    )


def _declare_inputs(
    g: ModelGraph, io: LayerIO, config: GPTJConfig, span: int
) -> None:
    """A layer's weights and KV cache, as const inputs."""
    for name, shape in io.weights:
        g.add_input(name, shape, const=True)
    heads, hd = config.n_heads, config.head_dim
    k_cache, v_cache_t = io.kv_cache
    g.add_input(k_cache, (heads, span, hd), const=True)
    g.add_input(v_cache_t, (heads, hd, span), const=True)


def _emit_layer(
    g: ModelGraph, ops: SimpleNamespace, io: LayerIO, layer: int
) -> None:
    """Append layer ``layer``'s decode step to ``g``: its softmax folds
    in :data:`ATTN_MASK`, and it views its new key/value rows in the
    fused QKV/FC vector as ``io.kv_new``."""
    (w_qkv_fc, _), (w_proj, _), (w_fc_proj, _) = io.weights
    k_cache, v_cache_t = io.kv_cache

    def t(base: str) -> str:
        """An intermediate tensor of this layer."""
        return f"{base}_L{layer}"

    def op(name, wl, inputs, output, tag):
        g.add_node(
            f"L{layer}.{name}", wl, inputs, output,
            params=small_grid_params(wl), tags=(tag,),
        )

    # -- one program for both branches' matvecs over x ----------------------
    # Tagged ``attn``: it makes Q/K/V, so ``mixed`` keeps it on PIM.
    op("qkv_fc", ops.qkv_fc, {"A": w_qkv_fc, "B": io.x}, t("qkv_fc"), "attn")

    # -- attention branch ---------------------------------------------------
    # The fused vector is [q | k | v | fc_pre]: this step's new K and V rows.
    for n, out in enumerate(io.kv_new, start=1):
        g.add_view(out, t("qkv_fc"), n * ops.d, (ops.d,))
    q, probs = t("q"), t("probs")
    g.add_view(q, t("qkv_fc"), 0, ops.head_shape)
    op("attn_score", ops.score, {"A": k_cache, "B": q, "M": ATTN_MASK},
       probs, "attn")
    op("attn_value", ops.value, {"A": v_cache_t, "B": probs}, t("heads"), "attn")
    g.add_view(t("attn_concat"), t("heads"), 0, (ops.d,))
    # y = x + attn_out + ffn_out, each add the epilogue of its projection.
    op("attn_proj", ops.proj, {"A": w_proj, "B": t("attn_concat"), "R": io.x},
       t("resid"), "attn")

    # -- feed-forward branch (parallel to attention in GPT-J) ---------------
    g.add_view(t("fc_pre"), t("qkv_fc"), 3 * ops.d, (4 * ops.d,))
    op("fc_proj", ops.fc_proj,
       {"A": w_fc_proj, "B": t("fc_pre"), "R": t("resid")}, io.y, "ffn")


def gptj_model_graph(
    config: GPTJConfig = GPTJ_SIM, layers: int = 2, capacity: int = 16
) -> ModelGraph:
    """Build an N-layer GPT-J decode step sized for a *paged* KV cache.

    Shaped so one compiled program pool serves every layer of every
    decode step:

    * ``capacity`` is the KV cache's **allocated** length (a whole
      number of pages), not the sequence length.  Attention reads all
      ``capacity`` positions; the :data:`ATTN_MASK` *dynamic* input (0
      for valid positions, ``-inf`` for unwritten tail slots) folds into
      the scaled softmax, so two steps at different sequence lengths but
      the same page allocation build **structurally identical** graphs —
      no recompile, no replanning, just a new mask vector.  Only
      crossing a page boundary (a bigger ``capacity``) yields a new
      graph, and even then every capacity-independent program pool-hits:
      the epoch loads two programs, the score MMTV with its softmax
      epilogue and the value MMTV.
    * every workload instance is shared across layers — all N ``qkv_fc``
      nodes bind one :class:`Workload`, so the
      :class:`~repro.serve.pool.ExecutablePool` compiles each program
      once for the whole model, at the pinned small grid
      (:func:`small_grid_params`) on every layer — per-layer parameter
      splits would defeat the program sharing this graph exists to
      provide;
    * each layer additionally emits its freshly generated key/value rows
      (``LayerIO.kv_new``, sliced from the fused QKV/FC vector) as graph
      outputs, so a decode engine can append them to the managed cache —
      the explicit cache-extension transfer — and the next step attends
      over them.

    :func:`gptj_layer_io` names every external tensor of layer ``l``;
    weights and KV caches are const (device-resident, staged per
    the weight-residency plan).
    """
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    ios = [gptj_layer_io(config, layer) for layer in range(layers)]
    g = ModelGraph(f"{config.name}-model-L{layers}-c{capacity}")
    g.add_input(ios[0].x, (config.d_model,))
    g.add_input(ATTN_MASK, (capacity,))
    for io in ios:
        _declare_inputs(g, io, config, capacity)
    ops = _layer_ops(config, capacity)
    for layer, io in enumerate(ios):
        _emit_layer(g, ops, io, layer)
    g.validate()
    return g

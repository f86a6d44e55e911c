"""Graph builder: GPT-J decoder layers as a whole decode step.

One decode step of a GPT-J layer (batch 1, ``capacity`` cached
positions) built from the paper's shape helpers
(:func:`repro.workloads.fc_shapes` gives the four FC-layer MTVs;
attention is the multi-head MMTV of Fig. 10,
:func:`repro.workloads.mha_mmtv`) — four nodes:

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
* ``proj`` — one MTV (d x 5d) over the column-concatenated projection
  weights ``[W_proj | W_fc_proj]``: GPT-J's parallel block sums both
  branches into one residual, ``y = x + W_proj·attn +
  W_fc_proj·gelu(fc_pre)``, so the two projections are one reduction
  (``CombineParallelDense`` along the reduction axis).  It reads
  ``proj_in``, the concat of the heads (viewed as ``(d,)``) and
  ``fc_pre`` (the view of the fused vector's last ``4d`` elements);
  GELU runs over the last ``4d`` elements of it first, and the
  residual add ``x + ...`` after (layer norms are omitted — they move
  no tensor the planner or the cost model cares about).

The softmax and the residual add are host epilogues of the program
before them (:func:`repro.workloads.with_epilogue`) and GELU a host
prologue of the program after it (:func:`repro.workloads.with_prologue`,
a ``select`` that passes the attention part through), as ATiM keeps
the host work around a PIM kernel — the rfactor fold of §5.2.1 —
inside the module: the lowering emits them as ``host_pre`` and
``host_post`` statements, the host-statement model prices them, and a
lane-sliced host program runs them.  No glue is a node of its own, so
compiled for the ``cpu`` target a fused node is priced once by the CPU
roofline, as TVM fuses injective ops into their producer.  The slices
and the reshape compute nothing, so they are graph views
(:meth:`ModelGraph.add_view`), and the concat is one host copy
(:meth:`ModelGraph.add_concat`): no program, no ``exe.run`` and no
compute line — a 3-layer model step is 12 nodes.  A view or a concat
still sits on the host, so the PIM node it reads from pays its D2H and
the PIM node reading it its H2D; so does a program whose output comes
off its host epilogue, and a program whose kernel reads its host
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
    GPTJConfig, Workload, mmtv, mtv, with_epilogue, with_prologue,
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

#: DPUs a pinned grid whose reduction is split may take in all: its
#: first axis (the rows) gives way to the split beyond it.
_SPLIT_DPUS = 256


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
    A split grid then fits two more limits.  Its cache tile is the
    largest power of two that divides each DPU's share: ``proj``'s 80
    elements take 16-element blocks, where 64-element ones would pad
    every tile to 128 elements, which the simulator gathers element by
    element on the tensor's edge lanes (the program took 1.3x the host
    time of the two it replaced, for 1.8 µs less virtual kernel).  And
    it holds at most :data:`_SPLIT_DPUS` DPUs, the first axis giving way:
    at 64 x 8 DPUs, ``proj``'s per-call tiles and fold workspaces (about
    0.8 MB) made the ``decode`` benchmark's process fault about 26 000
    fresh heap pages a pass where it faulted 600, and its ``wall_s`` rose
    11 %; at 32 x 8 (4 rows a DPU) it faults about 400, and ``wall_s``
    fell 9 % instead, for 3.8 µs of virtual time a layer.
    On ``GPTJ_SIM`` that is 2 parts for ``qkv_fc`` and 8 for ``proj``
    (when these were four programs, ``qkv_gen``, ``fc`` and the
    attention projection split 2 ways and the FC projection 8), which
    lowered a layer's steady step from 1 173 to 752 µs of virtual time; the
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
        parts = split[row.rfactor] = max(
            d for d in param_space(workload)[row.rfactor] if d <= room
        )
        if parts > 1:
            cache = math.gcd(cache, workload.shape[-1] // parts)
            rest = parts * math.prod(dpus[1:])
            dpus[0] = min(dpus[0], max(1, _SPLIT_DPUS // rest))
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
    #: ``(name, shape)`` of the two FC weights, in declaration order:
    #: the row-stacked QKV and FC-up weight ``(7d, d)`` and the
    #: column-concatenated attention and FC projections ``(d, 5d)``.
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
            (f"w_proj_cat{tag}", (d, 5 * d)),
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


def _gelu(proj: Workload, start: int) -> Workload:
    """GPT-J's tanh GELU over ``proj``'s vector ``B`` from element
    ``start`` on (the elements before it pass through), then ``proj``:
    one host prologue stage."""
    c = np.float32(np.sqrt(2.0 / np.pi))

    def gelu(a):
        # a*a*a: the IR has no power (NumPy's a**3 can differ in the
        # last bit, within every tolerance the references are held to).
        return 0.5 * a * (1.0 + te.tanh(float(c) * (a + 0.044715 * (a * a * a))))

    def reference(b: np.ndarray) -> np.ndarray:
        b = b.astype(np.float32)
        a = b[start:]
        inner = c * (a + np.float32(0.044715) * a ** 3)
        gelu_a = np.float32(0.5) * a * (np.float32(1.0) + np.tanh(inner))
        return np.concatenate([b[:start], gelu_a]).astype(np.float32)

    return with_prologue(
        proj,
        "B",
        lambda B: te.compute(
            B.shape, lambda k: te.select(k < start, B[k], gelu(B[k])), "G"
        ),
        reference,
        flops=8.0 * (proj.reduce_extent - start),
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
    # ``qkv_proj``'s d columns beside ``fc_proj``'s 4d: both add into y.
    proj = mtv(d, 5 * d)
    proj.params.update({"model": config.name, "layer": "proj"})
    return SimpleNamespace(
        d=d,
        head_shape=(heads, hd),
        qkv_fc=qkv_fc,
        proj=_residual(_gelu(proj, d)),
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
    (w_qkv_fc, _), (w_proj_cat, _) = io.weights
    k_cache, v_cache_t = io.kv_cache

    def t(base: str) -> str:
        """An intermediate tensor of this layer."""
        return f"{base}_L{layer}"

    def op(name, wl, inputs, output):
        g.add_node(
            f"L{layer}.{name}", wl, inputs, output,
            params=small_grid_params(wl),
        )

    # -- one program for both branches' matvecs over x ----------------------
    op("qkv_fc", ops.qkv_fc, {"A": w_qkv_fc, "B": io.x}, t("qkv_fc"))

    # -- attention ----------------------------------------------------------
    # The fused vector is [q | k | v | fc_pre]: this step's new K and V rows.
    for n, out in enumerate(io.kv_new, start=1):
        g.add_view(out, t("qkv_fc"), n * ops.d, (ops.d,))
    q, probs = t("q"), t("probs")
    g.add_view(q, t("qkv_fc"), 0, ops.head_shape)
    op("attn_score", ops.score, {"A": k_cache, "B": q, "M": ATTN_MASK}, probs)
    op("attn_value", ops.value, {"A": v_cache_t, "B": probs}, t("heads"))

    # -- one program for both branches' projections -------------------------
    # y = x + [W_proj | W_fc_proj] @ [attn ; gelu(fc_pre)]: the residual
    # add is its epilogue, GELU over the fc_pre part its prologue.
    g.add_view(t("attn_concat"), t("heads"), 0, (ops.d,))
    g.add_view(t("fc_pre"), t("qkv_fc"), 3 * ops.d, (4 * ops.d,))
    g.add_concat(t("proj_in"), (t("attn_concat"), t("fc_pre")))
    op("proj", ops.proj, {"A": w_proj_cat, "B": t("proj_in"), "R": io.x}, io.y)


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

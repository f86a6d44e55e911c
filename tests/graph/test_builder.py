"""The GPT-J model-graph builder."""

import math

import numpy as np
import pytest

import repro
from repro.autotune import param_space, seed_params
from repro.autotune.sketch import distributed_extents, family_of, pow2_upto
from repro.cluster import CLUSTER_SIM
from repro.decode import DecodeEngine
from repro.graph import (
    ATTN_MASK,
    GPTJ_SIM,
    compile_graph,
    gptj_layer_io,
    gptj_layer_nbytes,
    gptj_model_graph,
    place,
    small_grid_params,
)
from repro.upmem.config import DEFAULT_CONFIG
from repro.workloads import (
    GPTJConfig, fc_shapes, mha_mmtv, mmtv, mtv, red, ttv, va,
)

from ..autotune.golden_params import cases as golden_cases
from .conftest import TINY


class TestTopology:
    def test_node_count_does_not_scale_with_heads(self):
        g = gptj_model_graph(TINY, layers=1, capacity=4)
        # qkv_fc, score (+softmax), value, proj (gelu+, +residual): the
        # glue is host epilogues and a prologue, the query slice, the
        # new k/v rows, the head reshape and the FC pre-activation are
        # views, and the projections' operand is a concat
        assert len(g) == 4
        assert g.output_names == ["k_new_L0", "v_new_L0", "h1"]

    def test_the_four_fc_shapes_are_two_programs(self):
        """``qkv_gen`` and ``fc`` both contract x: one MTV over their
        row-stacked weights; ``qkv_proj`` and ``fc_proj`` both add into
        y: one MTV over their column-concatenated weights."""
        g = gptj_model_graph(TINY, layers=1, capacity=4)
        mtvs = {
            node.workload.params.get("layer"): tuple(node.workload.shape)
            for node in g.nodes
            if node.workload.name == "mtv"
        }
        shapes = {name: (m, k) for name, m, k in fc_shapes(TINY)}
        assert mtvs == {
            "qkv_fc": (shapes["qkv_gen"][0] + shapes["fc"][0], TINY.d_model),
            "proj": (
                TINY.d_model, shapes["qkv_proj"][1] + shapes["fc_proj"][1]
            ),
        }

    def test_attention_is_one_score_and_one_value_node(self):
        """All heads run in one score and one value MMTV."""
        g = gptj_model_graph(TINY, layers=1, capacity=4)
        mmtvs = [n.name for n in g.nodes if n.workload.name == "mmtv"]
        assert mmtvs == ["L0.attn_score", "L0.attn_value"]

    def test_weights_and_kv_cache_are_const(self):
        g = gptj_model_graph(TINY, layers=1, capacity=4)
        const = g.const_inputs
        assert {"w_qkv_fc_L0", "w_proj_cat_L0"} <= const
        assert {"k_cache_L0", "v_cache_t_L0"} <= const
        assert "x" not in const and ATTN_MASK not in const

    def test_mismatched_head_geometry_rejected(self):
        bad = GPTJConfig("bad", n_heads=3, d_model=32, head_dim=16)
        with pytest.raises(ValueError, match="must equal d_model"):
            gptj_model_graph(bad, layers=1, capacity=8)

    def test_sim_config_is_consistent(self):
        assert GPTJ_SIM.n_heads * GPTJ_SIM.head_dim == GPTJ_SIM.d_model

    def test_every_pim_node_pins_its_small_grid(self):
        g = gptj_model_graph(TINY, layers=2, capacity=4)
        pim = [
            n for n in g.nodes if n.workload.name in ("mtv", "mmtv", "va")
        ]
        assert pim
        for node in pim:
            assert node.params == small_grid_params(node.workload), node.name

    def test_node_params_set_after_building_are_compiled(self):
        """A built graph's ``Node.params`` is the one per-node knob: what
        a caller sets there is the grid the compiled program runs."""
        g = gptj_model_graph(TINY, layers=1, capacity=4)
        fc = next(n for n in g.nodes if n.name == "L0.qkv_fc")
        fc.params = {"m_dpus": 2, "k_dpus": 1, "n_tasklets": 2,
                     "cache": 16, "host_threads": 1, "unroll": 0}
        exe = compile_graph(g)
        assert exe._exes["L0.qkv_fc"][0].params == fc.params
        inputs = g.random_inputs(5)
        got = exe.run_tensors(inputs)
        for name, want in g.reference_outputs(inputs).items():
            np.testing.assert_allclose(got[name], want, rtol=1e-3, atol=1e-5)


def _hand_rolled(ins, K, V, mask=None):
    """One layer's ``h1`` in plain NumPy.  Head ``h`` owns columns
    ``h*hd:(h+1)*hd`` of the dense ``(capacity, d)`` K and V planes and
    attends over those column slices; ``mask=None`` is the unmasked
    attention of a cache whose every position is written."""
    hd, H = TINY.head_dim, TINY.n_heads
    cols = [slice(h * hd, (h + 1) * hd) for h in range(H)]
    d = TINY.d_model
    qkv = ins["w_qkv_fc_L0"][:3 * d] @ ins["x"]
    heads = []
    for sl in cols:
        scores = K[:, sl] @ qkv[sl]
        z = scores.astype(np.float32) / np.float32(np.sqrt(hd))
        if mask is not None:
            z = z + mask
        z = z - z.max()
        e = np.exp(z)
        probs = (e / e.sum()).astype(np.float32)
        heads.append(V[:, sl].T @ probs)
    w_proj = ins["w_proj_cat_L0"]
    attn = w_proj[:, :d] @ np.concatenate(heads).astype(np.float32)
    hidden = ins["w_qkv_fc_L0"][3 * d:] @ ins["x"]
    c = np.float32(np.sqrt(2.0 / np.pi))
    act = (
        np.float32(0.5) * hidden
        * (np.float32(1.0)
           + np.tanh(c * (hidden + np.float32(0.044715) * hidden ** 3)))
    ).astype(np.float32)
    ff = w_proj[:, d:] @ act
    return (ins["x"] + attn) + ff


def _bind_cache(ins, seed, T=4):
    """Dense random K and V planes, bound head by head as the layer's
    ``k_cache``/``v_cache_t`` inputs; returns the planes."""
    hd, H = TINY.head_dim, TINY.n_heads
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((T, TINY.d_model), dtype=np.float32)
    V = rng.standard_normal((T, TINY.d_model), dtype=np.float32)
    cols = [slice(h * hd, (h + 1) * hd) for h in range(H)]
    ins["k_cache_L0"] = np.stack([K[:, sl] for sl in cols])
    ins["v_cache_t_L0"] = np.stack([V[:, sl].T for sl in cols])
    return K, V


class TestReference:
    def test_reference_matches_hand_rolled_numpy(self):
        """The graph's reference attends head by head over the column
        slices of the K and V planes, the unwritten last position
        masked off."""
        g = gptj_model_graph(TINY, layers=1, capacity=4)
        ins = g.random_inputs(7)
        K, V = _bind_cache(ins, 7)
        mask = np.array([0.0, 0.0, 0.0, -np.inf], dtype=np.float32)
        ins[ATTN_MASK] = mask
        out = g.reference_outputs(ins)["h1"]
        np.testing.assert_allclose(out, _hand_rolled(ins, K, V, mask),
                                   rtol=1e-4)

    def test_zero_mask_computes_the_unmasked_layer(self):
        """fig17 binds an all-zero mask: every position is valid, and
        the layer computes unmasked attention + FF, compiled or not."""
        g = gptj_model_graph(TINY, layers=1, capacity=4)
        ins = g.random_inputs(11)
        K, V = _bind_cache(ins, 11)
        ins[ATTN_MASK] = np.zeros((4,), dtype=np.float32)
        want = _hand_rolled(ins, K, V)
        np.testing.assert_allclose(g.reference_outputs(ins)["h1"], want,
                                   rtol=1e-4)
        got = compile_graph(g).run_tensors(ins)["h1"]
        np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-5)


#: Small shapes, then every shape ``golden_params.json`` pins a grid for:
#: the sized benchmark workloads (up to 512 MB) and the graph nodes.
_PINNED = [
    (w.name, w)
    for w in (va(1024), red(4096), mtv(64, 128), mmtv(2, 8, 32), ttv(4, 8, 64))
] + [(case, w) for case, w, _ in golden_cases()]


class TestSmallGridParams:
    @pytest.mark.parametrize(
        "workload",
        [w for _, w in _PINNED],
        ids=[case for case, _ in _PINNED],
    )
    def test_grids_stay_small_and_valid(self, workload):
        # The grid is what costs simulator host time (one lane per DPU),
        # so it stays small: at most 64 DPUs on the row axis (32 on a
        # second), times the reduction split — the sketch table's
        # largest that keeps the whole grid within 64 x 32 = 2048 DPUs,
        # the machine, so every pin compiles (a 512 MB mtv splits 32
        # ways, not 64).  The split leaves every DPU at least 64
        # elements.  Tasklets cost no host time; the pin takes the
        # tasklet count every search starts from.
        params = small_grid_params(workload)
        row = family_of(workload)
        for key, cap in zip(row.budget, (64, 32)):
            assert 1 <= params[key] <= cap
        axes = [
            min(cap, pow2_upto(extent)[-1])
            for cap, extent in zip((64, 32), distributed_extents(workload))
        ]
        if row.rfactor:
            split = params[row.rfactor]
            room = 64 * 32 // math.prod(axes)
            domain = param_space(workload)[row.rfactor]
            assert split == max(d for d in domain if d <= room)
            assert workload.shape[-1] // split >= 64 or split == 1
            if split > 1:
                # A split grid holds at most 256 DPUs, the first axis
                # giving way, and its cache blocks divide each share.
                rest = split * math.prod(axes[1:])
                first = min(axes[0], max(1, 256 // rest))
                assert params[row.budget[0]] == first
                assert (workload.shape[-1] // split) % params["cache"] == 0
        dpus = [v for k, v in params.items() if k.endswith("dpus")]
        assert math.prod(dpus) <= 64 * 32 == DEFAULT_CONFIG.n_dpus
        seed = seed_params(param_space(workload), DEFAULT_CONFIG.n_dpus)[0]
        assert params["n_tasklets"] == seed["n_tasklets"]
        assert 1 <= params["n_tasklets"] <= DEFAULT_CONFIG.max_tasklets
        # Every grid dimension fits the workload's extent.
        if workload.name in ("mtv", "gemv"):
            assert params["m_dpus"] <= workload.shape[0]
        if workload.name in ("ttv", "mmtv"):
            assert params["i_dpus"] <= workload.shape[0]
            assert params["j_dpus"] <= workload.shape[1]

    def test_unknown_workload_rejected(self):
        class Fake:
            name = "conv"
            shape = (8,)

        with pytest.raises(KeyError):
            small_grid_params(Fake())


class TestReductionSplit:
    """Every FC node splits its reduction across DPUs (ATiM's rfactor
    sketch, §5.2.1) as far as the sketch table allows, keeps its row
    axis at the cap, and is then the cheapest of the table's splits."""

    FC = [
        (config, name, m, k)
        for config in (GPTJ_SIM, CLUSTER_SIM)
        for name, m, k in [
            ("qkv_fc", 7 * config.d_model, config.d_model),
            ("proj", config.d_model, 5 * config.d_model),
        ]
    ]

    @pytest.mark.parametrize(
        "config,name,m,k", FC,
        ids=[f"{c.name}-{n}" for c, n, _, _ in FC],
    )
    def test_largest_split_row_cap_and_cheapest(self, config, name, m, k):
        workload = mtv(m, k)
        params = small_grid_params(workload)
        domain = param_space(workload)["k_dpus"]
        assert params["k_dpus"] == domain[-1]
        rows = min(64, pow2_upto(m)[-1], 256 // domain[-1])
        assert params["m_dpus"] == rows
        graph = gptj_model_graph(config, layers=1, capacity=8)
        node = next(n for n in graph.nodes if n.workload.shape == (m, k))
        assert node.params == params

        def cost(split):
            g = gptj_model_graph(config, layers=1, capacity=8)
            pinned = next(n for n in g.nodes if n.name == node.name)
            pinned.params = {**params, "k_dpus": split}
            nodes = compile_graph(g).profile().nodes
            return next(c for c in nodes if c.node == node.name).total_s

        costs = {split: cost(split) for split in domain}
        assert costs[params["k_dpus"]] == min(costs.values()), costs

    def test_decode_steps_under_verify(self, monkeypatch):
        """A 2-layer decode over a page boundary with the scalar
        interpreter checking every FC program, its rfactor host fold
        included, byte for byte."""
        monkeypatch.setenv("REPRO_SIM_MODE", "verify")
        engine = DecodeEngine(
            config=GPTJ_SIM, layers=2, page_tokens=4, seed=3,
            max_resident_epochs=4,
        )
        engine.add_sequence("a", prompt_tokens=3)
        engine.add_sequence("b", prompt_tokens=5)
        reports = []
        for _ in range(2):
            reports.extend(engine.step_batch(["a", "b"]).reports)
        assert reports and all(r.reference_ok for r in reports)


def _at_two_tasklets(graph):
    """``graph`` with every pinned node moved back to 2 tasklets (the
    pin's value before it took the search's seed), grids unchanged."""
    for node in graph.nodes:
        if node.params:
            node.params = {**node.params, "n_tasklets": 2}
    return graph


def _pinned_and_two_tasklets(config, layers, capacity):
    """The model graph compiled as pinned and at 2 tasklets."""
    pinned = gptj_model_graph(config, layers, capacity)
    base = _at_two_tasklets(gptj_model_graph(config, layers, capacity))
    return compile_graph(pinned), compile_graph(base)


def _rows_per_dpu(node) -> int:
    """Rows of the axis the sketch splits across tasklets, per DPU."""
    split = node.params[family_of(node.workload).budget[-1]]
    return -(-distributed_extents(node.workload)[-1] // split)


class TestTaskletPin:
    """The pinned grids run at the search's seed tasklet count: the same
    grid (the host cost), a lower virtual clock wherever a DPU has more
    rows than 2 tasklets cover, and the same output bytes."""

    CASES = [
        (config, capacity)
        for config in (GPTJ_SIM, CLUSTER_SIM)
        for capacity in (4, 8, 12)
    ]

    @pytest.mark.parametrize(
        "config,capacity", CASES, ids=lambda v: getattr(v, "name", v)
    )
    def test_compute_never_rises_and_falls_where_rows_split(
        self, config, capacity
    ):
        pinned, base = _pinned_and_two_tasklets(config, 1, capacity)
        faster = set()
        for node, now, then in zip(
            pinned.graph.nodes, pinned.profile().nodes, base.profile().nodes
        ):
            if not node.params or now.target != "upmem":
                continue
            assert now.compute_s <= then.compute_s, node.name
            if now.compute_s < then.compute_s:
                faster.add(node.name.split(".", 1)[1])
            # Strictly lower exactly where 2 tasklets left rows unsplit.
            assert (now.compute_s < then.compute_s) == (
                _rows_per_dpu(node) > 2
            ), node.name
        if config is GPTJ_SIM:
            # The attention MMTVs spread one row over each DPU; ``proj``
            # has 4 rows a DPU (32 row DPUs beside its 8-way split).
            assert faster == {"qkv_fc", "proj"}

    def test_steady_state_at_least_1_3x_lower(self):
        pinned, base = _pinned_and_two_tasklets(GPTJ_SIM, 3, 8)
        now = pinned.profile().steady_state_s
        then = base.profile().steady_state_s
        assert then >= 1.3 * now, (then, now)

    @pytest.mark.parametrize(
        "config,capacity", CASES, ids=lambda v: getattr(v, "name", v)
    )
    def test_outputs_bitwise_equal_to_two_tasklets(self, config, capacity):
        pinned, base = _pinned_and_two_tasklets(config, 1, capacity)
        inputs = pinned.graph.random_inputs(capacity)
        inputs[ATTN_MASK][capacity - 1:] = -np.inf  # one unwritten slot
        got = pinned.run_tensors(inputs)
        want = base.run_tensors(inputs)
        assert list(got) == list(want)
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_every_decode_and_cluster_program_under_verify(self, monkeypatch):
        """Each distinct (workload, params) program the ``decode`` and
        ``cluster`` model graphs compile for the PIM side runs once with the
        scalar interpreter checking the vector plan bit for bit — the
        tasklet split clamps to 14 rows per DPU on ``GPTJ_SIM``'s fused
        QKV/FC-up MTV (6 and 8 when it was two programs) and to 4 on
        ``CLUSTER_SIM``'s, counts the vectorizer suites (pinned at 2
        tasklets) do not reach."""
        programs = {}
        for config in (GPTJ_SIM, CLUSTER_SIM):
            for capacity in (4, 8, 12, 16):
                graph = gptj_model_graph(config, 1, capacity)
                assert place(graph).kind == "upmem"
                for node in graph.nodes:
                    key = (node.workload.name, node.workload.shape,
                           tuple(node.params.items()))
                    programs.setdefault(key, node.workload)
        assert len(programs) == 19
        monkeypatch.setenv("REPRO_SIM_MODE", "verify")
        tasklets = set()
        for (_, _, params), workload in programs.items():
            exe = repro.compile(workload, target="upmem", params=dict(params))
            tasklets.add(exe.lowered.n_tasklets)
            inputs = workload.random_inputs(0)
            out, = exe.run(inputs)
            np.testing.assert_allclose(
                out, workload.reference_output(inputs), rtol=1e-3, atol=1e-3
            )
        assert {4, 14} <= tasklets


class TestPaperAttention:
    """Each layer runs fig10's multi-head MMTV: one score node against K
    as ``(heads, span, head_dim)`` and one value node against Vᵀ as
    ``(heads, head_dim, span)``, both on the PIM side."""

    @pytest.mark.parametrize(
        "config,capacity", TestTaskletPin.CASES,
        ids=lambda v: getattr(v, "name", v),
    )
    def test_one_score_and_one_value_mmtv_per_layer(self, config, capacity):
        layers = 2
        g = gptj_model_graph(config, layers, capacity)
        assert place(g).kind == "upmem"
        for layer in range(layers):
            nodes = {
                n.name.split(".", 1)[1]: n for n in g.nodes
                if n.name.startswith(f"L{layer}.")
            }
            assert nodes["attn_score"].workload.shape == (
                mha_mmtv(config, 1, capacity).shape
            )
            assert nodes["attn_value"].workload.shape == (
                config.n_heads, config.head_dim, capacity
            )
            mmtvs = [
                name for name, n in nodes.items()
                if n.workload.name == "mmtv"
            ]
            assert mmtvs == ["attn_score", "attn_value"]

    def test_three_layer_step_size(self):
        g = gptj_model_graph(GPTJ_SIM, 3, 8)
        assert len(g) == 12
        assert place(g).kind == "upmem"


class TestModelGraph:
    def test_layers_chain_through_hidden_states(self):
        g = gptj_model_graph(TINY, layers=3, capacity=8)
        per_layer = 4  # the decoder's nodes: the k/v rows are views
        assert len(g) == 3 * per_layer
        assert g.output_names == [
            "k_new_L0", "v_new_L0", "k_new_L1", "v_new_L1",
            "k_new_L2", "v_new_L2", "h3",
        ]
        # Layer l consumes h{l} (h0 aliased to the input "x").
        fc1 = next(n for n in g.nodes if n.name == "L1.qkv_fc")
        assert dict(
            (w, t) for w, t, _ in fc1.input_bindings()
        )["B"] == "h1"

    def test_workloads_shared_across_layers(self):
        """Every layer binds the SAME workload instances — the pool
        compiles each program once for the whole model."""
        g = gptj_model_graph(TINY, layers=4, capacity=8)
        by_role = {}
        for node in g.nodes:
            role = node.name.split(".", 1)[1]
            by_role.setdefault(role, set()).add(id(node.workload))
        for role, ids in by_role.items():
            assert len(ids) == 1, f"{role} not shared across layers"

    def test_signature_stable_within_capacity(self):
        a = gptj_model_graph(TINY, layers=2, capacity=8)
        b = gptj_model_graph(TINY, layers=2, capacity=8)
        c = gptj_model_graph(TINY, layers=2, capacity=12)
        assert a.structural_signature() == b.structural_signature()
        assert a.structural_signature() != c.structural_signature()

    def test_capacity_sizes_attention_not_sequence_length(self):
        g = gptj_model_graph(TINY, layers=1, capacity=12)
        score = next(n for n in g.nodes if n.name == "L0.attn_score")
        assert score.workload.shape == (TINY.n_heads, 12, TINY.head_dim)
        assert g.tensor_nbytes("attn_mask") == 12 * 4

    def test_mask_folds_into_softmax_reference(self):
        g = gptj_model_graph(TINY, layers=1, capacity=8)
        ins = g.random_inputs(3)
        # Mask off the last 3 positions; their cache rows must then be
        # irrelevant to every output.
        mask = np.zeros((8,), dtype=np.float32)
        mask[5:] = -np.inf
        ins["attn_mask"] = mask
        out_a = g.reference_outputs(ins)
        ins["k_cache_L0"] = ins["k_cache_L0"].copy()
        ins["k_cache_L0"][:, 5:] = 9.9
        ins["v_cache_t_L0"] = ins["v_cache_t_L0"].copy()
        ins["v_cache_t_L0"][:, :, 5:] = -7.7
        out_b = g.reference_outputs(ins)
        for name in out_a:
            np.testing.assert_array_equal(out_a[name], out_b[name])

    def test_kv_outputs_and_fc_pre_slice_the_fused_vector(self):
        g = gptj_model_graph(TINY, layers=2, capacity=8)
        ins = g.random_inputs(5)
        env = g.reference_outputs(ins, all_tensors=True)
        d = TINY.d_model
        np.testing.assert_array_equal(
            env["k_new_L0"], env["qkv_fc_L0"][d:2 * d]
        )
        np.testing.assert_array_equal(
            env["v_new_L1"], env["qkv_fc_L1"][2 * d:3 * d]
        )
        np.testing.assert_array_equal(
            env["fc_pre_L1"], env["qkv_fc_L1"][3 * d:]
        )

    def test_layer_io_names_each_layers_tensors(self):
        """``gptj_layer_io`` is how callers address a layer: its names
        are the graph's, hidden states chain ``x -> h1 -> h2``, and one
        layer's weights are the residency budget's unit."""
        g = gptj_model_graph(TINY, layers=2, capacity=4)
        const = g.const_inputs
        for layer in range(2):
            io = gptj_layer_io(TINY, layer)
            for name, shape in io.weights:
                assert name in const and g.tensor_shape(name) == shape
            assert set(io.kv_cache) <= const
            assert set(io.kv_new) <= set(g.output_names)
            assert io.x == ("x" if layer == 0 else gptj_layer_io(TINY, 0).y)
            assert sum(
                g.tensor_nbytes(name) for name, _ in io.weights
            ) == gptj_layer_nbytes(TINY)
        assert gptj_layer_io(TINY, 1).y in g.output_names

    def test_validation(self):
        with pytest.raises(ValueError, match="layers"):
            gptj_model_graph(TINY, layers=0, capacity=8)
        with pytest.raises(ValueError, match="capacity"):
            gptj_model_graph(TINY, layers=1, capacity=0)

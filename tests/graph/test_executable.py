"""GraphExecutable: placement, compilation, execution, cost model."""

import numpy as np
import pytest

import repro
from repro.graph import (
    GraphError,
    GraphExecutable,
    compile_graph,
    gptj_model_graph,
    place,
)
from repro.serve.pool import ExecutablePool

from .conftest import TINY, chain_graph


class TestPlacement:
    def test_upmem_puts_matvecs_on_pim(self, tiny_decoder):
        placement = place(tiny_decoder, policy="upmem")
        for node in tiny_decoder.nodes:
            kind = placement[node.name].kind
            if node.workload.name in ("mtv", "mmtv"):
                assert kind == "upmem", node.name
            else:
                assert kind == "cpu", node.name

    def test_cpu_policy_places_everything_on_host(self, tiny_decoder):
        placement = place(tiny_decoder, policy="cpu")
        assert {t.kind for t in placement.values()} == {"cpu"}

    def test_mixed_policy_splits_attention_from_ffn(self, tiny_decoder):
        placement = place(tiny_decoder, policy="mixed")
        assert placement["L0.attn_score"].kind == "upmem"
        assert placement["L0.fc"].kind == "cpu"
        assert placement["L0.fc_proj"].kind == "cpu"

    def test_default_policy_is_upmem(self, tiny_decoder):
        """``place`` and ``compile_graph`` default to the one name fig17
        reports its everything-PIM row under."""
        want = {
            n: t.kind for n, t in place(tiny_decoder, policy="upmem").items()
        }
        assert {n: t.kind for n, t in place(tiny_decoder).items()} == want
        exe = compile_graph(tiny_decoder)
        assert {n: t.kind for n, t in exe.placement.items()} == want

    def test_node_override_wins(self):
        g = chain_graph()
        next(n for n in g.nodes if n.name == "add").target = "upmem"
        placement = place(g, policy="cpu")
        assert placement["add"].kind == "upmem"
        assert placement["h1"].kind == "cpu"

    def test_node_forced_onto_incapable_target_rejected(self, tiny_decoder):
        next(
            n for n in tiny_decoder.nodes if n.name == "L0.fc"
        ).target = "simplepim"
        with pytest.raises(GraphError, match="cannot compile"):
            place(tiny_decoder, policy="upmem")

    @pytest.mark.parametrize("policy", ["gpu-only", "default"])
    def test_unknown_policy_rejected(self, tiny_decoder, policy):
        with pytest.raises(GraphError, match="unknown placement policy"):
            place(tiny_decoder, policy=policy)


class TestExecution:
    def test_graph_run_bit_for_bit_equals_per_op_runs(self, tiny_decoder):
        """The acceptance contract: orchestrated execution is exactly a
        chain of individual ``Executable.run`` calls, views read as
        NumPy views of their bases."""
        exe = compile_graph(tiny_decoder, target="upmem")
        inputs = tiny_decoder.random_inputs(5)
        got = exe.run_tensors(inputs)

        env = dict(inputs)
        placement = exe.placement
        order = tiny_decoder.topological_order()
        views = tiny_decoder.view_schedule(order)
        assert views[0] == []  # no view over an input here
        for node, node_views in zip(order, views[1:]):
            single = repro.compile(
                node.workload,
                target=placement[node.name],
                params=node.params,
            )
            feed = {
                wl_name: env[graph_name]
                for wl_name, graph_name, _ in node.input_bindings()
            }
            (env[node.output],) = single.run(feed)
            for view in node_views:
                flat = env[view.base].reshape(-1)
                env[view.name] = flat[
                    view.offset:view.offset + view.size
                ].reshape(view.shape)
        for name in tiny_decoder.output_names:
            assert got[name].tobytes() == env[name].tobytes()

    def test_outputs_match_numpy_reference(self, tiny_decoder):
        inputs = tiny_decoder.random_inputs(2)
        want = tiny_decoder.reference_outputs(inputs)
        for policy in ("upmem", "cpu", "mixed"):
            exe = compile_graph(
                tiny_decoder, placement=place(tiny_decoder, policy=policy)
            )
            got = exe.run_tensors(inputs)
            for name, ref in want.items():
                np.testing.assert_allclose(
                    got[name], ref, rtol=1e-3, atol=1e-5
                )

    def test_front_door_compiles_graphs(self, tiny_decoder):
        exe = repro.compile(tiny_decoder, target="upmem")
        assert isinstance(exe, GraphExecutable)
        assert exe.latency > 0

    def test_front_door_rejects_graph_level_params(self, tiny_decoder):
        """Schedule params are per node; a graph-level params= would be
        silently meaningless, so it is an explicit error."""
        with pytest.raises(ValueError, match="per node"):
            repro.compile(tiny_decoder, target="upmem",
                          params={"m_dpus": 4})

    def test_missing_input_rejected(self, tiny_decoder):
        exe = compile_graph(tiny_decoder, target="upmem")
        inputs = tiny_decoder.random_inputs(0)
        inputs.pop("x")
        with pytest.raises(KeyError, match="missing inputs"):
            exe.run(inputs)

    def test_incomplete_placement_rejected(self, tiny_decoder):
        placement = place(tiny_decoder, policy="upmem")
        placement.pop("L0.fc")
        with pytest.raises(ValueError, match="placement misses"):
            GraphExecutable(tiny_decoder, placement, ExecutablePool())

    def test_shared_programs_compile_once(self):
        pool = ExecutablePool(capacity=64)
        graph = gptj_model_graph(TINY, layers=2, capacity=4)
        compile_graph(graph, target="upmem", pool=pool)
        stats = pool.stats()
        # Every layer binds one program per node role: the second layer
        # compiles nothing.
        assert stats["misses"] == len(graph) // 2
        assert stats["hits"] == len(graph) // 2


class TestCostModel:
    def test_cpu_placement_charges_no_bus_traffic(self, tiny_decoder):
        exe = compile_graph(
            tiny_decoder, placement=place(tiny_decoder, policy="cpu")
        )
        profile = exe.profile()
        assert profile.latency.h2d == 0.0
        assert profile.latency.d2h == 0.0
        assert profile.staging_s == 0.0
        assert profile.total > 0

    def test_staging_charged_once_per_const_tensor(self, tiny_decoder):
        exe = compile_graph(tiny_decoder, target="upmem")
        staged = [c for c in exe.profile().nodes if c.staging_s > 0]
        # qkv_gen, attn_score, attn_value, attn_proj, fc, fc_proj.
        assert len(staged) == 6
        assert exe.profile().steady_state_s < exe.profile().total

    def test_dynamic_input_in_const_slot_pays_recurring_h2d(self):
        """A non-const graph input bound to a workload's const slot
        carries fresh data every run: recurring H2D, never staging."""
        from repro.graph import ModelGraph
        from repro.workloads import mtv

        g = ModelGraph("dyn-weight")
        g.add_input("w", (16, 16))  # note: NOT const
        g.add_input("x", (16,))
        g.add_node(
            "h", mtv(16, 16), {"A": "w", "B": "x"}, "y",
            params={"m_dpus": 4, "k_dpus": 1, "n_tasklets": 2, "cache": 16,
                    "host_threads": 1, "unroll": 0},
        )
        exe = compile_graph(g, target="upmem")
        (cost,) = exe.profile().nodes
        assert cost.staging_s == 0.0
        assert cost.h2d_s > 0.0
        assert exe.profile().steady_state_s == exe.profile().total

    def test_warm_pool_stages_nothing(self, tiny_decoder):
        pool = ExecutablePool(capacity=64)
        compile_graph(tiny_decoder, target="upmem", pool=pool)
        warm = compile_graph(tiny_decoder, target="upmem", pool=pool)
        assert warm.profile().staging_s == 0.0

    def test_pim_to_pim_edges_elide_transfers(self):
        """In an all-PIM chain, only the first node pays dynamic H2D and
        only the last pays D2H."""
        g = chain_graph()
        for node in g.nodes:
            node.target = "upmem"
        exe = compile_graph(g, target="upmem")
        costs = {c.node: c for c in exe.profile().nodes}
        assert costs["h1"].crossing_in  # x arrives from the host
        assert costs["add"].crossing_in  # x2 is a dynamic external input
        # h2 reads only PIM-resident data (t2) and its const weight.
        assert not costs["h2"].crossing_in
        assert costs["h2"].h2d_s == 0.0
        assert not costs["h1"].crossing_out
        assert not costs["add"].crossing_out
        assert costs["h1"].d2h_s == 0.0 and costs["add"].d2h_s == 0.0
        assert costs["h2"].crossing_out  # y is a graph output
        assert costs["h2"].d2h_s > 0.0

    def test_boundary_edges_pay_transfers(self, tiny_decoder):
        exe = compile_graph(
            tiny_decoder, placement=place(tiny_decoder, policy="mixed")
        )
        costs = {c.node: c for c in exe.profile().nodes}
        # The PIM score node reads the host-produced query slice.
        assert costs["L0.attn_score"].crossing_in
        assert costs["L0.attn_score"].h2d_s > 0
        # ... and its softmax epilogue runs on the host.
        assert costs["L0.attn_score"].crossing_out
        assert costs["L0.attn_score"].d2h_s > 0

    def test_profile_totals_are_additive(self, tiny_decoder):
        profile = compile_graph(tiny_decoder, target="upmem").profile()
        total = sum(c.total_s for c in profile.nodes) + profile.staging_s
        assert profile.total == pytest.approx(total, rel=1e-9)

    def test_memory_plan_exposed(self, tiny_decoder):
        exe = compile_graph(tiny_decoder, target="upmem")
        plan = exe.memory_plan
        assert plan.arena_bytes < plan.naive_bytes

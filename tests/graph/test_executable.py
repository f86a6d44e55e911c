"""GraphExecutable: placement, compilation, execution, cost model."""

from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.graph import (
    GraphError,
    GraphExecutable,
    ModelGraph,
    compile_graph,
    gptj_model_graph,
    place,
)
from repro.graph.executable import pool_keys
from repro.serve.pool import ExecutablePool
from repro.target import UpmemTarget, get_target
from repro.upmem.config import UpmemConfig
from repro.workloads import mtv

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
        # The fused QKV/FC-up program makes Q/K/V and the fused
        # projections read the attention output: tagged attn, both run
        # on PIM, FC rows included (they ran on the host while ``fc``
        # and ``fc_proj`` were ffn nodes).
        assert placement["L0.qkv_fc"].kind == "upmem"
        assert placement["L0.proj"].kind == "upmem"
        g = ModelGraph("ffn")
        g.add_input("w", (16, 16), const=True)
        g.add_input("x", (16,))
        g.add_node("fc", mtv(16, 16), {"A": "w", "B": "x"}, "y",
                   tags=("ffn",))
        assert place(g, policy="mixed")["fc"].kind == "cpu"

    @pytest.mark.parametrize("policy", ["upmem", "cpu", "mixed"])
    def test_each_side_is_one_target_instance(self, tiny_decoder, policy):
        """Every node placed on one side shares one Target object, so
        the whole graph has one pool identity and one config per side."""
        placement = place(tiny_decoder, policy)
        by_kind = {}
        for target in placement.values():
            assert by_kind.setdefault(target.kind, target) is target

    def test_default_policy_is_upmem(self, tiny_decoder):
        """``place`` and ``compile_graph`` default to the one name fig17
        reports its everything-PIM row under."""
        want = {
            n: t.kind for n, t in place(tiny_decoder, policy="upmem").items()
        }
        assert {n: t.kind for n, t in place(tiny_decoder).items()} == want
        exe = compile_graph(tiny_decoder)
        assert {n: t.kind for n, t in exe.placement.items()} == want

    def test_node_the_host_cannot_compile_rejected(self):
        """A node the policy keeps on the host must have a host
        reference: placement refuses it, not a later compile."""
        g = chain_graph()
        node = next(n for n in g.nodes if n.name == "add")
        node.workload = replace(node.workload, reference=None)
        with pytest.raises(GraphError, match="cannot compile"):
            place(g, "upmem")

    @pytest.mark.parametrize("policy", ["gpu-only", "default"])
    def test_unknown_policy_rejected(self, tiny_decoder, policy):
        with pytest.raises(GraphError, match="unknown placement policy"):
            place(tiny_decoder, policy=policy)

    def test_configured_target_never_aliases_kind(self):
        """A differently configured Target instance of one kind is a
        different compile: a hand-built placement on a two-rank machine
        shares the default placement's host programs and none of its PIM
        ones."""
        g = chain_graph()
        default = place(g, "upmem")
        two_ranks = UpmemTarget(config=UpmemConfig(n_ranks=2))
        configured = {
            name: two_ranks if target.kind == "upmem" else target
            for name, target in default.items()
        }
        pim_keys = pool_keys(g, default) - pool_keys(g, configured)
        assert len(pim_keys) == 1  # h1 and h2 bind one mtv program
        pool = ExecutablePool(capacity=8)
        GraphExecutable(g, default, pool)
        misses = pool.stats()["misses"]
        GraphExecutable(g, configured, pool)
        assert pool.stats()["misses"] == misses + len(pim_keys)

    @pytest.mark.parametrize("option", ["pim", "host"])
    def test_place_takes_only_a_policy(self, tiny_decoder, option):
        """A policy names both sides; there is no per-side override."""
        with pytest.raises(TypeError, match=option):
            place(tiny_decoder, "upmem", **{option: "cpu"})


class TestExecution:
    def test_graph_run_bit_for_bit_equals_per_op_runs(self, tiny_decoder):
        """The acceptance contract: orchestrated execution is exactly a
        chain of individual ``Executable.run`` calls, views read as
        NumPy views of their bases and the concat as their copy."""
        exe = compile_graph(tiny_decoder)
        inputs = tiny_decoder.random_inputs(5)
        got = exe.run_tensors(inputs)

        env = dict(inputs)
        placement = exe.placement
        order = tiny_decoder.topological_order()
        aliases = tiny_decoder.view_schedule(order)
        assert aliases[0] == []  # no view over an input here
        for node, node_aliases in zip(order, aliases[1:]):
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
            for alias in node_aliases:
                if alias.name in tiny_decoder.concats:
                    env[alias.name] = np.concatenate(
                        [env[part] for part in alias.parts]
                    )
                    continue
                flat = env[alias.base].reshape(-1)
                env[alias.name] = flat[
                    alias.offset:alias.offset + alias.size
                ].reshape(alias.shape)
        for name in tiny_decoder.output_names:
            assert got[name].tobytes() == env[name].tobytes()

    def test_outputs_match_numpy_reference(self, tiny_decoder):
        inputs = tiny_decoder.random_inputs(2)
        want = tiny_decoder.reference_outputs(inputs)
        for policy in ("upmem", "cpu", "mixed"):
            got = compile_graph(tiny_decoder, policy).run_tensors(inputs)
            for name, ref in want.items():
                np.testing.assert_allclose(
                    got[name], ref, rtol=1e-3, atol=1e-5
                )

    def test_front_door_refuses_graphs(self):
        """A model graph is many programs, not a workload: the front
        door names the graph compiler instead of compiling it."""
        graph = gptj_model_graph(TINY, layers=1, capacity=4)
        with pytest.raises(TypeError, match="compile_graph"):
            repro.compile(graph)
        exe = compile_graph(graph)
        assert not isinstance(exe, repro.target.Executable)
        assert not hasattr(exe, "run") and not hasattr(exe, "latency")

    @pytest.mark.parametrize("what", ["op name", "node", "graph executable"])
    def test_front_door_refuses_non_workloads(self, what):
        """Only a Workload or a Schedule compiles: anything else fails
        at the front door, by its type name, before a target sees it."""
        graph = chain_graph()
        thing = {
            "op name": "mtv",
            "node": graph.nodes[0],
            "graph executable": compile_graph(graph, "cpu"),
        }[what]
        with pytest.raises(TypeError, match=type(thing).__name__):
            repro.compile(thing)

    def test_missing_input_rejected(self, tiny_decoder):
        exe = compile_graph(tiny_decoder)
        inputs = tiny_decoder.random_inputs(0)
        inputs.pop("x")
        with pytest.raises(KeyError, match="missing inputs"):
            exe.run_tensors(inputs)

    def test_incomplete_placement_rejected(self, tiny_decoder):
        placement = place(tiny_decoder, policy="upmem")
        placement.pop("L0.qkv_fc")
        with pytest.raises(ValueError, match="placement misses"):
            GraphExecutable(tiny_decoder, placement, ExecutablePool())

    def test_shared_programs_compile_once(self):
        pool = ExecutablePool(capacity=64)
        graph = gptj_model_graph(TINY, layers=2, capacity=4)
        GraphExecutable(graph, place(graph), pool)
        stats = pool.stats()
        # Every layer binds one program per node role: the second layer
        # compiles nothing.
        assert stats["misses"] == len(graph) // 2
        assert stats["hits"] == len(graph) // 2


class TestCostModel:
    def test_cpu_placement_charges_no_bus_traffic(self, tiny_decoder):
        profile = compile_graph(tiny_decoder, "cpu").profile()
        assert profile.latency.h2d == 0.0
        assert profile.latency.d2h == 0.0
        assert profile.staging_s == 0.0
        assert profile.total > 0

    def test_staging_charged_once_per_const_tensor(self, tiny_decoder):
        exe = compile_graph(tiny_decoder)
        staged = [c for c in exe.profile().nodes if c.staging_s > 0]
        # qkv_fc, attn_score, attn_value, proj.
        assert len(staged) == 4
        assert exe.profile().steady_state_s < exe.profile().total

    def test_a_host_producer_makes_its_pim_reader_cross(self):
        """Under ``mixed`` an ``ffn`` node runs on the host, so the PIM
        node reading its output pays the H2D; under ``upmem`` the same
        output hands off in MRAM."""
        g = ModelGraph("ffn-then-attn")
        g.add_input("w1", (16, 16), const=True)
        g.add_input("w2", (16, 16), const=True)
        g.add_input("x", (16,))
        small = {"m_dpus": 4, "k_dpus": 1, "n_tasklets": 2, "cache": 16,
                 "host_threads": 1, "unroll": 0}
        g.add_node("fc", mtv(16, 16), {"A": "w1", "B": "x"}, "t",
                   params=small, tags=("ffn",))
        g.add_node("attn", mtv(16, 16), {"A": "w2", "B": "t"}, "y",
                   params=small, tags=("attn",))
        reader = {
            policy: compile_graph(g, policy).profile().nodes[1]
            for policy in ("mixed", "upmem")
        }
        assert reader["mixed"].target == reader["upmem"].target == "upmem"
        assert reader["mixed"].crossing_in and reader["mixed"].h2d_s > 0
        assert not reader["upmem"].crossing_in
        assert reader["upmem"].h2d_s == 0.0

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
        exe = compile_graph(g)
        (cost,) = exe.profile().nodes
        assert cost.staging_s == 0.0
        assert cost.h2d_s > 0.0
        assert exe.profile().steady_state_s == exe.profile().total

    def test_warm_pool_stages_nothing(self, tiny_decoder):
        pool = ExecutablePool(capacity=64)
        placement = place(tiny_decoder)
        GraphExecutable(tiny_decoder, placement, pool)
        warm = GraphExecutable(tiny_decoder, placement, pool)
        assert warm.profile().staging_s == 0.0

    def test_pim_to_pim_edges_elide_transfers(self):
        """In an all-PIM chain, only the first node pays dynamic H2D and
        only the last pays D2H.  A placement is a plain dict, so one that
        no policy makes (the element-wise add on PIM too) is built by
        hand."""
        g = chain_graph()
        upmem = get_target("upmem")
        placement = {node.name: upmem for node in g.nodes}
        exe = GraphExecutable(g, placement, ExecutablePool())
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
        exe = compile_graph(tiny_decoder, "mixed")
        costs = {c.node: c for c in exe.profile().nodes}
        # The PIM score node reads the host-produced query slice.
        assert costs["L0.attn_score"].crossing_in
        assert costs["L0.attn_score"].h2d_s > 0
        # ... and its softmax epilogue runs on the host.
        assert costs["L0.attn_score"].crossing_out
        assert costs["L0.attn_score"].d2h_s > 0

    def test_profile_totals_are_additive(self, tiny_decoder):
        profile = compile_graph(tiny_decoder).profile()
        total = sum(c.total_s for c in profile.nodes) + profile.staging_s
        assert profile.total == pytest.approx(total, rel=1e-9)

    def test_memory_plan_exposed(self, tiny_decoder):
        exe = compile_graph(tiny_decoder)
        plan = exe.memory_plan
        assert plan.arena_bytes < plan.naive_bytes

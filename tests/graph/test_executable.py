"""GraphExecutable: its one target, compilation, execution, cost model."""

from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.cluster import CLUSTER_SIM
from repro.graph import (
    GPTJ_SIM,
    GraphError,
    GraphExecutable,
    ModelGraph,
    compile_graph,
    gptj_model_graph,
    place,
    plan_memory,
)
from repro.graph.executable import pool_keys
from repro.serve.pool import ExecutablePool
from repro.target import TargetError, UpmemTarget, list_targets
from repro.upmem.config import UpmemConfig
from repro.workloads import mtv

from .conftest import TINY, chain_graph, host_glue


class TestPlacement:
    def test_upmem_puts_every_node_on_pim(self, tiny_decoder):
        target = place(tiny_decoder, "upmem")
        assert target.kind == "upmem"
        exe = compile_graph(tiny_decoder, target)
        assert exe.target is target
        assert {c.target for c in exe.profile().nodes} == {"upmem"}

    def test_cpu_puts_every_node_on_the_host(self, tiny_decoder):
        profile = compile_graph(tiny_decoder, "cpu").profile()
        assert {c.target for c in profile.nodes} == {"cpu"}

    def test_default_target_is_upmem(self, tiny_decoder):
        """``place`` and ``compile_graph`` default to the kind fig17
        reports its PIM row under."""
        assert place(tiny_decoder).kind == "upmem"
        assert compile_graph(tiny_decoder).target.kind == "upmem"

    def test_a_configured_target_passes_through(self, tiny_decoder):
        """As ``repro.compile`` takes it: a kind string builds the
        default instance, a configured instance is the target."""
        two_ranks = UpmemTarget(config=UpmemConfig(n_ranks=2))
        assert place(tiny_decoder, two_ranks) is two_ranks

    @pytest.mark.parametrize("kind", ["upmem", "cpu"])
    def test_each_side_is_one_target_instance(self, tiny_decoder, kind):
        """Every node compiles for the one Target object ``place``
        returned, so the whole graph has one pool identity and one
        config."""
        target = place(tiny_decoder, kind)
        pool = ExecutablePool(capacity=64)
        GraphExecutable(tiny_decoder, target, pool)
        for node in tiny_decoder.nodes:
            exe, loaded = pool.get(node.workload, target, node.params)
            assert not loaded and exe.target is target

    @pytest.mark.parametrize(
        "kind", [k for k in list_targets() if k != "simplepim"]
    )
    def test_every_kind_that_supports_the_chain_compiles_all_of_it(
        self, kind
    ):
        """A kind that supports every node runs the whole chain, in
        graph order; the ``cpu`` roofline prices its memory traffic
        inside its compute line, so its lines carry no bus traffic."""
        g = chain_graph()
        exe = compile_graph(g, kind)
        assert exe.target.kind == kind
        costs = exe.profile().nodes
        assert [c.node for c in costs] == [
            n.name for n in g.topological_order()
        ]
        assert {c.target for c in costs} == {kind}
        if kind == "cpu":
            assert all(
                c.h2d_s == c.d2h_s == c.staging_s == 0.0 for c in costs
            )
        inputs = g.random_inputs(4)
        got = exe.run_tensors(inputs)
        for name, ref in g.reference_outputs(inputs).items():
            np.testing.assert_allclose(got[name], ref, rtol=1e-5, atol=1e-6)

    def test_a_kind_missing_an_op_names_the_first_node(self):
        """SimplePIM has no matvec: ``place`` names the chain's first
        ``mtv`` node, not a later one."""
        with pytest.raises(GraphError, match="node 'h1' \\(mtv\\) cannot"
                           " compile for target 'simplepim'"):
            place(chain_graph(), "simplepim")

    def test_unknown_target_rejected(self, tiny_decoder):
        with pytest.raises(TargetError, match="unknown target"):
            place(tiny_decoder, "gpu-only")

    def test_node_the_host_cannot_compile_rejected(self):
        """The cpu roofline needs a host reference: placement refuses a
        node without one, not a later compile."""
        g = chain_graph()
        node = next(n for n in g.nodes if n.name == "add")
        node.workload = replace(node.workload, reference=None)
        with pytest.raises(GraphError, match="'add' .*cannot compile"):
            place(g, "cpu")

    def test_host_only_glue_rejected_before_any_pool_load(self, monkeypatch):
        """A glue node with no sketch has no PIM program: compiling the
        graph for upmem names the node before the pool loads anything."""
        g = chain_graph()
        g.add_node("glue", host_glue([(16,)], (16,), 16.0), {"I0": "y"}, "z")
        loads = []
        get = ExecutablePool.get
        monkeypatch.setattr(
            ExecutablePool, "get",
            lambda pool, *args, **kw: loads.append(args) or get(
                pool, *args, **kw
            ),
        )
        with pytest.raises(GraphError, match="'glue' .*cannot compile for"
                           " target 'upmem'"):
            compile_graph(g, "upmem")
        assert loads == []
        compile_graph(g, "cpu")  # the host runs it
        assert len(loads) == len(g.nodes)

    def test_configured_target_never_aliases_kind(self):
        """A differently configured Target instance of one kind is a
        different compile: a graph placed on a two-rank machine shares
        none of the default machine's programs."""
        g = chain_graph()
        default = place(g, "upmem")
        two_ranks = UpmemTarget(config=UpmemConfig(n_ranks=2))
        keys = pool_keys(g, default)
        assert len(keys) == 2  # h1 and h2 bind one mtv program, add a va
        assert not keys & pool_keys(g, two_ranks)
        pool = ExecutablePool(capacity=8)
        GraphExecutable(g, default, pool)
        misses = pool.stats()["misses"]
        GraphExecutable(g, two_ranks, pool)
        assert pool.stats()["misses"] == misses + len(keys)

    @pytest.mark.parametrize("option", ["pim", "host"])
    def test_place_takes_one_target(self, tiny_decoder, option):
        """A graph compiles for one target; there is no per-side
        override."""
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
        order = tiny_decoder.topological_order()
        aliases = tiny_decoder.view_schedule(order)
        assert aliases[0] == []  # no view over an input here
        for node, node_aliases in zip(order, aliases[1:]):
            single = repro.compile(
                node.workload,
                target=exe.target,
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
        for kind in ("upmem", "cpu"):
            got = compile_graph(tiny_decoder, kind).run_tensors(inputs)
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

    def test_the_chain_runs_on_pim_under_verify(self, monkeypatch):
        """Every node of the chain, the element-wise ``va`` included,
        runs on PIM with the scalar interpreter checking each vector
        plan bit for bit, and the outputs match the NumPy reference."""
        monkeypatch.setenv("REPRO_SIM_MODE", "verify")
        g = chain_graph()
        exe = compile_graph(g, "upmem")
        assert {c.target for c in exe.profile().nodes} == {"upmem"}
        inputs = g.random_inputs(3)
        got = exe.run_tensors(inputs)
        for name, ref in g.reference_outputs(inputs).items():
            np.testing.assert_allclose(got[name], ref, rtol=1e-5, atol=1e-6)

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

    def test_dynamic_input_in_const_slot_pays_recurring_h2d(self):
        """A non-const graph input bound to a workload's const slot
        carries fresh data every run: recurring H2D, never staging."""
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
        target = place(tiny_decoder)
        GraphExecutable(tiny_decoder, target, pool)
        warm = GraphExecutable(tiny_decoder, target, pool)
        assert warm.profile().staging_s == 0.0

    def test_boundary_edges_pay_transfers(self, tiny_decoder):
        exe = compile_graph(tiny_decoder)
        costs = {c.node: c for c in exe.profile().nodes}
        # The PIM score node reads the host-produced query slice ...
        assert costs["L0.attn_score"].h2d_s > 0
        # ... and its softmax epilogue runs on the host.
        assert costs["L0.attn_score"].d2h_s > 0

    def test_profile_totals_are_additive(self, tiny_decoder):
        profile = compile_graph(tiny_decoder).profile()
        total = sum(c.total_s for c in profile.nodes) + profile.staging_s
        assert profile.total == pytest.approx(total, rel=1e-9)

    def test_memory_plan_exposed(self, tiny_decoder):
        plan = plan_memory(tiny_decoder)
        assert plan.arena_bytes < plan.naive_bytes


class TestEveryEdgeCrosses:
    def test_each_pim_line_is_its_modules_over_the_builder_sweep(self):
        """Over every graph the builder emits (both model configs,
        1-3 layers, four cache capacities), a PIM node's bus lines are
        its own module's, bit for bit: the whole D2H, and the H2D share
        of its on-DPU bytes that are not staged.  No edge hands a tensor
        off in MRAM."""
        pool = ExecutablePool(capacity=256)
        checked = 0
        for config in (GPTJ_SIM, CLUSTER_SIM):
            for layers in (1, 2, 3):
                for capacity in (4, 8, 16, 24):
                    graph = gptj_model_graph(config, layers, capacity)
                    exe = GraphExecutable(graph, place(graph), pool)
                    costs = exe.profile().nodes
                    for node, cost in zip(graph.topological_order(), costs):
                        program, _ = pool.get(
                            node.workload, exe.target, node.params
                        )
                        lat = program.profile().latency
                        slots = {wl: name for wl, name, _ in
                                 node.input_bindings()}
                        const = node.workload.const_inputs or ()
                        on_dpus = [
                            spec.global_buffer
                            for spec in program.lowered.transfer("h2d")
                        ]
                        total = sum(b.nbytes for b in on_dpus)
                        staged = sum(
                            b.nbytes for b in on_dpus
                            if b.name in const
                            and slots.get(b.name) in graph.const_inputs
                        )
                        assert cost.d2h_s == lat.d2h, node.name
                        assert cost.h2d_s == (total - staged) * (
                            lat.h2d / total
                        ), node.name
                        checked += 1
        assert checked == 192

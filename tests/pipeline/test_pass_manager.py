"""PassManager composition, gating, instrumentation and observability."""

import pytest

from repro.lowering import LowerOptions, lower
from repro.pipeline import (
    FunctionPass,
    Pass,
    PassContext,
    PassInstrument,
    PassManager,
    PipelineError,
    get_pipeline,
    has_pipeline,
    kernel_passes,
    list_pipelines,
    register_pipeline,
)
from repro.tir import stmt_to_str

from ..conftest import make_mtv_schedule


class _Tag(Pass):
    """Appends its name to a shared log (order probe)."""

    def __init__(self, name, min_level="O0"):
        self.name = name
        self.min_level = min_level

    def run(self, obj, ctx):
        obj.append(self.name)
        return obj


class TestOrdering:
    def test_passes_run_in_sequence(self):
        pm = PassManager([_Tag("a"), _Tag("b"), _Tag("c")])
        assert pm.run([]) == ["a", "b", "c"]

    def test_reorder(self):
        pm = PassManager([_Tag("a"), _Tag("b"), _Tag("c")])
        pm.reorder(["c", "a", "b"])
        assert pm.run([]) == ["c", "a", "b"]

    def test_reorder_must_be_complete(self):
        pm = PassManager([_Tag("a"), _Tag("b")])
        with pytest.raises(PipelineError):
            pm.reorder(["a"])

    def test_insert_and_remove(self):
        pm = PassManager([_Tag("a"), _Tag("c")])
        pm.insert_after("a", _Tag("b"))
        pm.insert_before("a", _Tag("pre"))
        assert pm.pass_names() == ["pre", "a", "b", "c"]
        pm.remove("pre")
        assert pm.run([]) == ["a", "b", "c"]

    def test_unknown_pass_name(self):
        pm = PassManager([_Tag("a")])
        with pytest.raises(KeyError):
            pm.index("nope")


class TestGating:
    def test_min_level_skips_and_records(self):
        pm = PassManager([_Tag("base"), _Tag("o2", min_level="O2")])
        ctx = PassContext(opt_level="O1")
        assert pm.run([], ctx) == ["base"]
        by_name = {t.name: t for t in ctx.timings}
        assert by_name["o2"].skipped
        assert not by_name["base"].skipped

    def test_level_enables(self):
        pm = PassManager([_Tag("o2", min_level="O2")])
        assert pm.run([], PassContext(opt_level="O3")) == ["o2"]

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            PassContext(opt_level="O9")


class _Recorder(PassInstrument):
    def __init__(self):
        self.events = []

    def run_before_pass(self, pass_name, obj, ctx):
        self.events.append(("before", pass_name))

    def run_after_pass(self, pass_name, obj, ctx):
        self.events.append(("after", pass_name))


class TestInstruments:
    def test_hooks_fire_in_order(self):
        rec = _Recorder()
        ctx = PassContext(instruments=[rec])
        PassManager([_Tag("a"), _Tag("b")]).run([], ctx)
        assert rec.events == [
            ("before", "a"), ("after", "a"), ("before", "b"), ("after", "b"),
        ]

    def test_skipped_passes_not_instrumented(self):
        rec = _Recorder()
        ctx = PassContext(opt_level="O0", instruments=[rec])
        PassManager([_Tag("a"), _Tag("b", min_level="O1")]).run([], ctx)
        assert rec.events == [("before", "a"), ("after", "a")]

    def test_hooks_fire_on_real_build_pipeline(self):
        rec = _Recorder()
        ctx = PassContext(opt_level="O3", instruments=[rec], module_name="mtv")
        get_pipeline("build").run(make_mtv_schedule(37, 50), ctx)
        ran = [name for phase, name in rec.events if phase == "after"]
        assert ran == [
            "lower",
            "eliminate_copy_checks",
            "tighten_loop_bounds",
            "hoist_invariant_branches",
        ]


class TestObservability:
    def test_timings_recorded(self):
        ctx = PassContext(module_name="mtv")
        get_pipeline("build").run(make_mtv_schedule(37, 50), ctx)
        executed = [t for t in ctx.timings if not t.skipped]
        assert len(executed) == 4
        assert all(t.seconds >= 0 for t in executed)
        assert "lower" in ctx.timing_report()

    def test_ir_dumps(self):
        ctx = PassContext(module_name="mtv", dump_ir=True)
        module = get_pipeline("build").run(make_mtv_schedule(37, 50), ctx)
        assert [name for name, _ in ctx.ir_dumps] == [
            "lower",
            "eliminate_copy_checks",
            "tighten_loop_bounds",
            "hoist_invariant_branches",
        ]
        # The last snapshot is the final kernel.
        assert ctx.ir_dumps[-1][1] == stmt_to_str(module.kernel)

    def test_ambient_context(self):
        assert PassContext.current() is None
        with PassContext() as ctx:
            assert PassContext.current() is ctx
        assert PassContext.current() is None


class TestErrors:
    def test_none_return_rejected(self):
        pm = PassManager([FunctionPass(lambda obj: None, name="bad")])
        with pytest.raises(PipelineError):
            pm.run([])

    def test_unknown_pipeline(self):
        with pytest.raises(PipelineError):
            get_pipeline("no-such-pipeline")


class TestRegistry:
    def test_builtins_registered(self):
        for name in ("build", "optimize"):
            assert has_pipeline(name)
            assert name in list_pipelines()

    def test_register_and_duplicate(self):
        name = "test-custom-pipeline"
        if not has_pipeline(name):
            register_pipeline(name, lambda: PassManager([_Tag("x")], name=name))
        assert get_pipeline(name).run([]) == ["x"]
        with pytest.raises(PipelineError):
            register_pipeline(name, lambda: PassManager())

    def test_factory_returns_fresh_instances(self):
        pm = get_pipeline("build")
        pm.remove("lower")
        assert get_pipeline("build").pass_names()[0] == "lower"

    def test_kernel_passes_levels(self):
        levels = {p.name: p.min_level for p in kernel_passes()}
        assert levels == {
            "eliminate_copy_checks": "O1",
            "tighten_loop_bounds": "O2",
            "hoist_invariant_branches": "O3",
        }

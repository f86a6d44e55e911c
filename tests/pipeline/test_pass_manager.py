"""PassManager ordering, level gating, and the tracer events it emits."""

import pytest

import repro
from repro.lowering import lower
from repro.obs import Tracer, use_tracer
from repro.pipeline import (
    KernelPass,
    Pass,
    PassContext,
    PassManager,
    PipelineError,
    build,
)
from repro.tir import stmt_to_str

from ..conftest import make_mtv_schedule

BUILD_PASSES = [
    "lower",
    "eliminate_copy_checks",
    "tighten_loop_bounds",
    "hoist_invariant_branches",
]


class _Tag(Pass):
    """Appends its name to a shared log (order probe)."""

    def __init__(self, name, min_level="O0"):
        self.name = name
        self.min_level = min_level

    def run(self, obj, ctx):
        obj.append(self.name)
        return obj


def _traced(pipeline, obj, ctx, wall_clock=False):
    tracer = Tracer(wall_clock=wall_clock)
    with use_tracer(tracer):
        out = pipeline.run(obj, ctx)
    return out, tracer


def _events(tracer):
    return [(e.phase, e.name) for e in tracer.events]


class TestOrdering:
    def test_passes_run_in_sequence(self):
        pm = PassManager([_Tag("a"), _Tag("b"), _Tag("c")])
        assert pm.run([]) == ["a", "b", "c"]


class TestGating:
    def test_min_level_skips_and_records(self):
        pm = PassManager([_Tag("base"), _Tag("o2", min_level="O2")])
        out, tracer = _traced(pm, [], PassContext(opt_level="O1"))
        assert out == ["base"]
        assert ("i", "skip o2") in _events(tracer)
        assert [s.name for s in tracer.spans] == ["base", "pipeline pipeline"]

    def test_level_enables(self):
        pm = PassManager([_Tag("o2", min_level="O2")])
        assert pm.run([], PassContext(opt_level="O3")) == ["o2"]

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            PassContext(opt_level="O9")
        with pytest.raises(ValueError):
            repro.compile(make_mtv_schedule(8, 8), opt_level="O7")


class TestInstruments:
    """The ambient tracer is the one instrument: a span per executed
    pass inside the pipeline's span, an instant per gated one."""

    def test_hooks_fire_in_order(self):
        _, tracer = _traced(
            PassManager([_Tag("a"), _Tag("b")], name="p"), [], PassContext()
        )
        assert _events(tracer) == [
            ("B", "pipeline p"),
            ("B", "a"), ("E", "a"), ("B", "b"), ("E", "b"),
            ("E", "pipeline p"),
        ]

    def test_skipped_passes_not_instrumented(self):
        pm = PassManager([_Tag("a"), _Tag("b", min_level="O1")], name="p")
        _, tracer = _traced(pm, [], PassContext(opt_level="O0"))
        assert _events(tracer) == [
            ("B", "pipeline p"), ("B", "a"), ("E", "a"), ("i", "skip b"),
            ("E", "pipeline p"),
        ]

    def test_hooks_fire_on_real_build_pipeline(self):
        ctx = PassContext(opt_level="O2", module_name="mtv")
        _, tracer = _traced(build, make_mtv_schedule(37, 50), ctx)
        assert _events(tracer) == [
            ("B", "pipeline build"),
            *[(ph, name) for name in BUILD_PASSES[:3] for ph in "BE"],
            ("i", "skip hoist_invariant_branches"),
            ("E", "pipeline build"),
        ]
        begin = tracer.events[0]
        assert (begin.track, begin.cat) == ("pipeline", "compile")
        assert begin.args == {"pipeline": "build", "module": "mtv"}
        assert [
            s.args for s in tracer.spans if s.name in BUILD_PASSES
        ] == [{"opt_level": "O2"}] * 3


class TestObservability:
    def test_timings_recorded(self):
        ctx = PassContext(module_name="mtv")
        _, tracer = _traced(
            build, make_mtv_schedule(37, 50), ctx, wall_clock=True
        )
        wall_ms = {
            s.name: s.args["wall_ms"] for s in tracer.spans
            if s.name in BUILD_PASSES
        }
        assert list(wall_ms) == BUILD_PASSES
        assert all(ms >= 0 for ms in wall_ms.values())

    def test_ir_dumps(self):
        """The kernel after level *k* is the front door at that level."""
        scripts = [
            repro.compile(make_mtv_schedule(37, 50), opt_level=level).script()
            for level in repro.optim.LEVELS
        ]
        assert scripts[0] == stmt_to_str(lower(make_mtv_schedule(37, 50)).kernel)
        assert len(set(scripts)) == 4


class TestErrors:
    def test_none_return_rejected(self):
        class Bad(Pass):
            name = "bad"

            def run(self, obj, ctx):
                return None

        with pytest.raises(PipelineError):
            PassManager([Bad()]).run([])


class TestRegistry:
    """What stands where the registry stood: one module-level object."""

    def test_builtins_registered(self):
        assert repro.pipeline.build is build
        assert build.name == "build"
        assert [p.name for p in build.passes] == BUILD_PASSES

    def test_factory_returns_fresh_instances(self):
        # Every compile shares ``build``, so no caller may be able to
        # change what the next one runs.
        assert isinstance(build.passes, tuple)
        with pytest.raises(AttributeError):
            build.passes.append(_Tag("x"))

    def test_kernel_passes_levels(self):
        levels = {
            p.name: p.min_level for p in build.passes
            if isinstance(p, KernelPass)
        }
        assert levels == {
            "eliminate_copy_checks": "O1",
            "tighten_loop_bounds": "O2",
            "hoist_invariant_branches": "O3",
        }

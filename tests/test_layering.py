"""Package layering and traffic of ``src/repro``, asserted from the
source text.

``repro/__init__`` imports every package, so ``sys.modules`` cannot show
who depends on whom; this walks the ``import`` statements with ``ast``.
The second half counts, tree-wide, who sets each constructor option and
who mentions each public name — under ``src/`` and outside it — and pins
every survivor nothing in the program reaches with the reason it stays.
"""

import ast
import collections
import functools
import importlib
import os
import re

import repro

ROOT = os.path.dirname(repro.__file__)

#: Lowest first.  A module-level import may only reach *down* this list.
ORDER = (
    "obs", "tir", "te", "schedule", "lowering", "optim", "upmem",
    "workloads", "pipeline", "autotune", "baselines", "target", "serve",
    "graph", "decode", "cluster", "harness",
)

#: Every function-local import that crosses a package boundary, with the
#: reason it cannot sit at module level.
LOCAL_IMPORTS = {
    ("autotune/tuner.py", "_search_target", "target"):
        "upward: targets compile through the engine and seed from the sketch"
        " table the tuner searches",
    ("serve/pool.py", "ExecutablePool._compile", "target"):
        "looked up per call so instrumentation wrapping"
        " repro.target.compile.compile sees pool loads",
}

#: A sketch parameter's name, as a whole string literal.
PARAM_NAME = re.compile(r"[nmijk]_dpus|dpu_combine")

#: The search space is spelled in ``autotune/sketch.py``; the only other
#: places that may name its parameters, each with the reason.
PARAM_NAME_SITES = {
    ("harness/experiments.py", "fig3a_cache_tile_sweep"):
        "explicit experiment configuration: single-DPU GEMV tile sweep",
    ("harness/experiments.py", "fig3b_tiling_schemes"):
        "explicit experiment configuration: 1-D vs 2-D tiling",
    ("harness/experiments.py", "fig3c_dpu_sweep"):
        "explicit experiment configuration: DPU-count sweep",
    ("harness/experiments.py", "fig4_boundary_checks"):
        "explicit experiment configuration: misaligned GEMV shapes",
    ("harness/experiments.py", "fig11_mmtv_scaling"):
        "explicit experiment configuration: reads the winner's reduction split",
    ("harness/experiments.py", "fig12_pim_opts"):
        "explicit experiment configuration: fixed params per opt level",
    ("harness/experiments.py", "fig13_breakdown"):
        "explicit experiment configuration: as fig12",
    ("serve/traffic.py", "gptj_serving_mix"):
        "explicit experiment configuration: the serving mix's pinned params",
}


def _package(path):
    """Top-level package under ``repro`` a source file belongs to
    (``None`` for ``repro/__init__.py`` itself, which sits above all)."""
    parts = os.path.relpath(path, ROOT).split(os.sep)
    return parts[0] if len(parts) > 1 else None


def _targets(path, node):
    """Packages under ``repro`` that one import statement names."""
    here = ["repro"] + os.path.relpath(path, ROOT).split(os.sep)[:-1]
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
    elif node.level:
        base = here[: len(here) - node.level + 1]
        module = node.module.split(".") if node.module else []
        if base + module == ["repro"]:  # from .. import a, b
            names = [["repro", alias.name] for alias in node.names]
        else:
            names = [base + module]
    else:
        names = [node.module.split(".")]
    return {n[1] for n in names if n[0] == "repro" and len(n) > 1}


def _sources():
    """(path, parsed module) for every source file under ``repro``."""
    for folder, _, files in os.walk(ROOT):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    yield path, ast.parse(fh.read())


def _imports():
    """(file, enclosing function or None, source package, target package)
    for every cross-package import in the tree."""
    found = []

    def visit(node, path, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                source = _package(path)
                for target in _targets(path, child) - {source}:
                    rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
                    found.append(
                        (rel, scope if in_function else None, source, target)
                    )
            elif isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = f"{scope}.{child.name}" if scope else child.name
                visit(
                    child, path, name,
                    in_function or not isinstance(child, ast.ClassDef),
                )
            else:
                visit(child, path, scope, in_function)

    for path, tree in _sources():
        visit(tree, path, "", False)
    return found


def test_every_package_is_ranked():
    packages = {
        entry for entry in os.listdir(ROOT)
        if os.path.isfile(os.path.join(ROOT, entry, "__init__.py"))
    }
    assert packages == set(ORDER)


def test_module_level_imports_point_down():
    rank = {name: i for i, name in enumerate(ORDER)}
    upward = sorted(
        f"{rel}: {source} -> {target}"
        for rel, scope, source, target in _imports()
        if scope is None and source is not None
        and rank[target] >= rank[source]
    )
    assert upward == []


def test_function_local_imports_are_the_listed_ones():
    local = {
        (rel, scope, target)
        for rel, scope, _, target in _imports()
        if scope is not None
    }
    assert local == set(LOCAL_IMPORTS)


#: The vector runtime's modules (``upmem/vectorize/``), lowest first, and
#: the sibling modules each may import.  The expression compiler and the
#: TIR -> TIR staging rewrites stand alone; nothing below the plan
#: imports the plan or the host programs.
VECTORIZE_ORDER = {
    "expr": set(),
    "staging": set(),
    "ops": {"expr", "staging"},
    "plan": {"expr", "ops", "staging"},
    "host": {"expr", "ops", "plan"},
    "__init__": {"expr", "host", "plan"},
}


def _vectorize_sources():
    folder = os.path.join(ROOT, "upmem", "vectorize")
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name)) as fh:
                yield name[:-3], fh.read()


def test_vector_runtime_modules_import_down():
    found = {}
    for module, text in _vectorize_sources():
        siblings = set()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                parts = node.module.split(".") if node.module else []
            elif (node.module or "").startswith("repro.upmem.vectorize"):
                parts = node.module.split(".")[3:]
            else:
                continue
            siblings.update(
                parts[:1] or [alias.name for alias in node.names]
            )
        found[module] = siblings
    assert found.keys() == VECTORIZE_ORDER.keys()
    upward = {
        module: sorted(siblings - VECTORIZE_ORDER[module])
        for module, siblings in found.items()
        if siblings - VECTORIZE_ORDER[module]
    }
    assert upward == {}


def test_only_the_executor_runs_the_reference():
    """The vector runtime has one path: no module of it names the scalar
    ``Interpreter``, and only ``upmem/executor.py`` builds one."""
    for module, text in _vectorize_sources():
        assert not re.search(r"\bInterpreter\b|_FallbackOp", text), module
    builders = {
        os.path.relpath(path, ROOT).replace(os.sep, "/")
        for path, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "Interpreter"
    }
    assert builders == {"upmem/executor.py"}


def test_sketch_parameter_names_live_in_the_sketch_table():
    found = set()

    def visit(node, rel, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, rel, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (
                isinstance(child, ast.Constant)
                and isinstance(child.value, str)
                and PARAM_NAME.fullmatch(child.value)
            ):
                found.add((rel, scope))
            visit(child, rel, scope)

    for path, tree in _sources():
        rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
        if rel != "autotune/sketch.py":
            visit(tree, rel, "")
    assert found == set(PARAM_NAME_SITES)


#: The model graph's tensor names, as the leading text of a string
#: literal (f-string pieces included).
TENSOR_NAME = re.compile(
    r"(w_qkv|w_proj|w_fc|k_cache|v_cache_t|k_new|v_new|attn_mask)\b"
    r"|(w_qkv|w_proj|w_fc|w_fc_proj|k_cache|v_cache_t|k_new|v_new)_"
)


def test_model_graph_tensor_names_live_in_the_builder():
    """`graph/builder.py` names the model graph's weights, caches, mask
    and new-K/V outputs (`gptj_layer_io`, `ATTN_MASK`); everything else
    reads them from there."""
    spelled = {"graph/builder.py": 0}
    for path, tree in _sources():
        rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and TENSOR_NAME.match(node.value)
            ):
                spelled[rel] = spelled.get(rel, 0) + 1
    assert list(spelled) == ["graph/builder.py"]
    assert spelled["graph/builder.py"] >= 7


# ---------------------------------------------------------------------------
# the traffic count: who sets each option, who references each export
# ---------------------------------------------------------------------------

#: Packages whose options were read first (PR 20).
SERVING = ("graph", "decode", "serve", "cluster")

#: Where call sites are counted; ``src`` is the program, the rest are
#: its tests, benchmarks, examples and the perf ledger.
TOPS = ("src", "tests", "benchmarks", "examples", "perf")


class Traffic(collections.namedtuple("Traffic", "src other")):
    """Sites that set an option (or reference a name): under ``src/``,
    and everywhere else in :data:`TOPS`."""


@functools.lru_cache(maxsize=None)
def _trees():
    """``{path: parsed module}`` for every Python file under TOPS."""
    repo = os.path.dirname(os.path.dirname(ROOT))
    trees = {}
    for top in TOPS:
        for folder, _, files in os.walk(os.path.join(repo, top)):
            for name in sorted(files):
                path = os.path.join(folder, name)
                # This file's own tables name what they pin.
                if name.endswith(".py") and path != os.path.abspath(__file__):
                    with open(path) as fh:
                        trees[path] = ast.parse(fh.read())
    return trees


def _in_src(path):
    return path.startswith(ROOT + os.sep)


def _callee(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", None)


def _defaulted(fn):
    """The parameters of a function that have a default: the keywords a
    caller may leave out."""
    args = fn.args
    return [a.arg for a in args.args[len(args.args) - len(args.defaults):]] + [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d
    ]


def _plain_call(call):
    """Whether a call can reach a module-level function: ``f(...)`` or
    ``module.f(...)``, not a method of ``self`` or of an attribute."""
    func = call.func
    return not isinstance(func, ast.Attribute) or (
        isinstance(func.value, ast.Name)
        and func.value.id not in ("self", "cls")
    )


def _options(cls):
    """Constructor options of a class: ``__init__`` parameters, else the
    init fields of a dataclass."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return [a.arg for a in item.args.args[1:] + item.args.kwonlyargs]
    decorators = [getattr(d, "func", d) for d in cls.decorator_list]
    if not any(getattr(d, "id", None) == "dataclass" for d in decorators):
        return []
    return [
        item.target.id for item in cls.body
        if isinstance(item, ast.AnnAssign)
        and "init=False" not in ast.unparse(item)
    ]


def _calls(node, scope=None):
    """(call, innermost enclosing function or None) under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, scope
        inner = child if isinstance(child, ast.FunctionDef) else scope
        yield from _calls(child, inner)


def _rebuilds(method, cls):
    """Whether a method splats its ``**kwargs`` into its own class's
    constructor or ``dataclasses.replace`` (a functional update)."""
    kwarg = method.args.kwarg
    return kwarg is not None and any(
        _callee(call) in (cls, "replace")
        and any(
            k.arg is None and getattr(k.value, "id", None) == kwarg.arg
            for k in call.keywords
        )
        for call, _ in _calls(method)
    )


@functools.lru_cache(maxsize=None)
def option_traffic():
    """``{class: {option: Traffic}}`` for the public classes of every
    package (a class name two packages export is keyed
    ``package.Class`` the second time), counted over :data:`TOPS` and
    the harness CLI table.  The public functions of the serving
    packages (:data:`SERVING`) are counted too, keyed ``name()``: their
    options are the parameters with a default, set by keyword or by
    position at a plain ``f(...)`` / ``module.f(...)`` call.

    A call inside the class's own definition does not count.  A call of
    ``f(**kw)`` counts when ``f`` splats ``kw`` into the constructor
    (``tiny_engine(**kwargs)``, or a method of the class itself such as
    ``UpmemConfig.with_``), as do the ``dict(opt=...)`` /
    ``setdefault("opt", ...)`` defaults such an ``f`` — or any function
    that splats a mapping into the constructor — builds.  A keyword
    that hands on the enclosing function's own defaulted parameter
    counts only if some caller — or the CLI — sets *that* parameter.
    """
    from repro.harness.experiments import KEYWORDS, TABLE

    trees = _trees()
    calls = [
        (call, fn, _in_src(path))
        for path, tree in trees.items() for call, fn in _calls(tree)
    ]

    # Per key: its options, the parameter names positional arguments
    # fill, and the bare name a direct call spells.
    options, positional, bare, own, names = {}, {}, {}, {}, {}
    for package in ORDER:
        exported = set(importlib.import_module(f"repro.{package}").__all__)
        for path, tree in trees.items():
            if not path.startswith(os.path.join(ROOT, package) + os.sep):
                continue
            for node in tree.body:
                if (
                    isinstance(node, ast.ClassDef)
                    and node.name in exported
                    and _options(node)
                ):
                    key = node.name
                    if key in options:
                        key = f"{package}.{key}"
                    options[key] = positional[key] = _options(node)
                    names[key] = {node.name} | {
                        item.name for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and _rebuilds(item, node.name)
                    }
                elif (
                    package in SERVING
                    and isinstance(node, ast.FunctionDef)
                    and node.name in exported
                    and _defaulted(node)
                ):
                    key = f"{node.name}()"
                    options[key] = _defaulted(node)
                    positional[key] = [a.arg for a in node.args.args]
                    names[key] = {node.name}
                else:
                    continue
                bare[key] = node.name
                own[key] = {id(n) for n in ast.walk(node)}

    splats = [
        (_callee(call), fn.name) for call, fn, _ in calls
        if fn is not None and fn.args.kwarg
        and any(k.arg is None for k in call.keywords)
    ]
    grew = True
    while grew:
        grew = False
        for callee, forwarder in splats:
            for known in names.values():
                if callee in known and forwarder not in known:
                    known.add(forwarder)
                    grew = True

    passed = {
        (row.run.__name__, KEYWORDS.get(arg, arg))
        for row in TABLE for arg in row.args
    }
    passed |= {(_callee(c), k.arg) for c, _, _ in calls for k in c.keywords}

    def handed_on(value, fn):
        if fn is None or not isinstance(value, ast.Name):
            return False
        return (
            value.id in _defaulted(fn)
            and (fn.name, value.id) not in passed
        )

    #: Functions that splat a mapping into a constructor they call
    #: (``Tuner(wl, **flags)``): the ``dict(...)`` they build sets options.
    splatting = {
        (id(fn), cls)
        for call, fn, _ in calls
        for cls, known in names.items()
        if fn is not None and _callee(call) in known
        and any(k.arg is None for k in call.keywords)
    }
    counts = {cls: dict.fromkeys(opts, (0, 0)) for cls, opts in options.items()}
    for call, fn, in_src in calls:
        callee = _callee(call)
        for cls, known in names.items():
            set_here = []
            if (
                callee in known and id(call) not in own[cls]
                and (not cls.endswith("()") or _plain_call(call))
            ):
                if callee == bare[cls]:
                    set_here += positional[cls][: len(call.args)]
                set_here += [
                    k.arg for k in call.keywords
                    if not handed_on(k.value, fn)
                ]
            elif fn is not None and (
                fn.name in known or (id(fn), cls) in splatting
            ):
                if callee == "dict":
                    set_here += [k.arg for k in call.keywords]
                elif callee == "setdefault" and call.args:
                    set_here.append(getattr(call.args[0], "value", None))
            for option in set_here:
                if option in counts[cls]:
                    src, other = counts[cls][option]
                    counts[cls][option] = (src + in_src, other + (not in_src))
    return {
        cls: {option: Traffic(*n) for option, n in opts.items()}
        for cls, opts in counts.items()
    }


def _identifiers(node, skip_imports=False):
    """How often each identifier is mentioned under ``node``: as a name,
    an attribute, a keyword, an imported name, or a dotted part of a
    string (``perf/trace.py`` resolves ``"KernelPass.run"`` by name).
    ``__all__`` lists do not count, nor — with ``skip_imports``, for a
    package's ``__init__`` — the imports that only re-export."""
    skipped = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in sub.targets
        ):
            skipped.update(id(n) for n in ast.walk(sub))
    found = collections.Counter()
    for sub in ast.walk(node):
        if id(sub) in skipped:
            continue
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.keyword) and sub.arg:
            found[sub.arg] += 1
        elif isinstance(sub, ast.alias) and not skip_imports:
            found[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            for part in sub.value.replace(":", ".").split("."):
                if part.isidentifier():
                    found[part] += 1
    return found


def _definitions(tree):
    """(qualified name, defining node) of every public top-level name
    and public method of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")
                    ):
                        yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, target


@functools.lru_cache(maxsize=None)
def export_traffic():
    """``{"package/module.py:Name": Traffic}`` for every public
    top-level name and public method under ``src/repro``: mentions of
    its (unqualified) name outside its own definition.

    ``Traffic.src`` counts the rest of its module and every other
    source file; ``Traffic.other`` the tests, benchmarks, examples and
    perf.  Names are matched as text, so a common one (``run``,
    ``name``) is over-counted and the names this reports with no
    ``src`` mention are a lower bound — but each of them is one nothing
    in the program can reach.
    """
    mentions = {True: collections.Counter(), False: collections.Counter()}
    for path, tree in _trees().items():
        mentions[_in_src(path)].update(
            _identifiers(tree, skip_imports=path.endswith("__init__.py"))
        )
    traffic = {}
    for path, tree in _trees().items():
        if not _in_src(path):
            continue
        rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
        for qualified, node in _definitions(tree):
            name = qualified.rpartition(".")[2]
            traffic[f"{rel}:{qualified}"] = Traffic(
                mentions[True][name] - _identifiers(node)[name],
                mentions[False][name],
            )
    return traffic


#: Every option of the class (a machine description or a record has
#: fields, not knobs: a new one needs no caller of its own).
ALL = "*"

#: Constructor options no call site sets: {class: (options, why they stay)}.
UNSET_OPTIONS = {
    # -- the compiler half ---------------------------------------------------
    "PrimExpr": (
        {"dtype"},
        "abstract node base: call sites build the concrete nodes, which"
        " pass their dtype up positionally",
    ),
    "BinaryOp": ({"a", "b", "dtype"}, "as PrimExpr: `Add(a, b)` is the call site"),
    "CmpOp": ({"a", "b"}, "as PrimExpr: `LT(a, b)` is the call site"),
    "UnaryOp": ({"a"}, "as PrimExpr: `Exp(a)` is the call site"),
    "LoweredModule": (
        {"const_inputs"},
        "assigned on the built module (CompileEngine._compile), never at"
        " construction: lowering does not know the workload",
    ),
    "KernelPlan": (
        {"module"},
        "built by plan_for(module) through its cache, which holds the"
        " class as a variable",
    ),
    "TuningRecord": (
        {"group"},
        "read back from the store: from_json builds through `cls(...)`",
    ),
    "Candidate": (
        {"module", "features", "predicted", "is_seed"},
        "search state the tuner assigns after sketching the candidate",
    ),
    "UpmemConfig": (
        ALL,
        "machine description (Table 1 of the paper): each field is a"
        " hardware parameter the cost model reads; tests shrink the machine"
        " with `with_(n_ranks=...)`, the program runs the paper's one",
    ),
    "CpuModel": (
        ALL, "calibrated roofline of the paper's one CPU (§6): constants",
    ),
    "GpuModel": (ALL, "as CpuModel, for the A5000-class GPU of Fig. 4"),
    "Executable": (
        {"target", "workload", "params"},
        "abstract base: the concrete executables pass them up positionally",
    ),
    "PrimTarget": (
        {"config"},
        "a target's machine description: get_target(kind) builds the"
        " default, a configured instance is how a caller changes the"
        " machine (UpmemTarget(config=) is the one tests use)",
    ),
    "SimplePimTarget": ({"config"}, "as PrimTarget"),
    "CpuTarget": ({"model"}, "as PrimTarget, for the roofline model"),
    # -- the serving half (PR 20) --------------------------------------------
    "MemoryPlan": (
        {"slot_sizes", "assignments", "arena_bytes", "naive_bytes",
         "peak_live_bytes", "weight_bytes", "input_bytes"},
        "result record: plan_memory fills it while scanning the graph",
    ),
    "DecodeResult": (
        {"steps", "hidden_states", "memory_plan", "graph_name", "pool_stats",
         "cache_stats", "residency_stats"},
        "result record: DecodeEngine.decode fills it step by step",
    ),
    "ClusterResult": (
        {"makespan_s", "ticks", "iterations", "occupancy_samples",
         "kv_samples", "router_stats", "pool_stats",
         "supervisor_transitions", "faults_fired"},
        "result record: Cluster.run fills it tick by tick",
    ),
    "Session": (
        {"status", "worker", "tokens_done", "admitted_s", "first_token_s",
         "last_token_s", "finish_s", "not_before_s", "retries",
         "preemptions", "replays", "replay_ok", "token_digests"},
        "lifecycle state the cluster writes as the session runs; a new"
        " session always starts from the defaults",
    ),
    "Ticket": (
        {"response", "error"},
        "the outcome slots Server fills when the request's batch flushes",
    ),
    "Request": (
        {"request_id"},
        "assigned by Server.submit; a caller-chosen id is accepted but"
        " no caller chooses one",
    ),
}

#: Constructor options set by tests, benchmarks, examples or perf and by
#: nothing under ``src/``: {class: (options, why they stay)}.
OUTSIDE_SRC_OPTIONS = {
    "Tracer": (
        {"wall_clock"},
        "host-profiling opt-in: perf/trace.py and examples/quickstart.py"
        " turn it on; the program never does (it is the one thing that"
        " makes a trace machine-dependent)",
    ),
    "Var": (
        {"dtype"},
        "lowering makes int32 loop variables only; tests/tir builds a"
        " float32 one to check simplify does not apply integer rules to it",
    ),
    "LowerOptions": (
        {"transfer_mode", "boundary_checks"},
        "the Fig. 7 ladder: benchmarks/test_ablations.py and the transfer-"
        "mode tests set them through repro.compile(sch, options=); the"
        " harness figures all use the paper's default",
    ),
    "ArtifactCache": (
        {"disk_dir", "max_entries"},
        "deployment settings: where the persistent tier lives and how many"
        " modules stay in memory",
    ),
    "CompileEngine": (
        {"cache"},
        "test seam: a shared or disk-backed cache whose counters a test reads",
    ),
    "CostModel": (
        {"l2"}, "ridge strength: tests/autotune fits with another value",
    ),
    "TuningCache": (
        {"path"},
        "a path: the program builds it through TuningCache.ensure(db)"
        " (`cls(spec)`); tests open stores directly",
    ),
    "Tuner": (
        {"batch_size", "opt_level"},
        "`batch_size=` sizes a round, `opt_level=` is the §5.3 level the"
        " candidates compile and measure at (O0 and O3 form separate db"
        " groups) — tests shrink the one and vary the other, the harness"
        " tunes at the defaults",
    ),
    "UpmemTarget": (
        {"config"},
        "a target's machine description: tests and benchmarks tune and"
        " compile for a smaller machine (`UpmemTarget(config=SMALL)`);"
        " the program runs the paper's one",
    ),
    "Server": (
        {"max_wait_ticks", "queue_limit"},
        "batching policy under test (flush age, backpressure): fig16 runs"
        " the defaults",
    ),
    "SyncClient": (
        {"server"}, "the blocking convenience client: README and tests only",
    ),
    "gptj_serving_mix()": (
        {"tokens"},
        "the attention span of the mix's MMTVs: perf/adapters.py's serve"
        " workload, the quickstart and the serving tests size it; fig16"
        " runs the default 16",
    ),
    "PagedKVCache": (
        {"layers", "page_tokens", "max_pages", "config"},
        "DecodeEngine hands on its own constructor's values; tests build"
        " pagers directly to reach page boundaries in a few tokens",
    ),
    "ClusterConfig": (
        {"queue_cap", "page_tokens", "max_pages", "max_ticks"},
        "admission and paging limits under test; fig18 runs the defaults",
    ),
    "FaultEvent": ({"duration_s"}, "stall length: the chaos tests"),
    "FaultInjector": (
        {"n_workers", "seed", "n_faults", "horizon_s", "stall_s"},
        "the seeded fault generator: fig18 scripts one kill by hand"
        " (FaultEvent), the cluster tests draw schedules",
    ),
}

#: Public names nothing under ``src/`` mentions outside their own
#: definition: {"module:Name": why it stays}.
PINNED_EXPORTS = {
    "te/operation.py:min_reduce":
        "paper-facing API (Table 2 reductions, beside max_reduce, which"
        " the GPT-J softmax epilogue uses): tests/te compiles min-reductions",
    "schedule/schedule.py:Stage.fuse":
        "paper-facing API (Table 2 `fuse`): drawn by the 188-draw golden"
        " lowering corpus; no registered sketch fuses",
    "tir/expr.py:PrimExpr.equal":
        "the one way to build an EQ node (`==` is identity, for hashing)",
    "tir/visitor.py:collect_vars":
        "test oracle: which loop variables a rewritten kernel still binds",
    "target/executable.py:UpmemExecutable.script":
        "user-facing: the kernel text of a compiled schedule (examples,"
        " tests/pipeline) — how IR at a level is read",
    "serve/pool.py:ExecutablePool.prewarm":
        "user-facing serving API (README): load before traffic arrives",
    "serve/pool.py:ExecutablePool.pinned_keys":
        "test oracle: pinned programs are never evicted",
    "serve/server.py:Server.submit_many": "user-facing serving API (README)",
    "serve/server.py:SyncClient": "user-facing serving API (README)",
    "serve/server.py:SyncClient.infer": "as SyncClient",
    "obs/tracer.py:Tracer.now":
        "test oracle: a track's virtual cursor, which tests/obs checks"
        " against a model of the clock",
    "obs/tracer.py:Tracer.top_spans":
        "user-facing: examples/quickstart.py step 8 and the README",
    "upmem/vectorize/plan.py:KernelPlan.fallbacks":
        "always empty: perf/adapters.py and perf/trace.py still count it"
        " (upmem.fallbacks), and perf/ changes only in a benchmark PR",
    "upmem/config.py:UpmemConfig.with_":
        "how tests and benchmarks shrink the machine",
    "upmem/emitter.py:emit_host_pseudocode":
        "paper-facing: the host half of the emitted UPMEM-C (Fig. 5)",
    "upmem/system.py:ProfileResult.gflops": "result-record accessor",
    "workloads/gptj.py:GPTJConfig.d_ff": "model description accessor",
    "workloads/registry.py:workload_names":
        "enumerates the registry for sweeps over every workload (tests)",
    "workloads/registry.py:size_labels": "as workload_names",
    "workloads/tensor_ops.py:Workload.footprint_mb":
        "result-record accessor (examples/gptj_attention.py)",
    "workloads/tensor_ops.py:Workload.reference_output":
        "reference implementation tests and perf/ compare outputs against",
    "decode/kv_cache.py:PagedKVCache.block_table":
        "test oracle: page ownership per sequence",
    "autotune/cost_model.py:CostModel.rank_error":
        "ROADMAP item 2(b) reports it per round as autotune.rank_error;"
        " until then tests/autotune is its caller",
    "autotune/database.py:TuningCache.completed_trials":
        "test oracle over run_complete markers (group_summary is what"
        " tuned_params reads)",
    "autotune/features.py:FEATURE_NAMES":
        "names the feature vector's columns; tests pin its length",
    "autotune/tuner.py:TuneResult.compile_cache_hit_rate":
        "result-record accessor (README)",
    "autotune/tuner.py:TuneResult.measure_cache_hit_rate":
        "resolved by name from perf/ (autotune.measure_cache_hit_rate)",
    "autotune/tuner.py:TuneResult.best_gflops": "result-record accessor",
    "graph/ir.py:ModelGraph.structural_signature":
        "the golden identity of an emitted graph:"
        " tests/graph/golden_graphs.json pins its digest per builder case"
        " (a graph is no serving key)",
    "autotune/tuner.py:tuned_params":
        "user-facing: the one route from a tuning database to compile"
        " params (`repro.compile(wl, params=tuned_params(wl, db=...))`;"
        " examples/quickstart.py, README); the harness tunes with autotune",
}

#: What this count has cut: names that must not come back unreferenced.
CUT = (
    "autotune/database.py:Database.save", "autotune/database.py:Database.load",
    "autotune/database.py:Database.merge", "obs/metrics.py:Gauge",
    "obs/metrics.py:MetricsRegistry.gauge", "obs/tracer.py:set_tracer",
    "obs/tracer.py:tracing_enabled", "schedule/relations.py:leaf_ranges",
    "schedule/schedule.py:Schedule.compute_stages",
    "tir/expr.py:PrimExpr.not_equal", "tir/buffer.py:Buffer.with_scope",
    "graph/executable.py:GraphExecutable.node_executable",
    "graph/memory.py:MemoryPlan.slot_of",
    "decode/engine.py:IterationReport.sum_total_s",
    "upmem/executor.py:positive_int_env",
    "optim/pipeline.py:optimize_kernel", "optim/pipeline.py:optimize_module",
    "pipeline/registry.py:register_pipeline",
    "pipeline/registry.py:get_pipeline", "pipeline/registry.py:has_pipeline",
    "pipeline/registry.py:list_pipelines", "pipeline/core.py:OPT_LEVELS",
    "pipeline/core.py:PassInstrument", "pipeline/core.py:PassTiming",
    "pipeline/core.py:FunctionPass", "pipeline/passes.py:kernel_passes",
    "pipeline/passes.py:EliminateCopyChecks",
    "pipeline/passes.py:TightenLoopBounds",
    "pipeline/passes.py:HoistInvariantBranches",
    "extensions/hbm_pim.py:HbmPimEstimatePass",
    "extensions/hbm_pim.py:estimate_schedule",
    "extensions/hbm_pim.py:estimate_lowered",
    "upmem/vectorize/plan.py:KernelPlan.batched_alloc",
    "tir/expr.py:Or", "tir/expr.py:Not",
    "tir/expr.py:Cast", "tir/expr.py:Call", "tir/expr.py:any_of",
    "tir/stmt.py:Evaluate", "tir/stmt.py:Intrin", "tir/stmt.py:Allocate",
    "tir/interval.py:Interval.union", "tir/printer.py:script",
    "obs/metrics.py:MetricsRegistry", "obs/metrics.py:Counter",
    "obs/metrics.py:Histogram", "obs/export.py:jsonl_events",
    "obs/export.py:write_jsonl", "obs/tracer.py:Tracer.advance",
    "obs/tracer.py:NullTracer.advance", "obs/lint.py:main",
    "serve/metrics.py:LatencyStats.histogram", "serve/server.py:Server.now",
    "target/base.py:register_target", "target/base.py:has_target",
    "target/base.py:Target.cache_token", "target/base.py:Target.measure",
    "target/base.py:Target.search_config",
    "target/targets.py:HbmPimTarget", "target/targets.py:GpuTarget",
    "graph/builder.py:gptj_decoder_graph",
    "target/executable.py:EstimateExecutable",
    "serve/traffic.py:PATTERNS", "serve/scheduler.py:DynamicBatcher.groups",
    "decode/residency.py:POLICIES", "decode/residency.py:StageEvent.to_dict",
    "decode/residency.py:WeightResidencyPlanner.plan",
    "decode/residency.py:WeightResidencyPlanner.resident_layers",
    "decode/kv_cache.py:CacheExtension.to_dict",
    "decode/engine.py:DecodeEngine.sequences",
    "decode/engine.py:IterationReport.sequences",
    "graph/executable.py:GraphExecutable.pool_keys",
    "graph/memory.py:MemoryPlan.utilization",
    "graph/memory.py:MemoryPlan.fragmentation",
    "cluster/cluster.py:ClusterConfig.ttft_floor_s",
    "cluster/session.py:Session.to_dict",
    "graph/ir.py:ModelGraph.levels", "upmem/system.py:Latency.scaled",
    "graph/ir.py:ModelGraph.inputs", "graph/placement.py:is_pim_capable",
    "graph/executable.py:GraphExecutable.run",
    "graph/executable.py:GraphExecutable.latency",
    "graph/executable.py:PIM_SUBSTRATE_KINDS",
    "upmem/isa.py:Counts.instructions", "te/operation.py:Tensor.ndim",
)


def _without_src_caller(want_other):
    """{class: options with no ``src/`` call site} that tests and the
    rest do (``want_other``) or do not set either."""
    return {
        cls: found
        for cls, counts in option_traffic().items()
        if (found := {
            option for option, n in counts.items()
            if n.src == 0 and bool(n.other) == want_other
        })
    }


def _pinned(table, found):
    """``table`` with :data:`ALL` entries spelled out from ``found``."""
    return {
        cls: found.get(cls, set()) if options == ALL else options
        for cls, (options, _) in table.items()
    }


def test_every_serving_option_has_a_caller():
    unset = _without_src_caller(want_other=False)
    serving = {
        cls for package in SERVING
        for cls in importlib.import_module(f"repro.{package}").__all__
    }
    serving |= {f"{name}()" for name in serving}
    assert {cls: o for cls, o in unset.items() if cls in serving} == {
        cls: o for cls, (o, _) in UNSET_OPTIONS.items() if cls in serving
    }


def test_every_option_without_a_src_caller_is_pinned():
    """Tree-wide: an option nothing under ``src/`` sets is deleted, or
    is in one of the two tables with the reason it stays."""
    unset = _without_src_caller(want_other=False)
    outside = _without_src_caller(want_other=True)
    # A machine description or record pinned whole covers both columns.
    whole = {cls for cls, (o, _) in UNSET_OPTIONS.items() if o == ALL}
    outside = {cls: o for cls, o in outside.items() if cls not in whole}
    assert unset == _pinned(UNSET_OPTIONS, unset)
    assert outside == _pinned(OUTSIDE_SRC_OPTIONS, outside)
    tables = list(UNSET_OPTIONS.values()) + list(OUTSIDE_SRC_OPTIONS.values())
    assert all(why.strip() for _, why in tables)


def test_every_export_without_a_src_reference_is_pinned():
    """Tree-wide: a public name or method nothing under ``src/``
    mentions is deleted, or pinned with the reason it stays; what the
    count cut stays cut.  Prints the table's totals (``-rA`` shows them)."""
    traffic = export_traffic()
    unreferenced = {name for name, n in traffic.items() if n.src == 0}
    assert unreferenced == set(PINNED_EXPORTS)
    assert all(why.strip() for why in PINNED_EXPORTS.values())
    assert not set(CUT) & set(traffic)
    options = option_traffic()
    classes = {k: o for k, o in options.items() if not k.endswith("()")}
    functions = {k: o for k, o in options.items() if k.endswith("()")}
    print(
        f"traffic: {len(traffic)} exports counted,"
        f" {len(PINNED_EXPORTS)} pinned, {len(CUT)} cut;"
        f" {sum(map(len, classes.values()))} options of {len(classes)}"
        f" classes and {sum(map(len, functions.values()))} defaulted"
        f" keywords of {len(functions)} serving functions counted,"
        f" {len(UNSET_OPTIONS)} pinned unset,"
        f" {len(OUTSIDE_SRC_OPTIONS)} set outside src only"
    )
    for name in sorted(unreferenced):
        print(f"  {name}  other={traffic[name].other}  {PINNED_EXPORTS[name]}")

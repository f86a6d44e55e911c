"""Package layering of ``src/repro``, asserted from the source text.

``repro/__init__`` imports every package, so ``sys.modules`` cannot show
who depends on whom; this walks the ``import`` statements with ``ast``.
"""

import ast
import os
import re

import repro

ROOT = os.path.dirname(repro.__file__)

#: Lowest first.  A module-level import may only reach *down* this list.
ORDER = (
    "obs", "tir", "te", "schedule", "lowering", "optim", "upmem",
    "workloads", "pipeline", "autotune", "baselines", "extensions",
    "target", "serve", "graph", "decode", "cluster", "harness",
)

#: Every function-local import that crosses a package boundary, with the
#: reason it cannot sit at module level.
LOCAL_IMPORTS = {
    ("optim/pipeline.py", "optimize_kernel", "pipeline"):
        "upward: pipeline's passes wrap the rewrites optim defines",
    ("optim/pipeline.py", "optimize_module", "pipeline"):
        "upward: as optimize_kernel",
    ("autotune/tuner.py", "_resolve_target", "target"):
        "upward: targets compile through the engine and seed from the sketch"
        " table the tuner searches",
    ("target/compile.py", "compile", "graph"):
        "upward: the front door hands a ModelGraph to graph.compile_graph",
    ("target/targets.py", "HbmPimTarget.__init__", "extensions"):
        "importing the extension registers its pipeline; `import repro`"
        " alone must not",
    ("target/targets.py", "HbmPimTarget.compile", "extensions"):
        "as HbmPimTarget.__init__",
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
    ("serve/server.py", "Server._replica_groups"):
        "not a sketch parameter: getattr on the LoweredModule.n_dpus /"
        " UpmemConfig.n_dpus attributes",
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


#: Packages whose constructor options must each have a caller.
SERVING = ("graph", "decode", "serve", "cluster")

#: Constructor options no call site sets: {class: (options, why they stay)}.
UNSET_OPTIONS = {
    "Node": (
        {"target"},
        "the per-node placement override: assigned on a built graph"
        " (`graph.nodes[i].target = ...`, tests/graph), never at construction",
    ),
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


def _callee(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", None)


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


def option_traffic():
    """``{class: {option: call sites that set it}}`` for the public
    classes of the serving packages, counted over src, tests,
    benchmarks, examples, perf and the harness CLI table.

    A call inside the class's own definition does not count.  A call of
    ``f(**kw)`` counts when ``f`` splats ``kw`` into the constructor
    (``tiny_engine(**kwargs)``), as do the ``dict(opt=...)`` /
    ``setdefault("opt", ...)`` defaults such an ``f`` builds.  A keyword
    that hands on the enclosing function's own defaulted parameter
    counts only if some caller — or the CLI — sets *that* parameter.
    """
    from repro.harness.experiments import KEYWORDS, TABLE

    repo = os.path.dirname(os.path.dirname(ROOT))
    trees = {}
    for top in ("src", "tests", "benchmarks", "examples", "perf"):
        for folder, _, files in os.walk(os.path.join(repo, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path) as fh:
                        trees[path] = ast.parse(fh.read())
    calls = [pair for tree in trees.values() for pair in _calls(tree)]

    options, own, names = {}, {}, {}
    for package in SERVING:
        exported = set(getattr(repro, package).__all__)
        for path, tree in trees.items():
            if not path.startswith(os.path.join(ROOT, package) + os.sep):
                continue
            for node in tree.body:
                if (
                    isinstance(node, ast.ClassDef)
                    and node.name in exported
                    and _options(node)
                ):
                    options[node.name] = _options(node)
                    own[node.name] = {id(n) for n in ast.walk(node)}
                    names[node.name] = {node.name}

    splats = [
        (_callee(call), fn.name) for call, fn in calls
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
    passed |= {(_callee(c), k.arg) for c, _ in calls for k in c.keywords}

    def handed_on(value, fn):
        if fn is None or not isinstance(value, ast.Name):
            return False
        args = fn.args
        defaulted = args.args[len(args.args) - len(args.defaults):]
        defaulted += [
            a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d
        ]
        return (
            value.id in {a.arg for a in defaulted}
            and (fn.name, value.id) not in passed
        )

    traffic = {cls: dict.fromkeys(opts, 0) for cls, opts in options.items()}
    for call, fn in calls:
        callee = _callee(call)
        for cls, known in names.items():
            set_here = []
            if callee in known and id(call) not in own[cls]:
                if callee == cls:
                    set_here += options[cls][: len(call.args)]
                set_here += [
                    k.arg for k in call.keywords
                    if not handed_on(k.value, fn)
                ]
            elif fn is not None and fn.name in known:
                if callee == "dict":
                    set_here += [k.arg for k in call.keywords]
                elif callee == "setdefault" and call.args:
                    set_here.append(getattr(call.args[0], "value", None))
            for option in set_here:
                if option in traffic[cls]:
                    traffic[cls][option] += 1
    return traffic


def test_every_serving_option_has_a_caller():
    unset = {}
    for cls, counts in option_traffic().items():
        never = {option for option, n in counts.items() if n == 0}
        if never:
            unset[cls] = never
    assert unset == {cls: opts for cls, (opts, _) in UNSET_OPTIONS.items()}
    assert all(why.strip() for _, why in UNSET_OPTIONS.values())

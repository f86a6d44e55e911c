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

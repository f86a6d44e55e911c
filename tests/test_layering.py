"""Package layering of ``src/repro``, asserted from the source text.

``repro/__init__`` imports every package, so ``sys.modules`` cannot show
who depends on whom; this walks the ``import`` statements with ``ast``.
"""

import ast
import os

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
        "upward: targets compile through the engine and seed from the tuner",
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

    for folder, _, files in os.walk(ROOT):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    visit(ast.parse(fh.read()), path, "", False)
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

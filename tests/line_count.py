"""Every ``src/`` line that the fast suite and the benchmark never execute.

Run from anywhere in the checkout::

    PYTHONPATH=src python tests/line_count.py

A standard-library counter (``coverage`` is not a dependency):
``sys.settrace`` and ``threading.settrace`` record each executed line of
``src/repro`` while, in this process, the tier-1 suite minus ``slow``
runs (``pytest -m "not slow"``, nothing else deselected; hypothesis
seeded, so two runs draw the same cases; ``--benchmark-disable``, since
pytest-benchmark turns tracing off inside a timed call), then one pass
plus ``check`` of each ``perf.adapters`` workload at its
``spec.WORKLOADS[name]["quick"]`` sizes.  Every executable line that
never ran is printed, file by file, in one of three groups:

* **pinned** -- inside a statement whose header (or ``else:`` line)
  carries ``# pragma: no cover - <reason>``;
* **error path** -- a ``raise``, an ``except`` handler, or a block of
  simple statements that ends in ``raise``;
* **other** -- code nothing runs.

Exit status is non-zero when a test or a workload check failed, or when
any file has a line in the "other" group: every line of ``src/repro``
runs, or says why not.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
PRAGMA = "pragma: no cover"
GROUPS = ("pinned", "error path", "other")


def _sources() -> Iterator[str]:
    """Every module under ``src/repro``, in path order."""
    for folder, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def _lines(code) -> Set[int]:
    """The lines ``code`` itself runs (not its nested functions')."""
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path: str) -> Set[int]:
    with open(path) as f:
        todo = [compile(f.read(), path, "exec")]
    lines: Set[int] = set()
    while todo:
        code = todo.pop()
        lines |= _lines(code)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def _handler_lines(path: str) -> Set[int]:
    """Lines inside the ``except`` handlers of ``path``."""
    with open(path) as f:
        tree = ast.parse(f.read())
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        for line in range(node.lineno, node.end_lineno + 1)
    }


class LineTracer:
    """Records every line run under ``src/repro``.

    A code object stops being traced once each of its lines has run, so
    a fully exercised function costs one call event.  One whose lines
    left to see are all in ``except`` handlers — the scalar interpreter's
    dispatch, say — is watched for exceptions only, and for its lines
    again once one is raised in the frame.
    """

    def __init__(self) -> None:
        #: (file, code object) -> (lines run, lines not run yet, its
        #: handler lines); empty sets for code outside ``src/repro``.
        #: Code objects compare by content, not by file, so two
        #: identical methods at one line number of two modules would
        #: share an entry without the file in the key.
        self._state: Dict[object, Tuple[Set[int], Set[int], Set[int]]] = {}
        self._handlers: Dict[str, Set[int]] = {}

    def _local(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            ran, left, _ = self._state[code.co_filename, code]
            ran.add(frame.f_lineno)
            left.discard(frame.f_lineno)
            if not left:
                return None
        elif event == "exception":
            frame.f_trace_lines = True
        return self._local

    def _call(self, frame, event, arg):
        code = frame.f_code
        key = code.co_filename, code
        state = self._state.get(key)
        if state is None:
            left, handlers = set(), set()
            path = os.path.abspath(code.co_filename)
            if path.startswith(SRC):
                left = _lines(code) - {code.co_firstlineno}  # run by the def
                if path not in self._handlers:
                    self._handlers[path] = _handler_lines(path)
                handlers = left & self._handlers[path]
            state = self._state[key] = (set(), left, handlers)
        _, left, handlers = state
        if not left:
            return None
        if left <= handlers:
            frame.f_trace_lines = False
        return self._local

    def seen(self) -> Set[Tuple[str, int]]:
        """``(absolute path, line)`` of every line that ran."""
        return {
            (os.path.abspath(path), line)
            for (path, _), (ran, _, _) in self._state.items()
            for line in ran
        }

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def classify(path: str) -> Dict[int, str]:
    """Group of every line of ``path`` that a never-run line may be in:
    ``"pinned"`` or ``"error path"``; any other line is ``"other"``."""
    with open(path) as f:
        text = f.read()
    lines = text.splitlines()
    group: Dict[int, str] = {}

    def mark(lo: int, hi: int, name: str) -> None:
        for line in range(lo, hi + 1):
            group.setdefault(line, name)

    def pragma(lo: int, hi: int) -> bool:
        return any(PRAGMA in line for line in lines[lo - 1:hi])

    simple = (ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Raise)
    nodes = [
        node for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.stmt, ast.ExceptHandler))
    ]
    # A pragma in a statement's header pins the statement; one on an
    # ``else:`` line pins the ``else`` branch.
    for node in nodes:
        body = getattr(node, "body", None)
        header_end = max(node.lineno, body[0].lineno - 1) if body else None
        if pragma(node.lineno, header_end or node.end_lineno):
            mark(node.lineno, node.end_lineno, "pinned")
        orelse = getattr(node, "orelse", None)
        if body and orelse:
            after = body[-1].end_lineno + 1  # the ``else:`` line, if any
            if pragma(after, orelse[0].lineno - 1):
                mark(after, orelse[-1].end_lineno, "pinned")
    for node in nodes:
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            mark(node.lineno, node.end_lineno, "error path")
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if (
                block
                and isinstance(block[-1], ast.Raise)
                and all(isinstance(s, simple) for s in block)
            ):
                mark(block[0].lineno, block[-1].end_lineno, "error path")
    return group


def never_run(seen: Set[Tuple[str, int]]) -> Dict[str, Dict[str, List[int]]]:
    """``{relative path: {group: [line, ...]}}`` of lines that never ran."""
    out: Dict[str, Dict[str, List[int]]] = {}
    for path in _sources():
        missed = sorted(
            line for line in executable_lines(path) if (path, line) not in seen
        )
        if not missed:
            continue
        group = classify(path)
        by_group: Dict[str, List[int]] = {}
        for line in missed:
            by_group.setdefault(group.get(line, "other"), []).append(line)
        out[os.path.relpath(path, SRC)] = by_group
    return out


def _spans(lines: List[int]) -> str:
    """``[3, 4, 5, 9]`` as ``"3-5, 9"``."""
    runs: List[List[int]] = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def report(missed: Dict[str, Dict[str, List[int]]], total: int) -> str:
    totals = {
        g: sum(len(f.get(g, ())) for f in missed.values()) for g in GROUPS
    }
    rows = [
        f"never-executed src/repro lines: {sum(totals.values())} of {total}"
        f" executable ({', '.join(f'{g} {totals[g]}' for g in GROUPS)})",
        "",
        f"{'file':<34} {'other':>6} {'error':>6} {'pinned':>6}",
    ]
    order = sorted(missed, key=lambda p: (-len(missed[p].get("other", ())), p))
    for path in order:
        n = {g: len(missed[path].get(g, ())) for g in GROUPS}
        rows.append(
            f"{path:<34} {n['other']:>6} {n['error path']:>6}"
            f" {n['pinned']:>6}"
        )
    for path in order:
        rows.append("")
        rows.append(path)
        for g in GROUPS:
            if missed[path].get(g):
                rows.append(f"  {g:<11} {_spans(missed[path][g])}")
    return "\n".join(rows)


def run_workloads() -> List[str]:
    """One pass plus ``check`` of each benchmark workload, quick sizes;
    the messages of any check that failed."""
    from perf import adapters, spec

    failures = []
    for name, entry in spec.WORKLOADS.items():
        workload = adapters.WORKLOADS[name](0, entry["quick"])
        _, failed, messages = workload.check(workload.run_pass())
        if failed:
            failures.append(f"{name}: {failed} check(s) failed: {messages}")
    return failures


def main() -> int:
    sys.path[0] = ROOT  # not tests/: import the suite as a package
    sys.path.insert(1, os.path.join(ROOT, "src"))
    import pytest

    tracer = LineTracer()
    tracer.start()
    try:
        status = pytest.main([
            "-q", "-m", "not slow", "-p", "no:cacheprovider",
            "--hypothesis-seed=0",  # the same draws, so the same lines
            "--benchmark-disable",  # a timed call runs untraced
            "--rootdir", ROOT,
            os.path.join(ROOT, "tests"), os.path.join(ROOT, "benchmarks"),
        ])
        failures = run_workloads()
    finally:
        tracer.stop()
    total = sum(len(executable_lines(path)) for path in _sources())
    missed = never_run(tracer.seen())
    print()
    print(report(missed, total))
    problems = [f"pytest exited {int(status)}"] if status else []
    problems += failures
    for path, groups in missed.items():
        if groups.get("other"):
            problems.append(
                f"{path}: lines nothing runs: {_spans(groups['other'])}"
            )
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

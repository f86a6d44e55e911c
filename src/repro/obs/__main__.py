"""``python -m repro.obs TRACE.json`` — lint a Chrome trace file.

Exits 0 with a one-line summary when :func:`~repro.obs.trace_lint`
finds nothing, 1 with the problem list otherwise, and 2 when it is not
given exactly one path.
"""

import sys
from typing import List

from .lint import trace_lint


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.obs TRACE.json", file=sys.stderr)
        return 2
    problems = trace_lint(argv[0])
    if problems:
        for problem in problems:
            print(f"trace-lint: {problem}", file=sys.stderr)
        print(f"trace-lint: {argv[0]}: {len(problems)} problem(s)")
        return 1
    print(f"trace-lint: {argv[0]}: OK")
    return 0


if __name__ == "__main__":  # pragma: no cover - the command itself
    sys.exit(main(sys.argv[1:]))

"""The repo's performance ledger: five workloads on two clocks.

See ``perf/README.md``.  Nothing here is imported by ``repro``.
"""

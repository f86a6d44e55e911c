"""Plain-text rendering of experiment rows (the harness's "plots"),
and the per-figure reports the CLI's dispatch table names."""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, List, Sequence

__all__ = ["render_table", "summarize_speedups"]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    if isinstance(value, dict):
        return ",".join(f"{k}={v}" for k, v in value.items())
    return str(value)


def render_table(rows: List[Dict], columns: Sequence[str] = None, title: str = "") -> str:
    """Render a list of dicts as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    cells = [[_fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def render_curve(points, title: str = "", width: int = 60) -> str:
    """ASCII rendering of an (x, y) curve (e.g. GFLOPS vs trials)."""
    if not points:
        return f"{title}\n(no points)"
    ys = [y for _x, y in points]
    lo, hi = min(ys), max(ys)
    span = (hi - lo) or 1.0
    lines = [title] if title else []
    step = max(1, len(points) // 20)
    for x, y in points[::step]:
        bar = "#" * int((y - lo) / span * width)
        lines.append(f"{x:>6}  {y:10.3f}  {bar}")
    return "\n".join(lines)


def summarize_speedups(rows: List[Dict], key: str) -> Dict[str, float]:
    """Geometric mean / max of a speedup column."""
    values = [r[key] for r in rows if key in r and r[key] > 0]
    if not values:
        return {"gmean": 0.0, "max": 0.0, "min": 0.0}
    gmean = math.exp(sum(math.log(v) for v in values) / len(values))
    return {"gmean": gmean, "max": max(values), "min": min(values)}


# ---------------------------------------------------------------------------
# reports: one text report per figure, which the CLI prints and the
# benchmarks save
# ---------------------------------------------------------------------------


def rows_report(title: str, columns: Sequence[str] = None) -> Callable:
    """Report of an experiment whose result is one table: the data
    itself, or its ``"rows"`` entry."""

    def report(data) -> str:
        rows = data["rows"] if isinstance(data, dict) else data
        return render_table(rows, columns, title=title)

    return report


FIG9_COLUMNS = (
    "workload", "size", "prim_ms", "prim_e_ms", "prim_search_ms",
    "simplepim_ms", "atim_ms", "cpu_ms",
    "atim_speedup_vs_prim", "atim_speedup_vs_prim_search",
    "atim_speedup_vs_simplepim", "atim_speedup_vs_cpu",
)


def fig9_report(rows: List[Dict]) -> str:
    return "\n".join([
        render_table(rows, FIG9_COLUMNS, title="Fig 9"),
        f"ATiM vs PrIM: {summarize_speedups(rows, 'atim_speedup_vs_prim')}",
        "ATiM vs PrIM+search:"
        f" {summarize_speedups(rows, 'atim_speedup_vs_prim_search')}",
    ])


def fig14_report(curves: Dict) -> str:
    finals = {name: curve[-1][1] for name, curve in curves.items()}
    return "\n\n".join([
        *(render_curve(curve, title=f"Fig 14: {name}")
          for name, curve in curves.items()),
        f"final GFLOPS: {finals}",
    ])


def fig15_report(data: Dict) -> str:
    lines = ["Fig 15: candidate execution times (s)"]
    for label, times in (
        ("UPMEM:", data["upmem_measured"]), ("CPU:  ", data["cpu_measured"])
    ):
        lines.append(
            f"{label} n={len(times)} min={min(times):.4g}"
            f" max={max(times):.4g} median={statistics.median(times):.4g}"
        )
    lines.append(f"rounds: {[round(t, 3) for t in data['upmem_round_times']]}")
    hits = int(data["measure_cache_hits"][0])
    misses = int(data["measure_cache_misses"][0])
    lines.append(f"measurements: {hits} warm (from --db) / {misses} cold")
    return "\n".join(lines)


def fig17_end_to_end_report(data: Dict) -> str:
    mem = data["memory"]
    return "\n\n".join([
        render_table(
            data["rows"],
            title=f"Fig 17: end-to-end decode step ({data['graph']})",
        ),
        render_table(
            data["breakdown"]["upmem"],
            title="Fig 17: per-node breakdown (upmem)",
        ),
        f"memory plan: arena {mem['arena_bytes']} B over"
        f" {mem['slots']} slots vs naive {mem['naive_bytes']} B"
        f" ({mem['reuse_ratio']:.2f}x reuse;"
        f" peak live {mem['peak_live_bytes']} B;"
        f" utilization {mem['utilization']:.2f})",
    ])


def fig17_multilayer_report(data: Dict) -> str:
    return "\n\n".join([
        render_table(
            data["rows"],
            title=f"Fig 17: full-model decode ({data['graph']},"
            f" {data['tokens']} tokens)",
        ),
        render_table(data["per_layer"], title="Fig 17: per-layer totals"),
        f"replans: {data['replans']} (page-boundary epochs);"
        f" programs compiled: {data['compiled_programs']};"
        f" residency: {data['residency']['stages']} stages /"
        f" {data['residency']['evictions']} evictions"
        f" ({data['residency_policy']},"
        f" budget {data['mram_budget_layers']} layers);"
        f" cache: {data['cache']['pages_allocated']} pages,"
        f" fragmentation {data['cache']['fragmentation']:.3f}",
    ])


def fig18_report(data: Dict) -> str:
    fault = data["fault_scenario"]
    order = " -> ".join(
        f"w{t['worker']}:{t['to']}" for t in fault["transitions"]
    )
    return "\n\n".join([
        render_table(
            data["rows"], title="Fig 18: continuous vs whole-request batching"
        ),
        f"fault scenario: {len(fault['faults'])} fault(s);"
        f" {fault['recovered_sessions']} session(s) replayed"
        f" ({fault['replays']} replays,"
        f" digests {'OK' if fault['replay_ok'] else 'MISMATCH'});"
        f" {fault['completed']} completed; {order}",
    ])

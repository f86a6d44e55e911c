"""Plain-text rendering of experiment rows (the harness's "plots"),
and the per-figure printers the CLI's dispatch table names."""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

__all__ = ["render_table", "render_curve", "summarize_speedups"]


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
    import math

    values = [r[key] for r in rows if key in r and r[key] > 0]
    if not values:
        return {"gmean": 0.0, "max": 0.0, "min": 0.0}
    gmean = math.exp(sum(math.log(v) for v in values) / len(values))
    return {"gmean": gmean, "max": max(values), "min": min(values)}


# ---------------------------------------------------------------------------
# printers: experiment data -> stdout
# ---------------------------------------------------------------------------


def _print_rows(rows: List[Dict], title: str) -> None:
    print(render_table(rows, title=title))
    print()


def rows_printer(title: str) -> Callable:
    """Printer for experiments whose report is one table: the data
    itself, or its ``"rows"`` entry."""

    def show(data) -> None:
        _print_rows(data["rows"] if isinstance(data, dict) else data, title)

    return show


def print_fig14(data: Dict) -> None:
    for label, curve in data.items():
        print(render_curve(curve, title=f"Fig 14: {label}"))
        print()


def print_fig15(data: Dict) -> None:
    print("Fig 15: UPMEM candidate latencies (s):")
    print(sorted(data["upmem_measured"])[:10], "...")
    print("CPU candidate latencies (s):")
    print(sorted(data["cpu_measured"])[:10], "...")
    hits = int(data["measure_cache_hits"][0])
    misses = int(data["measure_cache_misses"][0])
    print(f"measurements: {hits} warm (from --db) / {misses} cold")


def print_fig17_end_to_end(data: Dict) -> None:
    _print_rows(
        data["rows"], f"Fig 17 (end-to-end decode step: {data['graph']})"
    )
    mixed_rows = data["breakdown"].get("mixed") or next(
        iter(data["breakdown"].values())
    )
    _print_rows(mixed_rows, "Fig 17: per-node breakdown (mixed)")
    mem = data["memory"]
    print(
        f"memory plan: arena {mem['arena_bytes']} B over"
        f" {mem['slots']} slots vs naive {mem['naive_bytes']} B"
        f" ({mem['reuse_ratio']:.2f}x reuse;"
        f" peak live {mem['peak_live_bytes']} B;"
        f" utilization {mem['utilization']:.2f})"
    )


def print_fig17_multilayer(data: Dict) -> None:
    _print_rows(
        data["rows"],
        f"Fig 17 (full-model decode: {data['graph']},"
        f" {data['tokens']} tokens)",
    )
    _print_rows(
        data["per_layer"],
        "Fig 17: per-layer totals (compute / transfers / staging"
        " / cache growth)",
    )
    print(
        f"replans: {data['replans']} (page-boundary epochs);"
        f" programs compiled: {data['compiled_programs']};"
        f" residency: {data['residency']['stages']} stages /"
        f" {data['residency']['evictions']} evictions"
        f" ({data['residency_policy']},"
        f" budget {data['mram_budget_layers']} layers);"
        f" cache: {data['cache']['pages_allocated']} pages,"
        f" fragmentation {data['cache']['fragmentation']:.3f}"
    )


def print_fig18(data: Dict) -> None:
    _print_rows(
        data["rows"],
        "Fig 18 (cluster: whole-request vs continuous batching)",
    )
    fault = data.get("fault_scenario")
    if fault:
        order = " -> ".join(
            f"w{t['worker']}:{t['to']}" for t in fault["transitions"]
        )
        print(
            f"fault scenario: {len(fault['faults'])} fault(s);"
            f" {fault['recovered_sessions']} session(s) replayed"
            f" ({fault['replays']} replays,"
            f" digests {'OK' if fault['replay_ok'] else 'MISMATCH'});"
            f" {fault['completed']} completed; {order}"
        )

"""Compare two ledgers written by ``perf/run.py``.

``python perf/compare.py OLD.json NEW.json`` prints one row per workload
and end-to-end metric — both medians with quartiles and sample count,
and the ratio NEW/OLD with its base — and a verdict:

``regressed`` / ``improved``
    NEW's median is worse / better than OLD's by more than the bound;
``unchanged``
    within the bound;
``unresolved``
    (host clock only) within the bound, but the two inter-quartile
    ranges overlap by more than the bound, so the runs cannot tell;
``identical`` / ``changed``
    (virtual clock only) bit-for-bit equal / moved within the bound.

Host metrics use the bounds in ``BENCHMARK.json``.  Virtual-clock
metrics repeat exactly at one seed, so they are held to
``spec.VIRTUAL_BOUND`` (and ``slo_attainment`` to no drop at all), not to
the cross-seed bounds the driver needs.  Exit status: 1 on any
regression or any rise in the failed share of operations, 2 when the two
ledgers were not measured alike (sizes, seed, seconds, worker count,
``--quick`` or ``--traced`` differ) and so are not compared.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)

if __package__ in (None, ""):
    sys.path[0] = _ROOT  # see perf/run.py

from perf import spec  # noqa: E402


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """metric -> (better, bound): host metrics from BENCHMARK.json,
    virtual ones at the same-seed bound."""
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    clock = {name: c for name, _, _, c, _ in spec.END_TO_END}
    bounds: Dict[str, Tuple[str, float]] = {}
    for m in bench["end_to_end"]:
        virtual = clock.get(m["name"]) == "virtual"
        bounds[m["name"]] = (
            m["better"], spec.VIRTUAL_BOUND if virtual else m["bound"]
        )
    for name, _, better, _ in spec.WORKLOAD_END_TO_END:
        bounds[name] = (
            better, 0.0 if name == "slo_attainment" else spec.VIRTUAL_BOUND
        )
    return bounds


def measured_alike(old: Dict, new: Dict) -> List[str]:
    """Reasons the two ledgers cannot be compared (empty when they can)."""
    reasons = []
    for key in ("schema", "quick", "traced", "seed", "seconds", "env"):
        if old.get(key) != new.get(key):
            reasons.append(f"{key}: {old.get(key)!r} vs {new.get(key)!r}")
    if sorted(old["workloads"]) != sorted(new["workloads"]):
        reasons.append("different sets of workloads")
        return reasons
    for name, a in old["workloads"].items():
        b = new["workloads"][name]
        for key in ("sizes", "processes"):
            if a[key] != b[key]:
                reasons.append(f"{name} {key}: {a[key]!r} vs {b[key]!r}")
    return reasons


def verdict(old: Dict, new: Dict, better: str, bound: float) -> str:
    a, b = old["value"], new["value"]
    if old["clock"] == "virtual" and a == b:
        return "identical"
    if better == "lower":
        worse, gain = b > a * (1 + bound), b < a * (1 - bound)
    else:
        worse, gain = b < a * (1 - bound), b > a * (1 + bound)
    if worse:
        return "regressed"
    if gain:
        return "improved"
    if old["clock"] == "virtual":
        return "changed"
    overlap = min(old["q3"], new["q3"]) - max(old["q1"], new["q1"])
    if a and overlap / abs(a) > bound:
        return "unresolved"
    return "unchanged"


def _cell(m: Dict[str, Any]) -> str:
    if m["clock"] == "virtual":
        return f"{m['value']:.6g}"
    return f"{m['value']:.4g} [{m['q1']:.4g},{m['q3']:.4g}] n={m['n']}"


def compare(old: Dict, new: Dict, bounds: Dict) -> Tuple[List[str], bool]:
    """Rows to print and whether anything regressed."""
    rows = [
        f"{'workload':<8} {'metric':<24} {'OLD median [q1,q3] n':<34}"
        f" {'NEW median [q1,q3] n':<34} {'NEW/OLD (base OLD)':<26} verdict"
    ]
    bad = False
    for name in old["workloads"]:
        a, b = old["workloads"][name], new["workloads"][name]
        for metric, m_old in a["end_to_end"].items():
            m_new = b["end_to_end"].get(metric)
            if m_new is None or metric not in bounds:
                rows.append(f"{name:<8} {metric:<24} missing from NEW")
                bad = True
                continue
            better, bound = bounds[metric]
            v = verdict(m_old, m_new, better, bound)
            bad |= v == "regressed"
            ratio = (
                f"{m_new['value'] / m_old['value']:.4f} (of {m_old['value']:.4g}"
                f" {m_old['unit']})" if m_old["value"] else "n/a (base 0)"
            )
            rows.append(
                f"{name:<8} {metric:<24} {_cell(m_old):<34} {_cell(m_new):<34}"
                f" {ratio:<26} {v} ({better} is better, bound {bound:.1%})"
            )
        share_old = a["failed"] / a["attempted"]
        share_new = b["failed"] / b["attempted"]
        rose = share_new > share_old
        bad |= rose
        rows.append(
            f"{name:<8} {'failed share':<24}"
            f" {a['failed']}/{a['attempted']:<31} {b['failed']}/{b['attempted']:<31}"
            f" {'':<26} {'regressed' if rose else 'ok'}"
        )
    return rows, bad


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        old = json.load(f)
    with open(argv[1]) as f:
        new = json.load(f)
    reasons = measured_alike(old, new)
    if reasons:
        print("not comparable — the two ledgers were measured differently:")
        for reason in reasons:
            print(f"  {reason}")
        return 2
    rows, bad = compare(old, new, load_bounds())
    print("\n".join(rows))
    print("\nREGRESSION" if bad else "\nno regression")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())

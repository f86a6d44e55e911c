"""Golden parameter table: what every family function returns, per shape.

``golden_params.json`` pins, for the paper's sized workloads and for the
shapes the graph builder emits (``GPTJ_SIM`` and ``CLUSTER_SIM`` at KV
capacities 4, 8 and 16, the fused ``qkv_fc`` and ``proj`` MTVs next to
the paper's four FC shapes), the ``param_space`` domains *in order* (the
tuner's ``rng.choice`` walks them), the ``seed_params`` list,
``default_params``, ``small_grid_params``, ``prim_params`` and the dict
SimplePIM compiles — key order and key *sets* included, since both enter
cache keys and pool-key labels.  Regenerate (only when the search space
is *meant* to change) with::

    PYTHONPATH=src python -m tests.autotune.golden_params
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, Optional, Tuple
from unittest import mock

from repro.autotune import param_space, seed_params
from repro.baselines import prim_params
from repro.baselines.simplepim import SIMPLEPIM_WORKLOADS, simplepim_build
from repro.cluster import CLUSTER_SIM
from repro.graph import GPTJ_SIM, small_grid_params
from repro.target import default_params
from repro.upmem.config import DEFAULT_CONFIG
from repro.workloads import (
    SIZED_WORKLOADS,
    Workload,
    fc_mtv,
    fc_shapes,
    make_workload,
    mmtv,
    mtv,
    va,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_params.json")
CAPACITIES = (4, 8, 16)
#: The second machine the space and seeds are pinned on (two ranks).
SMALL_MACHINE = DEFAULT_CONFIG.with_(n_ranks=2)


def cases() -> Iterator[Tuple[str, Workload, Optional[str]]]:
    """``(case id, workload, size label or None)`` for the whole table."""
    for name, sizes in SIZED_WORKLOADS.items():
        for size in sizes:
            yield f"{name}/{size}", make_workload(name, size), size
    for model in (GPTJ_SIM, CLUSTER_SIM):
        for layer, _m, _k in fc_shapes(model):
            yield f"{model.name}/{layer}", fc_mtv(model, layer), None
        # qkv_gen's and fc's rows stacked, and qkv_proj's and fc_proj's
        # columns: the two programs the builder emits for the four.
        d = model.d_model
        yield f"{model.name}/qkv_fc", mtv(7 * d, d), None
        yield f"{model.name}/proj", mtv(d, 5 * d), None
        for c in CAPACITIES:
            heads, hd = model.n_heads, model.head_dim
            yield f"{model.name}/score-c{c}", mmtv(heads, c, hd), None
            yield f"{model.name}/value-c{c}", mmtv(heads, hd, c), None
        yield f"{model.name}/residual", va(model.d_model), None


class _Captured(Exception):
    pass


class _RecordingEngine:
    def compile(self, workload, params, **_kwargs):
        raise _Captured(params)


def simplepim_params(workload: Workload) -> Dict[str, int]:
    """The dict ``simplepim_build`` hands the compile engine (captured at
    the call, nothing is compiled)."""
    with mock.patch(
        "repro.baselines.simplepim.default_engine", return_value=_RecordingEngine()
    ):
        try:
            simplepim_build(workload)
        except _Captured as exc:
            return exc.args[0]
    raise AssertionError("simplepim_build never reached the engine")


def compute_table() -> Dict[str, Dict]:
    table: Dict[str, Dict] = {}
    for case_id, workload, size in cases():
        space = param_space(workload, max_dpus=DEFAULT_CONFIG.n_dpus)
        small = param_space(workload, max_dpus=SMALL_MACHINE.n_dpus)
        table[case_id] = {
            "shape": list(workload.shape),
            "param_space": space,
            "seed_params": seed_params(space, DEFAULT_CONFIG.n_dpus),
            "default_params": default_params(workload),
            "small_machine": {
                "param_space": small,
                "seed_params": seed_params(small, SMALL_MACHINE.n_dpus),
                "default_params": default_params(workload, SMALL_MACHINE),
            },
            "small_grid_params": small_grid_params(workload),
            "prim_params": prim_params(workload, size=size),
            "simplepim": (
                simplepim_params(workload)
                if workload.name in SIMPLEPIM_WORKLOADS
                else None
            ),
        }
    return table


if __name__ == "__main__":
    table = compute_table()
    with open(FIXTURE, "w") as fh:  # one case a line
        rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(table)} cases to {FIXTURE}")

"""Golden graph table: what the GPT-J builder emits, per configuration.

``golden_graphs.json`` pins, for :func:`gptj_model_graph` (TINY,
``GPTJ_SIM``, ``CLUSTER_SIM`` x 1/2/3 layers x capacity 4/8/12), the
digest of ``structural_signature()`` — names, shapes, wiring, tags,
pinned params, views, concats: the emitted graph's identity — and,
readable in a diff, the input order, output order, node order, each
view as ``[name, base, offset, shape]`` and each concat as ``[name,
parts]``.  The node order is the executable's
schedule and each node's workload and params are its pool key, so any
diff here changes pool keys, traces and latencies.  Regenerate (only
when the emitted graph is *meant* to change) with::

    PYTHONPATH=src python -m tests.graph.golden_graphs
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, Tuple

from repro.cluster import CLUSTER_SIM
from repro.graph import GPTJ_SIM, ModelGraph, gptj_model_graph

from .conftest import TINY

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_graphs.json")


def cases() -> Iterator[Tuple[str, ModelGraph]]:
    for config in (TINY, GPTJ_SIM, CLUSTER_SIM):
        for layers in (1, 2, 3):
            for capacity in (4, 8, 12):
                yield (
                    f"model/{config.name}/L{layers}/c{capacity}",
                    gptj_model_graph(config, layers=layers, capacity=capacity),
                )


def compute_table() -> Dict[str, Dict]:
    return {
        case: {
            "signature": hashlib.sha256(
                repr(graph.structural_signature()).encode()
            ).hexdigest(),
            "inputs": graph.input_names,
            "outputs": graph.output_names,
            "nodes": [node.name for node in graph.nodes],
            "views": [
                [v.name, v.base, v.offset, list(v.shape)]
                for v in graph.views.values()
            ],
            "concats": [
                [c.name, list(c.parts)] for c in graph.concats.values()
            ],
        }
        for case, graph in cases()
    }


if __name__ == "__main__":
    table = compute_table()
    with open(FIXTURE, "w") as fh:  # one case a line
        rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(table)} cases to {FIXTURE}")

"""Golden graph table: what the GPT-J builders emit, per configuration.

``golden_graphs.json`` pins, for :func:`gptj_decoder_graph` (TINY and
``GPTJ_SIM`` at 4/8/16 tokens, pinned and unpinned, plus one ``params=``
override) and :func:`gptj_model_graph` (TINY, ``GPTJ_SIM``,
``CLUSTER_SIM`` x 1/2/3 layers x capacity 4/8/12), the digest of
``structural_signature()`` — names, shapes, wiring, tags, pinned params,
views — and, readable in a diff, the input order, output order, node
order and each view as ``[name, base, offset, shape]``.
The signature is the serving batch key and the node order is the
executable's schedule, so any diff here changes pool keys, traces and
latencies.  Regenerate (only when the emitted graph is *meant* to
change) with::

    PYTHONPATH=src python -m tests.graph.golden_graphs
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, Tuple

from repro.cluster import CLUSTER_SIM
from repro.graph import (
    GPTJ_SIM,
    ModelGraph,
    gptj_decoder_graph,
    gptj_model_graph,
)

from .conftest import TINY

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_graphs.json")

#: The one ``params=`` override case: a node pinned to a different grid.
OVERRIDE = {
    "fc": {
        "m_dpus": 8, "k_dpus": 1, "n_tasklets": 4, "cache": 16,
        "host_threads": 1, "unroll": 0,
    }
}


def cases() -> Iterator[Tuple[str, ModelGraph]]:
    for config in (TINY, GPTJ_SIM):
        for tokens in (4, 8, 16):
            case = f"decoder/{config.name}/t{tokens}"
            yield case, gptj_decoder_graph(config, tokens=tokens)
            yield f"{case}/unpinned", gptj_decoder_graph(
                config, tokens=tokens, pin_small_grids=False
            )
    yield "decoder/gptj-tiny/t4/override", gptj_decoder_graph(
        TINY, tokens=4, params=OVERRIDE
    )
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
        }
        for case, graph in cases()
    }


if __name__ == "__main__":
    table = compute_table()
    with open(FIXTURE, "w") as fh:  # one case a line
        rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(table)} cases to {FIXTURE}")

"""Request/response surface of the serving subsystem.

A :class:`Request` names a workload, its input tensors and the target to
run on; the server answers with a :class:`Response` carrying the outputs
plus the simulated timing the request experienced (queue wait inside the
virtual clock, execution share of its batch).  :meth:`Server.submit
<repro.serve.server.Server.submit>` returns a :class:`Ticket` — the
in-process handle tracking one request from admission to completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = ["Request", "Response", "Ticket"]


@dataclass
class Request:
    """One inference call: a workload instance plus concrete inputs.

    Requests batch together only when they agree on the full compilation
    identity — workload structure, target kind and schedule params — so
    a flush always executes one compiled program.
    """

    workload: Any  # repro.workloads.Workload
    inputs: Optional[Dict[str, np.ndarray]] = None
    target: Any = "upmem"  # kind string or Target instance
    params: Optional[Dict[str, int]] = None
    #: Assigned by the server at admission (submission order).
    request_id: Optional[int] = None


@dataclass
class Response:
    """Outcome of one served request."""

    request_id: int
    workload: str
    #: Output arrays — bit-for-bit what ``Executable.run(inputs)`` would
    #: return.
    outputs: List[np.ndarray]
    #: End-to-end simulated latency: queue wait + batch execution.
    latency_s: float
    #: Simulated seconds spent waiting (batching delay + device busy).
    queue_s: float
    #: Simulated duration of the batch this request rode in.
    execute_s: float
    #: Size of that batch.
    batch_size: int
    #: Virtual-clock tick the request arrived on.
    arrival_tick: int
    #: Simulated timestamp the batch finished.
    finish_s: float


@dataclass
class Ticket:
    """In-process future: admission verdict now, response after flush."""

    request: Request
    status: str = "queued"  # queued | rejected | done | failed
    response: Optional[Response] = None
    #: Why admission failed (empty for accepted requests).
    reject_reason: str = field(default="")
    #: Why execution failed (set with ``status="failed"`` when the
    #: flush carrying this request raised — bad input names, a target
    #: that cannot execute, ...).
    error: str = field(default="")
    #: Server-internal: the batching key assigned at admission.  Kept on
    #: the ticket so forced flushes target the group the request was
    #: actually queued under, even if the workload mutated since.
    batch_key: Optional[tuple] = None

    @property
    def done(self) -> bool:
        return self.status == "done"

    @property
    def rejected(self) -> bool:
        return self.status == "rejected"

    @property
    def failed(self) -> bool:
        return self.status == "failed"

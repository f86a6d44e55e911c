"""Cutting a lane space into jobs, and the threads that run them.

Every functional execution — ``Executable.run`` is ``run_batch`` of one
item — routes through this layer.  A batch is one *lane space* — on the
UPMEM simulator every (item, DPU grid point) pair is a lane of one
vectorized call — and :meth:`Executor.jobs` cuts it into contiguous
jobs by working-set bytes, never smaller than :data:`MIN_JOB_BYTES`.
One job (serving flushes, decode steps) runs on the caller's thread and
no pool is touched; several jobs (a 64MB kernel) run on a thread pool
that lives for that one call.  Lanes write disjoint output regions and
every job executes the same code, so results are bit-for-bit identical
at any pool width — which is why the width is a deployment setting
(``REPRO_MAX_WORKERS``), not an argument.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, List

__all__ = ["Executor", "default_workers", "MIN_JOB_BYTES"]

#: Smallest working set (lanes x bytes of per-lane buffers) worth a job
#: of its own, so a second thread starts at twice this.  Measured on the
#: 2-vCPU reference box: one ``run_batch`` call, the whole lane space as
#: one inline job (width 1) against two jobs on a warm 2-thread pool
#: (width 2), min over three sessions of 15 interleaved repetitions each
#: (four sessions from 8 MB up; the box's second core comes and goes, so
#: one session can read 1.0x where the next reads 1.5x).  Re-measured after the vector
#: runtime learned to move whole lanes as blocks, which made width 1
#: 1.5-7x cheaper and took most of the GIL-free index/clip work — what
#: threads used to overlap — out of a call
#: (``results/BENCH_structured_access_pairs.json`` has every session,
#: and the same rows at the parent commit; ``BENCH_serve_wall.json`` the
#: table this replaces):
#:
#:     working set   program (items)          width 1    width 2   gain
#:        0.25 MB    serving fc_mtv (1)       0.32 ms    0.59 ms   0.54x
#:        0.52 MB    serving va (1)           0.69 ms    1.10 ms   0.63x
#:        1.00 MB    serving fc_mtv (4)       0.95 ms    1.18 ms   0.80x
#:        2.06 MB    serving va (4)           2.63 ms    2.32 ms   1.13x
#:        2.79 MB    serving red (16)         4.58 ms    4.81 ms   0.95x
#:        4.01 MB    serving fc_mtv (16)      5.02 ms    3.76 ms   1.34x
#:        7.02 MB    serving mha_mmtv (16)    8.21 ms    6.84 ms   1.20x
#:        8.25 MB    serving va (16)          9.67 ms    7.54 ms   1.28x
#:        8.51 MB    mtv 4MB (1)              5.71 ms    6.21 ms   0.92x
#:       14.25 MB    va 4MB (1)              13.32 ms   11.06 ms   1.20x
#:       97.02 MB    mtv 64MB (1)           117.1 ms    81.6 ms    1.43x
#:      193.50 MB    va 64MB (1)            146.0 ms    91.9 ms    1.59x
#:
#: Below ~2 MB two threads lose (tiny NumPy ops hold the GIL and the
#: threads take turns); from 2 to 9 MB the sign depends on the program
#: (0.92-1.34x, at most 2 ms either way); from 14 MB every row gains
#: 1.2-1.6x.  Two rows changed sign against the old table — ``serving
#: red (16)`` 1.30x -> 0.95x, already inline, and ``mtv 4MB`` 1.59x ->
#: 0.92x, which the rule threads — but ``mtv 4MB`` sits 0.26 MB above a
#: row that gains 1.28x, so no constant separates the two, and the one
#: it is wrong for loses 0.5 ms.  The constant stays: every serving and
#: decode call (< 8 MB) is inline, every ``kernels`` program (>= 14 MB)
#: is threaded, and a pool thread that has run a multi-megabyte job
#: keeps its own malloc arena (about +10 MB resident on the serving
#: workload), which the 2-9 MB gains do not pay for.
MIN_JOB_BYTES = 4 * 1024 * 1024


#: ``min(8, cpu_count)``, resolved once: ``os.cpu_count()`` reads the
#: system on every call, and every ``run_batch`` asks.
_DEFAULT_WIDTH = max(1, min(8, os.cpu_count() or 1))


def default_workers() -> int:
    """Pool width of every execution path.

    Defaults to ``min(8, cpu_count)``; the ``REPRO_MAX_WORKERS``
    environment variable overrides the cap entirely (any integer >= 1),
    for machines where 8 threads under- or over-subscribe the simulator.
    """
    env = os.environ.get("REPRO_MAX_WORKERS")
    if env is None:
        return _DEFAULT_WIDTH
    try:
        width = int(env)
    except ValueError:
        width = 0
    if width < 1:
        raise ValueError(
            f"REPRO_MAX_WORKERS must be an integer >= 1, got {env!r}"
        )
    return width


class Executor:
    """Order-preserving map over independent jobs, on threads only when
    there is more than one job.

    :meth:`jobs` decides how many there are.  Small NumPy programs do
    not release the GIL for long enough to overlap — at pool width 2 the
    serving mix and every decode node ran 1.8-2.4x *slower* than on one
    thread — so work is cut by bytes, not by ``max_workers``, which is
    only a cap.  Where jobs are big enough that array ops dominate,
    threads (not processes) are right: batch items share read-only
    compiled modules and write straight into the caller's output arrays.
    """

    def __init__(self) -> None:
        #: The deployment's width (:func:`default_workers`).
        self.max_workers = default_workers()

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` to every item; results in input order.  A single
        item (or width 1) runs on the caller's thread; several build a
        pool that is gone again when the call returns."""
        items = list(items)
        if self.max_workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(fn, items))

    def jobs(self, n_items: int, item_bytes: int) -> List[range]:
        """Cut ``range(n_items)`` into contiguous jobs for :meth:`map`.

        ``item_bytes`` is the working set one item (a lane) touches.  No
        job is smaller than :data:`MIN_JOB_BYTES` and there are at most
        ``max_workers`` of them, so work below twice the crossover comes
        back as a single job, which :meth:`map` runs on the caller's
        thread.
        """
        width = min(
            self.max_workers, n_items, n_items * item_bytes // MIN_JOB_BYTES
        )
        size, extra = divmod(n_items, max(1, width))
        jobs: List[range] = []
        start = 0
        while start < n_items:
            end = start + size + (len(jobs) < extra)
            jobs.append(range(start, end))
            start = end
        return jobs

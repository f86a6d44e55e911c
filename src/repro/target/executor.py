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

from ..upmem.executor import positive_int_env

__all__ = ["Executor", "default_workers", "MIN_JOB_BYTES"]

#: Smallest working set (lanes x bytes of per-lane buffers) worth a job
#: of its own, so a second thread starts at twice this.  Measured on the
#: 2-vCPU reference box: one ``run_batch`` call, the whole lane space as
#: one inline job (width 1) against two jobs on a warm 2-thread pool
#: (width 2), min of 15 interleaved repetitions
#: (``results/BENCH_serve_wall.json`` has all 34 rows):
#:
#:     working set   program (items)          width 1    width 2   gain
#:        0.25 MB    serving fc_mtv (1)       0.89 ms    2.73 ms   0.33x
#:        0.52 MB    serving va (1)           2.33 ms    6.45 ms   0.36x
#:        1.00 MB    serving fc_mtv (4)       2.42 ms    3.72 ms   0.65x
#:        2.06 MB    serving va (4)           7.18 ms    7.76 ms   0.92x
#:        2.79 MB    serving red (16)         8.49 ms    6.53 ms   1.30x
#:        4.01 MB    serving fc_mtv (16)      8.71 ms    8.48 ms   1.03x
#:        7.02 MB    serving mha_mmtv (16)   21.23 ms   19.43 ms   1.09x
#:        8.25 MB    serving va (16)         30.63 ms   16.31 ms   1.88x
#:        8.51 MB    mtv 4MB (1)             17.82 ms   11.24 ms   1.59x
#:       14.25 MB    va 4MB (1)              70.98 ms   41.33 ms   1.72x
#:       97.02 MB    mtv 64MB (1)           317.4 ms   185.4 ms    1.71x
#:      193.50 MB    va 64MB (1)           1156 ms     455.9 ms    2.54x
#:
#: Below ~2 MB two threads lose (tiny NumPy ops hold the GIL and the
#: threads take turns); from 2.8 to 8 MB the gain depends on the program
#: (1.03-1.64x); from 8 MB every row gains at least 1.59x (bar two
#: 64MB ``va`` items, 387 MB and memory-bound: 1.22x).  The rule waits
#: for that: a pool thread that has run a multi-megabyte job keeps its
#: own malloc arena (about +10 MB resident on the serving workload),
#: which a 3 % gain does not pay for.
MIN_JOB_BYTES = 4 * 1024 * 1024


def default_workers() -> int:
    """Pool width of every execution path.

    Defaults to ``min(8, cpu_count)``; the ``REPRO_MAX_WORKERS``
    environment variable overrides the cap entirely (any integer >= 1),
    for machines where 8 threads under- or over-subscribe the simulator.
    """
    env = os.environ.get("REPRO_MAX_WORKERS")
    if env is not None:
        return positive_int_env("REPRO_MAX_WORKERS", env)
    return max(1, min(8, os.cpu_count() or 1))


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

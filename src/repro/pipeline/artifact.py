"""Compiled-artifact layer: content-addressed caching of lowered modules.

Tuning measures thousands of candidates, and many of them recur — pool
candidates built but not measured one round are resampled the next, the
harness re-profiles identical (workload, params) pairs across figures,
and the winning candidate is rebuilt after the search.  A
:class:`CompiledArtifact` wraps the outcome of one compile (including
*negative* outcomes, so invalid parameter combinations are rejected
without re-sketching), keyed by a digest of (workload signature, schedule
params, hardware config, opt level).  The cache is
in-memory with an optional on-disk tier that persists across processes.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..workloads import Workload

__all__ = [
    "CompiledArtifact",
    "ArtifactCache",
    "CacheStats",
    "CACHE_SCHEMA_VERSION",
    "artifact_key",
    "tuning_key",
    "workload_signature",
]

#: Mixed into every artifact key; bump whenever compiler behavior changes
#: (lowering, a §5.3 pass, the performance-relevant module layout) or the
#: key payload itself changes shape, so a persistent disk tier never
#: serves artifacts produced by older compiler code.
#: v3: int32 buffers are now actually int32 (were widened to int64).
#: v4: ``CompiledArtifact.verified`` is a plain bool (was tri-state);
#: disk entries lead with a SHA-256 of the pickle that follows.
#: v5: ``LowerOptions`` (pickled inside every module) lost ``optimize``.
#: v6: ``UpmemConfig`` (whose repr every key holds) lost three unread
#: fields.
CACHE_SCHEMA_VERSION = 6

_DIGEST_BYTES = hashlib.sha256().digest_size


def _tensor_signature(tensor: Any) -> tuple:
    """(name, dtype, shape) of a TE tensor."""
    buffer = tensor.buffer
    return (buffer.name, buffer.dtype, tuple(buffer.shape))


def workload_signature(workload: Workload) -> tuple:
    """Stable identity of a workload for cache keying.

    Uses the declared structure — name, shape, reduction, tensor dtypes
    and the compute expression — rather than object identity, so equal
    workloads constructed separately share artifacts while same-named
    workloads with different bodies or dtypes do not alias.  Anything
    but a :class:`~repro.workloads.Workload` (a model graph included)
    has no such identity: a ``TypeError``.
    """
    if not isinstance(workload, Workload):
        raise TypeError(
            f"workload_signature takes a Workload, not"
            f" {type(workload).__name__}"
        )
    output = workload.output
    op = output.op
    # A placeholder output (host-only glue) has no body and no combiner.
    body = getattr(op, "body", None)
    signature = (
        workload.name,
        tuple(workload.shape),
        workload.reduce_extent,
        tuple(sorted(workload.const_inputs or ())),
        tuple(sorted((workload.params or {}).items())),
        tuple(_tensor_signature(t) for t in workload.inputs),
        _tensor_signature(output),
        repr(body) if body is not None else None,
        # The combiner lives outside ``body`` on ComputeOp: sum vs max
        # over the same element expression must not share a key.
        getattr(op, "combiner", None),
    )
    upstream = _upstream_stages(op)
    # A single-stage workload keeps the tuple it always had (and so its
    # keys); one with earlier stages (a host epilogue's base program and
    # middle stages, a host prologue) adds each stage's name, body and
    # combiner.
    return signature + (upstream,) if upstream else signature


def _upstream_stages(op: Any) -> tuple:
    """(name, body, combiner) of every compute stage that feeds ``op``,
    producers first."""
    order: list = []

    def visit(node: Any) -> None:
        for buffer in node.input_buffers():
            producer = getattr(buffer.producer, "op", None)
            if hasattr(producer, "input_buffers") and producer not in order:
                visit(producer)
                order.append(producer)

    if hasattr(op, "input_buffers"):
        visit(op)
    return tuple((p.name, repr(p.body), p.combiner) for p in order)


def artifact_key(
    workload: Any = None,
    params: Optional[Dict[str, int]] = None,
    config: Any = None,
    opt_level: str = "O3",
) -> str:
    """Content-addressed digest identifying one compile's inputs.

    Every target that compiles a (workload, params) pair compiles it
    alike, so the upmem target, the PrIM baselines' grid search and the
    tuner share artifacts.
    """
    payload = (
        CACHE_SCHEMA_VERSION,
        workload_signature(workload) if workload is not None else None,
        tuple(sorted((params or {}).items())),
        repr(config),
        opt_level,
        # Every module compiles through the one ``build`` pipeline; the
        # constants keep digests (and the disk tier) as they were when
        # the pipeline name, a target's cache token and an extra token
        # were arguments.
        "build",
        None,
        None,
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def tuning_key(
    workload: Any,
    config: Any = None,
    kind: Optional[str] = None,
    opt_level: str = "O3",
) -> str:
    """Digest grouping tuning records by (workload, target kind, config,
    opt level).

    The persistent tuning database shares this machinery with the
    artifact cache so the two stay in lockstep: measured latencies depend
    on the same compiler behavior ``CACHE_SCHEMA_VERSION`` tracks, so a
    compiler bump retires stale tuning groups exactly as it retires
    stale artifacts.  ``opt_level`` is part of the key because the same
    candidate measures differently under O0 vs O3 — warm-starting across
    levels would serve stale latencies.  Unlike :func:`artifact_key`,
    schedule params are *not* part of the key — a group holds every
    measured candidate of one search space.
    """
    payload = (
        CACHE_SCHEMA_VERSION,
        workload_signature(workload) if workload is not None else None,
        repr(config),
        kind,
        # Where a target's cache token sat: kept so stored groups keep
        # their digests.
        None,
        opt_level,
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@dataclass
class CompiledArtifact:
    """Outcome of compiling one (workload, params) candidate.

    ``module`` is ``None`` for negative artifacts (the sketch or lowering
    rejected the parameters, or the schedule's grid asks for more DPUs
    than the machine has — decided before lowering); ``error`` then
    names the failure.  ``verified`` is the single validity predicate:
    the module exists *and* passed the hardware-constraint check
    (``verify_reason`` names the violated constraint otherwise).  A
    module that failed a *post-lowering* check (tasklets, WRAM, MRAM,
    IRAM) is still there to inspect.
    """

    key: str
    module: Any = None
    error: str = ""
    verified: bool = False
    verify_reason: str = ""

    @property
    def ok(self) -> bool:
        return self.module is not None


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.disk_hits)


class ArtifactCache:
    """Content-addressed artifact store: in-memory LRU + optional disk tier.

    ``disk_dir`` enables persistence: artifacts are pickled to
    ``<disk_dir>/<key>.pkl`` (digest first) with atomic renames, so
    concurrent processes sharing a directory never observe torn files.  Disk loads count as
    hits (and ``disk_hits``) because the expensive re-lowering is skipped.
    """

    def __init__(
        self, disk_dir: Optional[str] = None, max_entries: int = 4096
    ) -> None:
        self.disk_dir = disk_dir
        self.max_entries = max_entries
        self._mem: "OrderedDict[str, CompiledArtifact]" = OrderedDict()
        self.stats = CacheStats()
        if disk_dir:
            os.makedirs(disk_dir, exist_ok=True)

    def __len__(self) -> int:
        return len(self._mem)

    def _disk_path(self, key: str) -> str:
        return os.path.join(self.disk_dir, f"{key}.pkl")

    def get(self, key: str) -> Optional[CompiledArtifact]:
        art = self._mem.get(key)
        if art is not None:
            self._mem.move_to_end(key)
            self.stats.hits += 1
            return art
        art = self._read_disk(key) if self.disk_dir else None
        if art is not None:
            self._remember(key, art)
            self.stats.hits += 1
            self.stats.disk_hits += 1
            return art
        self.stats.misses += 1
        return None

    def put(self, artifact: CompiledArtifact) -> CompiledArtifact:
        self._remember(artifact.key, artifact)
        if self.disk_dir:
            self._write_disk(artifact)
        return artifact

    def _remember(self, key: str, artifact: CompiledArtifact) -> None:
        self._mem[key] = artifact
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)

    def _read_disk(self, key: str) -> Optional[CompiledArtifact]:
        """The artifact stored under ``key``, or ``None`` for anything
        else — no file, a torn, stale or bit-flipped one (digest
        mismatch, so it is never unpickled), a pickle of some other
        object, an artifact copied or renamed from another key.  All
        degrade to a miss that the recompile overwrites, never to a
        crashed lookup or another program's module."""
        try:
            with open(self._disk_path(key), "rb") as fh:
                blob = fh.read()
            digest, body = blob[:_DIGEST_BYTES], blob[_DIGEST_BYTES:]
            if hashlib.sha256(body).digest() != digest:
                return None
            art = pickle.loads(body)
        except Exception:
            return None
        if isinstance(art, CompiledArtifact) and art.key == key:
            return art
        return None

    def _write_disk(self, artifact: CompiledArtifact) -> None:
        path = self._disk_path(artifact.key)
        fd, tmp = tempfile.mkstemp(dir=self.disk_dir, suffix=".tmp")
        try:
            body = pickle.dumps(artifact)
            with os.fdopen(fd, "wb") as fh:
                fh.write(hashlib.sha256(body).digest() + body)
            os.replace(tmp, path)
        except Exception:  # pragma: no cover - defensive
            # The disk tier is an optimization: a module that cannot be
            # pickled (or a full disk) must not fail the compile that
            # produced it, and the temp file must not leak.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def clear(self) -> None:
        """Drop the in-memory tier (disk files are left in place)."""
        self._mem.clear()

"""Tuning-record database (the "best candidate database" of Fig. 6).

Two layers:

* :class:`Database` — the in-memory store one search run works against,
  deduplicated on parameter key (the best latency wins).
* :class:`TuningCache` — a persistent JSON-lines file holding records for
  *many* (workload, target, config) groups, addressed by the digest from
  :func:`repro.pipeline.tuning_key`.  Records are appended incrementally
  (one line per measured candidate), so an interrupted run leaves a
  readable prefix behind and a later run can warm-start from it.

On-disk format (version ``1``): the first line is a header ::

    {"format": "repro-tuning-db", "version": 1}

and every further line is one record ::

    {"key": "<tuning_key digest>", "params": {...}, "subspace": "plain",
     "latency": 1.2e-3, "features": [...] | null, "trial": 7, ...}

or an event line (no ``params``; skipped by record loads), e.g. the
``run_complete`` marker a finished search appends so later consumers can
tell a completed budget from the union of interrupted runs ::

    {"key": "<digest>", "event": "run_complete", "n_trials": 64, ...}

Versioning policy: the header version is bumped on any
backwards-incompatible change to the line payload *or* whenever the
meaning of stored latencies changes (the digest already folds in the
compiler's ``CACHE_SCHEMA_VERSION``, so performance-model changes retire
old groups without a format bump).  Readers refuse files with a newer
version than they understand and tolerate a torn trailing line (the
signature of a killed writer).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "TuningRecord",
    "Database",
    "TuningCache",
    "DatabaseFormatError",
    "DB_FORMAT",
    "DB_SCHEMA_VERSION",
]

#: Magic string identifying a tuning-database file.
DB_FORMAT = "repro-tuning-db"
#: Bump on backwards-incompatible record-payload changes (see module doc).
DB_SCHEMA_VERSION = 1


class DatabaseFormatError(RuntimeError):
    """The on-disk file is not a tuning database this reader understands."""


@dataclass
class TuningRecord:
    """One measured candidate."""

    params: Dict[str, int]
    subspace: str
    latency: float
    features: Optional[np.ndarray] = None
    trial: int = 0
    #: :class:`TuningCache` group digest the record was loaded from
    #: ("" for in-run records); not serialized here — the cache line's
    #: ``key`` field carries it.
    group: str = ""

    @property
    def key(self) -> Tuple:
        return tuple(sorted(self.params.items()))

    def to_json(self) -> Dict:
        """JSON-safe payload (features become a plain list);
        :meth:`TuningCache.append` adds the group as the line's ``key``."""
        return {
            "params": dict(self.params),
            "subspace": self.subspace,
            "latency": float(self.latency),
            "features": (
                None if self.features is None
                else [float(x) for x in self.features]
            ),
            "trial": int(self.trial),
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "TuningRecord":
        features = payload.get("features")
        return cls(
            params={str(k): int(v) for k, v in payload["params"].items()},
            subspace=payload.get("subspace", "plain"),
            latency=float(payload["latency"]),
            features=(
                None if features is None
                else np.asarray(features, dtype=np.float64)
            ),
            trial=int(payload.get("trial", 0)),
            group=str(payload.get("key", "")),
        )


class Database:
    """Measured candidates, ordered queries by latency.

    Deduplicated on the parameter key within each record's ``group``
    (in-run records all share the empty group, so a search run dedupes
    on params alone): re-adding a present key keeps whichever record has
    the *lower* latency, so ``top_k`` never returns the same schedule
    twice (duplicate elites would bias mutation toward whatever happened
    to repeat) and ``_seen`` tracks the best-known latency rather than
    the last write.  Records loaded from different :class:`TuningCache`
    groups (distinct workloads/targets) never collapse into each other,
    even when their param dicts coincide.
    """

    def __init__(self) -> None:
        self._records: List[TuningRecord] = []
        #: (group, params-key) -> position in ``_records``; the dedupe
        #: source of truth ``add``/``contains`` operate on.
        self._index: Dict[Tuple, int] = {}
        #: params-key -> best latency seen across *all* groups.  Not
        #: consulted by the search (``_index`` is); kept as the
        #: best-known-latency view whose min-not-last-write semantics a
        #: regression pinned after the duplicate-elite bug.
        self._seen: Dict[Tuple, float] = {}

    def __len__(self) -> int:
        return len(self._records)

    def add(self, record: TuningRecord) -> bool:
        """Insert a record; returns whether the database changed.

        A duplicate (group, params) key only replaces the stored record
        when it improves on the known latency.
        """
        dkey = (record.group, record.key)
        pos = self._index.get(dkey)
        changed = False
        if pos is None:
            self._index[dkey] = len(self._records)
            self._records.append(record)
            changed = True
        elif record.latency < self._records[pos].latency:
            self._records[pos] = record
            changed = True
        prev = self._seen.get(record.key)
        if prev is None or record.latency < prev:
            self._seen[record.key] = record.latency
        return changed

    def contains(self, params: Dict[str, int], group: str = "") -> bool:
        """Whether (group, params) has a record — group-aware like
        :meth:`add`, so a multi-group load never shadows another group's
        identical params (in-run searches use the default "" group)."""
        return (group, tuple(sorted(params.items()))) in self._index

    def records(self) -> List[TuningRecord]:
        return list(self._records)

    def top_k(self, k: int, subspace: Optional[str] = None) -> List[TuningRecord]:
        pool = [
            r
            for r in self._records
            if subspace is None or r.subspace == subspace
        ]
        pool.sort(key=lambda r: r.latency)
        return pool[:k]

    def best(self) -> Optional[TuningRecord]:
        top = self.top_k(1)
        return top[0] if top else None

    def training_data(self) -> Tuple[np.ndarray, np.ndarray]:
        rows = [r for r in self._records if r.features is not None]
        if not rows:
            return np.zeros((0, 0)), np.zeros(0)
        X = np.stack([r.features for r in rows])
        y = np.array([r.latency for r in rows])
        return X, y


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------


def _header() -> Dict:
    return {"format": DB_FORMAT, "version": DB_SCHEMA_VERSION}


def _parse_header(
    path: Union[str, os.PathLike], line: str, torn: bool
) -> Optional[Dict]:
    """Validate a header line; the single source of format/version policy
    for both the reader and the append path.

    Returns ``None`` when the line is our own torn first write (a prefix
    of the canonical header with no newline — a writer killed during the
    very first append): an empty store, not a foreign file.  Anything
    else that fails validation raises :class:`DatabaseFormatError`.
    """
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        if torn and json.dumps(_header()).startswith(line):
            return None
        raise DatabaseFormatError(f"{path}: unreadable header: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != DB_FORMAT:
        raise DatabaseFormatError(f"{path}: not a {DB_FORMAT} file")
    version = header.get("version")
    if not isinstance(version, int) or version > DB_SCHEMA_VERSION:
        raise DatabaseFormatError(
            f"{path}: version {version!r} is newer than supported"
            f" ({DB_SCHEMA_VERSION}); refusing to guess at its payload"
        )
    return header


def _read_records(path: Union[str, os.PathLike]) -> Iterable[Dict]:
    """Yield record payloads, validating the header.

    A torn trailing line (killed writer — the file does not end in a
    newline) is skipped silently; a torn or wrong header, or a corrupt
    *complete* line anywhere, is a hard error — better to refuse than to
    warm-start from damaged or foreign data.
    """
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines:
        return
    torn_tail = not text.endswith("\n")
    if _parse_header(path, lines[0], torn_tail and len(lines) == 1) is None:
        return
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) and torn_tail:
                continue  # torn final line from a killed writer
            raise DatabaseFormatError(f"{path}: corrupt record at line {i}")
        if not isinstance(payload, dict):
            # Valid JSON but not a record object (a stray `42`, an
            # array): damage, and never a torn-write artifact — no
            # prefix of an object line parses as complete non-dict JSON.
            raise DatabaseFormatError(f"{path}: corrupt record at line {i}")
        yield payload


class TuningCache:
    """Persistent multi-run tuning store: one JSON-lines file, records
    grouped by :func:`repro.pipeline.tuning_key` digests.

    ``append`` is the incremental write path the tuner uses after every
    measured batch: the file is opened, extended with a single write,
    flushed and closed, so a killed run loses at most its in-flight
    batch.  ``load``/``best`` read the whole file each call — tuning
    databases are thousands of records, not millions, and re-reading
    keeps later appends visible to long-lived readers.

    The store assumes **one writer at a time** (readers are always
    safe): the torn-tail heal in ``_append_lines`` cannot tell a dead
    writer's fragment from a live writer's in-flight batch.  Point
    concurrent sweeps at separate files.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)

    @classmethod
    def ensure(cls, spec: Union[str, os.PathLike, "TuningCache"]) -> "TuningCache":
        """Pass instances through; treat anything else as a path."""
        return spec if isinstance(spec, TuningCache) else cls(spec)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def keys(self) -> List[str]:
        """Group digests present in the store, sorted."""
        if not self.exists():
            return []
        return sorted({p["key"] for p in _read_records(self.path) if "key" in p})

    def load(self, key: Optional[str] = None) -> Database:
        """Records for one group digest (or every record when ``key`` is
        None) as a deduplicated :class:`Database`."""
        db = Database()
        if not self.exists():
            return db
        for payload in _read_records(self.path):
            if key is not None and payload.get("key") != key:
                continue
            if "params" in payload:  # skip event/meta lines
                db.add(TuningRecord.from_json(payload))
        return db

    def best(self, key: str) -> Optional[TuningRecord]:
        """Best-known record for a group, or ``None``."""
        return self.group_summary(key)[0]

    def group_summary(self, key: str) -> Tuple[Optional[TuningRecord], int]:
        """(best record, largest completed budget) of a group — one file
        scan, no :class:`Database` construction; the lookup fast path
        (``tuned_params``) stays O(file) even for huge stores."""
        best: Optional[TuningRecord] = None
        completed = 0
        if not self.exists():
            return None, 0
        for payload in _read_records(self.path):
            if payload.get("key") != key:
                continue
            if payload.get("event") == "run_complete":
                completed = max(completed, int(payload.get("n_trials", 0)))
            elif "params" in payload:
                record = TuningRecord.from_json(payload)
                if best is None or record.latency < best.latency:
                    best = record
        return best, completed

    def append(
        self,
        key: str,
        records: Sequence[TuningRecord],
        meta: Optional[Dict] = None,
    ) -> None:
        """Append records to a group (creating the file + header first).

        ``meta`` (e.g. workload name / target kind) is merged into each
        line for human readability; readers ignore unknown fields.
        """
        if not records:
            return
        lines = []
        for record in records:
            payload = dict(meta or {})
            payload.update(record.to_json())
            payload["key"] = key
            lines.append(payload)
        self._append_lines(lines)

    def mark_complete(
        self, key: str, n_trials: int, meta: Optional[Dict] = None
    ) -> None:
        """Record that a search over this group ran to completion.

        Written as an ``event`` line (skipped by record loads);
        ``tuned_params`` reads it (through :meth:`group_summary`) to
        decide whether a stored group already covers a requested search
        budget — record *count* alone cannot tell a finished run from
        the union of several interrupted or differently-seeded ones.
        """
        payload = dict(meta or {})
        payload.update(
            {"event": "run_complete", "key": key, "n_trials": int(n_trials)}
        )
        self._append_lines([payload])

    def completed_trials(self, key: str) -> int:
        """Largest completed-run trial budget recorded for a group."""
        return self.group_summary(key)[1]

    def _append_lines(self, payloads: Sequence[Dict]) -> None:
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._check_writable()
        if self.exists():
            # Heal a torn trailing line (killed mid-write): drop the
            # partial fragment so the next record starts on its own line
            # instead of gluing onto it — which would silently lose the
            # record now and poison every later load once more lines
            # push the glued fragment into the file's interior.  The
            # common case costs one seek + one byte; only an actual torn
            # tail rescans for the last intact line.
            with open(self.path, "rb+") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() > 0:
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        fh.seek(0)
                        data = fh.read()
                        fh.seek(data.rfind(b"\n") + 1)
                        fh.truncate()
        fresh = not self.exists() or os.path.getsize(self.path) == 0
        lines = [json.dumps(_header())] if fresh else []
        lines.extend(json.dumps(p, sort_keys=True) for p in payloads)
        # One write call per batch, so a kill leaves at most one torn
        # tail rather than interleaved half-batches.
        with open(self.path, "a") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()

    def _check_writable(self) -> None:
        """Refuse to touch a pre-existing file that is not ours.

        The torn-tail heal truncates, so appending to an arbitrary
        ``--db`` path (a notes file, a BENCH dump) must fail *before*
        damaging it, not on the next load.  A torn first write (a prefix
        of our own header, no newline) is still ours and stays writable.
        """
        if not self.exists() or os.path.getsize(self.path) == 0:
            return
        with open(self.path, "rb") as fh:
            # Capped read: the canonical header is ~45 bytes; a foreign
            # newline-less blob must not be slurped whole just to be
            # rejected (a capped fragment can never satisfy the
            # header-prefix tolerance, so it still raises).
            first = fh.readline(4096).decode("utf-8", errors="replace")
        # A None return (our own killed first write) is writable: the
        # heal resets the fragment and a fresh header is written.
        _parse_header(
            self.path, first.rstrip("\n"), torn=not first.endswith("\n")
        )

"""The balanced evolutionary search and autotuning driver (§5.2.3, Fig. 6).

Mechanics per round:

1. build a candidate pool from mutated top-K database entries plus fresh
   random samples;
2. rank the pool with the learned cost model;
3. ε-greedy selection of the measurement batch (ε decays linearly from
   0.5 to 0.05 over the first 40% of trials when ``adaptive_epsilon``);
4. *balanced sampling*: during the first 40% of trials the batch draws an
   equal share from the ``rfactor`` and ``plain`` design subspaces so the
   inter-DPU-parallelism bias cannot drop non-rfactor candidates early;
5. "measure" the batch on the simulated UPMEM system, record, retrain.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..pipeline import CacheStats, tuning_key
from ..workloads import Workload
from .compile import CompileEngine
from .cost_model import CostModel
from .database import Database, TuningCache, TuningRecord
from .features import extract_features
from .sketch import param_space, seed_params, subspace_of

__all__ = [
    "Candidate",
    "TuneResult",
    "Tuner",
    "autotune",
    "measure_stats",
    "tuned_params",
]

#: Process-wide measurement-memo accounting (mirrors the compile cache's
#: ``default_engine().stats``): every ``Tuner.tune`` adds its per-run
#: warm-start hits/misses here so the harness can report warm vs cold.
_MEASURE_STATS = CacheStats()

#: Database elites mutated (twice each) into every round's pool.
_ELITES = 10
#: Pool members sketched and ranked per measured batch slot.
_POOL_PER_BATCH = 4


def measure_stats() -> CacheStats:
    """Snapshot of process-wide measurement-memo hit/miss counters."""
    return _MEASURE_STATS.snapshot()


@dataclass
class Candidate:
    """An unmeasured schedule candidate."""

    params: Dict[str, int]
    subspace: str
    module: object = None  # LoweredModule once built
    features: Optional[np.ndarray] = None
    predicted: float = 0.0
    #: Sketch-default candidates are always measured in the first batch.
    is_seed: bool = False

    @property
    def key(self) -> Tuple:
        return tuple(sorted(self.params.items()))


@dataclass
class TuneResult:
    """Outcome of an autotuning run."""

    workload: Workload
    best_params: Dict[str, int]
    best_latency: float
    best_module: object
    database: Database
    #: (trial index, best latency so far) pairs for convergence plots.
    history: List[Tuple[int, float]] = field(default_factory=list)
    #: wall-clock seconds spent per round (Fig. 15 left).
    round_times: List[float] = field(default_factory=list)
    #: simulated latency of every measured candidate (Fig. 15 right).
    measured: List[float] = field(default_factory=list)
    #: compile-cache accounting (per-run deltas): repeated candidates
    #: skip re-lowering; ``disk_hits`` counts the subset served from a
    #: persistent cache tier.
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    compile_cache_disk_hits: int = 0
    #: warm-start accounting: measurements served from a persistent
    #: tuning database (``db=``/``resume=``) vs freshly simulated.
    measure_cache_hits: int = 0
    measure_cache_misses: int = 0
    #: group digest in the persistent store (empty when no ``db``).
    db_key: str = ""

    @property
    def compile_cache_hit_rate(self) -> float:
        lookups = self.compile_cache_hits + self.compile_cache_misses
        return self.compile_cache_hits / lookups if lookups else 0.0

    @property
    def measure_cache_hit_rate(self) -> float:
        lookups = self.measure_cache_hits + self.measure_cache_misses
        return self.measure_cache_hits / lookups if lookups else 0.0

    def best_gflops(self) -> float:
        return self.workload.flops / self.best_latency / 1e9

    def gflops_curve(self) -> List[Tuple[int, float]]:
        return [
            (trial, self.workload.flops / lat / 1e9) for trial, lat in self.history
        ]


def _search_target(target: object):
    """Resolve ``target`` to the :class:`~repro.target.UpmemTarget` a
    search sketches on and scores with: upmem is the one target whose
    model prices a module."""
    # Local: ``target`` sits above ``autotune`` (targets compile
    # through the engine and sketch from its table).
    from ..target import TargetError, UpmemTarget, get_target

    resolved = get_target(target)
    if not isinstance(resolved, UpmemTarget):
        raise TargetError(f"target {resolved.kind!r} cannot measure modules")
    return resolved


class Tuner:
    """Search driver for one workload."""

    def __init__(
        self,
        workload: Workload,
        target: object = "upmem",
        n_trials: int = 256,
        batch_size: int = 16,
        seed: int = 0,
        balanced: bool = True,
        adaptive_epsilon: bool = True,
        opt_level: str = "O3",
        seed_defaults: bool = True,
        engine: Optional[CompileEngine] = None,
        db: Optional[object] = None,
        resume: bool = False,
    ) -> None:
        # A machine of another size is a configured target:
        # ``target=UpmemTarget(config)``.
        self.target = _search_target(target)
        self.workload = workload
        self.config = self.target.config
        self.n_trials = n_trials
        self.batch_size = batch_size
        self.seed = seed
        self.rng = random.Random(seed)
        self.balanced = balanced
        self.adaptive_epsilon = adaptive_epsilon
        self.opt_level = opt_level
        #: Measure canonical sketch defaults first (Ansor-style warm
        #: start).  Disabled for search-dynamics studies (Fig. 14), where
        #: the cold-start bias between design subspaces is the subject.
        self.seed_defaults = seed_defaults
        self.space = param_space(workload, max_dpus=self.config.n_dpus)
        self.database = Database()
        self.cost_model = CostModel()
        #: Every candidate compiles through this engine; a tuner-private
        #: one keeps artifacts scoped to the run (pass an engine to share
        #: across runs — hit-rate accounting stays per-run either way).
        self.engine = engine if engine is not None else CompileEngine()
        #: Tiny budgets (``n_trials < 3``) used to floor this at 0, which
        #: made ``epsilon`` return 0.05 for every trial and skip
        #: exploration entirely; small runs get one exploratory trial.
        self._explore_until = max(1, int(0.4 * n_trials))
        #: Persistent tuning store (warm start / resume).  ``db`` is a
        #: path or :class:`TuningCache`; measured records append to it
        #: after every batch.  ``resume`` additionally pre-loads this
        #: group's records as a measurement memo: the search *replays*
        #: deterministically from its seed, and candidates the store
        #: already knows skip re-measurement, so a killed-and-resumed run
        #: walks the exact trajectory (and history) of an uninterrupted
        #: one.
        self.tuning_cache = (
            TuningCache.ensure(db) if db is not None else None
        )
        if resume and self.tuning_cache is None:
            raise ValueError("resume=True requires a db to resume from")
        self.db_key = tuning_key(
            workload, self.config, self.target.kind, opt_level=self.opt_level
        )
        self._warm: Dict[Tuple, TuningRecord] = {}
        if resume and self.tuning_cache is not None:
            for record in self.tuning_cache.load(self.db_key).records():
                self._warm[record.key] = record
        self._measure_hits = 0
        self._measure_misses = 0

    # -- candidate construction ------------------------------------------------
    def _random_params(self) -> Dict[str, int]:
        return {k: self.rng.choice(v) for k, v in self.space.items()}

    def _mutate_params(self, params: Dict[str, int]) -> Dict[str, int]:
        """One-step mutation that always yields *different* params.

        Steps are reflected at domain edges (clamping used to mutate
        boundary candidates into themselves, wasting the elite-mutation
        slot on a duplicate ``seen`` then rejected), and only keys with
        more than one choice are eligible.
        """
        new = dict(params)
        keys = [k for k, domain in self.space.items() if len(domain) > 1]
        if not keys:
            return new
        key = self.rng.choice(keys)
        domain = self.space[key]
        idx = domain.index(new[key]) if new[key] in domain else 0
        step = self.rng.choice([-1, 1])
        nidx = idx + step
        if not 0 <= nidx < len(domain):
            nidx = idx - step  # reflect off the boundary
        new[key] = domain[nidx]
        return new

    def _build(self, params: Dict[str, int]) -> Optional[Candidate]:
        artifact = self.engine.compile(
            self.workload,
            params,
            opt_level=self.opt_level,
            config=self.config,
        )
        if not artifact.verified:
            return None
        module = artifact.module
        cand = Candidate(
            params=params, subspace=subspace_of(self.workload.name, params)
        )
        cand.module = module
        cand.features = extract_features(module, self.config)
        return cand

    # -- search -------------------------------------------------------------------
    def epsilon(self, trial: int) -> float:
        """Exploration rate at a given trial (adaptive: 0.5 → 0.05)."""
        if not self.adaptive_epsilon:
            return 0.05
        if trial >= self._explore_until:
            return 0.05
        frac = trial / self._explore_until
        return 0.5 + (0.05 - 0.5) * frac

    def _seed_params(self) -> List[Dict[str, int]]:
        """Canonical defaults measured first (one per design subspace)."""
        return seed_params(self.space, self.config.n_dpus)

    def _sample_pool(self, size: int) -> List[Candidate]:
        pool: List[Candidate] = []
        seen = set()
        if self.seed_defaults and not len(self.database):
            for params in self._seed_params():
                cand = self._try_candidate(params, seen)
                if cand:
                    cand.is_seed = True
                    pool.append(cand)
        # Mutations of the current elite.
        for record in self.database.top_k(_ELITES):
            for _ in range(2):
                params = self._mutate_params(record.params)
                cand = self._try_candidate(params, seen)
                if cand:
                    pool.append(cand)
        # Fresh uniform samples (uniform across design subspaces).
        attempts = 0
        while len(pool) < size and attempts < size * 10:
            attempts += 1
            cand = self._try_candidate(self._random_params(), seen)
            if cand:
                pool.append(cand)
        return pool

    def _try_candidate(self, params: Dict[str, int], seen) -> Optional[Candidate]:
        key = tuple(sorted(params.items()))
        if key in seen or self.database.contains(params):
            return None
        seen.add(key)
        cand = self._build(params)
        return cand

    def _select_batch(
        self, pool: List[Candidate], trial: int
    ) -> List[Candidate]:
        if not pool:
            return []
        X = np.stack([c.features for c in pool])
        scores = self.cost_model.predict(X)
        for cand, score in zip(pool, scores):
            cand.predicted = float(score)
        eps = self.epsilon(trial)

        def greedy(cands: Sequence[Candidate], n: int) -> List[Candidate]:
            ranked = sorted(cands, key=lambda c: c.predicted)
            return list(ranked[:n])

        batch: List[Candidate] = []
        n = min(self.batch_size, len(pool))
        if self.balanced and trial < self._explore_until:
            # Equal representation of rfactor / plain subspaces early on.
            for tag in ("rfactor", "plain"):
                subset = [c for c in pool if c.subspace == tag]
                batch.extend(greedy(subset, n // 2))
            remaining = [c for c in pool if c not in batch]
            batch.extend(greedy(remaining, n - len(batch)))
        else:
            batch = greedy(pool, n)
        # ε-greedy: replace a fraction with random pool members (seeds
        # are exempt — sketch defaults are always measured).
        for i in range(len(batch)):
            if not batch[i].is_seed and self.rng.random() < eps:
                batch[i] = self.rng.choice(pool)
        for cand in pool:
            if cand.is_seed and cand not in batch:
                batch.insert(0, cand)
        # Dedupe while preserving order.
        unique: List[Candidate] = []
        keys = set()
        for c in batch:
            if c.key not in keys:
                keys.add(c.key)
                unique.append(c)
        return unique

    # -- measurement ----------------------------------------------------------------
    def _measure(self, cand: Candidate) -> float:
        return self.target.measure(cand.module)

    def _measure_batch(self, batch: Sequence[Candidate]) -> List[float]:
        """Evaluate a measurement batch on the simulated system.

        Batched so the whole round shares one evaluation step (matching
        real-hardware drivers that upload and time a program batch).
        Candidates already present in the warm-start memo reuse their
        stored latency; the rest are measured in order (the performance
        model is pure Python and holds the GIL, so threads bought
        nothing here).
        """
        latencies: List[float] = []
        for cand in batch:
            record = self._warm.get(cand.key)
            if record is not None:
                latencies.append(record.latency)
                self._measure_hits += 1
            else:
                latencies.append(self._measure(cand))
                self._measure_misses += 1
        return latencies

    def tune(self) -> TuneResult:
        """Run the search; returns the best candidate and full history."""
        trial = 0
        history: List[Tuple[int, float]] = []
        round_times: List[float] = []
        measured: List[float] = []
        best: Optional[TuningRecord] = None
        stats_before = self.engine.stats.snapshot()
        self._measure_hits = 0
        self._measure_misses = 0

        while trial < self.n_trials:
            start = time.perf_counter()
            pool = self._sample_pool(self.batch_size * _POOL_PER_BATCH)
            batch = self._select_batch(pool, trial)
            if not batch:
                break
            batch = batch[: self.n_trials - trial]
            latencies = self._measure_batch(batch)
            fresh_records: List[TuningRecord] = []
            for cand, latency in zip(batch, latencies):
                measured.append(latency)
                record = TuningRecord(
                    params=cand.params,
                    subspace=cand.subspace,
                    latency=latency,
                    features=cand.features,
                    trial=trial,
                )
                self.database.add(record)
                if cand.key not in self._warm:
                    fresh_records.append(record)
                trial += 1
                if best is None or latency < best.latency:
                    best = record
                history.append((trial, best.latency))
            if self.tuning_cache is not None:
                # Incremental persistence: a killed run keeps every batch
                # measured so far, and --resume replays past it for free.
                self.tuning_cache.append(
                    self.db_key,
                    fresh_records,
                    meta={
                        "workload": self.workload.name,
                        "target": self.target.kind,
                    },
                )
            X, y = self.database.training_data()
            self.cost_model.fit(X, y)
            round_times.append(time.perf_counter() - start)

        if best is None:
            raise RuntimeError(
                f"no valid candidate found for workload {self.workload.name!r}"
            )
        if self.tuning_cache is not None:
            # The run satisfied the *requested* budget either by
            # measuring n_trials candidates or by exhausting the valid
            # space first (``trial`` < n_trials with an empty batch), so
            # the marker records n_trials: an exhausted-space group must
            # still resolve instantly for the same budget instead of
            # re-searching on every tuned_params call.
            self.tuning_cache.mark_complete(
                self.db_key,
                self.n_trials,
                meta={
                    "workload": self.workload.name,
                    "target": self.target.kind,
                    "seed": self.seed,
                    "measured_trials": trial,
                },
            )
        best_candidate = self._build(best.params)
        assert best_candidate is not None
        # Delta against the run's start so a shared engine still yields
        # per-run accounting.
        totals = self.engine.stats
        stats = CacheStats(
            hits=totals.hits - stats_before.hits,
            misses=totals.misses - stats_before.misses,
            disk_hits=totals.disk_hits - stats_before.disk_hits,
        )
        _MEASURE_STATS.hits += self._measure_hits
        _MEASURE_STATS.misses += self._measure_misses
        return TuneResult(
            workload=self.workload,
            best_params=best.params,
            best_latency=best.latency,
            best_module=best_candidate.module,
            database=self.database,
            history=history,
            round_times=round_times,
            measured=measured,
            compile_cache_hits=stats.hits,
            compile_cache_misses=stats.misses,
            compile_cache_disk_hits=stats.disk_hits,
            measure_cache_hits=self._measure_hits,
            measure_cache_misses=self._measure_misses,
            db_key=self.db_key if self.tuning_cache is not None else "",
        )


def autotune(
    workload: Workload,
    n_trials: int = 256,
    target: object = "upmem",
    seed: int = 0,
    **kwargs,
) -> TuneResult:
    """Autotune a workload (ATiM's flow).

    ``target`` is ``"upmem"`` or a configured
    :class:`repro.target.UpmemTarget` (a machine of another size), whose
    performance model scores the candidates.  Other targets cannot
    price a module and raise :class:`repro.target.TargetError`.

    Persistence knobs forward to :class:`Tuner`:
    ``db=`` (path or :class:`TuningCache`) appends measured records to a
    persistent store and ``resume=True`` warm-starts from it.
    """
    tuner = Tuner(
        workload,
        target=target,
        n_trials=n_trials,
        seed=seed,
        **kwargs,
    )
    return tuner.tune()


def tuned_params(
    workload: Workload,
    target: object = "upmem",
    db: Optional[object] = None,
    n_trials: int = 64,
    seed: int = 0,
    resume: Optional[bool] = None,
    opt_level: str = "O3",
    **kwargs,
) -> Dict[str, int]:
    """Best-known schedule params for a workload on a target.

    With a persistent ``db`` holding a *completed* search of at least
    ``n_trials`` for this (workload, target, config) group (searches
    append a ``run_complete`` marker when they finish), the stored best
    is returned without searching — a single file scan, no compile
    machinery.  Anything less — a cold store, or a group built only
    from interrupted runs, however many records they left — runs the
    search, warm-started and persisting into ``db`` when given, and
    returns its winner.  ``resume`` defaults to warm-starting whenever
    ``db`` is given; pass ``resume=False`` to persist without
    warm-starting (which also forces a fresh search).  Compile the
    winner with ``repro.compile(workload, target, params=...)``.
    """
    resume = db is not None if resume is None else resume
    target = _search_target(target)
    if db is not None and resume:
        cache = TuningCache.ensure(db)
        key = tuning_key(
            workload, target.config, target.kind, opt_level=opt_level
        )
        best, completed = cache.group_summary(key)
        if completed >= n_trials and best is not None:
            return dict(best.params)
    tuner = Tuner(
        workload,
        target=target,
        n_trials=n_trials,
        seed=seed,
        db=db,
        resume=resume,
        opt_level=opt_level,
        **kwargs,
    )
    return dict(tuner.tune().best_params)

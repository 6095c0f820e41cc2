"""The embeddable retrieval service: admission → cache → shards → merge.

One query's path through :class:`RetrievalService` (a single query is
a batch of one; every batch takes this path):

1. **admission** — take an in-flight slot from the bounded
   :class:`~repro.service.pool.AdmissionQueue`; saturation sheds the
   query with an explicit ``overloaded`` result (never blocks);
2. **cache** — probe the :class:`~repro.service.cache.QueryResultCache`
   under the sketch's canonical (similarity-invariant) signature;
   identical queries in flight coalesce onto one computation;
3. **fan-out** — run the envelope matcher on every shard, in parallel
   on the worker pool, each with the query's deadline as its
   cooperative abort;
4. **merge** — per-shard top-k lists merge into the global top-k
   (exact, because shards are disjoint and measures base-independent);
5. **degrade** — if the deadline expired mid-search, or no match beat
   ``match_threshold``, answer from the geometric-hashing tier instead
   (the paper's fallback, repurposed as graceful degradation).

Every stage feeds the :class:`~repro.service.metrics.MetricsRegistry`;
``snapshot()`` returns the whole picture as a plain dict.

**Failure isolation.**  Each shard task runs behind a resilience
wrapper: an exception, a corrupted answer (non-finite distance /
foreign shape id) or a blown per-attempt budget is caught, retried
with capped exponential backoff + jitter, and — once a per-shard
:class:`~repro.service.breaker.CircuitBreaker` trips — skipped
outright until the cooldown's half-open probe succeeds.  A shard that
stays broken is *excluded*, not fatal: the query completes from the
surviving shards (exact over them, since shards are disjoint), the
broken shard contributes its constant-cost hashing tier when that
still works, and the result carries ``status="degraded"`` with the
failed shard ids.  The headline guarantee: any single-shard failure
mode degrades the answer, never the availability.
"""

from __future__ import annotations

import math
import numbers
import random
import threading
import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..ann import AnnConfig
from ..core.matcher import Match, MatchStats
from ..core.shapebase import ShapeBase, check_finite
from ..geometry.polyline import Shape
from .breaker import BreakerConfig, CircuitBreaker
from .cache import QueryResultCache, sketch_signature
from .deadline import Deadline
from .faults import (CorruptShardAnswer, FaultPlan, FaultyShard,
                     ShardTimeoutError)
from .ingest import FoldScheduler
from .metrics import MetricsRegistry
from .pool import AdmissionQueue, WorkerPool
from .procpool import ProcessShardView, ProcessWorkerPool
from .shards import Shard, ShardSet, merge_topk

#: ``ServiceResult.status`` values.
OK = "ok"
OVERLOADED = "overloaded"
DEGRADED = "degraded"

#: The degradation ladder's rungs, cheapest last (tier names appear in
#: metrics counters as ``queries.tier_<name>``).
TIER_EXACT = "exact"
TIER_ANN = "ann"
TIER_HASH = "hash"


@dataclass
class ServiceConfig:
    """Knobs of one :class:`RetrievalService`.

    The geometric parameters (``alpha``, ``beta``, ``backend``,
    ``hash_curves``, ``match_threshold``) mirror
    :class:`~repro.geosir.GeoSIR`; the rest size the serving tier.
    ``deadline`` is the default per-query budget in seconds (``None``
    = unlimited); ``max_pending`` bounds admitted-but-unfinished
    queries (``None`` = unbounded).
    """

    num_shards: int = 4
    workers: int = 2
    cache_capacity: int = 256
    max_pending: Optional[int] = None
    deadline: Optional[float] = None
    alpha: float = 0.1
    beta: float = 0.25
    backend: str = "kdtree"
    hash_curves: int = 50
    neighbor_radius: int = 1
    match_threshold: float = 0.05
    #: -- fault tolerance ------------------------------------------------
    #: Attempts per shard per query (1 = no retry); backoff between
    #: attempts doubles from ``retry_backoff`` up to
    #: ``retry_backoff_max``, randomized by ``retry_jitter`` (the
    #: fraction of the delay that is uniform-random, decorrelating
    #: retry storms; ``retry_seed`` makes the jitter reproducible).
    retry_attempts: int = 2
    retry_backoff: float = 0.02
    retry_backoff_max: float = 0.25
    retry_jitter: float = 0.5
    retry_seed: Optional[int] = None
    #: Per-attempt time budget in seconds (cooperative — enforced via
    #: the matcher's abort hook and checked after the call returns);
    #: ``None`` leaves attempts bounded only by the query deadline.
    attempt_timeout: Optional[float] = None
    #: Answer a failed shard's slice from its hashing tier (approximate
    #: but constant-cost) instead of dropping it from the merge.
    shard_hash_fallback: bool = True
    #: Per-shard circuit breaker tuning; ``None`` disables breakers.
    breaker: Optional[BreakerConfig] = field(default_factory=BreakerConfig)
    #: Deterministic fault injection (chaos testing); see
    #: :mod:`repro.service.faults` and ``serve-bench --chaos``.
    fault_plan: Optional[FaultPlan] = None
    #: -- approximate tier ------------------------------------------------
    #: Enable the LSH-pruned middle rung of the degradation ladder by
    #: providing an :class:`repro.ann.AnnConfig`; ``None`` keeps the
    #: original two-tier behaviour (exact -> hashing).
    ann: Optional[AnnConfig] = None
    #: ``"auto"`` picks the tier per query from the deadline's
    #: remaining budget (exact above ``ann_exact_budget`` seconds, ANN
    #: above ``ann_hash_budget``, the hash tier below that);
    #: ``"always"`` routes every query through the ANN tier — the mode
    #: benchmarks and ``query --ann`` use.
    ann_mode: str = "auto"
    ann_exact_budget: float = 0.05
    ann_hash_budget: float = 0.002
    #: -- execution tier ---------------------------------------------------
    #: ``"thread"`` runs shard fan-out on the worker thread pool (the
    #: original mode — fine until the exact matcher saturates the
    #: GIL); ``"process"`` serves matcher/ANN ops from ``processes``
    #: worker processes attached zero-copy to published shard
    #: snapshots (see :mod:`repro.service.procpool`).
    execution: str = "thread"
    processes: int = 2
    #: Directory for the per-shard snapshot files process workers
    #: mmap; ``None`` publishes into a private directory the worker
    #: pool creates (on tmpfs where available) and removes on close.
    snapshot_dir: Optional[str] = None
    #: -- streaming write path ---------------------------------------------
    #: ``streaming=True`` moves index folds off the ingest path onto a
    #: background :class:`~repro.service.ingest.FoldScheduler` (queries
    #: answer from the brute tails in the interim) and arms ingest
    #: backpressure: a batch waits (bounded by
    #: ``ingest_backpressure_timeout`` seconds) while the summed
    #: unfolded tail exceeds ``ingest_max_delta`` points or the
    #: admission queue is saturated, so a write burst cannot starve the
    #: read path of either index quality or admission slots.
    streaming: bool = False
    fold_interval: float = 0.05
    folds_per_cycle: int = 1
    ingest_max_delta: int = 4096
    ingest_backpressure_timeout: float = 1.0
    #: Process-mode publication cadence: pure-append version bumps ship
    #: as row deltas over the worker pipes; every N-th consecutive
    #: delta round (or any removal) triggers a compacting full
    #: republish instead.
    publish_compact_every: int = 16


@dataclass
class ServiceResult:
    """Outcome of one service query.

    ``status`` is ``"ok"``, ``"overloaded"`` (shed at admission — no
    retrieval was attempted) or ``"degraded"`` (one or more shards
    failed; the answer is exact over the surviving shards, listed-by-
    omission in ``failed_shards``, plus any hash-tier salvage from the
    broken ones).  ``method`` records which tier answered:
    ``"envelope"`` (exact search), ``"ann"`` (LSH-pruned exact),
    ``"hashing"`` (degraded / fallback) or ``"none"`` (shed or empty
    corpus).  The ``degraded`` *flag* keeps its original meaning — the
    deadline forced a cheaper tier than the config's best — independent
    of shard failures.
    """

    status: str
    matches: List[Match] = field(default_factory=list)
    method: str = "none"
    stats: MatchStats = field(default_factory=MatchStats)
    cached: bool = False
    degraded: bool = False       # deadline forced the hashing tier
    latency: float = 0.0         # seconds, as measured by the service
    failed_shards: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def overloaded(self) -> bool:
        return self.status == OVERLOADED

    @property
    def partial(self) -> bool:
        """True when one or more shards failed to answer exactly."""
        return bool(self.failed_shards)

    @property
    def best(self) -> Optional[Match]:
        return self.matches[0] if self.matches else None


@dataclass
class SimilarResult:
    """Outcome of one ``shape_similar`` leaf served by the service.

    ``shape_ids`` is the union over the surviving shards (exact when
    ``failed_shards`` is empty, since shards are disjoint); the algebra
    engine consumes these through
    :meth:`RetrievalService.similar_shapes_batch`.
    """

    shape_ids: frozenset = frozenset()
    candidates_evaluated: int = 0
    cached: bool = False
    failed_shards: List[int] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        return bool(self.failed_shards)


@dataclass
class _ShardOutcome:
    """What one shard's resilient call produced (never an exception)."""

    shard_index: int
    value: Any = None            # op result when the call succeeded
    failed: bool = False
    error: Optional[str] = None
    attempts: int = 0
    breaker_skipped: bool = False


def check_k(k) -> None:
    """Reject a top-k ``k`` that is not an integer >= 1 (bools too)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) \
            or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")


def check_sketch(sketch: Shape) -> None:
    """Reject a query sketch with NaN or infinite coordinates (the
    ingest rule of :func:`~repro.core.shapebase.validate_shape`)."""
    check_finite(sketch.vertices)


def _merge_stats(per_shard: Sequence[MatchStats]) -> MatchStats:
    """Aggregate work accounting across shards (sums and flags)."""
    merged = MatchStats()
    for stats in per_shard:
        merged.iterations += stats.iterations
        merged.triangles_queried += stats.triangles_queried
        merged.vertices_reported += stats.vertices_reported
        merged.vertices_processed += stats.vertices_processed
        merged.candidates_evaluated += stats.candidates_evaluated
        merged.epsilons.extend(stats.epsilons)
        for key, seconds in stats.timings.items():
            merged.timings[key] = merged.timings.get(key, 0.0) + seconds
    merged.guaranteed = bool(per_shard) and \
        all(s.guaranteed for s in per_shard)
    merged.exhausted = any(s.exhausted for s in per_shard)
    return merged


class RetrievalService:
    """Concurrent, sharded, cached retrieval over a GeoSIR corpus."""

    def __init__(self, shards: ShardSet, config: Optional[ServiceConfig]
                 = None, metrics: Optional[MetricsRegistry] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config or ServiceConfig()
        if self.config.ann_mode not in ("auto", "always"):
            raise ValueError("ann_mode must be 'auto' or 'always'")
        if self.config.execution not in ("thread", "process"):
            raise ValueError("execution must be 'thread' or 'process'")
        self.shards = shards
        self.metrics = metrics or MetricsRegistry()
        self.cache = QueryResultCache(self.config.cache_capacity)
        self.admission = AdmissionQueue(self.config.max_pending)
        self._procpool: Optional[ProcessWorkerPool] = None
        if self.config.execution == "process":
            self._procpool = ProcessWorkerPool(
                processes=self.config.processes,
                workers=self.config.workers,
                publish_dir=self.config.snapshot_dir,
                backend=self.config.backend, beta=self.config.beta,
                hash_curves=self.config.hash_curves,
                neighbor_radius=self.config.neighbor_radius,
                ann=self.config.ann,
                compact_every=self.config.publish_compact_every)
            self.pool: WorkerPool = self._procpool
        else:
            self.pool = WorkerPool(self.config.workers)
        # Single-flight: concurrent identical queries coalesce onto one
        # computation (thundering-herd protection for hot sketches).
        self._inflight: Dict[Tuple[str, int], threading.Event] = {}
        self._inflight_lock = threading.Lock()
        self._closed = False
        self._close_lock = threading.Lock()
        self._clock = clock
        self._started_at = clock()
        #: Where this corpus came from; ``from_snapshot`` records the
        #: file so ``/stats`` and ``/readyz`` can name it.
        self.snapshot_source: Optional[str] = None
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        self._retry_rng = random.Random(self.config.retry_seed)
        self._retry_lock = threading.Lock()
        # Algebra engines mounted on this service (weakly held): their
        # work counters roll up into snapshot()["algebra"].
        self._engines: "weakref.WeakSet" = weakref.WeakSet()
        self._fold_scheduler: Optional[FoldScheduler] = None
        if self.config.streaming:
            self._fold_scheduler = FoldScheduler(
                self.shards, self.metrics,
                interval=self.config.fold_interval,
                folds_per_cycle=self.config.folds_per_cycle)
            self._fold_scheduler.start()
        self.metrics.gauge("queue.pending", lambda: self.admission.pending)
        self.metrics.gauge("cache.size", lambda: len(self.cache))
        self.metrics.gauge("ingest.pending_delta",
                           lambda: self.shards.delta_points)

    # ------------------------------------------------------------------
    # Construction / corpus management
    # ------------------------------------------------------------------
    @classmethod
    def from_base(cls, base: ShapeBase, config: Optional[ServiceConfig]
                  = None, metrics: Optional[MetricsRegistry] = None
                  ) -> "RetrievalService":
        """Shard an existing :class:`ShapeBase` and serve it.

        The base's ``alpha``/``backend`` win over the config's (the
        corpus was built with them); shapes keep their ids.
        """
        config = config or ServiceConfig()
        shard_set = ShardSet.from_base(
            base, num_shards=config.num_shards, beta=config.beta,
            hash_curves=config.hash_curves,
            neighbor_radius=config.neighbor_radius, ann=config.ann)
        service = cls(shard_set, config, metrics)
        service.warm()
        return service

    @classmethod
    def from_snapshot(cls, path, config: Optional[ServiceConfig] = None,
                      metrics: Optional[MetricsRegistry] = None, *,
                      mmap: bool = False) -> "RetrievalService":
        """Cold-start a service straight from a snapshot file.

        Loads the base (a v3 snapshot materializes with zero
        re-normalization), shards it, and warms every shard's kd-tree
        and hash table in parallel on the service's worker pool — the
        whole path from file to first answered query.  ``mmap=True``
        maps the snapshot read-only instead of copying it into the
        heap (v3/v4 files); with ``execution="process"`` the workers
        attach zero-copy regardless, through the pool's own
        publications.
        """
        from ..storage.persist import load_base
        config = config or ServiceConfig()
        base = load_base(path, backend=config.backend, mmap=mmap)
        service = cls.from_base(base, config, metrics)
        service.snapshot_source = str(path)
        return service

    def reload(self, base: ShapeBase) -> None:
        """Re-shard from a mutated base; cache and metrics survive.

        The cache is version-keyed, so entries computed against the
        old corpus become unreachable the moment the new shard set's
        version differs; we also clear eagerly to free memory.
        """
        self.shards = ShardSet.from_base(
            base, num_shards=self.config.num_shards, beta=self.config.beta,
            hash_curves=self.config.hash_curves,
            neighbor_radius=self.config.neighbor_radius,
            ann=self.config.ann)
        if self._fold_scheduler is not None:
            # Repoint the background folder at the fresh shard set (the
            # old one is garbage now) and keep folds off the write path.
            self._fold_scheduler.shards = self.shards
            self.shards.set_auto_fold(False)
        self.cache.invalidate()
        self.warm()

    def ingest(self, shapes: Sequence[Shape],
               image_id: Optional[int] = None) -> List[int]:
        """Add shapes (routed to their shards); invalidates the cache.

        With ``streaming`` on, the batch first clears backpressure
        (:meth:`_ingest_backpressure`): it waits while the unfolded
        delta exceeds the configured budget or the admission queue is
        saturated — the coupling that keeps a write burst from
        outrunning the background folds or starving readers of
        admission slots.  The wait is bounded; after
        ``ingest_backpressure_timeout`` seconds the batch proceeds
        anyway (ingest degrades to slower, never to stuck).
        """
        self._ingest_backpressure()
        ids = self.shards.add_shapes(shapes, image_id=image_id)
        self.cache.invalidate()
        self.metrics.counter("ingest.shapes").increment(len(ids))
        self.metrics.histogram("ingest.batch_size").observe(len(shapes))
        if self._fold_scheduler is not None:
            self._fold_scheduler.poke()
        return ids

    def _ingest_backpressure(self) -> None:
        """Bounded wait until the service can absorb another batch."""
        if not self.config.streaming:
            return
        deadline = self._clock() + self.config.ingest_backpressure_timeout
        waited = False
        while not self._closed:
            over_delta = self.shards.delta_points > \
                self.config.ingest_max_delta
            max_pending = self.config.max_pending
            saturated = max_pending is not None and \
                self.admission.pending >= max_pending
            if not over_delta and not saturated:
                return
            if not waited:
                waited = True
                self.metrics.counter(
                    "ingest.backpressure_waits").increment()
            if over_delta and self._fold_scheduler is not None:
                self._fold_scheduler.poke()
            if self._clock() >= deadline:
                return
            time.sleep(0.002)

    def remove(self, shape_id: int) -> None:
        """Remove one shape from its shard; invalidates the cache."""
        self.shards.remove_shape(shape_id)
        self.cache.invalidate()
        self.metrics.counter("ingest.removed").increment()

    def warm(self) -> None:
        """Build all shard structures before admitting traffic.

        In process mode this additionally publishes the shards and
        attaches every worker (their own warm-up), so the first query
        pays no snapshot-encode or index-build latency.
        """
        self.shards.warm(pool=self.pool,
                         execution=self.config.execution)

    @property
    def fold_scheduler(self) -> Optional[FoldScheduler]:
        """The background folder (``None`` unless ``streaming``)."""
        return self._fold_scheduler

    def quiesce_ingest(self) -> int:
        """Fold every overgrown tail now (checkpoint / shutdown aid).

        Returns the number of folds performed.  With the scheduler off
        this folds inline; with it on, this simply drives the same
        budgeted fold loop to completion from the caller's thread —
        safe because :meth:`Shard.fold` is idempotent and swap-guarded.
        """
        if self._fold_scheduler is not None:
            return self._fold_scheduler.drain()
        folded = 0
        for shard in self.shards:
            if shard.needs_fold() and shard.fold():
                folded += 1
        return folded

    # ------------------------------------------------------------------
    # Query algebra (paper Section 5 at the service tier)
    # ------------------------------------------------------------------
    def query_engine(self, similarity_threshold: Optional[float] = None,
                     angle_tolerance: float = 0.15, *,
                     planner: bool = True,
                     cache_capacity: Optional[int] = None):
        """A :class:`~repro.query.executor.QueryEngine` over the shards.

        The engine's similarity leaves run through
        :meth:`similar_shapes_batch` — resilient, batched, cached —
        and its work counters appear in ``snapshot()["algebra"]``.
        ``similarity_threshold`` defaults to the config's
        ``match_threshold``; ``cache_capacity`` to the config's.
        """
        from ..query.executor import QueryEngine
        if similarity_threshold is None:
            similarity_threshold = self.config.match_threshold
        if cache_capacity is None:
            cache_capacity = self.config.cache_capacity
        engine = QueryEngine(service=self,
                             similarity_threshold=similarity_threshold,
                             angle_tolerance=angle_tolerance,
                             planner=planner,
                             cache_capacity=cache_capacity)
        self._engines.add(engine)
        return engine

    def similar_shapes_batch(self, sketches: Sequence[Shape],
                             threshold: Optional[float] = None,
                             deadline: Optional[float] = None
                             ) -> List[SimilarResult]:
        """``shape_similar(Q)`` for many sketches across all shards.

        The algebra engine's leaf primitive: each sketch's similarity
        set is the union of per-shard threshold queries (exact, shards
        being disjoint).  Results are cached under the similarity-
        invariant signature at the current shard version, identical
        sketches within the batch coalesce, and the remaining misses
        fan out with one batched resilient call per shard — a failed
        shard drops out of the union (``failed_shards`` notes it) and
        the partial answer is *not* cached.
        """
        if self._closed:
            raise RuntimeError(
                "RetrievalService is closed; create a new service")
        if threshold is None:
            threshold = self.config.match_threshold
        self._ensure_processes()
        sketches = list(sketches)
        budget = Deadline(deadline)
        version = self.shards.version
        results: List[Optional[SimilarResult]] = [None] * len(sketches)
        self.metrics.counter("algebra.leaf_queries").increment(
            len(sketches))

        with self.metrics.timer("latency.algebra_leaf"):
            keys = [sketch_signature(sketch, kind="similar",
                                     parameter=f"{threshold:.12g}")
                    for sketch in sketches]
            unique: List[int] = []
            leader_of: Dict[str, int] = {}
            for position, key in enumerate(keys):
                if key in leader_of:
                    continue
                if self.cache.enabled:
                    hit = self.cache.get(key, version)
                    if hit is not None:
                        self.metrics.counter(
                            "algebra.leaf_cache_hits").increment()
                        results[position] = replace(hit, cached=True)
                        continue
                leader_of[key] = position
                unique.append(position)

            if unique:
                miss_sketches = [sketches[position]
                                 for position in unique]
                shards = self._shard_views()
                outcomes = self.pool.map_over(
                    lambda shard: self._resilient_call(
                        shard, budget,
                        lambda abort, shard=shard:
                            shard.query_threshold_batch(
                                miss_sketches, threshold, abort=abort),
                        lambda value, shard=shard: [
                            self._validate_matches(shard, matches)
                            for matches, _ in value]),
                    shards)
                survivors = [o for o in outcomes if not o.failed]
                failed_ids = sorted(o.shard_index for o in outcomes
                                    if o.failed)
                if failed_ids:
                    self.metrics.counter(
                        "algebra.leaf_degraded").increment(len(unique))
                for offset, position in enumerate(unique):
                    ids: set = set()
                    candidates = 0
                    for outcome in survivors:
                        matches, stats = outcome.value[offset]
                        ids.update(m.shape_id for m in matches)
                        candidates += stats.candidates_evaluated
                    leaf = SimilarResult(shape_ids=frozenset(ids),
                                         candidates_evaluated=candidates,
                                         failed_shards=list(failed_ids))
                    if not failed_ids and not budget.expired():
                        self.cache.put(keys[position], version, leaf)
                    results[position] = leaf

            for position, key in enumerate(keys):
                if results[position] is None:
                    leader = results[leader_of[key]]
                    results[position] = replace(leader, cached=True)
        return results

    # ------------------------------------------------------------------
    # Fault tolerance: shard views, breakers, resilient execution
    # ------------------------------------------------------------------
    def _shard_views(self) -> List[Shard]:
        """The shards as served — process proxies and fault wrappers.

        In process mode each shard becomes a
        :class:`~repro.service.procpool.ProcessShardView` forwarding
        matcher/ANN ops to its worker process; fault injection wraps
        *outside* the proxy so chaos plans haunt the same surface in
        both execution modes.
        """
        shards = list(self.shards)
        if self._procpool is not None:
            shards = [ProcessShardView(self._procpool, shard)
                      for shard in shards]
        if self.config.fault_plan is None:
            return shards
        return [FaultyShard(shard, self.config.fault_plan)
                for shard in shards]

    @property
    def procpool(self) -> Optional[ProcessWorkerPool]:
        """The process worker pool (``execution="process"`` only).

        ``None`` in thread mode.  Chaos hooks (``kill_worker``) and
        introspection (``alive_workers``, ``info``) live here.
        """
        return self._procpool

    def _ensure_processes(self) -> None:
        """Converge worker processes onto the current shard version.

        Publish + re-attach happens lazily before fan-out (not on
        every ingest) so a burst of mutations costs one republish;
        a no-op version check when already in sync.
        """
        if self._procpool is not None:
            self._procpool.sync(self.shards)

    def _breaker_for(self, index: int) -> Optional[CircuitBreaker]:
        if self.config.breaker is None:
            return None
        breaker = self._breakers.get(index)
        if breaker is None:
            with self._breakers_lock:
                breaker = self._breakers.get(index)
                if breaker is None:
                    breaker = CircuitBreaker(self.config.breaker,
                                             clock=self._clock)
                    self._breakers[index] = breaker
                    self.metrics.gauge(f"breaker.shard{index}.state",
                                       breaker.state_code)
        return breaker

    @staticmethod
    def _validate_matches(shard: Shard, matches: Sequence[Match]) -> None:
        """Reject corrupted shard answers before they reach the merge.

        A well-formed answer has finite non-negative distances and
        shape ids the shard actually owns; anything else means the
        shard's matcher is lying (bit rot, a bad index rebuild, an
        injected ``corrupt``/``wrong_shard`` fault) and must count as
        a shard failure, not poison the global top-k.
        """
        owned = shard.base.shapes
        for match in matches:
            if not math.isfinite(match.distance) or match.distance < 0:
                raise CorruptShardAnswer(
                    f"shard {shard.index} returned a non-finite "
                    f"distance for shape {match.shape_id}")
            if match.shape_id not in owned:
                raise CorruptShardAnswer(
                    f"shard {shard.index} returned foreign shape id "
                    f"{match.shape_id}")

    def _backoff_delay(self, attempt: int, budget: Deadline) -> float:
        """Capped exponential backoff with decorrelating jitter."""
        config = self.config
        delay = min(config.retry_backoff_max,
                    config.retry_backoff * (2 ** (attempt - 1)))
        if config.retry_jitter > 0:
            with self._retry_lock:
                draw = self._retry_rng.random()
            delay *= (1.0 - config.retry_jitter) + \
                config.retry_jitter * draw
        if budget.bounded:
            delay = min(delay, budget.remaining())
        return max(0.0, delay)

    def _resilient_call(self, shard: Shard, budget: Deadline,
                        op: Callable[[Callable[[], bool]], Any],
                        validate: Callable[[Any], None]) -> _ShardOutcome:
        """Run one shard operation with isolation, retries and breaker.

        ``op`` receives the attempt's abort callback (query deadline OR
        per-attempt budget) and returns the shard's answer; ``validate``
        raises :class:`CorruptShardAnswer` on a mangled one.  Whatever
        happens inside the shard — exception, corruption, timeout — the
        return is a :class:`_ShardOutcome`, never an exception: this is
        the failure-isolation boundary.
        """
        breaker = self._breaker_for(shard.index)
        attempts_allowed = max(1, self.config.retry_attempts)
        attempt_timeout = self.config.attempt_timeout
        outcome = _ShardOutcome(shard_index=shard.index)
        while True:
            if breaker is not None and not breaker.allow():
                outcome.failed = True
                outcome.breaker_skipped = True
                outcome.error = "circuit breaker open"
                self.metrics.counter("shards.breaker_skipped").increment()
                return outcome
            outcome.attempts += 1
            attempt = Deadline(attempt_timeout)

            def aborted() -> bool:
                return budget.expired() or attempt.expired()

            # Process-mode shard proxies read the remaining budget off
            # the abort callback to ship a cooperative deadline across
            # the pipe (inf = unbounded; the proxy maps it to None).
            aborted.remaining = lambda: min(budget.remaining(),
                                            attempt.remaining())

            try:
                value = op(aborted)
                validate(value)
                if attempt.bounded and attempt.expired() \
                        and not budget.expired():
                    raise ShardTimeoutError(
                        f"shard {shard.index} attempt exceeded "
                        f"{attempt_timeout}s")
            except Exception as exc:  # isolation boundary, not a bug trap
                if breaker is not None:
                    breaker.record_failure()
                self.metrics.counter("shards.failures").increment()
                outcome.error = f"{type(exc).__name__}: {exc}"
                if outcome.attempts >= attempts_allowed \
                        or budget.expired():
                    outcome.failed = True
                    return outcome
                self.metrics.counter("shards.retries").increment()
                delay = self._backoff_delay(outcome.attempts, budget)
                if delay > 0:
                    time.sleep(delay)
                continue
            if breaker is not None:
                breaker.record_success()
            outcome.value = value
            outcome.failed = False
            outcome.error = None
            return outcome

    def _guarded_hash(self, shard: Shard, sketch: Shape,
                      k: int) -> List[Match]:
        """The shard's hashing tier, degraded to [] on failure.

        Hash answers get the same validation as matcher answers —
        average distances are finite non-negative exact measures and
        the ids must be the shard's own — so a corrupted hash tier
        contributes nothing rather than poisoning the merge.
        """
        try:
            matches = shard.hash_query(sketch, k)
            self._validate_matches(shard, matches)
            return matches
        except Exception:
            self.metrics.counter("shards.hash_failures").increment()
            return []

    def _salvage_failed(self, failed: Sequence[_ShardOutcome],
                        shard_by_index: Dict[int, Shard], sketch: Shape,
                        k: int) -> List[List[Match]]:
        """Hash-tier answers for the failed shards' slices (maybe [])."""
        if not failed or not self.config.shard_hash_fallback:
            return []
        salvage: List[List[Match]] = []
        for outcome in failed:
            matches = self._guarded_hash(
                shard_by_index[outcome.shard_index], sketch, k)
            if matches:
                self.metrics.counter("shards.hash_salvage").increment()
                salvage.append(matches)
        return salvage

    def _guarded_exact(self, shard: Shard, sketch: Shape, k: int,
                       budget: Deadline) -> Optional[List[Match]]:
        """One shard's envelope tier as a salvage path (None on failure).

        Used when the *ANN* tier of a shard fails: the shard's exact
        matcher is still healthy structure-wise, so degrading the
        shard to exact scoring keeps its slice in the answer at full
        quality (just slower) — only if that fails too does the
        constant-cost hash tier take over.
        """
        try:
            matches, _ = shard.query(sketch, k, abort=budget.expired)
            self._validate_matches(shard, matches)
            return matches
        except Exception:
            self.metrics.counter("shards.exact_salvage_failures") \
                .increment()
            return None

    def _salvage_failed_ann(self, failed: Sequence[_ShardOutcome],
                            shard_by_index: Dict[int, Shard],
                            sketch: Shape, k: int, budget: Deadline
                            ) -> List[List[Match]]:
        """Failed-ANN shards degrade to exact, then hash-tier, scoring."""
        if not failed or not self.config.shard_hash_fallback:
            return []
        salvage: List[List[Match]] = []
        for outcome in failed:
            shard = shard_by_index[outcome.shard_index]
            matches = self._guarded_exact(shard, sketch, k, budget)
            if matches is not None:
                self.metrics.counter("shards.ann_exact_salvage") \
                    .increment()
            else:
                matches = self._guarded_hash(shard, sketch, k)
                if matches:
                    self.metrics.counter("shards.hash_salvage") \
                        .increment()
            if matches:
                salvage.append(matches)
        return salvage

    # ------------------------------------------------------------------
    # Tier selection (the degradation ladder)
    # ------------------------------------------------------------------
    def _select_tier(self, budget: Deadline) -> str:
        """Pick the ladder rung a query's remaining budget can afford.

        Without an ANN config the ladder has its original two rungs
        (exact now, hashing on expiry).  With one, ``"always"`` pins
        the ANN tier (measurement mode) while ``"auto"`` spends the
        budget greedily: exact when there is comfortably enough time
        (``>= ann_exact_budget``), the LSH-pruned tier when at least
        ``ann_hash_budget`` remains, and the constant-cost hash tier
        for whatever is left.
        """
        if self.config.ann is None:
            return TIER_EXACT
        if self.config.ann_mode == "always":
            return TIER_ANN
        if not budget.bounded:
            return TIER_EXACT
        remaining = budget.remaining()
        if remaining >= self.config.ann_exact_budget:
            return TIER_EXACT
        if remaining >= self.config.ann_hash_budget:
            return TIER_ANN
        return TIER_HASH

    def _hash_only(self, sketch: Shape, k: int, budget: Deadline,
                   start: float) -> ServiceResult:
        """Answer straight from the hash tier (the ladder's last rung).

        Taken when the remaining budget cannot even fund candidate
        scoring: constant-cost per shard, always approximate, flagged
        ``degraded`` and never cached (the next, better-funded query
        should recompute).
        """
        shards = self._shard_views()
        stage = time.perf_counter()
        fallback = merge_topk(self.pool.map_over(
            lambda shard: self._guarded_hash(shard, sketch, k),
            shards), k)
        self.metrics.histogram("latency.fallback").observe(
            time.perf_counter() - stage)
        self.metrics.counter("queries.fallback").increment()
        self.metrics.counter("queries.served").increment()
        result = ServiceResult(
            status=OK, matches=fallback,
            method="hashing" if fallback else "none",
            degraded=True, latency=time.perf_counter() - start)
        self._observe_total(result)
        return result

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def retrieve(self, sketch: Shape, k: int = 1,
                 deadline: Optional[float] = None) -> ServiceResult:
        """Serve one query end to end: a batch of one."""
        return self.retrieve_batch([sketch], k, deadline)[0]

    def retrieve_batch(self, sketches: Sequence[Shape], k: int = 1,
                       deadline: Optional[float] = None
                       ) -> List[ServiceResult]:
        """Serve sketches end to end; results come back in input order.

        The service's one retrieval path (:meth:`retrieve` is a batch
        of one).  ``k`` must be an integer >= 1 and every sketch
        finite; anything else raises ``ValueError`` before admission,
        metrics or fan-out.

        Admission happens at submission time: the bounded queue is the
        backlog, so a batch larger than the remaining slots sheds its
        tail at once rather than queueing it invisibly, and admitted
        sketches hold their slots until the batch completes.
        ``deadline`` budgets the batch as a whole and picks one ladder
        rung for it.  Each admitted sketch gets one cache probe;
        identical misses within the batch coalesce onto one leader, and
        a leader whose query another request is already computing waits
        for that answer (within the deadline) instead of repeating the
        work.  The remaining misses fan out as one resilient task per
        shard, which runs the per-sketch shard op (``query``, or
        ``ann_query`` on the ANN rung) over them in turn.  Answers are
        identical to sequential calls.
        """
        if self._closed:
            raise RuntimeError(
                "RetrievalService is closed; create a new service")
        check_k(k)
        sketches = list(sketches)
        for sketch in sketches:
            check_sketch(sketch)
        self._ensure_processes()
        results: List[Optional[ServiceResult]] = [None] * len(sketches)
        admitted: List[int] = []
        for position, _ in enumerate(sketches):
            self.metrics.counter("queries.total").increment()
            if not self.admission.try_admit():
                self.metrics.counter("queries.shed").increment()
                results[position] = ServiceResult(status=OVERLOADED)
            else:
                admitted.append(position)
        if not admitted:
            return results
        try:
            self._serve_admitted(sketches, k, deadline, admitted, results)
        finally:
            for _ in admitted:
                self.admission.release()
        return results

    def _serve_admitted(self, sketches: List[Shape], k: int,
                        deadline: Optional[float], admitted: List[int],
                        results: List[Optional[ServiceResult]]) -> None:
        start = time.perf_counter()
        if deadline is None:
            deadline = self.config.deadline
        budget = Deadline(deadline)

        # -- tier selection (one rung for the whole batch) --------------
        tier = self._select_tier(budget)
        self.metrics.counter(f"queries.tier_{tier}").increment(
            len(admitted))
        if tier == TIER_HASH:
            for position in admitted:
                results[position] = self._hash_only(
                    sketches[position], k, budget, start)
            return
        # ANN answers are cached under their own signature kind: they
        # are *not* interchangeable with exact answers, so the two
        # tiers must never alias in the cache.
        cache_kind = "topk" if tier == TIER_EXACT else "topk-ann"

        followers: Dict[int, List[int]] = {}

        def finish(position: int, result: ServiceResult) -> None:
            """Serve ``result`` at ``position`` and to its followers."""
            self.metrics.counter("queries.served").increment()
            self._observe_total(result)
            results[position] = result
            for follower in followers.get(position, ()):
                self.metrics.counter("queries.coalesced").increment()
                finish(follower, replace(
                    result, cached=True,
                    latency=time.perf_counter() - start))

        def cached(hit: ServiceResult) -> ServiceResult:
            return replace(hit, cached=True,
                           latency=time.perf_counter() - start)

        # -- cache probe + intra-batch coalescing -----------------------
        keys: Dict[int, str] = {}
        leaders: List[int] = []
        leader_of: Dict[str, int] = {}
        for position in admitted:
            if self.cache.enabled:
                stage = time.perf_counter()
                key = sketch_signature(sketches[position],
                                       kind=cache_kind, parameter=k)
                hit = self.cache.get(key, self.shards.version)
                self.metrics.histogram("latency.cache").observe(
                    time.perf_counter() - stage)
                if hit is not None:
                    self.metrics.counter("queries.cache_hits").increment()
                    finish(position, cached(hit))
                    continue
                keys[position] = key
                leader = leader_of.get(key)
                if leader is not None:
                    followers.setdefault(leader, []).append(position)
                    continue
                leader_of[key] = position
            leaders.append(position)

        # -- single-flight across requests ------------------------------
        # A leader whose key another request is computing waits for it
        # and computes for itself only if the answer is still missing
        # (the other request degraded, or the deadline ran out).  The
        # wait comes after this request's own fan-out has released its
        # flights: a request never waits while holding a flight, so two
        # requests cannot wait on each other.
        version = self.shards.version
        owned: List[Tuple[Tuple[str, int], threading.Event]] = []
        compute: List[int] = []
        waiting: List[Tuple[int, threading.Event]] = []
        with self._inflight_lock:
            for position in leaders:
                key = keys.get(position)
                if key is None:
                    compute.append(position)
                    continue
                flight_key = (key, version)
                event = self._inflight.get(flight_key)
                if event is not None:
                    waiting.append((position, event))
                    continue
                event = self._inflight[flight_key] = threading.Event()
                owned.append((flight_key, event))
                compute.append(position)
        try:
            self._fan_out(sketches, compute, k, tier, budget, keys,
                          start, finish)
        finally:
            with self._inflight_lock:
                for flight_key, _ in owned:
                    self._inflight.pop(flight_key, None)
            for _, event in owned:
                event.set()

        compute = []
        for position, event in waiting:
            event.wait(timeout=budget.remaining()
                       if budget.bounded else None)
            hit = self.cache.get(keys[position], self.shards.version)
            if hit is None:
                compute.append(position)
                continue
            self.metrics.counter("queries.coalesced").increment()
            finish(position, cached(hit))
        self._fan_out(sketches, compute, k, tier, budget, keys, start,
                      finish)

    def _fan_out(self, sketches: List[Shape], positions: List[int],
                 k: int, tier: str, budget: Deadline,
                 keys: Dict[int, str], start: float,
                 finish: Callable[[int, ServiceResult], None]) -> None:
        """Answer ``positions`` from the shards; ``finish`` each result.

        One resilient task per shard runs the tier's per-sketch op over
        every miss; per sketch, the surviving shards' answers merge
        with the failed shards' salvage, fall back to the hash tier
        when nothing good came back, and fill the cache unless the
        answer is degraded.
        """
        if not positions:
            return
        stage = time.perf_counter()
        version = self.shards.version
        misses = [sketches[position] for position in positions]
        shards = self._shard_views()
        shard_by_index = {shard.index: shard for shard in shards}
        op_name = "ann_query" if tier == TIER_ANN else "query"

        def shard_task(shard: Shard) -> _ShardOutcome:
            op = getattr(shard, op_name)
            return self._resilient_call(
                shard, budget,
                lambda abort: [op(sketch, k, abort=abort)
                               for sketch in misses],
                lambda value: [self._validate_matches(shard, matches)
                               for matches, _ in value])

        outcomes = self.pool.map_over(shard_task, shards)
        self.metrics.histogram(
            "latency.ann" if tier == TIER_ANN else "latency.envelope"
        ).observe(time.perf_counter() - stage)
        survivors = [o for o in outcomes if not o.failed]
        failed = [o for o in outcomes if o.failed]
        failed_ids = sorted(o.shard_index for o in failed)
        if failed_ids:
            self.metrics.counter("queries.degraded").increment(
                len(positions))
        if tier == TIER_ANN:
            for outcome in survivors:
                for _, per_stats in outcome.value:
                    self.metrics.histogram("ann.candidates").observe(
                        per_stats.candidates_evaluated)

        for offset, position in enumerate(positions):
            sketch = misses[offset]
            answers = [o.value[offset] for o in survivors]
            stage = time.perf_counter()
            if tier == TIER_ANN:
                salvage = self._salvage_failed_ann(
                    failed, shard_by_index, sketch, k, budget)
            else:
                salvage = self._salvage_failed(failed, shard_by_index,
                                               sketch, k)
            merged = merge_topk([matches for matches, _ in answers]
                                + salvage, k)
            stats = _merge_stats([s for _, s in answers])
            self.metrics.histogram("latency.merge").observe(
                time.perf_counter() - stage)
            degraded = budget.bounded and budget.expired() and \
                stats.exhausted
            good = [m for m in merged
                    if m.distance <= self.config.match_threshold]
            method = "envelope" if tier == TIER_EXACT else "ann"
            if degraded or not good:
                stage = time.perf_counter()
                fallback = merge_topk(self.pool.map_over(
                    lambda shard: self._guarded_hash(shard, sketch, k),
                    shards), k)
                self.metrics.histogram("latency.fallback").observe(
                    time.perf_counter() - stage)
                self.metrics.counter("queries.fallback").increment()
                if fallback:
                    merged = fallback
                    method = "hashing"
            result = ServiceResult(status=DEGRADED if failed_ids else OK,
                                   matches=merged, method=method,
                                   stats=stats, degraded=degraded,
                                   failed_shards=list(failed_ids),
                                   latency=time.perf_counter() - start)
            # Deadline-truncated and shard-degraded answers would keep
            # serving the degraded answer after the trouble subsides.
            key = keys.get(position)
            if key is not None and not degraded and not failed_ids:
                self.cache.put(key, version, result)
            finish(position, result)

    def _observe_total(self, result: ServiceResult) -> None:
        self.metrics.histogram("latency.total").observe(result.latency)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Metrics + derived rates + corpus stats, as one plain dict."""
        snap = self.metrics.as_dict()
        counters = snap["counters"]
        total = counters.get("queries.total", 0)
        snap["rates"] = {
            "cache_hit_ratio": self.cache.hit_ratio,
            "shed_ratio": (counters.get("queries.shed", 0) / total
                           if total else 0.0),
            "fallback_ratio": (counters.get("queries.fallback", 0) / total
                               if total else 0.0),
            "degraded_ratio": (counters.get("queries.degraded", 0) / total
                               if total else 0.0),
        }
        # Degradation-ladder accounting: how many queries each rung
        # answered, plus the ANN tier's candidate-set-size summary.
        tiers = self.metrics.counters_with_prefix("queries.tier_")
        snap["tiers"] = {
            "counts": {tier: tiers.get(tier, 0)
                       for tier in (TIER_EXACT, TIER_ANN, TIER_HASH)},
            "ann_candidates": snap["histograms"].get("ann.candidates"),
        }
        # Query-algebra accounting: per-operator work counters summed
        # over every engine mounted via query_engine(), plus the leaf
        # traffic the service itself served.
        engines = list(self._engines)
        algebra: Dict[str, int] = {}
        for engine in engines:
            for name, value in engine.counters.as_dict().items():
                algebra[name] = algebra.get(name, 0) + value
        snap["algebra"] = {
            "engines": len(engines),
            "counters": algebra,
            "leaf_queries": counters.get("algebra.leaf_queries", 0),
            "leaf_cache_hits": counters.get("algebra.leaf_cache_hits", 0),
        }
        snap["corpus"] = {
            "shards": self.shards.num_shards,
            "shapes": self.shards.num_shapes,
            "entries": self.shards.num_entries,
            "per_shard_shapes": self.shards.shape_counts(),
        }
        with self._breakers_lock:
            snap["breakers"] = {str(index): breaker.snapshot()
                                for index, breaker
                                in sorted(self._breakers.items())}
        # Streaming write-path accounting: batch sizes, fold costs,
        # backpressure events and the live unfolded-tail size — the
        # numbers `serve-bench --stream` and the HTTP `/stats` endpoint
        # watch to see ingest/query interference.
        snap["ingest"] = {
            "streaming": self.config.streaming,
            "shapes": counters.get("ingest.shapes", 0),
            "removed": counters.get("ingest.removed", 0),
            "folds": counters.get("ingest.folds", 0),
            "backpressure_waits":
                counters.get("ingest.backpressure_waits", 0),
            "pending_delta": self.shards.delta_points,
            "batch_size": snap["histograms"].get("ingest.batch_size"),
            "fold_ms": snap["histograms"].get("ingest.fold_ms"),
        }
        snap["execution"] = self.config.execution
        if self._procpool is not None:
            snap["procpool"] = self._procpool.info()
        snap["uptime_s"] = round(self.uptime(), 3)
        snap["snapshot"] = {"version": self.shards.version,
                            "source": self.snapshot_source}
        return snap

    def uptime(self) -> float:
        """Seconds since this service was constructed."""
        return self._clock() - self._started_at

    def ready(self) -> bool:
        """Readiness: open, corpus attached, every shard warm.

        The HTTP tier's ``/readyz`` answer — true only once every
        shard can serve its best configured tier without build latency
        (in process mode, once the worker pool has attached the
        current shard-set version), so a balancer routing on it never
        sends traffic into a cold or half-built replica.
        """
        if self._closed:
            return False
        if self._procpool is not None:
            info = self._procpool.info()
            if info.get("synced_version") != self.shards.version:
                return False
            if not self._procpool.alive_workers():
                return False
            # Parent side serves only the hash tier in process mode.
            return all(shard.warmed_hash for shard in self.shards)
        return all(shard.warmed for shard in self.shards)

    def close(self) -> None:
        """Shut the worker pool down; idempotent under concurrent
        callers (first caller shuts down, the rest return at once)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._fold_scheduler is not None:
            self._fold_scheduler.stop()
        self.pool.shutdown()

    def __enter__(self) -> "RetrievalService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"RetrievalService(shards={self.shards.num_shards}, "
                f"workers={self.config.workers}, "
                f"shapes={self.shards.num_shapes})")

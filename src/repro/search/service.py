"""Long-lived search serving: the *execute* side of the plan/execute split.

:class:`~repro.search.engine.TableAnswerEngine` is a per-process facade:
every ``search()`` call resolves keywords, rebuilds root maps and
candidate intersections, and enumerates from scratch — fine for scripts,
wasteful for a service answering a query stream in which spellings repeat
and keywords overlap.  :class:`SearchService` wraps one index bundle in
the layered, store-version-guarded caches a production deployment needs
(Section 6 of the paper measures exactly this interactive regime), and
makes concurrent serving safe while the incremental index mutates:

* **snapshot tier** — every request executes against a version-pinned
  :meth:`~repro.index.builder.PathIndexes.snapshot`; a writer bumping
  ``store.version`` triggers a new snapshot and flushes every cache
  below, exactly like the store's own query-acceleration and bound
  columns invalidate;
* **term-resolution tier** — query text -> resolved keywords, shared
  with the engine through the index's
  :class:`~repro.index.builder.TermResolutionCache`;
* **fragment tier** — per-keyword-tuple
  :class:`~repro.search.context.EnumerationContext` objects (root maps,
  candidate intersection, type partition, query bounds) plus per-keyword-
  *set* candidate-root lists, shared across queries with overlapping
  keywords in any order, across algorithms, and across ``k``;
* **result tier** — a bounded LRU of full
  :class:`~repro.search.result.SearchResult` objects keyed by
  :attr:`~repro.search.plan.QueryPlan.cache_key`;
* **rendered tier** — not a tier of its own but a field of a result-tier
  entry: the bytes a front-end rendered the entry's answers to
  (:meth:`SearchService.store_rendering`), per rendering, so that a
  repeat is answered from them (:meth:`SearchService.rendered`) without
  composing a table.  They are dropped with their entry, by whatever
  drops it.

Every cache entry is tagged with what it was computed on — results with
the store version, fragments with the snapshot itself — and ignored when
the tag does not match what is being served, so a writer racing a reader
can at worst cause recomputation, never a stale answer.

Batch execution (:meth:`SearchService.search_many`) plans every query
up front, deduplicates equal plans, and executes the remainder on a
thread pool over one shared snapshot.  CPython threads interleave
rather than parallelize CPU-bound work; for parallel execution, run the
batch on :class:`~repro.serve.pool.PooledSearchService`, whose
executions cross to its fork workers, so ``threads=N`` keeps N of them
busy at once.

Everything served is **bit-identical** to a cold
``TableAnswerEngine.search()`` — caches only ever short-circuit pure
recomputation — which the differential tests in
``tests/search/test_service.py`` enforce.  See ``docs/serving.md``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.errors import SearchError, StalePlanError
from repro.index.builder import PathIndexes, build_indexes
from repro.kg.graph import KnowledgeGraph
from repro.scoring.function import PAPER_DEFAULT, ScoringFunction
from repro.search.context import EnumerationContext
from repro.search.plan import (
    QueryPlan,
    execute_plan,
    plan_search,
    reject_plan_overrides,
)
from repro.search.result import SearchResult, SearchStats


@dataclass
class ServiceStats:
    """Per-tier cache counters for one :class:`SearchService`.

    Counters are updated through :meth:`bump`, which serializes on the
    stats object's own lock: the threaded ``search_many`` path and the
    async HTTP front-end (:mod:`repro.serve.http`) increment these from
    many threads at once, and a bare ``+=`` is a read-modify-write that
    can drop updates between bytecodes.  Reads stay lock-free — a report
    racing a writer can at worst be one increment behind.
    """

    searches: int = 0
    #: Result-cache tier.
    result_hits: int = 0
    result_misses: int = 0
    #: Rendered tier: result-tier hits answered from the bytes stored on
    #: the entry (hit) or that had to be rendered again (miss).  Only a
    #: front-end that stores renderings (the HTTP tier) moves these.
    rendered_hits: int = 0
    rendered_misses: int = 0
    #: Fragment tier (shared EnumerationContext per keyword tuple).
    context_hits: int = 0
    context_misses: int = 0
    #: Candidate-root fragments reused across word orders.
    candidate_hits: int = 0
    #: Term-resolution tier (mirrored from the index's cache).
    resolution_hits: int = 0
    resolution_misses: int = 0
    #: Snapshot tier.
    snapshots_taken: int = 0
    invalidations: int = 0
    #: Batch execution.
    batches: int = 0
    batch_queries: int = 0
    batch_deduped: int = 0
    #: Cold-start: wall-clock seconds the deserializer spent on the served
    #: bundle (0.0 when it was built in-process rather than loaded).
    load_seconds: float = 0.0
    #: Execution backend self-description: ``inline`` (plain service),
    #: or ``fork-pool`` / ``fork-pool+sharded`` (the fork pool, without
    #: or with query splitting).  Workers is the configured parallel
    #: width (0 = no pool).
    execution_backend: str = "inline"
    execution_workers: int = 0
    #: Pool-backed services: dead-worker inline failovers, respawns of
    #: a dead worker that themselves failed (the slot stays empty until
    #: the next request retries), and version-driven pool rebuilds.
    worker_failovers: int = 0
    respawn_failures: int = 0
    pool_rebuilds: int = 0
    #: Delta-overlay compactions run through this service (explicit
    #: :meth:`SearchService.compact` calls + ratio-triggered
    #: auto-compacts).
    compactions: int = 0
    #: What they cost: seconds ``store.lock`` was held, summed over all
    #: compactions, and how the *last* one got its words' leaf rows —
    #: copied from the mapped base, or re-derived (the overlay's dirty
    #: words).
    compaction_seconds: float = 0.0
    compaction_words_copied: int = 0
    compaction_words_rebuilt: int = 0
    #: Paths the served store has boxed into its query columns since it
    #: was opened (mirrored from ``store.query_paths_boxed`` after each
    #: in-process execution and pre-fork warm): what cold opens and
    #: first reads after a write spend their time on.
    query_paths_boxed: int = 0
    #: :class:`~repro.index.entry.PathEntry` objects the served store has
    #: rebuilt since it was opened (mirrored from
    #: ``store.entries_materialized`` beside the counter above).
    #: Enumeration, the worker pipes and row rendering build none, so a
    #: number that grows with traffic says requests are leaving the
    #: entry-free path (comparing or hashing kept subtrees does).
    entries_materialized: int = 0
    #: Guards counter increments (see class docstring); excluded from
    #: equality so two stats blocks with equal counters compare equal.
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, **deltas: float) -> None:
        """Atomically add ``deltas`` to the named counters."""
        with self.lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    @staticmethod
    def _rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    def result_hit_rate(self) -> float:
        return self._rate(self.result_hits, self.result_misses)

    def context_hit_rate(self) -> float:
        return self._rate(self.context_hits, self.context_misses)

    def resolution_hit_rate(self) -> float:
        return self._rate(self.resolution_hits, self.resolution_misses)

    def format(self) -> str:
        cold_start = (
            f"cold start {self.load_seconds * 1000.0:.1f} ms, "
            if self.load_seconds
            else ""
        )
        backend = self.execution_backend
        if self.execution_workers:
            backend += f" x{self.execution_workers}"
        if self.worker_failovers:
            backend += f", {self.worker_failovers} worker failovers"
        if self.respawn_failures:
            backend += f", {self.respawn_failures} failed respawns"
        compactions = (
            f", {self.compactions} compactions in "
            f"{self.compaction_seconds * 1000.0:.1f} ms, last "
            f"{self.compaction_words_copied} words copied, "
            f"{self.compaction_words_rebuilt} rebuilt"
            if self.compactions
            else ""
        )
        return (
            f"service: {cold_start}backend {backend}, "
            f"{self.searches} searches, "
            f"result cache {self.result_hits}/"
            f"{self.result_hits + self.result_misses} hits "
            f"({self.result_hit_rate():.0%}, "
            f"{self.rendered_hits} from rendered bytes, "
            f"{self.rendered_misses} re-rendered), "
            f"context cache {self.context_hits}/"
            f"{self.context_hits + self.context_misses} hits "
            f"({self.context_hit_rate():.0%}), "
            f"resolution cache {self.resolution_hit_rate():.0%}, "
            f"{self.snapshots_taken} snapshots "
            f"({self.invalidations} invalidations{compactions}), "
            f"{self.query_paths_boxed} query paths boxed, "
            f"{self.entries_materialized} entries materialized"
        )


#: Renderings one result-tier entry remembers (the HTTP tier's
#: ``(include_rows, max_rows)`` pairs); one more evicts the oldest.
MAX_RENDERINGS = 4


class SearchService:
    """Load once, serve many: cached, snapshot-consistent query serving."""

    def __init__(
        self,
        indexes: PathIndexes,
        scoring: ScoringFunction = PAPER_DEFAULT,
        max_cached_results: int = 256,
        max_cached_contexts: int = 128,
        auto_compact_ratio: float = 0.0,
    ) -> None:
        if indexes.is_snapshot:
            raise SearchError(
                "SearchService owns the live index bundle and takes its "
                "own snapshots; pass the live PathIndexes, not a snapshot"
            )
        self.indexes = indexes
        self.scoring = scoring
        self.max_cached_results = max_cached_results
        self.max_cached_contexts = max_cached_contexts
        #: Where the served bundle came off disk (set by ``from_file``) —
        #: the default compaction target.
        self.index_path: Optional[Path] = None
        #: When > 0, :meth:`maybe_compact` folds the delta overlay back
        #: into the index file once ``overlay_postings >= ratio *
        #: base_postings`` (checked on writer ticks — ``invalidate``).
        self.auto_compact_ratio = auto_compact_ratio
        #: Serializes compactions: a second trigger skips rather than
        #: queueing behind the O(index) streaming write.
        self._compact_lock = threading.Lock()
        self.stats = ServiceStats(
            load_seconds=getattr(indexes, "load_seconds", 0.0)
        )
        #: Guards snapshot swaps and cache-structure mutations.  Never
        #: held across an execution — searches run lock-free against the
        #: snapshot they grabbed.
        self._lock = threading.Lock()
        self._snapshot: Optional[PathIndexes] = None
        # Result values are (store_version, payload, renderings): an
        # entry whose tag does not match the serving snapshot's version
        # is a miss, so a writer racing these dicts can only cause
        # recomputation.  ``renderings`` (rendering -> bytes) is filled
        # by :meth:`store_rendering` and goes wherever its entry goes.
        self._results: (
            "OrderedDict[Tuple, Tuple[int, SearchResult, Dict[Tuple, bytes]]]"
        ) = OrderedDict()
        # Fragment values are (snapshot, payload), matched by identity:
        # invalidate() replaces the snapshot without a version change,
        # and a context only executes against the snapshot it was built
        # on — a reader still on the dropped one may publish late.
        self._contexts: "OrderedDict[Tuple[str, ...], Tuple[PathIndexes, EnumerationContext]]" = (
            OrderedDict()
        )
        # Bounded like the context tier (it grows at the same rate: one
        # entry per distinct keyword set served).
        self._candidates: "OrderedDict[FrozenSet[str], Tuple[PathIndexes, List[int]]]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def from_graph(cls, graph: KnowledgeGraph, d: int = 3, **kwargs):
        """Build indexes for ``graph`` and serve them."""
        scoring = kwargs.pop("scoring", PAPER_DEFAULT)
        return cls(build_indexes(graph, d=d, **kwargs), scoring=scoring)

    @classmethod
    def from_file(cls, path, **kwargs) -> "SearchService":
        """Load a persisted index bundle (``repro build``) and serve it."""
        from repro.index.serialize import load_indexes

        service = cls(load_indexes(path), **kwargs)
        service.index_path = Path(path)
        return service

    def snapshot(self) -> PathIndexes:
        """The current serving snapshot, refreshed if the store moved.

        Comparing the pinned version against the live ``store.version``
        is the entire invalidation protocol: writers (incremental
        updates) bump it, the next request notices, re-snapshots, and
        flushes every version-dependent cache tier.  In-flight searches
        keep the snapshot they grabbed and stay consistent.
        """
        live_version = self.indexes.store.version
        snap = self._snapshot
        if snap is not None and snap.store.version == live_version:
            return snap
        with self._lock:
            # Re-read under the lock: against the version read above, a
            # snapshot another thread took of a *later* write would look
            # stale, and a second snapshot of one version would be served
            # contexts cached for the first.
            live_version = self.indexes.store.version
            snap = self._snapshot
            if snap is not None and snap.store.version == live_version:
                return snap  # another thread refreshed while we waited
            if snap is not None:
                self.stats.bump(invalidations=1)
            self._snapshot = self.indexes.snapshot()
            self.stats.bump(snapshots_taken=1)
            self._results.clear()
            self._contexts.clear()
            self._candidates.clear()
            return self._snapshot

    def close(self) -> None:
        """Release serving resources; a no-op here, overridden by
        :class:`~repro.serve.pool.PooledSearchService` (worker pool).
        Callers that may hold any flavor (the CLI) can call it
        unconditionally."""

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def invalidate(self) -> None:
        """Drop the snapshot and every cache tier (next request rebuilds).

        Writer ticks land here, so this is also where ratio-triggered
        auto-compaction is checked — off the query path, after the lock
        is released (the compaction itself serializes on the store
        lock, not on the cache-structure lock)."""
        with self._lock:
            if self._snapshot is not None:
                self.stats.bump(invalidations=1)
            self._snapshot = None
            self._results.clear()
            self._contexts.clear()
            self._candidates.clear()
        self.maybe_compact()

    # ----------------------------------------------------------- compaction

    def compact(self, path=None) -> dict:
        """Fold the mapped store's delta overlay into a fresh v3 file.

        Streams base ⊕ overlay to ``path`` (default: the file the
        service was loaded from) and atomically re-maps the live store
        (:func:`~repro.index.serialize.compact_indexes`).  The re-map's
        version bump rides the existing invalidation protocol: the next
        request re-snapshots and flushes every cache tier, and
        pool-backed services re-fork their workers from the re-mapped
        generation — never from a heap copy.  Returns the compaction
        outcome ``{"bytes", "generation", "seconds", "words_copied",
        "words_rebuilt"}``.
        """
        from repro.index.serialize import compact_indexes

        target = Path(path) if path is not None else self.index_path
        if target is None:
            raise SearchError(
                "compact() needs a target path: this service was not "
                "loaded from a file (pass path=...)"
            )
        outcome = compact_indexes(self.indexes, target)
        self.stats.bump(compactions=1, compaction_seconds=outcome["seconds"])
        self.stats.compaction_words_copied = outcome["words_copied"]
        self.stats.compaction_words_rebuilt = outcome["words_rebuilt"]
        return outcome

    def maybe_compact(self) -> bool:
        """Auto-compaction trigger: compact when the overlay has grown
        past ``auto_compact_ratio`` of the mapped base.

        The check is O(1) (two counters on the store) and a no-op for
        heap-resident or overlay-free stores; at most one compaction
        runs at a time — a racing trigger skips instead of queueing.
        Returns whether a compaction ran.
        """
        ratio = self.auto_compact_ratio
        if not ratio or self.index_path is None:
            return False
        store = self.indexes.store

        def due() -> bool:
            overlay = getattr(store, "overlay_postings", 0)
            base = getattr(store, "base_postings", 0)
            return overlay >= ratio * max(1, base)

        if not due():
            return False
        if not self._compact_lock.acquire(blocking=False):
            return False
        try:
            if not due():  # the racing winner already compacted
                return False
            self.compact()
            return True
        finally:
            self._compact_lock.release()

    # ------------------------------------------------------------- planning

    def plan(self, query, k: Optional[int] = None,
             algorithm: Optional[str] = None,
             scoring: Optional[ScoringFunction] = None, **params) -> QueryPlan:
        """Plan ``query`` against the current snapshot.

        Resolution goes through the shared term-resolution cache; the
        service mirrors its counters into :attr:`stats`.
        """
        return self._plan_on(self.snapshot(), query, k, algorithm,
                             scoring, params)

    def _plan_on(self, snap: PathIndexes, query, k, algorithm,
                 scoring, params) -> QueryPlan:
        cache = snap.resolution_cache
        before = (cache.hits, cache.misses) if cache is not None else (0, 0)
        plan = plan_search(
            snap, query, k=k, algorithm=algorithm,
            scoring=scoring if scoring is not None else self.scoring,
            **params,
        )
        if cache is not None:
            self.stats.bump(
                resolution_hits=cache.hits - before[0],
                resolution_misses=cache.misses - before[1],
            )
        return plan

    # ------------------------------------------------------------ searching

    def search(self, query=None, k: Optional[int] = None,
               algorithm: Optional[str] = None,
               scoring: Optional[ScoringFunction] = None,
               plan: Optional[QueryPlan] = None, **params) -> SearchResult:
        """Serve one query through every cache tier.

        Same signature and bit-identical answers as
        :meth:`TableAnswerEngine.search <repro.search.engine.\
TableAnswerEngine.search>`; on a result-cache hit the returned object
        shares the cached answers but carries a stats copy flagged
        ``from_result_cache``.
        """
        snap = self.snapshot()
        if plan is None:
            if query is None:
                raise SearchError("search needs a query (or a plan)")
            plan = self._plan_on(snap, query, k, algorithm, scoring, params)
        else:
            reject_plan_overrides(k, algorithm, scoring, params)
        self._check_version(plan, snap)  # a stale plan is not a search
        self.stats.bump(searches=1)
        cached = self._cached_result(plan)
        if cached is not None:
            return cached
        result = self._execute_on(snap, plan)
        self._store_result(plan, result)
        return result

    def execute(self, plan: QueryPlan) -> SearchResult:
        """Execute a plan against the snapshot, bypassing the result cache
        (but still sharing the fragment tier)."""
        snap = self.snapshot()
        self._check_version(plan, snap)
        return self._execute_on(snap, plan)

    def _check_version(self, plan: QueryPlan, snap: PathIndexes) -> None:
        if plan.store_version != snap.store.version:
            raise StalePlanError(
                f"plan was built against store version {plan.store_version},"
                f" but the service now serves {snap.store.version}; replan"
            )

    def _execute_on(self, snap: PathIndexes, plan: QueryPlan) -> SearchResult:
        context = self._context_for(snap, plan)
        result = execute_plan(snap, plan, context=context)
        self._remember_candidates(plan, context)
        self._mirror_store_counters()
        return result

    def _mirror_store_counters(self) -> None:
        # Absolute, monotonic reads: racing executions can at worst
        # leave a mirror one update behind.
        store = self.indexes.store
        self.stats.query_paths_boxed = store.query_paths_boxed
        self.stats.entries_materialized = store.entries_materialized

    def search_many(
        self,
        queries: Sequence,
        k: Optional[int] = None,
        algorithm: Optional[str] = None,
        scoring: Optional[ScoringFunction] = None,
        threads: int = 0,
        **params,
    ) -> List[SearchResult]:
        """Answer a batch of queries, returning results in input order.

        All queries are planned up front against one shared snapshot,
        equal plans are deduplicated (executed once, fanned out), result-
        cache hits are served immediately, and the remaining unique plans
        execute on a thread pool of ``threads`` workers (``0``/``1`` =
        inline).  On :class:`~repro.serve.pool.PooledSearchService` each
        thread's execution runs on a fork worker, so ``threads=N`` over
        N workers is parallel; kept subtrees come back bound to the
        batch's snapshot, like an inline execution's.
        """
        self.stats.bump(batches=1, batch_queries=len(queries))
        snap = self.snapshot()
        plans = [
            self._plan_on(snap, query, k, algorithm, scoring, params)
            for query in queries
        ]
        self.stats.bump(searches=len(plans))

        # Dedup equal plans and peel off result-cache hits.
        slots: List[Optional[SearchResult]] = [None] * len(plans)
        unique: "OrderedDict[Tuple, List[int]]" = OrderedDict()
        for i, plan in enumerate(plans):
            cached = self._cached_result(plan)
            if cached is not None:
                slots[i] = cached
                continue
            key = plan.cache_key if plan.cacheable else ("#uncached", i)
            unique.setdefault(key, []).append(i)
        pending = [plans[positions[0]] for positions in unique.values()]
        self.stats.bump(batch_deduped=sum(
            len(positions) - 1 for positions in unique.values()
        ))

        if pending:
            run = lambda plan: self._execute_on(snap, plan)  # noqa: E731
            if threads > 1:
                # One-time per-snapshot column builds happen before the
                # fan-out: threads would race the same (idempotent) work.
                snap.store.warm_query_caches()
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    results = list(pool.map(run, pending))
            else:
                results = [run(plan) for plan in pending]
            for plan, result, positions in zip(
                pending, results, unique.values()
            ):
                self._store_result(plan, result)
                slots[positions[0]] = result
                for position in positions[1:]:
                    slots[position] = self._flag_cached(result)
        return slots

    # -------------------------------------------------------------- caching

    def _cached_result(self, plan: QueryPlan) -> Optional[SearchResult]:
        if not plan.cacheable:
            self.stats.bump(result_misses=1)
            return None
        key = plan.cache_key
        with self._lock:
            slot = self._results.get(key)
            if slot is None or slot[0] != plan.store_version:
                self.stats.bump(result_misses=1)
                return None
            self._results.move_to_end(key)
            self.stats.bump(result_hits=1)
            result = slot[1]
        return self._flag_cached(result)

    @staticmethod
    def _flag_cached(result: SearchResult) -> SearchResult:
        """A served copy: shared answers, stats copy flagged as cached."""
        return replace(
            result, stats=replace(result.stats, from_result_cache=True)
        )

    def _store_result(self, plan: QueryPlan, result: SearchResult) -> None:
        if not plan.cacheable or self.max_cached_results <= 0:
            return
        if self.indexes.store.version != plan.store_version:
            # A writer ran while this result was being computed.  Index-
            # backed algorithms stayed consistent (pinned snapshot), but
            # the baseline walks the live graph and may have observed a
            # mid-update state — and either way the entry would be
            # evicted by the version flush momentarily.  Skip caching;
            # the cost is one recomputation.
            return
        with self._lock:
            self._results[plan.cache_key] = (plan.store_version, result, {})
            self._results.move_to_end(plan.cache_key)
            while len(self._results) > self.max_cached_results:
                self._results.popitem(last=False)

    def rendered(
        self, plan: QueryPlan, rendering: Tuple
    ) -> Optional[Tuple[SearchStats, bytes]]:
        """``(stats, fragment)`` when ``plan``'s result-tier entry is
        live and holds the bytes :meth:`store_rendering` was given for
        ``rendering``; ``None`` — and nothing counted — otherwise.

        A hit is a served search: it is counted as :meth:`search` would
        have counted it, and ``stats`` are the entry's, flagged
        ``from_result_cache``.  The checks are the ones ``search`` makes
        on its way to the same entry — the plan's version is the live
        store's and the entry's — so a plan a writer overtook gets
        ``None`` and takes the path that replans it.  Cheap enough for
        an event loop: one lock, two dict lookups, no execution.
        """
        if (not plan.cacheable
                or self.indexes.store.version != plan.store_version):
            return None
        key = plan.cache_key
        with self._lock:
            slot = self._results.get(key)
            if slot is None or slot[0] != plan.store_version:
                return None
            fragment = slot[2].get(rendering)
            if fragment is None:
                return None
            self._results.move_to_end(key)
            stats = slot[1].stats
        self.stats.bump(searches=1, result_hits=1, rendered_hits=1)
        return replace(stats, from_result_cache=True), fragment

    def store_rendering(
        self, plan: QueryPlan, result: SearchResult, rendering: Tuple,
        fragment: bytes,
    ) -> None:
        """Remember ``fragment`` — ``result``'s answers as a front-end
        rendered them under ``rendering`` — on the result-tier entry
        those answers are served from.

        There is such an entry only if the result tier admitted
        ``result`` (or served it) and has not dropped it since: the
        entry is recognised by holding the very answers list that was
        rendered, so a flushed, evicted, replaced or never-admitted
        result leaves nothing to attach to, and the bytes cannot outlive
        or miss an invalidation their ``SearchResult`` obeys.
        """
        if result.stats.from_result_cache:
            self.stats.bump(rendered_misses=1)
        with self._lock:
            slot = self._results.get(plan.cache_key)
            if slot is None or slot[1].answers is not result.answers:
                return
            renderings = slot[2]
            renderings[rendering] = fragment
            while len(renderings) > MAX_RENDERINGS:
                del renderings[next(iter(renderings))]

    def _context_for(
        self, snap: PathIndexes, plan: QueryPlan
    ) -> EnumerationContext:
        """The fragment tier: one shared context per resolved keyword tuple.

        Contexts memoize root maps, the candidate intersection, the type
        partition, and query bounds — everything per-query that does not
        depend on k, algorithm, or pruning flags — so repeat keywords pay
        the setup once per snapshot.  For an unseen keyword *order*, the
        candidate intersection is seeded from any previously-served
        permutation of the same keyword set.
        """
        words = plan.words
        candidates = None
        with self._lock:
            slot = self._contexts.get(words)
            if slot is not None and slot[0] is snap:
                self._contexts.move_to_end(words)
                self.stats.bump(context_hits=1)
                return slot[1]
            self.stats.bump(context_misses=1)
            fragment = self._candidates.get(frozenset(words))
            if fragment is not None and fragment[0] is snap:
                candidates = fragment[1]
                self.stats.bump(candidate_hits=1)
        context = EnumerationContext(
            snap, plan.resolved_query(), candidate_roots=candidates
        )
        with self._lock:
            slot = self._contexts.get(words)
            if slot is not None and slot[0] is snap:
                return slot[1]  # lost a benign race; share the winner
            self._contexts[words] = (snap, context)
            self._contexts.move_to_end(words)
            while len(self._contexts) > self.max_cached_contexts:
                self._contexts.popitem(last=False)
        return context

    def _remember_candidates(
        self, plan: QueryPlan, context: EnumerationContext
    ) -> None:
        """Publish the context's candidate intersection for other word
        orders of the same keyword set (computed by now: every algorithm
        walks the candidate roots)."""
        candidates = context._candidates
        if candidates is None:
            return
        key = frozenset(plan.words)
        snap = context.indexes
        with self._lock:
            slot = self._candidates.get(key)
            if slot is None or slot[0] is not snap:
                self._candidates[key] = (snap, candidates)
                self._candidates.move_to_end(key)
                while len(self._candidates) > self.max_cached_contexts:
                    self._candidates.popitem(last=False)

    # ------------------------------------------------------------ reporting

    def cache_sizes(self) -> Dict[str, int]:
        return {
            "results": len(self._results),
            "contexts": len(self._contexts),
            "candidate_fragments": len(self._candidates),
            "resolutions": (
                len(self.indexes.resolution_cache)
                if self.indexes.resolution_cache is not None
                else 0
            ),
        }

    def __repr__(self) -> str:
        snap = self._snapshot
        version = snap.store.version if snap is not None else None
        return (
            f"SearchService(store_version={version}, "
            f"cached_results={len(self._results)}, "
            f"cached_contexts={len(self._contexts)})"
        )

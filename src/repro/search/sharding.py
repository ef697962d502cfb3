"""Sharded scatter–gather top-k serving with bound-driven shard skipping.

:class:`ShardedSearchService` extends
:class:`~repro.search.service.SearchService` with the fork-based scale-out
path ``docs/serving.md`` promised: a query's root types are split over
pattern-disjoint shards (:mod:`repro.index.shards` — per query, by
longest-processing-time-first over each type's subtree count ``N_R``,
into as many shards as run at once; every shard reads the one store),
each answered for by one long-lived forked worker process that inherited
the serving snapshot (:func:`search_shard`).  A query's canonical
:class:`~repro.search.plan.QueryPlan` is scattered to the workers over
``multiprocessing`` pipes, the per-shard top-k lists are gathered, and the
coordinator merges them under a single global
:class:`~repro.core.topk.TopKQueue`/:class:`~repro.core.topk.TopKThreshold`
with canonical tie keys — answers are **bit-identical** to the unsharded
engine (the differential tests in ``tests/search/test_sharding.py``
enforce this for all shardable algorithms at several K).

Dispatch runs in **core-wide waves**.  Before a shard is dispatched, its
precomputed score upper bound (the same ``SAFETY * sum(root_mass)`` form
LETopK's type-skip uses, summed over the shard's slice of the candidate
roots) is checked against the running k-th score.  Shards are walked
best-bound-first; the next ``width`` shards the threshold still admits
form a wave, the wave's workers compute concurrently (``width`` =
``min(num_shards, usable cores)``, read once per partition — more shards
in flight than cores buys no time and gives up skips), their replies
merge into the global queue in dispatch order, and only then is the
next shard looked at — so trailing shards whose bound falls below the
threshold the merged waves built are never sent the query at all, and
their postings are never scanned by anyone.  The shard map fills only
the first ``width`` shards, so with K above the usable cores the rest
stay empty and are skipped: their workers get no work.
``SearchStats`` records ``shards_total`` / ``shards_skipped`` /
``shard_dispatch_order`` / ``shard_waves`` / ``shard_busy_ms`` /
``shard_subtrees``; ``benchmarks/smoke_sharding.py`` turns the counters
into a postings-not-scanned work-reduction figure (BENCH_5).

Exactness is inherited from the partition (pattern containment: a whole
pattern, with every root that contributes to its score, lives in exactly
one shard — see :mod:`repro.index.shards`) plus two facts: a pattern in
the global top-k is necessarily in its own shard's local top-k (the shard
run faces a subset of the competitors), and a skipped shard only holds
patterns with score ``<= bound < k-th`` which therefore cannot be
retained (bound equality is always admitted, matching ``docs/pruning.md``).
Waves apply the second fact less often, never differently: a shard is
skipped only against a queue built from *fully merged* earlier waves, and
a shard dispatched that a narrower wave would have skipped only offers
true global scores the queue rejects.

Three plans bypass the shards and execute inline on the coordinator,
exactly as the plain service would run them: the ``baseline`` (walks the
live graph, not the store), sampled LETopK (its RNG stream is drawn over
the *global* candidate ordering — per-shard streams would diverge), and
that is all; ``pattern_enum``, exact ``linear_topk``, and ``linear_full``
all shard.  Kept subtrees cross the pipe as their ``(path_id, sim)``
pairs (:func:`~repro.search.result.portable_answers`) and the
coordinator re-binds them, as ``ComboRef`` combos, to the snapshot's
store the worker was forked from — the unsharded combos, with no
:class:`~repro.index.entry.PathEntry` built on either side of the pipe.

The workers are a :class:`~repro.search.workers.WorkerPool` addressed by
shard id; the fork, the pipe protocol, death detection (liveness at
``send``, hang-up / the wave's one deadline at ``collect``) and respawn
live in :mod:`repro.search.workers`.  Under its failover rule the
coordinator re-executes a lost shard (only) inline on the same snapshot
while the wave's live workers keep computing, respawns
the worker once the query's last wave is in, and counts a
``shard_failover`` — one query degrades to local execution of one shard,
nothing is lost.  A failed respawn is counted
(``ServiceStats.respawn_failures``) and retried by the next query.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.core.errors import SearchError
from repro.core.topk import TopKQueue, TopKThreshold
from repro.index.builder import PathIndexes
from repro.index.shards import Shard, ShardedIndexes
from repro.scoring.function import PAPER_DEFAULT, ScoringFunction
from repro.search.bounds import SAFETY
from repro.search.context import EnumerationContext
from repro.search.plan import QueryPlan, execute_plan
from repro.search.result import (
    PatternAnswer,
    SearchResult,
    SearchStats,
    Stopwatch,
    bind_answers,
    canonical_pattern_key,
    order_answers,
    portable_answers,
)
from repro.search.workers import PoolBackedService, WorkerError, WorkerPool

#: The one worker error class, under the name this module used to define.
ShardWorkerError = WorkerError

DEFAULT_NUM_SHARDS = 4

#: Algorithms whose per-shard runs merge exactly (store-reading, no
#: cross-shard state).  ``baseline`` walks the live graph instead of the
#: store, so sharding the store cannot split its work.
SHARDABLE_ALGORITHMS = frozenset(
    {"pattern_enum", "linear_topk", "linear_full"}
)

#: Counters that sum meaningfully across per-shard runs.
_ADDITIVE_COUNTERS = (
    "roots_expanded",
    "patterns_checked",
    "empty_patterns",
    "nonempty_patterns",
    "subtrees_enumerated",
    "tree_check_rejections",
    "sampled_types",
    "rescored_patterns",
    "roots_skipped",
    "prefixes_skipped",
    "pairs_skipped",
)


def _sampling_active(plan: QueryPlan) -> bool:
    """Whether this plan's LETopK sampling can actually trigger."""
    if plan.algorithm != "linear_topk":
        return False
    params = dict(plan.params)
    return (
        params.get("sampling_threshold", float("inf")) != float("inf")
        and params.get("sampling_rate", 1.0) < 1.0
    )


def plan_shardable(plan: QueryPlan) -> bool:
    """Whether scatter–gather reproduces this plan bit-identically.

    Sampled LETopK is excluded even though the algorithm shards: its
    sampling decisions are pre-drawn from one seeded RNG stream over the
    globally-ordered candidate types, so K per-shard streams would make
    different keep/drop choices than the single run.
    """
    return plan.algorithm in SHARDABLE_ALGORITHMS and not _sampling_active(
        plan
    )


def search_shard(
    shard: Shard,
    plan: QueryPlan,
    context: Optional[EnumerationContext] = None,
) -> SearchResult:
    """Run a plan on one shard: the unmodified algorithm, on the bundle
    every shard shares, through a context narrowed to the root types the
    query's shard map (:meth:`~repro.index.shards.ShardedIndexes.assign`)
    puts in this shard — the one place the shard restriction is applied.

    ``context`` is the *whole* query's context on that bundle when the
    caller already has one; absent, it is derived here (the word-set
    intersection costs a few percent of a shard run, so a worker is
    sent the bare plan and derives the map for itself).  The run's
    ``stats.shard_subtrees`` is the shard's ``N_R``, a 1-tuple.
    """
    base = shard.sharded.base
    if context is None:
        context = EnumerationContext(base, plan.resolved_query())
    shard_map = shard.sharded.assign(context)
    shard_id = shard.shard_id
    # A type with no candidate root is in no map: it can only yield
    # empty patterns, and shard 0 checks them, as the unsharded run does.
    part = context.restricted_to(
        lambda root_type: shard_map.get(root_type, 0) == shard_id
    )
    result = execute_plan(base, plan, context=part)
    result.stats.shard_subtrees = (sum(part.subtree_counts().values()),)
    return result


def execute_shard_plan(
    shard: Shard, plan: QueryPlan
) -> Tuple[list, SearchStats]:
    """:func:`search_shard` with *portable* answers.

    The worker-side (and inline-failover) execution step.  Answers are
    flattened to plain picklable tuples
    ``(score, pattern_key, num_subtrees, combos, estimated_score)``
    (:func:`~repro.search.result.portable_answers`): kept subtrees go
    as their ``(path_id, sim)`` pairs because a ``ComboRef`` holds a
    store reference that must not cross the pipe.  Pattern ids and path
    ids are the serving snapshot's, on both sides of the pipe.
    """
    result = search_shard(shard, plan)
    return portable_answers(result.answers), result.stats


def shard_upper_bounds(
    sharded: ShardedIndexes, context, scoring
) -> List[float]:
    """Per-shard admissible score upper bounds for one resolved query.

    The shard bound is LETopK's type bound lifted one level: an
    admissible (under all four aggregators) cap on any pattern score
    confined to the shard's slice of the candidate roots —
    ``SAFETY * sum(root_mass(r))`` over the types the query's shard map
    puts there, computed from the *global*
    :class:`~repro.search.bounds.QueryBounds` — the bounds object the
    shard run itself prunes with.  ``0.0`` for a shard the map leaves
    empty; ``inf`` per non-empty shard when the scoring function is
    outside the bounded class — every such shard is then dispatched,
    sharding stays exact, nothing skips.
    """
    shard_map = sharded.assign(context)
    bounds = context.query_bounds(scoring)
    uppers = [0.0] * sharded.num_shards
    if bounds is None:
        for shard_id in shard_map.values():
            uppers[shard_id] = float("inf")
        return uppers
    root_mass = bounds.root_mass
    by_type = context.roots_by_type(sharded.base.graph)
    for root_type, shard_id in shard_map.items():
        uppers[shard_id] += sum(root_mass(root) for root in by_type[root_type])
    return [SAFETY * mass for mass in uppers]


def usable_cores() -> int:
    """Cores this process may run on — the one place the scatter reads
    its width from, once per partition
    (:func:`~repro.index.shards.partition_indexes`; tests patch it,
    nothing configures it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def execute_sharded_plan(
    plan: QueryPlan,
    sharded: ShardedIndexes,
    uppers: List[float],
    run_shards,
    width: int,
    candidate_roots: int = 0,
) -> SearchResult:
    """The scatter–gather merge loop, parameterized over shard execution.

    ``run_shards(shard_ids)`` executes one wave and returns, aligned
    with ``shard_ids``, each shard's ranked
    :class:`~repro.search.result.PatternAnswer` list and its stats —
    bound from the workers' replies or from inline failover
    (:class:`ShardedSearchService`, ``width`` = ``sharded.width``), or straight
    from in-process runs (the fork-pool workers of
    :mod:`repro.serve.pool` run their inherited partition through this
    same function at ``width`` 1, so the two execution spines cannot
    drift).  Shards are walked best-bound-first; the next ``width``
    shards the running k-th score still admits form a wave, the wave's
    replies merge in dispatch order under a single global
    :class:`~repro.core.topk.TopKQueue` with canonical tie keys, and
    only then is the next shard's bound checked — bit-identical to the
    unsharded engine at every width, and for a given width every
    counter is a function of the query alone.
    """
    watch = Stopwatch()
    queue: TopKQueue[PatternAnswer] = TopKQueue(plan.k)
    threshold = TopKThreshold(queue)
    stats = SearchStats(
        algorithm=plan.algorithm,
        candidate_roots=candidate_roots,
    )
    stats.shards_total = sharded.num_shards
    # Best-bound-first: the strongest shards fill the queue and
    # tighten the global threshold before weaker shards are
    # considered, maximizing skips.  Shard id breaks bound ties
    # so the dispatch order is deterministic.
    order = iter(
        sorted(range(sharded.num_shards), key=lambda s: (-uppers[s], s))
    )
    dispatched: List[int] = []
    busy_ms: List[float] = []
    while True:
        wave: List[int] = []
        for shard_id in order:  # resumes where the last wave stopped
            upper = uppers[shard_id]
            # upper == 0.0 means no candidate root lives there; a
            # bound below the running k-th score cannot change the
            # queue (equality always admitted — docs/pruning.md).
            if upper <= 0.0 or not threshold.admits(upper):
                stats.shards_skipped += 1
                continue
            wave.append(shard_id)
            if len(wave) == width:
                break
        if not wave:
            break
        stats.shard_waves += 1
        dispatched.extend(wave)
        # Strict waves: every reply is merged, in dispatch order,
        # before the next bound is checked.
        for shard_answers, shard_stats in run_shards(wave):
            busy_ms.append(shard_stats.elapsed_seconds * 1000.0)
            for name in _ADDITIVE_COUNTERS:
                setattr(
                    stats,
                    name,
                    getattr(stats, name) + getattr(shard_stats, name),
                )
            for answer in shard_answers:
                queue.push(
                    answer.score,
                    answer,
                    tie_key=canonical_pattern_key(answer.pattern),
                )
    stats.shard_dispatch_order = tuple(dispatched)
    stats.shard_busy_ms = tuple(busy_ms)
    threshold.write_stats(stats)
    answers = order_answers([answer for _, answer in queue.ranked()])
    stats.elapsed_seconds = watch.elapsed()
    return SearchResult(
        query=plan.words,
        k=plan.k,
        d=plan.d,
        answers=answers,
        stats=stats,
    )


class ShardWorkerPool(WorkerPool):
    """One :class:`~repro.search.workers.WorkerPool` worker per shard,
    addressed by shard id.

    Each worker inherits the serving snapshot and its shard id (a
    :class:`~repro.index.shards.Shard`, whose partition carries the
    width the shard map is computed for) and runs
    :func:`execute_shard_plan`; nothing is warmed, a worker boxes the
    paths of the words it is asked about.  Workers for shard ids at or
    beyond the width are forked but never sent a query.  A query is
    :meth:`send` to each shard of a wave, then each reply is
    :meth:`collect`-ed; the workers compute in between.  One *query*
    in flight per pool (the caller serializes queries), any number of
    its shards.
    """

    def __init__(
        self, sharded: ShardedIndexes, timeout: float = 30.0
    ) -> None:
        self.store_version = sharded.base.store.version
        super().__init__(
            sharded.shards, execute_shard_plan, "shard", timeout
        )

    def execute(self, shard_id: int, plan: QueryPlan):
        """:meth:`send` and :meth:`collect` back to back."""
        return self.collect(shard_id, self.send(shard_id, plan))


class ShardedSearchService(PoolBackedService):
    """Scatter–gather serving over K shards of the store (module docstring).

    Drop-in for :class:`~repro.search.service.SearchService` — same
    caches, same snapshot protocol, bit-identical answers — with
    shardable plans executed by the shard worker pool instead of inline.
    Pool lifecycle and the failover rule are
    :class:`~repro.search.workers.PoolBackedService`'s; this class is
    the scatter.
    """

    def __init__(
        self,
        indexes: PathIndexes,
        num_shards: int = DEFAULT_NUM_SHARDS,
        scoring: ScoringFunction = PAPER_DEFAULT,
        worker_timeout: float = 30.0,
        **kwargs,
    ) -> None:
        if num_shards < 1:
            raise SearchError(f"num_shards must be >= 1, got {num_shards}")
        super().__init__(
            indexes, num_shards, worker_timeout, scoring=scoring, **kwargs
        )
        self.stats.execution_backend = "sharded"
        self.stats.execution_workers = num_shards
        #: Serializes scatter–gather *and* pool lifecycle (it is the
        #: base class's pool lock): the pipes are plain duplex
        #: connections, not multiplexed channels, so one *query* in
        #: flight per pool — its wave of shards runs concurrently inside
        #: it.  Non-shardable plans never take it.
        self._scatter_lock = self._pool_lock
        #: (words, scoring) -> ((store_version, width), per-shard
        #: uppers): the precomputed per-shard score upper bounds per
        #: resolved keyword set, shared across k / algorithm / repeats;
        #: LRU-capped at ``max_cached_contexts`` like the context tier
        #: beside it.  The width is in the tag because the shard map
        #: depends on it.
        self._shard_uppers: (
            "OrderedDict[Tuple, Tuple[Tuple[int, int], List[float]]]"
        ) = OrderedDict()

    def _start_pool(
        self, snap: PathIndexes, sharded: ShardedIndexes
    ) -> ShardWorkerPool:
        return ShardWorkerPool(sharded, timeout=self.worker_timeout)

    # ----------------------------------------------------------- execution

    def _execute_on(self, snap: PathIndexes, plan: QueryPlan) -> SearchResult:
        if not plan_shardable(plan):
            return super()._execute_on(snap, plan)
        context = self._context_for(snap, plan)
        lost: List[int] = []
        with self._scatter_lock:
            sharded, pool = self._ensure_pool(snap)
            uppers = self._shard_bounds(snap, plan, context, sharded)

            subtrees: List[int] = []

            def run_shards(shard_ids: List[int]):
                # The workers were forked from this snapshot (a lost
                # one is answered from it here), so their path ids are
                # its store's.
                replies = pool.execute_on(shard_ids, plan, lost)
                for _rows, shard_stats in replies:
                    subtrees.extend(shard_stats.shard_subtrees)
                return [
                    (bind_answers(rows, snap), shard_stats)
                    for rows, shard_stats in replies
                ]

            try:
                result = execute_sharded_plan(
                    plan,
                    sharded,
                    uppers,
                    run_shards,
                    width=sharded.width,
                    candidate_roots=len(context.candidate_roots),
                )
            finally:
                # After the last wave: a fork-and-warm never eats a
                # wave's deadline or delays a live worker's reply.
                self._heal(pool, lost)
        result.stats.shard_failovers = len(lost)
        result.stats.shard_subtrees = tuple(subtrees)
        self._remember_candidates(plan, context)
        return result

    def _shard_bounds(
        self,
        snap: PathIndexes,
        plan: QueryPlan,
        context,
        sharded: ShardedIndexes,
    ) -> List[float]:
        """:func:`shard_upper_bounds`, cached per (words, scoring) under
        the serving version and the partition's width; caller holds
        :attr:`_scatter_lock`."""
        key = (plan.words, plan.scoring)
        version = (snap.store.version, sharded.width)
        slot = self._shard_uppers.get(key)
        if slot is not None and slot[0] == version:
            self._shard_uppers.move_to_end(key)
            return slot[1]
        uppers = shard_upper_bounds(sharded, context, plan.scoring)
        self._shard_uppers[key] = (version, uppers)
        self._shard_uppers.move_to_end(key)
        while len(self._shard_uppers) > self.max_cached_contexts:
            self._shard_uppers.popitem(last=False)
        return uppers

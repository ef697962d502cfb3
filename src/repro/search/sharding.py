"""Splitting one query over free fork-pool workers.

A query's root types are split into ``width`` pattern-disjoint slices
(:mod:`repro.index.shards` — per query, by longest-processing-time-first
over each type's subtree count ``N_R``; every slice reads the one
store), each slice is run by one fork-pool worker that inherited the
serving snapshot (:func:`search_shard`), and the per-slice top-k lists
are merged under a single global :class:`~repro.core.topk.TopKQueue`
with canonical tie keys (:func:`merge_shard_runs`) — answers are
**bit-identical** to the unsplit engine (the differential tests in
``tests/search/test_sharding.py`` enforce this for all shardable
algorithms at several widths).

:class:`~repro.serve.pool.PooledSearchService` decides the width: with
``num_shards = K >= 2`` it leases one worker, blocking, then takes the
workers that are free right now, up to :func:`split_width` =
``min(K, usable cores, the query's candidate root types)``.  Holding two
or more, it sends each ``(plan, (slice, width))``; holding one, it runs
the plan whole there.  ``SearchStats.shards_total`` is the width the
query was split over (0: it ran whole), ``shard_busy_ms`` and
``shard_subtrees`` each slice's own time and ``N_R``.

Exactness is inherited from the partition (pattern containment: a whole
pattern, with every root that contributes to its score, lives in exactly
one slice — see :mod:`repro.index.shards`) plus one fact: a pattern in
the global top-k is necessarily in its own slice's local top-k (the
slice run faces a subset of the competitors).

Two kinds of plan are never split and run whole, exactly as the plain
service would run them: the ``baseline`` (it walks the live graph, not
the store, and runs inline in the parent) and sampled LETopK (its RNG
stream is drawn over the *global* candidate ordering — per-slice
streams would diverge); ``pattern_enum``, exact ``linear_topk``, and
``linear_full`` all split.  Kept subtrees cross the pipe as their
``(path_id, sim)`` pairs (:func:`~repro.search.result.portable_answers`)
and the parent re-binds them, as ``ComboRef`` combos, to the snapshot's
store the worker was forked from — no
:class:`~repro.index.entry.PathEntry` is built on either side of the
pipe.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

from repro.core.topk import TopKQueue, TopKThreshold
from repro.index.shards import Shard
from repro.search.context import EnumerationContext
from repro.search.plan import QueryPlan, execute_plan
from repro.search.result import (
    PatternAnswer,
    SearchResult,
    SearchStats,
    canonical_pattern_key,
    order_answers,
    portable_answers,
)

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
    """Whether a split reproduces this plan bit-identically.

    Sampled LETopK is excluded even though the algorithm shards: its
    sampling decisions are pre-drawn from one seeded RNG stream over the
    globally-ordered candidate types, so per-slice streams would make
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


def usable_cores() -> int:
    """Cores this process may run on — the one place a split's width and
    :func:`~repro.index.shards.partition_indexes` read them from (tests
    patch it, nothing configures it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def split_width(num_shards: int, context: EnumerationContext) -> int:
    """The widest split worth making for this query: ``min(K, usable
    cores, candidate root types)`` — a type is the finest unit a slice
    holds, and more slices than cores buy no time."""
    types = len(context.roots_by_type(context.indexes.graph))
    return min(num_shards, usable_cores(), types)


def merge_shard_runs(
    plan: QueryPlan,
    runs: Sequence[Tuple[List[PatternAnswer], SearchStats]],
    candidate_roots: int = 0,
) -> SearchResult:
    """Merge each slice's ranked answers and stats into the query's
    result: one global :class:`~repro.core.topk.TopKQueue` with
    canonical tie keys, so the arrival order of the slices cannot
    matter; additive counters are summed, and each slice's own time
    (``shard_busy_ms``) and ``N_R`` (``shard_subtrees``) are kept in
    slice order.  The caller times the split."""
    queue: TopKQueue[PatternAnswer] = TopKQueue(plan.k)
    stats = SearchStats(
        algorithm=plan.algorithm,
        candidate_roots=candidate_roots,
        shards_total=len(runs),
    )
    for answers, part in runs:
        for name in _ADDITIVE_COUNTERS:
            setattr(stats, name, getattr(stats, name) + getattr(part, name))
        for answer in answers:
            queue.push(
                answer.score,
                answer,
                tie_key=canonical_pattern_key(answer.pattern),
            )
    stats.shard_busy_ms = tuple(
        part.elapsed_seconds * 1000.0 for _, part in runs
    )
    stats.shard_subtrees = tuple(
        count for _, part in runs for count in part.shard_subtrees
    )
    TopKThreshold(queue).write_stats(stats)
    return SearchResult(
        query=plan.words,
        k=plan.k,
        d=plan.d,
        answers=order_answers([answer for _, answer in queue.ranked()]),
        stats=stats,
    )


def __getattr__(name: str):
    # ``ShardedSearchService`` is a constructor of the pool-backed
    # service and lives beside it; resolved on first use, so importing
    # the search layer does not import the serving tier.
    if name == "ShardedSearchService":
        from repro.serve.pool import ShardedSearchService

        return ShardedSearchService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

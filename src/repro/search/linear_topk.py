"""LINEARENUM-TOPK — Algorithm 4 of the paper.

Extends LINEARENUM with two ideas from Sections 4.2.1-4.2.2:

* **Partitioning by types**: candidate roots are processed one root type at
  a time, so the ``TreeDict`` dictionary holds only one type's subtrees at
  any moment (the paper's memory-footprint fix).
* **Root sampling**: for a root type whose estimated subtree count ``N_R``
  (computed from ``|Paths(w_i, r)|`` counts, no enumeration) reaches the
  threshold ``Lambda``, only a ``rho``-fraction of candidate roots is
  expanded.  Pattern scores are estimated with the Horvitz-Thompson
  scale-up ``s_hat = (1/rho) * sum(sampled)``, the per-type top-k by
  estimate are re-scored *exactly* via the pattern-first index, and the
  global queue ranks exact scores — exactly the paper's pipeline.

Enumeration is id-based end-to-end (see ``docs/enumeration.md``): the
EXPANDROOT loop and the exact re-scoring join both run on integer path
ids against the columnar store, materializing no path entries.

With ``sampling_threshold=inf`` (or ``sampling_rate=1``) the output is the
exact top-k (Theorem 4's correctness case); with sampling, Theorem 5 bounds
the probability of inverting any two patterns.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, List, Optional, Tuple

from repro.core.errors import SearchError
from repro.core.topk import TopKQueue, TopKThreshold, largest_with_ties
from repro.core.types import PatternId
from repro.index.builder import PathIndexes
from repro.scoring.aggregate import AVG, RunningAggregate
from repro.scoring.function import PAPER_DEFAULT, ScoringFunction
from repro.search.bounds import SAFETY
from repro.search.context import EnumerationContext, ensure_context
from repro.search.expand import expand_root, join_pattern_roots, pair_scorer
from repro.search.result import (
    EntryCombo,
    KeptCombo,
    PatternAnswer,
    SearchResult,
    SearchStats,
    Stopwatch,
    order_answers,
    pattern_from_key,
)

PatternKey = Tuple[PatternId, ...]

_NEG_INF = float("-inf")

#: Queries whose estimated subtree count (N_R, Algorithm 4 line 4) stays
#: below this run unpruned: bound bookkeeping would dominate.
_PRUNE_MIN_SUBTREES = 512


def linear_topk_search(
    indexes: PathIndexes,
    query,
    k: int = 100,
    scoring: ScoringFunction = PAPER_DEFAULT,
    sampling_threshold: float = math.inf,
    sampling_rate: float = 1.0,
    seed: Optional[int] = 0,
    keep_subtrees: bool = True,
    prune: bool = True,
    context: Optional[EnumerationContext] = None,
) -> SearchResult:
    """Find the top-k d-height tree patterns (LINEARENUM-TOPK(Λ, ρ)).

    Parameters
    ----------
    sampling_threshold:
        The paper's Λ: sampling activates for a root type only when its
        subtree count ``N_R`` is at least this.  ``inf`` (default) never
        samples; ``0`` always samples.
    sampling_rate:
        The paper's ρ: probability that a candidate root is expanded when
        sampling is active.  Must be in (0, 1].
    seed:
        Seed for the sampling RNG; pass ``None`` for nondeterministic
        sampling.
    prune:
        Bound-driven top-k early termination (default on): root types
        are processed in descending upper-bound order and skipped — all
        their roots with them — once their bound falls below the running
        k-th score, and within an unsampled type a pattern whose
        whole-index upper bound cannot reach the k-th score is skipped at
        every root.  Sampling decisions are pre-drawn in the canonical
        type/root order, so answers are bit-identical to ``prune=False``
        even under sampling — only the work differs (``docs/pruning.md``).
    """
    if not 0.0 < sampling_rate <= 1.0:
        raise SearchError(
            f"sampling rate must be in (0, 1], got {sampling_rate}"
        )
    if sampling_threshold < 0:
        raise SearchError(
            f"sampling threshold must be >= 0, got {sampling_threshold}"
        )
    watch = Stopwatch()
    stats = SearchStats(algorithm="linear_topk")
    rng = random.Random(seed)
    context = ensure_context(indexes, query, context)
    words = context.words
    store = context.store
    graph = indexes.graph

    stats.candidate_roots = len(context.candidate_roots)
    by_type = context.roots_by_type(graph)
    score = pair_scorer(store, scoring, words)
    form_tree = store.pairs_checker(words)

    queue: TopKQueue = TopKQueue(k)
    threshold = TopKThreshold(queue)
    bounds = context.query_bounds(scoring) if prune else None
    #: Per keyword: pids proven unable to reach the k-th score.  A dead
    #: pid is excluded from every later pattern product; patterns already
    #: holding partial aggregates through it are swept at type flush.
    dead_pids: List[set] = [set() for _ in words]

    # Per-type plans are prepared in the canonical (sorted type, sorted
    # root) order so the sampling RNG stream is identical with and
    # without pruning; pruning only reorders *processing*.
    subtree_counts = context.subtree_counts()
    plans = []
    total_work = 0
    for root_type in sorted(by_type):
        roots = sorted(by_type[root_type])

        subtree_count = subtree_counts[root_type]
        if subtree_count >= sampling_threshold:
            rate = sampling_rate
        else:
            rate = 1.0
        if rate < 1.0:
            expanded = [root for root in roots if rng.random() < rate]
        else:
            expanded = roots
        total_work += subtree_count
        plans.append([root_type, roots, rate, expanded, 0.0])
    if bounds is not None and total_work < _PRUNE_MIN_SUBTREES:
        # Adaptive gate: the whole query enumerates fewer subtrees than
        # the bound bookkeeping would cost — run exhaustively.
        bounds = None
    if bounds is not None:
        # Best types first: the k-th score tightens before the bulk of
        # the candidate roots is ever expanded.
        for plan in plans:
            plan[4] = SAFETY * sum(
                bounds.root_mass(root) for root in plan[1]
            )
        plans.sort(key=lambda plan: (-plan[4], plan[0]))

    for root_type, roots, rate, expanded, type_upper in plans:
        if bounds is not None and not threshold.admits(type_upper):
            # No pattern rooted in this type can reach the k-th score.
            stats.roots_skipped += len(roots)
            continue
        if rate < 1.0:
            stats.sampled_types += 1
        # Within-type filters pay off only when patterns span enough
        # roots to amortize their one-time bound; small types run the
        # plain loop (the type-level skip above still applies).

        aggregates: Dict[PatternKey, RunningAggregate] = {}
        trees_by_pattern: Dict[PatternKey, List[EntryCombo]] = {}
        store_trees = keep_subtrees and rate >= 1.0

        def sink(key_combo, pairs) -> None:
            aggregate = aggregates.get(key_combo)
            if aggregate is None:
                aggregate = aggregates[key_combo] = scoring.running()
                if store_trees:
                    trees_by_pattern[key_combo] = []
            aggregate.add(score(pairs))
            if store_trees:
                trees_by_pattern[key_combo].append(KeptCombo(store, pairs))

        pattern_filter = None
        key_filter = None
        cut = _NEG_INF
        if bounds is not None and rate >= 1.0:
            # Exact mode only: a pattern whose upper bound over *all* its
            # roots falls below ``cut`` — a proven lower bound on the
            # *final* k-th score — can be dropped, partial aggregate and
            # all: its exact score can never be retained by the global
            # queue.  ``cut`` starts at the k-th score carried over from
            # earlier types and, for monotone aggregators, is raised
            # mid-type from the running partial sums: the k-th largest
            # partial is a lower bound on the final k-th largest score,
            # so pruning activates *inside* the very first (largest)
            # type, before anything was ever flushed.  Under sampling the
            # per-type top-k is chosen by *estimate* and dropping a
            # pattern would change which live patterns are selected — so
            # sampled types always enumerate fully.
            if queue.is_full:
                cut = queue.threshold()
            dead = -1.0  # sentinel: upper bounds are strictly positive
            verdicts: Dict[PatternKey, float] = {}

            if 2 <= len(words) <= 3:
                # The per-pattern bound amortizes over a pattern's roots.
                # With one keyword the pid filter below is the same test;
                # past ~3 keywords pattern combinations are mostly unique
                # per root and their joins are as cheap as the bound, so
                # bounding them is a measured net loss — only the pid
                # filter runs there.
                def pattern_filter(
                    key_combo, _product_size, verdicts=verdicts
                ) -> bool:
                    if cut == _NEG_INF:
                        return True  # nothing to prune against yet
                    upper = verdicts.get(key_combo)
                    if upper == dead:
                        return False
                    if upper is None:
                        upper = verdicts[key_combo] = (
                            bounds.full_pattern_upper(key_combo, max_roots=32)
                        )
                    if upper < cut:
                        verdicts[key_combo] = dead
                        if aggregates.pop(key_combo, None) is not None:
                            trees_by_pattern.pop(key_combo, None)
                        return False
                    return True

            pid_caches = [
                bounds.pid_upper_cache(i) for i in range(len(words))
            ]

            def key_filter(word_index, pid, pid_caches=pid_caches) -> bool:
                # A dead pid removes a whole slice of the pattern product
                # before it is formed; patterns already aggregating
                # through it are swept before the flush below.
                if cut == _NEG_INF:
                    return True
                upper = pid_caches[word_index].get(pid)
                if upper is None:
                    upper = bounds.pid_upper(word_index, pid)
                if upper >= cut:
                    return True
                dead_pids[word_index].add(pid)
                return False

        # Partial sums only grow for sum/max/count aggregation, so their
        # running k-th largest value is a valid lower bound on the final
        # k-th score; avg partials can shrink and must not raise the cut.
        partials_grow = scoring.aggregator != AVG

        for index, root in enumerate(expanded):
            # Geometric early refreshes (the cut rises fastest at the
            # start), then a fixed stride so the O(live patterns) scan
            # stays a small fraction of the type's work.
            if (
                key_filter is not None
                and partials_grow
                and index
                and ((index & (index - 1)) == 0 or index % 16 == 0)
                and len(aggregates) >= k
            ):
                kth_partial = heapq.nlargest(
                    k, (agg.value() for agg in aggregates.values())
                )[-1]
                if kth_partial > cut:
                    cut = kth_partial
            stats.roots_expanded += 1
            expand_root(
                store,
                context.pattern_maps(root),
                sink,
                stats,
                form_tree,
                pattern_filter=pattern_filter,
                key_filter=key_filter,
            )
        if key_filter is not None and any(dead_pids):
            # Sweep partial aggregates orphaned by a pid that died after
            # they started accumulating: their exact score is provably
            # below the final k-th, so dropping them cannot change the
            # global queue (docs/pruning.md).
            for key_combo in list(aggregates):
                if any(
                    pid in dead_pids[i] for i, pid in enumerate(key_combo)
                ):
                    del aggregates[key_combo]
                    trees_by_pattern.pop(key_combo, None)
        if not aggregates:
            continue
        stats.nonempty_patterns += len(aggregates)

        # Patterns tied with this type's k-th estimate all go on: which
        # of them is kept is the queue's call (canonical tie key), as in
        # LINEARENUM's full ranking.
        estimated = largest_with_ties(k, [
            (agg.estimate(rate), key) for key, agg in aggregates.items()
        ])
        for estimate, key in estimated:
            if rate >= 1.0:
                aggregate = aggregates[key]
                exact = aggregate.value()
                count = aggregate.count
                trees = trees_by_pattern.get(key, [])
            else:
                # Exact re-scoring through the pattern-first index
                # (Algorithm 4, line 11).  A sampled estimate can name a
                # pattern whose exact evaluation is non-empty by
                # construction, so aggregate is never None here.
                stats.rescored_patterns += 1
                pattern_roots = [
                    indexes.pattern_first.roots(word, pid)
                    for word, pid in zip(words, key)
                ]
                aggregate, trees, _roots = join_pattern_roots(
                    store, pattern_roots, scoring, keep_subtrees, stats,
                    words,
                )
                if aggregate is None:  # pragma: no cover - see comment above
                    continue
                exact = aggregate.value()
                count = aggregate.count
            if queue.would_accept(exact):
                canonical = tuple(
                    (indexes.interner.pattern(pid).labels,
                     indexes.interner.pattern(pid).ends_at_edge)
                    for pid in key
                )
                queue.push(
                    exact,
                    (key, count, trees, estimate if rate < 1.0 else None),
                    tie_key=canonical,
                )

    if bounds is not None:
        threshold.write_stats(stats)
    answers = []
    for score, (key, count, trees, estimate) in queue.ranked():
        answers.append(
            PatternAnswer(
                pattern_key=key,
                pattern=pattern_from_key(indexes, key),
                score=score,
                num_subtrees=count,
                subtrees=trees,
                estimated_score=estimate,
            )
        )
    order_answers(answers)
    stats.elapsed_seconds = watch.elapsed()
    return SearchResult(
        query=words, k=k, d=indexes.d, answers=answers, stats=stats
    )

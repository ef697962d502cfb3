"""PATTERNENUM / PETopK — Algorithm 2 of the paper.

Enumerates candidate tree patterns as combinations of per-keyword path
patterns from the *pattern-first* index: for each root type ``C``, take the
cross product of ``Patterns_C(w_i)``; for every combination intersect the
pattern's root sets (``Roots(w_i, P_i)``) to test emptiness; for non-empty
patterns, join the paths at each shared root to produce the valid subtrees,
score, and maintain a size-k queue.

Engineering refinements over the pseudo-code:

* the cross product is walked depth-first from the root type's
  candidate roots, and each depth makes one *root pass*: the surviving
  roots' root-first pattern maps (``Paths(w_i, r)`` grouped by pattern,
  LINEARENUM's index) name exactly the non-empty next path patterns,
  each with its surviving roots in ascending order.  So no root set is
  intersected, ``Roots(w_i, P)`` is fetched only for a non-empty prefix
  (the leaf join reads it), and a pattern missing from the pass is an
  empty prefix whose whole subtree is counted as checked-and-empty,
  keeping the statistics comparable.  Worst-case behaviour is unchanged
  — the Section 4.1 adversarial graph still counts Theta(p^m) empty
  combinations, which the tests assert — it is the constant factor that
  drops;
* the per-root path join is id-based: index leaves are tuples of
  ``(path_id, sim)`` scalar pairs, iterated as they are, through the
  query's one join kernel (:func:`~repro.search.expand.join_kernel`:
  tree check, score and aggregate in one pass); kept subtrees stay bare
  pair tuples and only the returned answers wrap them, so no
  :class:`~repro.index.entry.PathEntry` is materialized during
  enumeration;
* with ``prune=True`` (default), admissible score upper bounds drive
  top-k early termination: root types are visited in descending
  upper-bound order (so the k-th score tightens fast) and skipped
  outright once their bound falls below it, and inside the depth-first
  pattern walk every prefix carries an upper bound over all its
  completions — a failing prefix prunes its whole subtree of pattern
  combinations before any path join runs.  Pruned and unpruned searches
  return bit-identical answers (``docs/pruning.md``; differential tests
  in ``tests/search/test_pruning.py``).

Fast in practice (no online aggregation dictionary; subtrees of a pattern
are produced all at once) but worst-case exponential, unlike LINEARENUM.
"""

from __future__ import annotations

from collections import defaultdict
from typing import List, Mapping, Optional, Sequence

from repro.core.topk import TopKQueue, TopKThreshold
from repro.index.builder import PathIndexes
from repro.search.bounds import SAFETY
from repro.search.context import EnumerationContext, ensure_context
from repro.scoring.function import PAPER_DEFAULT, ScoringFunction
from repro.search.expand import join_kernel, join_pattern_roots
from repro.search.result import (
    SearchResult,
    SearchStats,
    Stopwatch,
    bind_answers,
    interned_pattern_key,
)


#: Queries whose estimated subtree count (N_R, from posting counts alone)
#: stays below this run unpruned: bound bookkeeping would dominate.
_PRUNE_MIN_SUBTREES = 256


def pattern_enum_search(
    indexes: PathIndexes,
    query,
    k: int = 100,
    scoring: ScoringFunction = PAPER_DEFAULT,
    keep_subtrees: bool = True,
    prune: bool = True,
    context: Optional[EnumerationContext] = None,
) -> SearchResult:
    """Find the top-k d-height tree patterns by pattern enumeration.

    ``prune=True`` (default) enables bound-driven top-k early
    termination; answers are bit-identical either way, only the work (and
    the stats counters) differ.  ``prune=False`` reproduces the
    exhaustive walk — the shape the worst-case analyses and the
    entry-based reference oracle count.
    """
    watch = Stopwatch()
    stats = SearchStats(algorithm="pattern_enum")
    context = ensure_context(indexes, query, context)
    words = context.words
    pattern_first = indexes.pattern_first
    join = join_kernel(context.store, scoring, words)
    m = len(words)

    # Root types viable for *all* keywords; equivalent to the paper's loop
    # over every type (types missing for some keyword yield no patterns).
    viable_types = context.viable_types()

    queue: TopKQueue = TopKQueue(k)
    threshold = TopKThreshold(queue)
    bounds = context.query_bounds(scoring) if prune else None
    if bounds is not None:
        # Adaptive gate: below a few hundred candidate subtrees (the
        # paper's N_R estimate, counts only) the whole query costs less
        # than the bound bookkeeping — run exhaustively.
        total_work = 0
        for root in context.candidate_roots:
            per_root = 1
            for i in range(m):
                per_root *= context.path_count(i, root)
            total_work += per_root
            if total_work >= _PRUNE_MIN_SUBTREES:
                break
        if total_work < _PRUNE_MIN_SUBTREES:
            bounds = None
    seen_roots = set()

    def evaluate_leaf(
        pid_combo: Sequence[int],
        root_maps: Sequence[Mapping[int, Sequence]],
        roots: Sequence[int],
    ) -> None:
        stats.patterns_checked += 1
        seen_roots.update(roots)
        key = tuple(pid_combo)
        aggregate, trees = join_pattern_roots(
            join, key, root_maps, roots, keep_subtrees, stats
        )
        if aggregate is None:
            # All path combinations failed the tree-validity check.
            return
        stats.nonempty_patterns += 1
        queue.push(
            aggregate.value(),
            (key, aggregate.count, trees, None),
            tie_key=interned_pattern_key(indexes.interner, key),
        )

    by_type = context.roots_by_type(indexes.graph)
    if bounds is not None:
        # Visit types best-first so the k-th score tightens fast; once a
        # type's bound falls below it, every pattern of that type is out.
        type_uppers = {}  # no sum(): it rounds differently from 3.12 on
        for root_type in viable_types:
            mass = 0.0
            for root in by_type.get(root_type, ()):
                mass += bounds.root_mass(root)
            type_uppers[root_type] = SAFETY * mass
        type_order = sorted(
            viable_types, key=lambda t: (-type_uppers[t], t)
        )
    else:
        type_order = sorted(viable_types)

    for root_type in type_order:
        if bounds is not None and not threshold.admits(
            type_uppers[root_type]
        ):
            stats.roots_skipped += len(by_type.get(root_type, ()))
            continue
        per_word_patterns = [
            pattern_first.patterns_rooted_at(word, root_type)
            for word in words
        ]
        if any(not patterns for patterns in per_word_patterns):
            continue
        # Number of full combinations below a pruned prefix: suffix
        # products of the per-word pattern counts, recomputed per root
        # type.
        suffix_combos = [1] * (m + 1)
        for i in range(m - 1, -1, -1):
            suffix_combos[i] = suffix_combos[i + 1] * len(per_word_patterns[i])

        pid_combo: List[int] = [0] * m
        root_maps: List[Mapping[int, Sequence]] = [{}] * m
        root_mass = bounds.root_mass if bounds is not None else None

        def descend(depth: int, roots: Sequence[int]) -> None:
            if depth == m:
                evaluate_leaf(pid_combo, root_maps, roots)
                return
            # One pass over the surviving roots' root-first pattern maps
            # names exactly the non-empty next patterns, each with its
            # roots in surviving (ascending) order.
            at_pattern = defaultdict(list)
            word_roots = context.root_maps[depth]
            for root in roots:
                for pid in word_roots[root]:
                    at_pattern[pid].append(root)
            if root_mass is not None:
                pid_cache = bounds.pid_upper_cache(depth)
            # Only the descent below fills the queue, and a full queue
            # stays full: read it once here and again after each descent
            # until it latches.
            pruning = root_mass is not None and queue.is_full
            for pid in per_word_patterns[depth]:
                if pruning:
                    upper = pid_cache.get(pid)
                    if upper is None:
                        upper = bounds.pid_upper(depth, pid)
                    if not threshold.admits(upper):
                        # No pattern through this path pattern can reach
                        # the k-th score: the whole product slice dies
                        # before its roots are even looked at.
                        stats.prefixes_skipped += suffix_combos[depth + 1]
                        continue
                new_roots = at_pattern.get(pid)
                if new_roots is None:
                    # Every completion of this prefix is an empty pattern;
                    # account for them all to stay comparable with the
                    # paper's "p^m combinations checked".
                    skipped = suffix_combos[depth + 1]
                    stats.patterns_checked += skipped
                    stats.empty_patterns += skipped
                    continue
                pid_combo[depth] = pid
                if pruning:
                    # Cheap admissible bound over *every* completion of
                    # this prefix, one cached lookup and one add per
                    # root: below the k-th score, the whole subtree of
                    # pattern combinations is dead (counted, not
                    # checked).  A plain loop, because ``sum()`` rounds
                    # floats differently from Python 3.12 on.
                    mass = 0.0
                    for root in new_roots:
                        mass += root_mass(root)
                    if not threshold.admits(mass * SAFETY):
                        stats.prefixes_skipped += suffix_combos[depth + 1]
                        continue
                    if depth + 1 == m:
                        # The join is imminent: pay one tight per-keyword
                        # bound to skip it when the pattern cannot reach
                        # the k-th score.
                        upper = bounds.pattern_upper_at_roots(
                            pid_combo, m, new_roots
                        )
                        if not threshold.admits(upper):
                            stats.prefixes_skipped += 1
                            continue
                root_maps[depth] = pattern_first.roots(words[depth], pid)
                descend(depth + 1, new_roots)
                if not pruning and root_mass is not None:
                    pruning = queue.is_full

        descend(0, by_type.get(root_type, ()))

    if bounds is not None:
        threshold.write_stats(stats)
    stats.candidate_roots = len(seen_roots)
    answers = bind_answers(
        [(score, *item) for score, item in queue.ranked()], indexes
    )
    stats.elapsed_seconds = watch.elapsed()
    return SearchResult(
        query=words, k=k, d=indexes.d, answers=answers, stats=stats
    )

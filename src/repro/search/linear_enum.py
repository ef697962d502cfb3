"""LINEARENUM — Algorithm 3 of the paper.

Enumerates *all* tree patterns and valid subtrees in time linear in the
index size plus the output size (Theorem 3): candidate roots are the
intersection of ``Roots(w_i)`` from the root-first index; each candidate
root is expanded (EXPANDROOT) into the product of its per-keyword pattern
sets — every such pattern is guaranteed non-empty — and the subtrees are
aggregated in the ``TreeDict`` dictionary keyed by tree pattern.

The enumeration is id-based: the expansion loop works on integer path ids
straight from the columnar store (no :class:`~repro.index.entry.PathEntry`
is built), and kept subtrees are bare ``(path_id, sim)`` pair tuples
until the output is built, where they become lazy
:class:`~repro.search.result.KeptCombo` references.

This module exposes both the raw enumeration (used to count a query's
patterns/subtrees for the experiment groupings of Figures 7-9, and as the
ground truth in tests) and a top-k search wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.topk import TopKQueue
from repro.core.types import PatternId
from repro.index.builder import PathIndexes
from repro.scoring.aggregate import RunningAggregate
from repro.scoring.function import PAPER_DEFAULT, ScoringFunction
from repro.search.context import EnumerationContext, ensure_context
from repro.search.expand import Pairs, expand_root, join_kernel
from repro.search.result import (
    EntryCombo,
    SearchResult,
    SearchStats,
    Stopwatch,
    bind_answers,
    bind_combos,
    interned_pattern_key,
)

PatternKey = Tuple[PatternId, ...]


@dataclass
class Enumeration:
    """The complete output of LINEARENUM for one query."""

    query: Tuple[str, ...]
    d: int
    trees_by_pattern: Dict[PatternKey, List[EntryCombo]]
    aggregates: Dict[PatternKey, RunningAggregate]
    stats: SearchStats
    keep_subtrees: bool = True
    candidate_roots: List[int] = field(default_factory=list)

    @property
    def num_patterns(self) -> int:
        return len(self.aggregates)

    @property
    def num_subtrees(self) -> int:
        return sum(agg.count for agg in self.aggregates.values())

    def score(self, key: PatternKey) -> float:
        return self.aggregates[key].value()


def _enumerate(context: EnumerationContext, scoring, keep_subtrees) -> tuple:
    """LINEARENUM's loop: ``(aggregates, trees, stats)`` by pattern key,
    ``trees`` holding kept subtrees as bare pair tuples."""
    stats = SearchStats(algorithm="linear_enum")
    stats.candidate_roots = len(context.candidate_roots)
    aggregates: Dict[PatternKey, RunningAggregate] = {}
    trees: Dict[PatternKey, List[Pairs]] = {}
    kept = trees if keep_subtrees else None
    join = join_kernel(context.store, scoring, context.words)
    for root in context.candidate_roots:
        stats.roots_expanded += 1
        expand_root(join, context.pattern_maps(root), aggregates, kept, stats)
    stats.nonempty_patterns = len(aggregates)
    return aggregates, trees, stats


def linear_enum(
    indexes: PathIndexes,
    query,
    scoring: ScoringFunction = PAPER_DEFAULT,
    keep_subtrees: bool = True,
    context: Optional[EnumerationContext] = None,
) -> Enumeration:
    """Enumerate every tree pattern and valid subtree for ``query``."""
    watch = Stopwatch()
    context = ensure_context(indexes, query, context)
    aggregates, trees, stats = _enumerate(context, scoring, keep_subtrees)
    store = context.store
    stats.elapsed_seconds = watch.elapsed()
    return Enumeration(
        query=context.words,
        d=indexes.d,
        trees_by_pattern={
            key: bind_combos(kept, store) for key, kept in trees.items()
        },
        aggregates=aggregates,
        stats=stats,
        keep_subtrees=keep_subtrees,
        candidate_roots=list(context.candidate_roots),
    )


def linear_enum_search(
    indexes: PathIndexes,
    query,
    k: int = 100,
    scoring: ScoringFunction = PAPER_DEFAULT,
    keep_subtrees: bool = True,
    context: Optional[EnumerationContext] = None,
) -> SearchResult:
    """Rank LINEARENUM's full output and return the top-k patterns.

    This is the "naive method" of Section 4.2.1 (score everything after a
    full enumeration); LINEARENUM-TOPK improves on it by partitioning by
    root type and sampling — see :mod:`repro.search.linear_topk`.
    """
    watch = Stopwatch()
    context = ensure_context(indexes, query, context)
    aggregates, trees, stats = _enumerate(context, scoring, keep_subtrees)
    queue: TopKQueue = TopKQueue(k)
    for key in sorted(aggregates):
        aggregate = aggregates[key]
        queue.push(
            aggregate.value(),
            (key, aggregate.count, trees.get(key, []), None),
            tie_key=interned_pattern_key(indexes.interner, key),
        )
    answers = bind_answers(
        [(score, *item) for score, item in queue.ranked()], indexes
    )
    stats.elapsed_seconds = watch.elapsed()
    return SearchResult(
        query=context.words,
        k=k,
        d=indexes.d,
        answers=answers,
        stats=stats,
    )


def count_answers(indexes: PathIndexes, query) -> Tuple[int, int]:
    """(number of tree patterns, number of valid subtrees) for a query.

    The experiment harness groups queries by these totals (Figures 7-9).
    Subtrees are not retained (and with the id-based loop no path entry is
    ever built), so this is memory-light even for large queries.
    """
    enumeration = linear_enum(indexes, query, keep_subtrees=False)
    return enumeration.num_patterns, enumeration.num_subtrees

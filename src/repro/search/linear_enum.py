"""LINEARENUM — Algorithm 3 of the paper.

Enumerates *all* tree patterns and valid subtrees in time linear in the
index size plus the output size (Theorem 3): candidate roots are the
intersection of ``Roots(w_i)`` from the root-first index; each candidate
root is expanded (EXPANDROOT) into the product of its per-keyword pattern
sets — every such pattern is guaranteed non-empty — and the subtrees are
aggregated in the ``TreeDict`` dictionary keyed by tree pattern.

The enumeration is id-based: the expansion loop works on integer path ids
straight from the columnar store (no :class:`~repro.index.entry.PathEntry`
is built), and kept subtrees are lazy
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
from repro.search.expand import expand_root, pair_scorer
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


def linear_enum(
    indexes: PathIndexes,
    query,
    scoring: ScoringFunction = PAPER_DEFAULT,
    keep_subtrees: bool = True,
    context: Optional[EnumerationContext] = None,
) -> Enumeration:
    """Enumerate every tree pattern and valid subtree for ``query``."""
    watch = Stopwatch()
    stats = SearchStats(algorithm="linear_enum")
    context = ensure_context(indexes, query, context)
    store = context.store
    candidates = context.candidate_roots
    stats.candidate_roots = len(candidates)

    trees_by_pattern: Dict[PatternKey, List[EntryCombo]] = {}
    aggregates: Dict[PatternKey, RunningAggregate] = {}
    score = pair_scorer(store, scoring, context.words)

    def sink(key_combo, pairs) -> None:
        aggregate = aggregates.get(key_combo)
        if aggregate is None:
            aggregate = aggregates[key_combo] = scoring.running()
            trees_by_pattern[key_combo] = []
        aggregate.add(score(pairs))
        if keep_subtrees:
            trees_by_pattern[key_combo].append(KeptCombo(store, pairs))

    form_tree = store.pairs_checker(context.words)
    for root in candidates:
        stats.roots_expanded += 1
        expand_root(store, context.pattern_maps(root), sink, stats, form_tree)

    stats.nonempty_patterns = len(aggregates)
    stats.elapsed_seconds = watch.elapsed()
    return Enumeration(
        query=context.words,
        d=indexes.d,
        trees_by_pattern=trees_by_pattern,
        aggregates=aggregates,
        stats=stats,
        keep_subtrees=keep_subtrees,
        candidate_roots=list(candidates),
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
    enumeration = linear_enum(
        indexes, query, scoring, keep_subtrees, context=context
    )
    queue: TopKQueue = TopKQueue(k)
    for key in sorted(enumeration.aggregates):
        aggregate = enumeration.aggregates[key]
        canonical = tuple(
            (indexes.interner.pattern(pid).labels,
             indexes.interner.pattern(pid).ends_at_edge)
            for pid in key
        )
        queue.push(
            aggregate.value(),
            (key, aggregate.count, enumeration.trees_by_pattern.get(key, [])),
            tie_key=canonical,
        )
    answers = []
    for score, (key, count, trees) in queue.ranked():
        answers.append(
            PatternAnswer(
                pattern_key=key,
                pattern=pattern_from_key(indexes, key),
                score=score,
                num_subtrees=count,
                subtrees=trees,
            )
        )
    order_answers(answers)
    stats = enumeration.stats
    return SearchResult(
        query=enumeration.query,
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

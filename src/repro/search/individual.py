"""Individual top-k valid subtrees and coverage metrics (Section 5.3).

The paper contrasts its tree-pattern answers with the classic "rank
individual subtrees" output: this module computes the top-k individual
valid subtrees by Equation 3, and the two Figure 13 metrics —

* **coverage**: the fraction of the individual top-k subtrees that appear
  as rows of some top-k tree pattern;
* **new patterns**: the fraction of top-k tree patterns none of whose
  subtrees made the individual top-k (interpretations a subtree ranker
  would never surface contiguously).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.core.topk import TopKQueue, TopKThreshold
from repro.index.builder import PathIndexes
from repro.scoring.function import PAPER_DEFAULT, ScoringFunction
from repro.search.context import EnumerationContext, ensure_context
from repro.search.expand import expand_root_topk, pair_scorer
from repro.search.result import (
    EntryCombo,
    SearchResult,
    SearchStats,
    Stopwatch,
    bind_combos,
    pattern_from_key,
)


@dataclass
class IndividualResult:
    """Top-k individual valid subtrees (each with its pattern key)."""

    query: Tuple[str, ...]
    k: int
    ranked: List[Tuple[float, Tuple[int, ...], EntryCombo]]
    stats: SearchStats

    def combos(self) -> List[EntryCombo]:
        return [combo for _score, _key, combo in self.ranked]

    def scores(self) -> List[float]:
        return [score for score, _key, _combo in self.ranked]

    def format(self, indexes: PathIndexes, max_rows: int = 5) -> str:
        """Render each individual subtree as a one-row table (Figure 14)."""
        from repro.core.table import compose_table
        from repro.index.entry import subtree_from_entries

        lines = []
        for rank, (score, key, combo) in enumerate(
            self.ranked[:max_rows], start=1
        ):
            tree = subtree_from_entries(combo)
            pattern = pattern_from_key(indexes, key)
            table = compose_table(pattern, [tree], indexes.graph, score)
            lines.append(f"Top-{rank} (score {score:.4f})")
            lines.append(table.to_ascii(max_rows=1))
        return "\n".join(lines)


def individual_topk(
    indexes: PathIndexes,
    query,
    k: int = 100,
    scoring: ScoringFunction = PAPER_DEFAULT,
    prune: bool = True,
    context: Optional[EnumerationContext] = None,
) -> IndividualResult:
    """Rank individual valid subtrees by their tree score (Equation 3).

    Because every enumerated combination is ranked on its own (no
    pattern aggregation), this is the classic bounded top-k join: with
    ``prune=True`` (default) candidate roots are visited in descending
    single-subtree upper-bound order and the loop stops outright once the
    best remaining root cannot beat the k-th score; within a root,
    pattern combinations, path-product suffixes, and descending-sim
    posting runs are cut by the same bound (see
    :func:`repro.search.expand.expand_root_topk`).  Ties at the k-th
    score are broken by a canonical (pattern key, pairs) tie key, so
    pruned and unpruned runs return identical rankings.
    """
    watch = Stopwatch()
    stats = SearchStats(algorithm="individual")
    context = ensure_context(indexes, query, context)
    store = context.store
    candidates = context.candidate_roots
    stats.candidate_roots = len(candidates)

    queue: TopKQueue = TopKQueue(k)
    threshold = TopKThreshold(queue)
    bounds = context.query_bounds(scoring) if prune else None
    score = pair_scorer(store, scoring, context.words)

    def sink(key_combo, pairs) -> None:
        # Raw pairs into the queue; only the k survivors get wrapped in
        # KeptCombo below, not every enumerated subtree.  The tie key
        # makes retention independent of enumeration order (pruning
        # reorders roots and posting runs).
        queue.push(score(pairs), (key_combo, pairs), tie_key=(key_combo, pairs))

    form_tree = store.pairs_checker(context.words)
    if bounds is None:
        for root in candidates:
            stats.roots_expanded += 1
            expand_root_topk(
                store, root, context.pattern_maps(root), None, threshold,
                sink, stats, form_tree, {}, context.words,
            )
    else:
        ordered = []
        for root in candidates:
            term = bounds.root_term(root)
            if term is not None:
                ordered.append((term[1], root))
        ordered.sort(key=lambda item: (-item[0], item[1]))
        sorted_pairs_memo: dict = {}
        for index, (root_upper, root) in enumerate(ordered):
            if not threshold.admits(root_upper):
                # Descending bound order: no later root can reach the
                # k-th score either.
                stats.roots_skipped += len(ordered) - index
                break
            stats.roots_expanded += 1
            expand_root_topk(
                store,
                root,
                context.pattern_maps(root),
                bounds,
                threshold,
                sink,
                stats,
                form_tree,
                sorted_pairs_memo,
                context.words,
            )
        threshold.write_stats(stats)

    entries = queue.ranked()
    combos = bind_combos([pairs for _score, (_key, pairs) in entries], store)
    ranked = [
        (subtree_score, key, combo)
        for (subtree_score, (key, _pairs)), combo in zip(entries, combos)
    ]
    stats.elapsed_seconds = watch.elapsed()
    return IndividualResult(
        query=context.words, k=k, ranked=ranked, stats=stats
    )


@dataclass
class CoverageMetrics:
    """The two Figure 13 series for one query and one k."""

    k: int
    num_individual: int
    num_patterns: int
    covered_individual: int
    new_patterns: int

    @property
    def coverage(self) -> float:
        """Fraction of individual top-k found inside top-k patterns."""
        if self.num_individual == 0:
            return 0.0
        return self.covered_individual / self.num_individual

    @property
    def new_pattern_fraction(self) -> float:
        """Fraction of top-k patterns with no individual-top-k subtree."""
        if self.num_patterns == 0:
            return 0.0
        return self.new_patterns / self.num_patterns


def coverage_metrics(
    individual: IndividualResult, patterns: SearchResult
) -> CoverageMetrics:
    """Compare individual top-k subtrees against top-k tree patterns.

    ``patterns`` must have been produced with ``keep_subtrees=True`` —
    coverage is defined over the actual rows of the pattern answers.
    """
    individual_set: Set[EntryCombo] = set(individual.combos())
    pattern_rows: Set[EntryCombo] = set()
    new_patterns = 0
    for answer in patterns.answers:
        rows = set(answer.subtrees)
        pattern_rows |= rows
        if not rows & individual_set:
            new_patterns += 1
    covered = sum(1 for combo in individual_set if combo in pattern_rows)
    return CoverageMetrics(
        k=patterns.k,
        num_individual=len(individual.ranked),
        num_patterns=len(patterns.answers),
        covered_individual=covered,
        new_patterns=new_patterns,
    )

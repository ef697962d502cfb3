"""Entry-based reference enumeration — the differential-test oracle.

This module preserves, verbatim, the pre-refactor enumeration pipeline in
which every hot loop materialized :class:`~repro.index.entry.PathEntry`
tuples and checked/scored them with the entry-level helpers
(:func:`~repro.index.entry.entries_form_tree`,
:func:`~repro.search.expand.combo_score`).  The production algorithms now
enumerate integer path ids against the columnar store
(``docs/enumeration.md``); the differential property tests in
``tests/search/test_id_enumeration.py`` assert that, for every algorithm,
both pipelines produce **identical** answers, scores, and stats counters
on randomized graphs.

Nothing here is exported through :mod:`repro.search`; do not use it
outside tests — it exists to keep the refactored hot path honest, so its
control flow and accounting must stay frozen in the entry-based shape.
"""

from __future__ import annotations

import math
import random
from itertools import product
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import SearchError
from repro.core.topk import TopKQueue, largest_with_ties
from repro.index.builder import PathIndexes
from repro.index.entry import PathEntry, entries_form_tree
from repro.index.path_enum import interleaved_labels, iter_reverse_paths_to
from repro.scoring.aggregate import RunningAggregate
from repro.scoring.function import PAPER_DEFAULT, ScoringFunction
from repro.search.expand import combo_score
from repro.search.result import (
    PatternAnswer,
    SearchResult,
    SearchStats,
    Stopwatch,
    interned_pattern_key,
    order_answers,
    pattern_from_key,
    pattern_from_labels,
)

EntrySink = Callable[[Tuple[object, ...], Tuple[PathEntry, ...]], None]


def entry_roots(
    pattern_first, word: str, pid: int
) -> Dict[int, List[PathEntry]]:
    """``Roots(w, P)`` as root -> ``Paths(w, P, r)``, read through the
    index's entry-facing accessor (the production loops read the leaf
    pair tuples that ``roots`` maps to instead)."""
    return {
        root: pattern_first.paths(word, pid, root)
        for root in pattern_first.roots(word, pid)
    }


def entry_pattern_map(
    root_first, word: str, root: int
) -> Dict[int, List[PathEntry]]:
    """``Patterns(w, r)`` as pattern -> ``Paths(w, r, P)``, read through
    the index's entry-facing accessor."""
    return {
        pid: root_first.paths_with_pattern(word, root, pid)
        for pid in root_first.patterns(word, root)
    }


def expand_root_entries(
    pattern_maps: Sequence[Mapping[object, Sequence[PathEntry]]],
    sink: EntrySink,
    stats: SearchStats,
) -> None:
    """The pre-refactor EXPANDROOT: enumerate materialized entry combos."""
    if any(not pattern_map for pattern_map in pattern_maps):
        return
    key_lists = [list(pattern_map.keys()) for pattern_map in pattern_maps]
    for key_combo in product(*key_lists):
        stats.patterns_checked += 1
        entry_lists = [
            pattern_maps[i][key] for i, key in enumerate(key_combo)
        ]
        emitted = False
        for entry_combo in product(*entry_lists):
            stats.subtrees_enumerated += 1
            if entries_form_tree(entry_combo):
                sink(key_combo, entry_combo)
                emitted = True
            else:
                stats.tree_check_rejections += 1
        if not emitted:
            stats.empty_patterns += 1


def join_pattern_roots_entries(
    root_maps: Sequence[Mapping[int, Sequence[PathEntry]]],
    scoring: ScoringFunction,
    keep_subtrees: bool,
    stats: SearchStats,
):
    """The pre-refactor per-pattern root join (Algorithm 2, lines 5-8)."""
    smallest = min(root_maps, key=len)
    roots = [
        root
        for root in smallest
        if all(root in root_map for root_map in root_maps)
    ]
    if not roots:
        stats.empty_patterns += 1
        return None, [], []
    aggregate = scoring.running()
    trees: List[Tuple[PathEntry, ...]] = []
    for root in sorted(roots):
        entry_lists = [root_map[root] for root_map in root_maps]
        for entry_combo in product(*entry_lists):
            stats.subtrees_enumerated += 1
            if not entries_form_tree(entry_combo):
                stats.tree_check_rejections += 1
                continue
            aggregate.add(combo_score(scoring, entry_combo))
            if keep_subtrees:
                trees.append(entry_combo)
    if aggregate.count == 0:
        stats.empty_patterns += 1
        return None, [], roots
    return aggregate, trees, roots


# --------------------------------------------------------------- algorithms


def reference_pattern_enum_search(
    indexes: PathIndexes,
    query,
    k: int = 100,
    scoring: ScoringFunction = PAPER_DEFAULT,
    keep_subtrees: bool = True,
) -> SearchResult:
    """Entry-based PATTERNENUM (Algorithm 2), pre-refactor control flow."""
    watch = Stopwatch()
    stats = SearchStats(algorithm="pattern_enum")
    words = indexes.resolve_query(query)
    pattern_first = indexes.pattern_first
    m = len(words)

    viable_types = None
    for word in words:
        types = pattern_first.root_types(word)
        viable_types = types if viable_types is None else viable_types & types
        if not viable_types:
            break

    queue: TopKQueue = TopKQueue(k)
    seen_roots = set()

    def evaluate_leaf(pid_combo, root_maps, roots) -> None:
        stats.patterns_checked += 1
        seen_roots.update(roots)
        aggregate = scoring.running()
        trees = [] if keep_subtrees else None
        for root in sorted(roots):
            entry_lists = [root_map[root] for root_map in root_maps]
            for entry_combo in product(*entry_lists):
                stats.subtrees_enumerated += 1
                if not entries_form_tree(entry_combo):
                    stats.tree_check_rejections += 1
                    continue
                aggregate.add(combo_score(scoring, entry_combo))
                if trees is not None:
                    trees.append(entry_combo)
        if aggregate.count == 0:
            stats.empty_patterns += 1
            return
        stats.nonempty_patterns += 1
        key = tuple(pid_combo)
        queue.push(
            aggregate.value(),
            (key, aggregate.count, trees if trees is not None else []),
            tie_key=interned_pattern_key(indexes.interner, key),
        )

    for root_type in sorted(viable_types or ()):
        per_word_patterns = [
            pattern_first.patterns_rooted_at(word, root_type)
            for word in words
        ]
        if any(not patterns for patterns in per_word_patterns):
            continue
        suffix_combos = [1] * (m + 1)
        for i in range(m - 1, -1, -1):
            suffix_combos[i] = suffix_combos[i + 1] * len(per_word_patterns[i])

        pid_combo: List[int] = [0] * m
        root_maps: List[Mapping[int, Sequence[PathEntry]]] = [{}] * m

        def descend(depth: int, roots) -> None:
            if depth == m:
                evaluate_leaf(pid_combo, root_maps, roots)
                return
            word = words[depth]
            for pid in per_word_patterns[depth]:
                root_map = entry_roots(pattern_first, word, pid)
                if depth == 0:
                    new_roots = list(root_map)
                else:
                    new_roots = [r for r in roots if r in root_map]
                if not new_roots:
                    skipped = suffix_combos[depth + 1]
                    stats.patterns_checked += skipped
                    stats.empty_patterns += skipped
                    continue
                pid_combo[depth] = pid
                root_maps[depth] = root_map
                descend(depth + 1, new_roots)

        descend(0, None)

    stats.candidate_roots = len(seen_roots)
    answers = []
    for score, (pid_combo_key, count, trees) in queue.ranked():
        answers.append(
            PatternAnswer(
                pattern_key=pid_combo_key,
                pattern=pattern_from_key(indexes, pid_combo_key),
                score=score,
                num_subtrees=count,
                subtrees=trees,
            )
        )
    order_answers(answers)
    stats.elapsed_seconds = watch.elapsed()
    return SearchResult(
        query=words, k=k, d=indexes.d, answers=answers, stats=stats
    )


def reference_linear_enum_search(
    indexes: PathIndexes,
    query,
    k: int = 100,
    scoring: ScoringFunction = PAPER_DEFAULT,
    keep_subtrees: bool = True,
) -> SearchResult:
    """Entry-based LINEARENUM + ranking (the Section 4.2.1 naive method)."""
    watch = Stopwatch()
    stats = SearchStats(algorithm="linear_enum")
    words = indexes.resolve_query(query)
    root_first = indexes.root_first

    root_maps = [root_first.roots(word) for word in words]
    smallest = min(root_maps, key=len)
    candidates = sorted(
        root
        for root in smallest
        if all(root in root_map for root_map in root_maps)
    )
    stats.candidate_roots = len(candidates)

    trees_by_pattern: Dict[Tuple, List[Tuple[PathEntry, ...]]] = {}
    aggregates: Dict[Tuple, RunningAggregate] = {}

    def sink(key_combo, entry_combo) -> None:
        aggregate = aggregates.get(key_combo)
        if aggregate is None:
            aggregate = aggregates[key_combo] = scoring.running()
            trees_by_pattern[key_combo] = []
        aggregate.add(combo_score(scoring, entry_combo))
        if keep_subtrees:
            trees_by_pattern[key_combo].append(entry_combo)

    for root in candidates:
        stats.roots_expanded += 1
        expand_root_entries(
            [entry_pattern_map(root_first, word, root) for word in words],
            sink,
            stats,
        )

    stats.nonempty_patterns = len(aggregates)
    queue: TopKQueue = TopKQueue(k)
    for key in sorted(aggregates):
        aggregate = aggregates[key]
        queue.push(
            aggregate.value(),
            (key, aggregate.count, trees_by_pattern.get(key, [])),
            tie_key=interned_pattern_key(indexes.interner, key),
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
    stats.elapsed_seconds = watch.elapsed()
    return SearchResult(
        query=words, k=k, d=indexes.d, answers=answers, stats=stats
    )


def reference_linear_topk_search(
    indexes: PathIndexes,
    query,
    k: int = 100,
    scoring: ScoringFunction = PAPER_DEFAULT,
    sampling_threshold: float = math.inf,
    sampling_rate: float = 1.0,
    seed: Optional[int] = 0,
    keep_subtrees: bool = True,
) -> SearchResult:
    """Entry-based LINEARENUM-TOPK(Λ, ρ) (Algorithm 4), pre-refactor."""
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
    words = indexes.resolve_query(query)
    root_first = indexes.root_first
    graph = indexes.graph

    root_maps = [root_first.roots(word) for word in words]
    smallest = min(root_maps, key=len)
    candidates = [
        root
        for root in smallest
        if all(root in root_map for root_map in root_maps)
    ]
    stats.candidate_roots = len(candidates)

    by_type: Dict[int, List[int]] = {}
    for root in candidates:
        by_type.setdefault(graph.node_type(root), []).append(root)

    queue: TopKQueue = TopKQueue(k)
    for root_type in sorted(by_type):
        roots = sorted(by_type[root_type])

        subtree_count = 0
        for root in roots:
            per_root = 1
            for word in words:
                per_root *= root_first.path_count(word, root)
            subtree_count += per_root
        rate = sampling_rate if subtree_count >= sampling_threshold else 1.0
        if rate < 1.0:
            stats.sampled_types += 1

        aggregates: Dict[Tuple, RunningAggregate] = {}
        trees_by_pattern: Dict[Tuple, List[Tuple[PathEntry, ...]]] = {}
        store_trees = keep_subtrees and rate >= 1.0

        def sink(key_combo, entry_combo) -> None:
            aggregate = aggregates.get(key_combo)
            if aggregate is None:
                aggregate = aggregates[key_combo] = scoring.running()
                if store_trees:
                    trees_by_pattern[key_combo] = []
            aggregate.add(combo_score(scoring, entry_combo))
            if store_trees:
                trees_by_pattern[key_combo].append(entry_combo)

        for root in roots:
            if rate < 1.0 and rng.random() >= rate:
                continue
            stats.roots_expanded += 1
            expand_root_entries(
                [entry_pattern_map(root_first, word, root) for word in words],
                sink,
                stats,
            )
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
                stats.rescored_patterns += 1
                pattern_roots = [
                    entry_roots(indexes.pattern_first, word, pid)
                    for word, pid in zip(words, key)
                ]
                aggregate, trees, _roots = join_pattern_roots_entries(
                    pattern_roots, scoring, keep_subtrees, stats
                )
                if aggregate is None:  # pragma: no cover - non-empty by constr.
                    continue
                exact = aggregate.value()
                count = aggregate.count
            if queue.would_accept(exact):
                queue.push(
                    exact,
                    (key, count, trees, estimate if rate < 1.0 else None),
                    tie_key=interned_pattern_key(indexes.interner, key),
                )

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


def _backward_root_maps_entries(
    indexes: PathIndexes, word: str, d: int
) -> Dict[int, Dict[object, List[PathEntry]]]:
    """Pre-refactor backward walks: materialized entries, no scratch store."""
    graph = indexes.graph
    lexicon = indexes.lexicon
    ranks = indexes.pagerank_scores
    out: Dict[int, Dict[object, List[PathEntry]]] = {}

    for node, sim in lexicon.nodes_with_word(word).items():
        pr = ranks[node]
        for nodes, attrs in iter_reverse_paths_to(graph, node, d):
            entry = PathEntry(nodes, attrs, False, pr, sim)
            key = (interleaved_labels(graph, nodes, attrs), False)
            out.setdefault(nodes[0], {}).setdefault(key, []).append(entry)

    if d >= 2:
        for attr, sim in lexicon.attrs_with_word(word).items():
            for source, target in graph.edges_with_attr(attr):
                pr = ranks[source]
                for nodes, attrs in iter_reverse_paths_to(graph, source, d - 1):
                    if target in nodes:
                        continue
                    entry = PathEntry(
                        nodes + (target,), attrs + (attr,), True, pr, sim
                    )
                    key = (
                        interleaved_labels(graph, nodes, attrs) + (attr,),
                        True,
                    )
                    out.setdefault(nodes[0], {}).setdefault(key, []).append(
                        entry
                    )
    return out


def reference_baseline_search(
    indexes: PathIndexes,
    query,
    k: int = 100,
    scoring: ScoringFunction = PAPER_DEFAULT,
    keep_subtrees: bool = True,
    d: Optional[int] = None,
) -> SearchResult:
    """Entry-based enumeration-aggregation baseline (Section 2.3)."""
    watch = Stopwatch()
    stats = SearchStats(algorithm="baseline")
    if d is None:
        d = indexes.d
    if d < 1:
        raise SearchError(f"height threshold d must be >= 1, got {d}")
    words = indexes.resolve_query(query)

    per_word = [
        _backward_root_maps_entries(indexes, w, d) for w in words
    ]

    candidates = set(per_word[0])
    for root_map in per_word[1:]:
        candidates &= set(root_map)
    stats.candidate_roots = len(candidates)

    tree_dict: Dict[Tuple, Tuple[RunningAggregate, List]] = {}

    def sink(key_combo, entry_combo) -> None:
        slot = tree_dict.get(key_combo)
        if slot is None:
            slot = tree_dict[key_combo] = (scoring.running(), [])
        slot[0].add(combo_score(scoring, entry_combo))
        if keep_subtrees:
            slot[1].append(entry_combo)

    for root in sorted(candidates):
        stats.roots_expanded += 1
        expand_root_entries(
            [root_map[root] for root_map in per_word], sink, stats
        )

    stats.nonempty_patterns = len(tree_dict)
    queue: TopKQueue = TopKQueue(k)
    for key in sorted(tree_dict):
        aggregate, trees = tree_dict[key]
        queue.push(
            aggregate.value(), (key, aggregate.count, trees), tie_key=key
        )

    answers = []
    for score, (key, count, trees) in queue.ranked():
        answers.append(
            PatternAnswer(
                pattern_key=key,
                pattern=pattern_from_labels(key),
                score=score,
                num_subtrees=count,
                subtrees=trees,
            )
        )
    order_answers(answers)
    stats.elapsed_seconds = watch.elapsed()
    return SearchResult(
        query=words, k=k, d=d, answers=answers, stats=stats
    )

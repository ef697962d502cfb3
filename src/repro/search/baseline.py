"""The enumeration-aggregation baseline (Section 2.3).

Adapts backward search on database graphs (Bhalotia et al., BANKS) to our
setting: starting from every keyword occurrence, reverse edges are walked
to discover each root that reaches all keywords, valid subtrees are
enumerated one by one (time linear in tree size, "the best we can expect"),
and then — the bottleneck the paper calls out — subtrees are *grouped by
their tree patterns* in an in-memory dictionary and ranked.

The baseline deliberately does not touch the path indexes of Section 3; it
uses only the keyword-match tables and precomputed PageRank ("proper
preprocessing").  It does, however, share the id-based enumeration loop
with the index-backed algorithms: the paths its backward walks discover
(at candidate roots) are interned into a *query-local scratch*
:class:`~repro.index.store.PostingStore`, and expansion then runs on
integer path ids exactly like everyone else.  Kept subtrees are
materialized at the result boundary — unlike the index-backed
algorithms' lazy ComboRefs — so the scratch store is freed when the
query returns; with ``keep_subtrees=False`` no
:class:`~repro.index.entry.PathEntry` is built at all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.errors import SearchError
from repro.core.topk import TopKQueue
from repro.index.builder import PathIndexes
from repro.index.path_enum import interleaved_labels, iter_reverse_paths_to
from repro.index.store import PostingStore
from repro.scoring.aggregate import RunningAggregate
from repro.search.context import EnumerationContext, ensure_context
from repro.scoring.function import PAPER_DEFAULT, ScoringFunction
from repro.search.expand import Pairs, expand_root, join_kernel
from repro.search.result import (
    PatternAnswer,
    SearchResult,
    SearchStats,
    Stopwatch,
    order_answers,
    pattern_from_labels,
)

#: Baseline pattern key: per-keyword (labels, ends_at_edge) pairs.
RawKey = Tuple[Tuple[Tuple[int, ...], bool], ...]

#: A scratch posting: integer path id into the query-local store + sim.
PairRow = Tuple[int, float]

#: A discovered-but-not-yet-interned path: the walk's raw output plus the
#: similarity of the keyword match that produced it.
RawRow = Tuple[Tuple[int, ...], Tuple[int, ...], bool, float, float]


def _backward_root_maps(
    indexes: PathIndexes, word: str, d: int
) -> Dict[int, Dict[object, List[RawRow]]]:
    """All root-to-``word`` paths found by reverse walks, grouped by root.

    Returns ``root -> ((labels, flag) -> [raw rows])`` — the same shape
    the root-first index would give, but computed online per query.  Rows
    stay raw ``(nodes, attrs, matched_on_edge, pr, sim)`` tuples here:
    most discovered roots do not survive the per-keyword intersection, so
    interning into the scratch store is deferred until the candidate
    roots are known (see :func:`_intern_candidates`).
    """
    graph = indexes.graph
    lexicon = indexes.lexicon
    ranks = indexes.pagerank_scores
    out: Dict[int, Dict[object, List[RawRow]]] = {}

    for node, sim in lexicon.nodes_with_word(word).items():
        pr = ranks[node]
        for nodes, attrs in iter_reverse_paths_to(graph, node, d):
            key = (interleaved_labels(graph, nodes, attrs), False)
            out.setdefault(nodes[0], {}).setdefault(key, []).append(
                (nodes, attrs, False, pr, sim)
            )

    if d >= 2:
        for attr, sim in lexicon.attrs_with_word(word).items():
            for source, target in graph.edges_with_attr(attr):
                pr = ranks[source]
                for nodes, attrs in iter_reverse_paths_to(graph, source, d - 1):
                    if target in nodes:
                        continue  # keep the whole path simple
                    key = (
                        interleaved_labels(graph, nodes, attrs) + (attr,),
                        True,
                    )
                    out.setdefault(nodes[0], {}).setdefault(key, []).append(
                        (nodes + (target,), attrs + (attr,), True, pr, sim)
                    )
    return out


def _intern_candidates(
    scratch: PostingStore,
    per_word_raw: List[Dict[int, Dict[object, List[RawRow]]]],
) -> Tuple[List[Dict[int, Dict[object, List[PairRow]]]], List[int]]:
    """Intern only the paths rooted at candidate roots into ``scratch``.

    Candidates are the roots present in every keyword's map; everything
    else was discovered by a walk but can never join a subtree, so it is
    dropped before paying the store append (and the store's query-column
    pre-shaping, which is linear in interned paths).  Returns the
    filtered per-word maps plus the sorted candidate list (so the walk
    context need not re-derive the intersection).  Row order within each
    pattern key is preserved, so enumeration order — and therefore every
    stats counter — matches interning everything.

    append_path (no intern lookup): the reverse walks enumerate each
    simple path at most once per keyword, and a path shared by two
    keywords may harmlessly occupy two scratch ids — the per-word maps
    never mix them.
    """
    candidates = set(per_word_raw[0])
    for raw_map in per_word_raw[1:]:
        candidates &= set(raw_map)
    append_path = scratch.append_path
    per_word: List[Dict[int, Dict[object, List[PairRow]]]] = []
    for raw_map in per_word_raw:
        root_map: Dict[int, Dict[object, List[PairRow]]] = {}
        for root, raw_patterns in raw_map.items():
            if root not in candidates:
                continue
            root_map[root] = {
                key: [
                    (append_path(nodes, attrs, moe, 0, pr), sim)
                    for nodes, attrs, moe, pr, sim in rows
                ]
                for key, rows in raw_patterns.items()
            }
        per_word.append(root_map)
    return per_word, sorted(candidates)


def baseline_search(
    indexes: PathIndexes,
    query,
    k: int = 100,
    scoring: ScoringFunction = PAPER_DEFAULT,
    keep_subtrees: bool = True,
    d: Optional[int] = None,
    context: Optional[EnumerationContext] = None,
) -> SearchResult:
    """Enumerate all valid subtrees, group by pattern, rank, return top-k.

    ``d`` defaults to the index's height threshold so results are
    comparable with the index-based algorithms; a smaller ``d`` may be
    passed (a larger one cannot be checked against the index and is
    allowed — the baseline does not read the index).  A shared ``context``
    contributes only the resolved keywords: the baseline builds its own
    scratch enumeration context from its backward walks.
    """
    watch = Stopwatch()
    stats = SearchStats(algorithm="baseline")
    if d is None:
        d = indexes.d
    if d < 1:
        raise SearchError(f"height threshold d must be >= 1, got {d}")
    words = ensure_context(indexes, query, context).words

    per_word_raw = [_backward_root_maps(indexes, w, d) for w in words]
    scratch = PostingStore.scratch()
    per_word, candidates = _intern_candidates(scratch, per_word_raw)
    # indexes=None: the scratch maps' counts and raw pattern keys must
    # never be answered from the real index views.
    walk_context = EnumerationContext.from_root_maps(
        scratch, words, per_word, candidate_roots=candidates
    )
    stats.candidate_roots = len(walk_context.candidate_roots)

    aggregates: Dict[RawKey, RunningAggregate] = {}
    trees_by_key: Dict[RawKey, List[Pairs]] = {}
    kept = trees_by_key if keep_subtrees else None
    join = join_kernel(scratch, scoring)
    for root in walk_context.candidate_roots:
        stats.roots_expanded += 1
        expand_root(
            join, walk_context.pattern_maps(root), aggregates, kept, stats
        )

    stats.nonempty_patterns = len(aggregates)
    queue: TopKQueue = TopKQueue(k)
    for key in sorted(aggregates):
        aggregate = aggregates[key]
        queue.push(
            aggregate.value(),
            (key, aggregate.count, trees_by_key.get(key, [])),
            tie_key=key,
        )

    answers = []
    make_entry = scratch.make_entry
    for score, (key, count, trees) in queue.ranked():
        answers.append(
            PatternAnswer(
                pattern_key=key,
                pattern=pattern_from_labels(key),
                score=score,
                num_subtrees=count,
                # Materialize at the boundary: a lazy KeptCombo would pin
                # the whole query-local scratch store (every candidate
                # path) for the result's lifetime, while the k surviving
                # answers' entry tuples are self-contained — the same
                # memory profile as the pre-refactor baseline.
                subtrees=[
                    tuple(make_entry(path_id, sim) for path_id, sim in pairs)
                    for pairs in trees
                ],
            )
        )
    order_answers(answers)
    stats.elapsed_seconds = watch.elapsed()
    return SearchResult(
        query=words, k=k, d=d, answers=answers, stats=stats
    )

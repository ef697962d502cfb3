"""Shared subtree-expansion loop (EXPANDROOT of Algorithm 3), id-based.

Given, for a fixed candidate root, the per-keyword ``pattern -> postings``
maps, enumerate the *pattern product* and, inside each tree pattern, the
*path product*; every path combination passing the tree-validity check is
one valid subtree.  Both LINEARENUM variants, the baseline, and the
individual-subtree ranker drive this loop; PATTERNENUM inlines a
pattern-major variant of it.

Since the id-based enumeration refactor the loop never touches a
:class:`~repro.index.entry.PathEntry`: postings are iterated as
``(path_id, sim)`` scalar pairs (cached id columns of
:class:`~repro.index.store.PostingList`, or the baseline's scratch pair
lists), tree-validity goes through
:meth:`~repro.index.store.PostingStore.form_tree` and scoring through
:meth:`~repro.index.store.PostingStore.score_terms`, both of which read
the flat path columns directly.  Sinks receive the id and sim tuples and
materialize nothing; kept subtrees become lazy
:class:`~repro.search.result.KeptCombo` objects at the result boundary.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.index.entry import PathEntry, combination_score_terms
from repro.index.store import PostingStore
from repro.scoring.components import SubtreeComponents
from repro.scoring.function import ScoringFunction
from repro.search.result import KeptCombo, SearchStats


def combo_score(
    scoring: ScoringFunction, combo: Sequence[PathEntry]
) -> float:
    """score(T, q) of a subtree given as a materialized entry combination.

    Off the hot path since the id-based refactor — retained for the
    result boundary, the entry-based reference enumeration
    (:mod:`repro.search.reference`), and tests.
    """
    size, pr, sim = combination_score_terms(combo)
    return scoring.subtree_score(SubtreeComponents(size, pr, sim))


def pair_scorer(
    store: PostingStore,
    scoring: ScoringFunction,
    words: Optional[Sequence[str]] = None,
) -> Callable[[Sequence[Tuple[int, float]]], float]:
    """``pairs -> score(T, q)`` bound to store columns + scoring weights.

    The hot-loop scorer the algorithms hoist before their sinks: one
    closure call per valid combination, no component object and no id/sim
    tuples.  Bit-identical to :func:`combo_score` over the materialized
    entries.  ``words`` are the query's keywords (see
    :meth:`~repro.index.store.PostingStore.pairs_checker`).
    """
    score_pairs = store.pairs_scorer(words)
    subtree_score_terms = scoring.subtree_score_terms

    def score(pairs: Sequence[Tuple[int, float]]) -> float:
        size, pr, sim = score_pairs(pairs)
        return subtree_score_terms(size, pr, sim)

    return score


def pair_rows(postings) -> Sequence[Tuple[int, float]]:
    """A posting sequence as ``(path_id, sim)`` pairs.

    :class:`~repro.index.store.PostingList` leaves expose a cached pair
    list; the baseline's scratch maps already hold plain pair lists and
    pass through untouched.
    """
    pairs = getattr(postings, "pairs", None)
    return postings if pairs is None else pairs()


#: Per-keyword map from a pattern key to that keyword's postings at this
#: root.  Keys are interned PatternIds for index-backed callers and raw
#: (labels, flag) tuples for the baseline; values are posting-list
#: flyweights for index-backed callers and plain ``(path_id, sim)`` pair
#: lists for the baseline — the loop is agnostic to both (see
#: :func:`pair_rows`).
PatternMap = Mapping[object, Sequence]

#: sink(pattern_key_combo, pair_combo) -> None, where ``pair_combo`` is
#: one ``(path_id, sim)`` pair per query keyword.
Sink = Callable[
    [Tuple[object, ...], Tuple[Tuple[int, float], ...]], None
]


def expand_root(
    store: PostingStore,
    pattern_maps: Sequence[PatternMap],
    sink: Sink,
    stats: SearchStats,
    form_tree: Optional[Callable] = None,
    pattern_filter: Optional[Callable[[Tuple[object, ...]], bool]] = None,
    key_filter: Optional[Callable[[int, object], bool]] = None,
) -> None:
    """Enumerate all valid subtrees under one root into ``sink``.

    ``pattern_maps[i]`` is keyword i's ``pattern -> postings`` map at the
    root; ``store`` is the posting store the path ids refer to.  Every
    emitted combination is a tree (the check that the paper's pseudo-code
    leaves implicit); rejected combinations are counted in
    ``stats.tree_check_rejections``.  Callers looping over many roots
    should hoist ``form_tree = store.pairs_checker(words)`` once per
    query and pass it in (like they hoist :func:`pair_scorer`); it
    defaults to a fresh fetch over every path for one-off calls.

    ``pattern_filter`` and ``key_filter`` are the bound-driven pruning
    hooks.  ``key_filter(word_index, key)`` returning ``False`` removes
    one keyword's path pattern from the product *before* it is formed —
    a whole slice of pattern combinations vanishes per exclusion, each
    counted once in ``stats.prefixes_skipped``.
    ``pattern_filter(key_combo, product_size)`` returning ``False`` for
    a surviving pattern key combination skips that pattern's path
    product (of ``product_size`` combinations) at this root — counted in
    ``stats.prefixes_skipped`` (one per pattern×root skip) and
    ``stats.pairs_skipped`` (the path combinations never enumerated);
    the size lets the filter decline to bound patterns whose join is
    cheaper than the bound.  The caller owns admissibility: exclude a
    key or pattern only when an *admissible* upper bound on everything
    it could still contribute falls below the running k-th score (see
    ``docs/pruning.md``).
    """
    if any(not pattern_map for pattern_map in pattern_maps):
        return
    if key_filter is None:
        key_lists = [list(pattern_map.keys()) for pattern_map in pattern_maps]
    else:
        key_lists = []
        for i, pattern_map in enumerate(pattern_maps):
            keys = []
            for key in pattern_map:
                if key_filter(i, key):
                    keys.append(key)
                else:
                    stats.prefixes_skipped += 1
            if not keys:
                return
            key_lists.append(keys)
    if form_tree is None:
        form_tree = store.pairs_checker()
    for key_combo in product(*key_lists):
        if pattern_filter is not None:
            postings = [
                pattern_maps[i][key] for i, key in enumerate(key_combo)
            ]
            total = 1
            for rows in postings:
                total *= len(rows)
            if not pattern_filter(key_combo, total):
                stats.prefixes_skipped += 1
                stats.pairs_skipped += total
                continue
            stats.patterns_checked += 1
            pair_lists = [pair_rows(rows) for rows in postings]
        else:
            stats.patterns_checked += 1
            pair_lists = [
                pair_rows(pattern_maps[i][key])
                for i, key in enumerate(key_combo)
            ]
        emitted = False
        for pair_combo in product(*pair_lists):
            stats.subtrees_enumerated += 1
            if form_tree(pair_combo):
                sink(key_combo, pair_combo)
                emitted = True
            else:
                stats.tree_check_rejections += 1
        if not emitted:
            # Possible only through tree-check rejections: by construction
            # every pattern product at a shared root joins at least one
            # path combination (Section 4.2's non-emptiness argument).
            stats.empty_patterns += 1


def join_pattern_roots(
    store: PostingStore,
    root_maps: Sequence[Mapping[int, Sequence]],
    scoring: ScoringFunction,
    keep_subtrees: bool,
    stats: SearchStats,
    words: Optional[Sequence[str]] = None,
):
    """Evaluate one candidate tree pattern by joining paths at shared roots.

    ``root_maps[i]`` maps roots to keyword i's postings *with this
    pattern's i-th path pattern* (i.e. ``Roots(w_i, P_i)`` from the
    pattern-first index).  Returns ``(aggregate, trees, roots)`` where
    ``aggregate`` is ``None`` when the pattern is empty and ``trees``
    holds lazy :class:`~repro.search.result.KeptCombo` subtrees.  This is
    the inner join of Algorithm 2 (lines 5-8), also reused by
    LINEARENUM-TOPK's exact re-scoring step.  ``words`` are the query's
    keywords, in ``root_maps`` order (``None``: box every path).
    """
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
    trees: List[KeptCombo] = []
    form_tree = store.pairs_checker(words)
    score = pair_scorer(store, scoring, words)
    for root in sorted(roots):
        pair_lists = [pair_rows(root_map[root]) for root_map in root_maps]
        for pair_combo in product(*pair_lists):
            stats.subtrees_enumerated += 1
            if not form_tree(pair_combo):
                stats.tree_check_rejections += 1
                continue
            aggregate.add(score(pair_combo))
            if keep_subtrees:
                trees.append(KeptCombo(store, pair_combo))
    if aggregate.count == 0:
        stats.empty_patterns += 1
        return None, [], roots
    return aggregate, trees, roots


def expand_root_topk(
    store: PostingStore,
    root,
    pattern_maps: Sequence[PatternMap],
    bounds,
    threshold,
    sink: Sink,
    stats: SearchStats,
    form_tree: Callable,
    sorted_pairs_memo: dict,
    words: Optional[Sequence[str]] = None,
) -> None:
    """Bound-driven EXPANDROOT for *individual-subtree* top-k ranking.

    Only valid when every emitted combination is ranked on its own (the
    individual-subtree queue of Section 5.3) — never when combinations
    are aggregated into pattern sums, where skipping one combination
    would corrupt a retained pattern's score.  Three pruning levels, all
    against ``threshold`` (a :class:`~repro.core.topk.TopKThreshold`):

    * a whole pattern combination is skipped when the upper bound over
      its best possible subtree falls below the k-th score
      (``prefixes_skipped``);
    * inside the path product, a partial combination is abandoned when
      its exact partial sums plus the remaining leaves' extreme sums
      cannot reach the k-th score (``pairs_skipped`` counts the product
      of the remaining list lengths);
    * the innermost leaf is iterated in bound-decreasing similarity
      order (cached per leaf in ``sorted_pairs_memo``) — descending sim
      for a positive similarity exponent, ascending for a negative one —
      so the first pair whose bound fails ends the whole suffix run
      (``pairs_skipped`` counts the rest of the run).

    While the queue is not yet full nothing can be pruned, and the plain
    product loop runs with zero bound overhead.  ``bounds`` is the
    query's :class:`~repro.search.bounds.QueryBounds`; ``pattern_maps``
    must be index-backed (keys are interned pattern ids); ``words`` are
    the query's keywords, as given to ``form_tree``'s
    :meth:`~repro.index.store.PostingStore.pairs_checker`.
    """
    if any(not pattern_map for pattern_map in pattern_maps):
        return
    m = len(pattern_maps)
    last = m - 1
    sizes, prs = store.path_columns(words)
    score_upper = bounds.score_upper
    admits = threshold.admits
    key_lists = [list(pattern_map.keys()) for pattern_map in pattern_maps]
    for key_combo in product(*key_lists):
        leaves = [pattern_maps[i][key] for i, key in enumerate(key_combo)]
        lens = [len(leaf) for leaf in leaves]
        if not threshold.is_active:
            # Queue not full yet: enumerate exactly like expand_root.
            stats.patterns_checked += 1
            emitted = False
            for pair_combo in product(*[pair_rows(leaf) for leaf in leaves]):
                stats.subtrees_enumerated += 1
                if form_tree(pair_combo):
                    sink(key_combo, pair_combo)
                    emitted = True
                else:
                    stats.tree_check_rejections += 1
            if not emitted:
                stats.empty_patterns += 1
            continue
        leaf_bounds = bounds.leaf_bounds(key_combo, root)
        total = 1
        for n in lens:
            total *= n
        if not admits(bounds.combo_upper(leaf_bounds)):
            stats.prefixes_skipped += 1
            stats.pairs_skipped += total
            continue
        stats.patterns_checked += 1
        pair_lists = [pair_rows(leaf) for leaf in leaves]
        # Per-level extreme sums of the *remaining* leaves (suffixes), and
        # remaining-product sizes for the pairs_skipped accounting.
        suffix_size = [0] * (m + 1)
        suffix_pr = [0.0] * (m + 1)
        suffix_sim = [0.0] * (m + 1)
        remaining = [1] * (m + 1)
        for j in range(last, -1, -1):
            pick_size, pick_pr, pick_sim = bounds.picked(leaf_bounds[j])
            suffix_size[j] = suffix_size[j + 1] + pick_size
            suffix_pr[j] = suffix_pr[j + 1] + pick_pr
            suffix_sim[j] = suffix_sim[j + 1] + pick_sim
            remaining[j] = remaining[j + 1] * lens[j]
        inner_key = id(leaves[last])
        inner = sorted_pairs_memo.get(inner_key)
        if inner is None:
            # Bound-decreasing order: the run-break below requires the
            # score bound to be monotone non-increasing along the run,
            # so the sort direction follows the similarity exponent's
            # sign (with z3 == 0 the bound ignores sim; either order is
            # monotone).
            descending = bounds.scoring.z3 >= 0
            inner = sorted(
                pair_lists[last],
                key=(lambda pair: -pair[1]) if descending
                else (lambda pair: pair[1]),
            )
            sorted_pairs_memo[inner_key] = inner
        emitted = False
        last_size = suffix_size[last]
        last_pr = suffix_pr[last]

        def descend(depth, size, pr, sim, chosen) -> None:
            nonlocal emitted
            if depth == last:
                n = len(inner)
                for index, pair in enumerate(inner):
                    if not admits(
                        score_upper(size + last_size, pr + last_pr, sim + pair[1])
                    ):
                        # Sorted by sim descending: every later pair's
                        # bound is no larger — end the run.
                        stats.pairs_skipped += n - index
                        return
                    stats.subtrees_enumerated += 1
                    pair_combo = chosen + (pair,)
                    if form_tree(pair_combo):
                        sink(key_combo, pair_combo)
                        emitted = True
                    else:
                        stats.tree_check_rejections += 1
                return
            next_depth = depth + 1
            tail_size = suffix_size[next_depth]
            tail_pr = suffix_pr[next_depth]
            tail_sim = suffix_sim[next_depth]
            tail_remaining = remaining[next_depth]
            for pair in pair_lists[depth]:
                path_id, pair_sim = pair
                new_size = size + sizes[path_id]
                new_pr = pr + prs[path_id]
                new_sim = sim + pair_sim
                if not admits(
                    score_upper(
                        new_size + tail_size,
                        new_pr + tail_pr,
                        new_sim + tail_sim,
                    )
                ):
                    stats.pairs_skipped += tail_remaining
                    continue
                descend(next_depth, new_size, new_pr, new_sim, chosen + (pair,))

        descend(0, 0, 0.0, 0.0, ())
        if not emitted:
            stats.empty_patterns += 1


def count_root_subtrees(pattern_maps: Sequence[PatternMap]) -> int:
    """Upper bound on subtrees under one root: the path-count product.

    This is the paper's N_R contribution (Algorithm 4, line 4) — computed
    from counts alone (posting-list lengths are O(1) slice widths), so
    combinations later rejected by the tree-validity check are included,
    exactly as in the paper.
    """
    total = 1
    for pattern_map in pattern_maps:
        count = sum(len(postings) for postings in pattern_map.values())
        if count == 0:
            return 0
        total *= count
    return total

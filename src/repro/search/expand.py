"""Shared subtree-expansion loop (EXPANDROOT of Algorithm 3), id-based.

Given, for a fixed candidate root, the per-keyword ``pattern -> postings``
maps, enumerate the *pattern product* and, inside each tree pattern, the
*path product*; every path combination passing the tree-validity check is
one valid subtree.  LINEARENUM, LINEARENUM-TOPK and the baseline expand
roots (:func:`expand_root`); PATTERNENUM and LINEARENUM-TOPK's exact
re-scoring join one pattern at its roots (:func:`join_pattern_roots`);
all of them tree-check, score and aggregate through the one kernel of
:func:`join_kernel`.  The individual-subtree ranker ranks combinations
one by one instead (:func:`expand_root_topk`).

No loop touches a :class:`~repro.index.entry.PathEntry`: postings are
``(path_id, sim)`` scalar pairs — an index leaf is already that pair
tuple (:data:`~repro.index.store.Leaf`), the baseline's scratch maps
hold pair lists — read against the store's boxed path columns.  Kept
subtrees stay bare pair tuples; only returned answers wrap them, as
:class:`~repro.search.result.KeptCombo` (``bind_combos``).
"""

from __future__ import annotations

from itertools import product, repeat
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.index.entry import PathEntry, combination_score_terms
from repro.index.store import PostingStore
from repro.scoring.aggregate import RunningAggregate
from repro.scoring.components import SubtreeComponents
from repro.scoring.function import ScoringFunction
from repro.search.result import SearchStats

#: One valid subtree as the enumerators keep it: a ``(path_id, sim)``
#: pair per query keyword.
Pairs = Tuple[Tuple[int, float], ...]


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
    """``pairs -> score(T, q)`` for combinations ranked one by one: the
    sums and :meth:`~repro.scoring.function.ScoringFunction.\
subtree_scorer` closure of :func:`join_kernel`, so bit-identical to it
    and to :func:`combo_score` over the materialized entries."""
    sizes, prs, _edges, _self_invalid = store.path_columns(words)
    subtree_score = scoring.subtree_scorer()

    def score(pairs: Sequence[Tuple[int, float]]) -> float:
        size = 0
        pr = 0.0
        sim = 0.0
        for path_id, posting_sim in pairs:
            size += sizes[path_id]
            pr += prs[path_id]
            sim += posting_sim
        return subtree_score(size, pr, sim)

    return score


def join_kernel(
    store: PostingStore,
    scoring: ScoringFunction,
    words: Optional[Sequence[str]] = None,
) -> Callable:
    """The one join-and-aggregate kernel, bound to one query's columns.

    ``join(jobs, aggregates, trees, stats)`` takes ``(key, pair_lists)``
    jobs and, for every combination of a job's product, tree-checks,
    scores (Equation 3) and adds it to ``aggregates[key]`` (Equation 2)
    in one pass over its pairs.  An aggregate is created at its
    pattern's first valid combination, with its ``trees[key]`` list of
    kept pair tuples (``trees=None``: keep none).  It counts in locals,
    writes ``stats`` once, and returns the number of jobs that joined
    nothing.  The tree rule is ``pairs_checker``'s, minus its shared-root
    test (each list of a job is one index leaf at one root); the sums run
    in keyword order, so scores are bit-identical to :func:`pair_scorer`
    and to the entry pipeline (``docs/enumeration.md``).  ``words`` are
    the query's keywords (``None``: box every path).
    """
    sizes, prs, edges, self_invalid = store.path_columns(words)
    subtree_score = scoring.subtree_scorer()
    new_aggregate = scoring.running

    def join(jobs, aggregates, trees, stats) -> int:
        enumerated = rejected = empty = 0
        for key, pair_lists in jobs:
            aggregate = None
            for pairs in product(*pair_lists):
                enumerated += 1
                size = 0
                pr = 0.0
                sim = 0.0
                parent = {}
                for path_id, pair_sim in pairs:
                    if self_invalid[path_id]:
                        break
                    for child, edge in edges[path_id]:
                        if parent.setdefault(child, edge) != edge:
                            break
                    else:
                        size += sizes[path_id]
                        pr += prs[path_id]
                        sim += pair_sim
                        continue
                    break
                else:
                    value = subtree_score(size, pr, sim)
                    if aggregate is None:
                        aggregate = aggregates.get(key)
                        if aggregate is None:
                            aggregate = aggregates[key] = new_aggregate()
                            if trees is not None:
                                trees[key] = []
                        total = aggregate.total
                        count = aggregate.count
                        best = aggregate.best
                        keep = None if trees is None else trees[key].append
                    total += value
                    count += 1
                    if value > best:
                        best = value
                    if keep is not None:
                        keep(pairs)
                    continue
                rejected += 1
            if aggregate is None:
                empty += 1
            else:
                aggregate.total = total
                aggregate.count = count
                aggregate.best = best
        stats.subtrees_enumerated += enumerated
        stats.tree_check_rejections += rejected
        return empty

    return join


#: Per-keyword map from a pattern key to that keyword's postings at this
#: root.  Keys are interned PatternIds for index-backed callers and raw
#: (labels, flag) tuples for the baseline; values are ``(path_id, sim)``
#: pair sequences either way — index leaf tuples or the baseline's
#: scratch pair lists.
PatternMap = Mapping[object, Sequence[Tuple[int, float]]]


def expand_root(
    join: Callable,
    pattern_maps: Sequence[PatternMap],
    aggregates: Dict[object, RunningAggregate],
    trees: Optional[Dict[object, List[Pairs]]],
    stats: SearchStats,
    pattern_filter: Optional[Callable[[Tuple[object, ...], int], bool]] = None,
    key_filter: Optional[Callable[[int, object], bool]] = None,
) -> None:
    """Enumerate all valid subtrees under one root into ``aggregates``.

    ``pattern_maps[i]`` is keyword i's ``pattern -> postings`` map at the
    root; each pattern key combination is one job of ``join`` (the
    query's :func:`join_kernel`), aggregated into ``aggregates`` and kept
    in ``trees``.  Every aggregated combination is a tree (the check the
    paper's pseudo-code leaves implicit); a pattern combination with no
    tree counts in ``stats.empty_patterns``.

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
    cheaper than the bound.  The filter may drop ``aggregates`` entries
    between jobs.  The caller owns admissibility: exclude a key or
    pattern only when an *admissible* upper bound on everything it could
    still contribute falls below the running k-th score (see
    ``docs/pruning.md``).
    """
    for pattern_map in pattern_maps:
        if not pattern_map:
            return
    if key_filter is None:
        key_lists = pattern_maps
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
    # Keys and their leaves crossed in lockstep: the same product order.
    leaf_lists = [
        [pattern_map[key] for key in keys]
        for pattern_map, keys in zip(pattern_maps, key_lists)
    ]
    # Never materialized: a root's pattern product can be p^m long.
    jobs = zip(product(*key_lists), product(*leaf_lists))
    if pattern_filter is None:
        checked = 1
        for keys in key_lists:
            checked *= len(keys)
    else:
        admitted = []
        for key_combo, pair_lists in jobs:
            total = 1
            for rows in pair_lists:
                total *= len(rows)
            if pattern_filter(key_combo, total):
                admitted.append((key_combo, pair_lists))
            else:
                stats.prefixes_skipped += 1
                stats.pairs_skipped += total
        jobs = admitted
        checked = len(admitted)
    stats.patterns_checked += checked
    # Possible only through tree-check rejections: by construction every
    # pattern product at a shared root joins at least one path
    # combination (Section 4.2's non-emptiness argument).
    stats.empty_patterns += join(jobs, aggregates, trees, stats)


def join_pattern_roots(
    join: Callable,
    key: object,
    root_maps: Sequence[Mapping[int, Sequence]],
    roots: Sequence[int],
    keep_subtrees: bool,
    stats: SearchStats,
) -> Tuple[Optional[RunningAggregate], List[Pairs]]:
    """Evaluate tree pattern ``key`` by joining its paths at ``roots``.

    ``root_maps[i]`` is ``Roots(w_i, P_i)`` (pattern-first index) and
    holds every root of ``roots``.  Returns ``(aggregate, kept pairs)``,
    ``(None, [])`` when no combination is a tree (an empty pattern).  The
    inner join of Algorithm 2 (lines 5-8), also LINEARENUM-TOPK's exact
    re-scoring step; ``join`` is the query's :func:`join_kernel`.
    """
    aggregates: Dict[object, RunningAggregate] = {}
    trees: Dict[object, List[Pairs]] = {}
    per_root = zip(*[map(leaves.__getitem__, roots) for leaves in root_maps])
    join(
        zip(repeat(key), per_root), aggregates,
        trees if keep_subtrees else None, stats,
    )
    aggregate = aggregates.get(key)
    if aggregate is None:
        stats.empty_patterns += 1
    return aggregate, trees.get(key, [])


def expand_root_topk(
    store: PostingStore,
    root,
    pattern_maps: Sequence[PatternMap],
    bounds,
    threshold,
    sink: Callable[[Tuple[object, ...], Pairs], None],
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
    product loop runs with zero bound overhead; with ``bounds=None``
    (an unpruned ranking) it always runs.  ``bounds`` is the
    query's :class:`~repro.search.bounds.QueryBounds`; ``pattern_maps``
    must be index-backed (keys are interned pattern ids); ``words`` are
    the query's keywords, as given to ``form_tree``'s
    :meth:`~repro.index.store.PostingStore.pairs_checker`.
    """
    if any(not pattern_map for pattern_map in pattern_maps):
        return
    m = len(pattern_maps)
    last = m - 1
    sizes, prs, _edges, _self_invalid = store.path_columns(words)
    admits = threshold.admits
    key_lists = [list(pattern_map.keys()) for pattern_map in pattern_maps]
    for key_combo in product(*key_lists):
        leaves = [pattern_maps[i][key] for i, key in enumerate(key_combo)]
        lens = [len(leaf) for leaf in leaves]
        if bounds is None or not threshold.is_active:
            # Queue not full yet: enumerate exactly like expand_root.
            stats.patterns_checked += 1
            emitted = False
            for pair_combo in product(*leaves):
                stats.subtrees_enumerated += 1
                if form_tree(pair_combo):
                    sink(key_combo, pair_combo)
                    emitted = True
                else:
                    stats.tree_check_rejections += 1
            if not emitted:
                stats.empty_patterns += 1
            continue
        score_upper = bounds.score_upper
        leaf_bounds = bounds.leaf_bounds(key_combo, root)
        total = 1
        for n in lens:
            total *= n
        if not admits(bounds.combo_upper(leaf_bounds)):
            stats.prefixes_skipped += 1
            stats.pairs_skipped += total
            continue
        stats.patterns_checked += 1
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
                leaves[last],
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
            for pair in leaves[depth]:
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
    from counts alone (a leaf's length is O(1)), so
    combinations later rejected by the tree-validity check are included,
    exactly as in the paper.
    """
    total = 1
    for pattern_map in pattern_maps:
        count = 0
        for postings in pattern_map.values():
            count += len(postings)
        if count == 0:
            return 0
        total *= count
    return total

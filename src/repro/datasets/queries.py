"""Query workload generation (Section 5 "Queries").

The paper evaluates 500 queries per dataset — 50 for each keyword count
from 1 to 10 — sampled from Bing's log (Wiki) or constructed from the
dataset's vocabulary (IMDB).  We mirror the IMDB recipe for both datasets,
mixing two kinds of queries:

* **answerable** queries: keywords sampled from the words reachable from a
  single root within ``d`` hops, guaranteeing at least one valid subtree
  (real query logs are answer-biased in the same way);
* **random** queries: frequency-weighted draws from the whole vocabulary
  (some come back empty, as in any log).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.errors import QueryError
from repro.index.builder import PathIndexes

Query = Tuple[str, ...]


@dataclass
class WorkloadConfig:
    """Knobs for :func:`generate_workload`."""

    queries_per_size: int = 10
    min_keywords: int = 1
    max_keywords: int = 10
    answerable_fraction: float = 0.8
    seed: int = 0


def words_reachable_from(
    indexes: PathIndexes, root: int
) -> List[str]:
    """All keywords some path from ``root`` reaches within the index's d.

    Read straight off the root-first index: ``w`` is reachable from ``r``
    iff ``r`` is in ``Roots(w)``.  (A linear scan over words; workload
    generation is offline.)
    """
    found = []
    for word in indexes.root_first.words():
        if indexes.root_first.path_count(word, root) > 0:
            found.append(word)
    return sorted(found)


def query_has_answer(indexes: PathIndexes, words: Query) -> bool:
    """Whether at least one *valid subtree* exists for ``words``.

    Keywords all being reachable from one root is necessary but not
    sufficient: every path combination at every shared root can still fail
    the tree-validity check (conflicting parents).  This verifier expands
    candidate roots with an early exit on the first valid combination,
    checking ``(path_id, sim)`` pair combos with the store's
    :meth:`~repro.index.store.PostingStore.pairs_checker` (the rule of
    :func:`~repro.index.entry.entries_form_tree`, without materializing
    a single entry).
    """
    from itertools import product

    root_maps = [indexes.root_first.roots(word) for word in words]
    if any(not root_map for root_map in root_maps):
        return False
    form_tree = indexes.store.pairs_checker(words)
    smallest = min(root_maps, key=len)
    for root in smallest:
        if not all(root in root_map for root_map in root_maps):
            continue
        pair_lists = [
            [pair for leaf in root_map[root].values() for pair in leaf]
            for root_map in root_maps
        ]
        for combo in product(*pair_lists):
            if form_tree(combo):
                return True
    return False


def sample_answerable_query(
    indexes: PathIndexes,
    num_keywords: int,
    rng: random.Random,
    max_attempts: int = 200,
) -> Optional[Query]:
    """A query with >= 1 valid subtree: all keywords reachable from one
    root, then verified by :func:`query_has_answer`."""
    num_nodes = indexes.graph.num_nodes
    if num_nodes == 0:
        return None
    for _ in range(max_attempts):
        root = rng.randrange(num_nodes)
        pool = words_reachable_from(indexes, root)
        if len(pool) < num_keywords:
            continue
        query = tuple(rng.sample(pool, num_keywords))
        if query_has_answer(indexes, indexes.resolve_query(query)):
            return query
    return None


def sample_random_query(
    indexes: PathIndexes,
    num_keywords: int,
    rng: random.Random,
) -> Optional[Query]:
    """Frequency-weighted draw of distinct words from the vocabulary."""
    weighted: List[str] = []
    for word in indexes.root_first.words():
        weighted.append(word)
    if len(weighted) < num_keywords:
        return None
    weights = [
        indexes.root_first.num_entries(word) for word in weighted
    ]
    chosen: Set[str] = set()
    attempts = 0
    while len(chosen) < num_keywords and attempts < 50 * num_keywords:
        chosen.add(rng.choices(weighted, weights=weights, k=1)[0])
        attempts += 1
    if len(chosen) < num_keywords:
        return None
    return tuple(sorted(chosen))


def generate_workload(
    indexes: PathIndexes,
    config: WorkloadConfig = WorkloadConfig(),
) -> List[Query]:
    """The experiment workload: queries_per_size for each keyword count."""
    if config.min_keywords < 1 or config.max_keywords < config.min_keywords:
        raise QueryError(
            f"bad keyword range [{config.min_keywords}, {config.max_keywords}]"
        )
    rng = random.Random(config.seed)
    queries: List[Query] = []
    for size in range(config.min_keywords, config.max_keywords + 1):
        produced = 0
        attempts = 0
        while produced < config.queries_per_size and attempts < 50 * (
            config.queries_per_size + 1
        ):
            attempts += 1
            if rng.random() < config.answerable_fraction:
                query = sample_answerable_query(indexes, size, rng)
            else:
                query = sample_random_query(indexes, size, rng)
            if query is None:
                continue
            queries.append(query)
            produced += 1
    return queries


def zipfian_requests(
    queries: Sequence[Query],
    num_requests: int,
    alpha: float = 0.9,
    seed: int = 0,
) -> List[Query]:
    """An open-loop request stream with Zipfian query popularity.

    Real search traffic repeats a few hot queries constantly and the
    long tail rarely; serving benchmarks that replay each distinct query
    once overstate cold-path cost and understate cache value.  Draws
    ``num_requests`` from ``queries`` with popularity ``1/(rank+1)^alpha``
    (rank = position in ``queries``), seeded for reproducibility.
    """
    from repro.datasets.synthetic import zipf_index

    if not queries:
        raise QueryError("zipfian_requests needs a non-empty query pool")
    rng = random.Random(seed)
    return [
        queries[zipf_index(rng, len(queries), alpha)]
        for _ in range(num_requests)
    ]


def filter_answerable(
    indexes: PathIndexes, queries: Sequence[Query]
) -> List[Query]:
    """Queries whose candidate-root intersection is non-empty.

    Cheap screen (root-set intersection only) used by experiments that need
    non-trivial work per query without a full enumeration.
    """
    kept = []
    for query in queries:
        words = indexes.resolve_query(query)
        roots = None
        for word in words:
            word_roots = set(indexes.root_first.roots(word))
            roots = word_roots if roots is None else roots & word_roots
            if not roots:
                break
        if roots:
            kept.append(query)
    return kept

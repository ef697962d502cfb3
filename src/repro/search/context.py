"""Shared per-query enumeration state for the id-based search loops.

Every search algorithm needs the same per-query setup before its hot loop
can run: the resolved keywords, the per-word root-first posting maps, the
candidate-root intersection, the root-type partition, and (for
PATTERNENUM) the viable-type intersection from the pattern-first index.
Before this refactor each algorithm re-derived all of it; the engine's
``coverage`` call, for example, resolved the query and intersected the
root sets twice for one user request.

:class:`EnumerationContext` computes each piece lazily, at most once, and
is shared across however many algorithms run for one query.  It also
carries the backing :class:`~repro.index.store.PostingStore`, whose
boxed path columns the join kernel reads for tree-validity and scoring
— path entries are never materialized during enumeration (see
``docs/enumeration.md``).

The baseline works over paths discovered online by backward walks rather
than over the index; it builds its context with :meth:`from_root_maps`
around a query-local scratch store, so all four algorithms drive the
identical id-based loop in :mod:`repro.search.expand`.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.errors import SearchError
from repro.core.types import NodeId, PatternId, TypeId
from repro.index.builder import PathIndexes
from repro.index.store import EMPTY_MAP, PostingStore
from repro.search.bounds import QueryBounds

#: One keyword's postings at one root: pattern key -> ``(path_id, sim)``
#: pairs (an index leaf tuple or, for the baseline's scratch maps, a
#: plain list of pairs).  A root the keyword misses reads the read-only
#: :data:`~repro.index.store.EMPTY_MAP`.
RootPatternMap = Mapping[object, Sequence]


class EnumerationContext:
    """Lazily-computed per-query state shared by all search algorithms.

    Also shared *across* queries by the
    :class:`~repro.search.service.SearchService` fragment cache (keyed by
    the resolved keyword tuple, against one store snapshot).  Concurrent
    readers are safe without locks: every memoized field is computed from
    pinned inputs and idempotent, so the worst race is two threads doing
    the same computation and one winning the (GIL-atomic) assignment.
    """

    __slots__ = (
        "indexes",
        "words",
        "store",
        "_root_maps",
        "_candidates",
        "_by_type",
        "_subtree_counts",
        "_viable_types",
        "_bounds",
        "_keep_type",
    )

    def __init__(
        self,
        indexes: PathIndexes,
        query,
        candidate_roots: Optional[List[NodeId]] = None,
    ) -> None:
        """Fresh per-query state for ``query`` against ``indexes``.

        ``candidate_roots`` (sorted) may be supplied when the caller
        already knows the per-word root-set intersection — the
        :class:`~repro.search.service.SearchService` fragment cache
        shares it across queries over the same keyword set, since the
        intersection depends only on the words, not their order.
        """
        self.indexes: Optional[PathIndexes] = indexes
        self.words: Tuple[str, ...] = indexes.resolve_query(query)
        self.store: PostingStore = indexes.store
        self._root_maps: Optional[List[Mapping[NodeId, RootPatternMap]]] = None
        self._candidates: Optional[List[NodeId]] = candidate_roots
        self._by_type: Optional[Dict[TypeId, List[NodeId]]] = None
        self._subtree_counts: Optional[Dict[TypeId, int]] = None
        self._viable_types: Optional[Set[TypeId]] = None
        self._bounds: Optional[tuple] = None
        self._keep_type: Optional[Callable[[TypeId], bool]] = None

    @classmethod
    def from_root_maps(
        cls,
        store: PostingStore,
        words: Tuple[str, ...],
        root_maps: List[Mapping[NodeId, RootPatternMap]],
        indexes: Optional[PathIndexes] = None,
        candidate_roots: Optional[List[NodeId]] = None,
    ) -> "EnumerationContext":
        """Wrap precomputed per-word root maps (the baseline's online walks).

        ``store`` is the scratch store the maps' path ids refer to; index
        accessors (:meth:`viable_types`) are unavailable unless ``indexes``
        is also given.  ``candidate_roots`` (sorted) may be supplied when
        the caller already intersected the per-word root sets, so the
        context does not re-derive it.
        """
        context = cls.__new__(cls)
        context.indexes = indexes
        context.words = words
        context.store = store
        context._root_maps = root_maps
        context._candidates = candidate_roots
        context._by_type = None
        context._subtree_counts = None
        context._viable_types = None
        context._bounds = None
        context._keep_type = None
        return context

    def restricted_to(
        self, keep_type: Callable[[TypeId], bool]
    ) -> "EnumerationContext":
        """This query confined to the root types ``keep_type`` accepts.

        The sub-problem a shard answers (:mod:`repro.index.shards`): the
        same store, words, root maps and bounds, with the candidate
        roots, their partition by type and the viable types cut down to
        the kept types — so every algorithm, unmodified, enumerates
        exactly the patterns rooted at those types.  The roots are
        filtered through their grouping by type, which the algorithms
        need anyway, not one call per root; the subtree counts, when
        already computed, are carried over for the kept types.
        """
        by_type = {
            root_type: roots
            for root_type, roots in self.roots_by_type(
                self.indexes.graph
            ).items()
            if keep_type(root_type)
        }
        part = EnumerationContext.from_root_maps(
            self.store,
            self.words,
            self.root_maps,
            indexes=self.indexes,
            candidate_roots=sorted(chain.from_iterable(by_type.values())),
        )
        part._by_type = by_type
        counts = self._subtree_counts
        if counts is not None:
            part._subtree_counts = {
                root_type: counts[root_type] for root_type in by_type
            }
        part._bounds = self._bounds
        part._keep_type = keep_type
        return part

    # ------------------------------------------------------------ root-first

    @property
    def root_maps(self) -> List[Mapping[NodeId, RootPatternMap]]:
        """Per-word ``root -> (pattern -> postings)`` maps, words in query
        order (``Roots(w_i)`` of the root-first index)."""
        maps = self._root_maps
        if maps is None:
            root_first = self.indexes.root_first
            maps = self._root_maps = [
                root_first.roots(word) for word in self.words
            ]
        return maps

    @property
    def candidate_roots(self) -> List[NodeId]:
        """Sorted intersection of the per-word root sets."""
        roots = self._candidates
        if roots is None:
            maps = self.root_maps
            smallest = min(maps, key=len)
            roots = self._candidates = sorted(
                root
                for root in smallest
                if all(root in root_map for root_map in maps)
            )
        return roots

    def roots_by_type(self, graph) -> Dict[TypeId, List[NodeId]]:
        """Candidate roots partitioned by node type (Section 4.2.1).

        Built fully before the (GIL-atomic) memoizing assignment — a
        concurrent reader of a shared context must never observe a
        partial partition (see the class docstring's race contract).
        """
        by_type = self._by_type
        if by_type is None:
            by_type = {}
            for root in self.candidate_roots:
                by_type.setdefault(graph.node_type(root), []).append(root)
            self._by_type = by_type
        return by_type

    def subtree_counts(self) -> Dict[TypeId, int]:
        """``N_R`` per candidate root type: ``sum_r prod_i
        |Paths(w_i, r)|`` over the type's roots (Algorithm 4, line 4) —
        the subtrees the type enumerates, from path counts alone.

        LINEARENUM-TOPK's sampling test reads it, and so does the shard
        map (:meth:`~repro.index.shards.ShardedIndexes.assign`), as its
        measure of a type's work.  Built fully before the memoizing
        assignment, like :meth:`roots_by_type`.
        """
        counts = self._subtree_counts
        if counts is None:
            num_words = len(self.words)
            path_count = self.path_count
            counts = {}
            for root_type, roots in self.roots_by_type(
                self.indexes.graph
            ).items():
                subtrees = 0
                for root in roots:
                    per_root = 1
                    for i in range(num_words):
                        per_root *= path_count(i, root)
                    subtrees += per_root
                counts[root_type] = subtrees
            self._subtree_counts = counts
        return counts

    def pattern_maps(self, root: NodeId) -> List[RootPatternMap]:
        """``pattern -> postings`` per word at one root.

        Not memoized: every enumeration loop visits each candidate root
        exactly once per query, so a per-root cache would only add dict
        traffic to the hot loop and pin the lists for the context's
        lifetime.
        """
        return [root_map.get(root, EMPTY_MAP) for root_map in self.root_maps]

    def path_count(self, word_index: int, root: NodeId) -> int:
        """``|Paths(w_i, r)|`` without enumerating (Algorithm 4, line 4)."""
        if self.indexes is not None:
            return self.indexes.root_first.path_count(
                self.words[word_index], root
            )
        pattern_map = self.root_maps[word_index].get(root, EMPTY_MAP)
        return sum(len(rows) for rows in pattern_map.values())

    # ------------------------------------------------------------- pruning

    def query_bounds(self, scoring) -> Optional[QueryBounds]:
        """Admissible score upper bounds for this query under ``scoring``.

        Built lazily from the store's aggregate bound columns and cached
        for the context's lifetime (multi-algorithm drivers share one
        bounds object per query, like the root maps).  ``None`` when
        ``scoring`` falls outside the bounded class — callers then run
        unpruned.
        """
        cached = self._bounds
        if cached is not None and cached[0] is scoring:
            return cached[1]
        bounds = QueryBounds.create(self.store, scoring, self.words)
        self._bounds = (scoring, bounds)
        return bounds

    def root_upper_bound(self, root: NodeId, scoring) -> float:
        """Upper bound on any pattern's score confined to subtrees at
        ``root`` (and on any single subtree there, under MAX).

        Convenience wrapper over :class:`~repro.search.bounds.QueryBounds`
        for explain tooling and tests; the hot loops use the bounds
        object directly.  ``inf`` when bounds are unavailable.
        """
        bounds = self.query_bounds(scoring)
        if bounds is None:
            return math.inf
        term = bounds.root_term(root)
        if term is None:
            return 0.0
        count, combo_upper = term
        return bounds._finish(count, count * combo_upper, combo_upper)

    def prefix_upper_bound(
        self,
        pids: Sequence[PatternId],
        roots: Sequence[NodeId],
        scoring,
    ) -> float:
        """Upper bound over all patterns completing the path-pattern
        prefix ``pids`` with root set within ``roots`` (``inf`` when
        bounds are unavailable)."""
        bounds = self.query_bounds(scoring)
        if bounds is None:
            return math.inf
        return bounds.prefix_upper(pids, len(pids), roots)

    # --------------------------------------------------------- pattern-first

    def viable_types(self) -> Set[TypeId]:
        """Root types reaching *all* keywords (PATTERNENUM's outer loop).

        Equivalent to the paper's loop over every type: a type missing for
        some keyword can only yield empty patterns.
        """
        types = self._viable_types
        if types is None:
            pattern_first = self.indexes.pattern_first
            types = set()
            for i, word in enumerate(self.words):
                word_types = pattern_first.root_types(word)
                types = word_types if i == 0 else types & word_types
                if not types:
                    break
            if self._keep_type is not None:
                types = {t for t in types if self._keep_type(t)}
            self._viable_types = types
        return types


def ensure_context(
    indexes: PathIndexes, query, context: Optional[EnumerationContext]
) -> EnumerationContext:
    """The caller-supplied context, or a fresh one for ``query``.

    Algorithms accept an optional shared context so multi-algorithm
    drivers (the engine facade, ``mixed_search``, ``coverage``) pay the
    per-query setup once; direct calls build their own.

    A supplied context is sanity-checked: it must have been built for the
    same ``indexes`` (its path ids are meaningless against any other
    store) and resolve to the same keywords — resolution is cheap
    (tokenize/stem) next to any search, and both mismatches would
    otherwise return silently wrong results for the query the caller
    actually asked.
    """
    if context is not None:
        if context.indexes is not indexes:
            raise SearchError(
                "shared EnumerationContext was built for a different index"
            )
        words = tuple(indexes.resolve_query(query))
        if words != context.words:
            raise SearchError(
                f"shared EnumerationContext was built for {context.words!r}, "
                f"not {words!r}"
            )
        return context
    return EnumerationContext(indexes, query)

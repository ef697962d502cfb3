"""Index construction — Algorithm 1 of the paper.

For each node ``r`` and each simple path ``p`` from ``r`` with at most
``d`` nodes, every word contained at the path's endpoint (node text or node
type) yields a node-matched posting, and every word contained in the path's
final attribute type yields an edge-matched posting.  The physical path is
interned **once** into the shared columnar
:class:`~repro.index.store.PostingStore`; the pattern-first and root-first
indexes are views over that single store, so nothing is stored twice.

Score terms (path size, matched node's PageRank, keyword similarity) are
precomputed here and stored with the posting, as Section 3 prescribes —
the path-level terms (size, PageRank) live in the path columns, the
word-level term (similarity) with each posting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import PathIndexError, QueryError
from repro.core.types import Keyword
from repro.index.interner import PatternInterner
from repro.index.store import PostingStore, StoreSnapshot
from repro.index.lexicon import GraphLexicon
from repro.index.path_enum import interleaved_labels, iter_paths_from
from repro.index.pattern_first import PatternFirstIndex
from repro.index.root_first import RootFirstIndex
from repro.kg.graph import KnowledgeGraph
from repro.kg.pagerank import pagerank
from repro.kg.synonyms import SynonymTable
from repro.kg.text import DEFAULT_NORMALIZER, TextNormalizer

DEFAULT_HEIGHT = 3


class TermResolutionCache:
    """Version-guarded cache of query -> resolved keyword tuples.

    Keyword resolution (tokenize, stem, synonym-canonicalize against the
    index vocabulary) is pure given the store version — the vocabulary
    only changes when postings are added, which bumps
    :attr:`~repro.index.store.PostingStore.version`.  Before this cache
    only the stemmer's ``lru_cache`` memoized anything; the resolution
    above it was recomputed on every search, every shared-context sanity
    check, and every relaxation probe.  One entry per distinct query
    text, tagged with the version it was resolved against; a stale entry
    is recomputed in place.  Bounded FIFO; plain dict operations are
    GIL-atomic, so concurrent readers at worst duplicate a cheap
    resolution (counters are best-effort under races).
    """

    __slots__ = ("max_entries", "hits", "misses", "_data")

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._data: Dict[object, Tuple[int, Tuple[Keyword, ...]]] = {}

    def get(self, query, version: int) -> Optional[Tuple[Keyword, ...]]:
        slot = self._data.get(query)
        if slot is not None and slot[0] == version:
            self.hits += 1
            return slot[1]
        self.misses += 1
        return None

    def put(self, query, version: int, words: Tuple[Keyword, ...]) -> None:
        data = self._data
        if len(data) >= self.max_entries and query not in data:
            try:
                del data[next(iter(data))]
            except (StopIteration, KeyError):  # pragma: no cover - racy
                pass
        data[query] = (version, words)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class ResolvedQuery(tuple):
    """A query already normalized against an index.

    Normalization is not idempotent (Porter stemming re-applied corrupts
    words: "databas" -> "databa"), so callers that re-issue subsets of an
    already-resolved query — e.g. :mod:`repro.search.relaxation` — wrap
    them in this marker; :meth:`PathIndexes.resolve_query` passes it
    through untouched.
    """

    __slots__ = ()


@dataclass
class PathIndexes:
    """Everything a search algorithm needs: graph, both indexes, metadata."""

    graph: KnowledgeGraph
    d: int
    normalizer: TextNormalizer
    lexicon: GraphLexicon
    interner: PatternInterner
    pattern_first: PatternFirstIndex
    root_first: RootFirstIndex
    pagerank_scores: List[float]
    build_seconds: float = 0.0
    synonyms: Optional[SynonymTable] = None
    store: Optional[PostingStore] = None
    resolution_cache: Optional[TermResolutionCache] = None
    #: Wall-clock seconds the deserializer spent producing this bundle
    #: (0.0 for freshly built bundles); set by ``load_indexes``.
    load_seconds: float = 0.0
    _notes: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Both views always share one store; default to the views' store so
        # hand-constructed bundles keep working.
        if self.store is None:
            self.store = self.root_first.store
        if self.resolution_cache is None:
            self.resolution_cache = TermResolutionCache()

    def resolve_query(self, query) -> Tuple[Keyword, ...]:
        """Parse and canonicalize a query against this index's vocabulary.

        Words are normalized with the index's own normalizer; a word absent
        from the index is replaced by its synonym-canonical form when that
        form *is* present (Section 3's synonym handling).  Unknown words are
        kept as-is — they simply retrieve nothing, which correctly yields an
        empty answer set.  A :class:`ResolvedQuery` is returned unchanged
        (normalization is not idempotent).

        Results are memoized in :attr:`resolution_cache` keyed by the
        query value and the store version (the vocabulary, and with it
        synonym canonicalization, can change under incremental updates).
        """
        if isinstance(query, ResolvedQuery):
            return tuple(query)
        cache = self.resolution_cache
        cacheable = cache is not None and isinstance(query, (str, tuple))
        if cacheable:
            version = self.store.version
            words = cache.get(query, version)
            if words is not None:
                return words
        words = self._resolve_uncached(query)
        # Only cache if the store did not move during resolution: a
        # racing writer could have changed the vocabulary mid-resolution,
        # and tagging that result with the pre-update version would serve
        # a stale resolution to version-pinned snapshots.  Skipping the
        # put just costs one recomputation.
        if cacheable and self.store.version == version:
            cache.put(query, version, words)
        return words

    def _resolve_uncached(self, query) -> Tuple[Keyword, ...]:
        """The raw resolution pipeline behind :meth:`resolve_query`."""
        words = self.normalizer.parse_query(query)
        if self.synonyms is None:
            return words
        resolved = []
        for word in words:
            if not self.root_first.has_word(word):
                canonical = self.synonyms.canonical(word)
                if self.root_first.has_word(canonical):
                    word = canonical
            resolved.append(word)
        # Canonicalization may collapse two query words into one.
        seen = set()
        unique = [w for w in resolved if not (w in seen or seen.add(w))]
        if not unique:
            raise QueryError(f"query {query!r} is empty after normalization")
        return tuple(unique)

    def snapshot(self) -> "PathIndexes":
        """A version-pinned, read-only view of this bundle for serving.

        Returns a :class:`PathIndexes` whose two index views are bound to
        a :class:`~repro.index.store.StoreSnapshot` pinned to the store's
        current version: concurrent readers keep a coherent vocabulary,
        grouping, and bound columns while incremental updates mutate the
        live bundle (see ``docs/serving.md``).  Graph, interner, PageRank
        vector, and the resolution cache are shared — all are append-only
        for existing ids, so pinned path ids keep resolving identically.

        Cheap (reference captures under the store lock); take a fresh one
        whenever ``store.version`` has moved.  Snapshotting a snapshot
        returns it unchanged.
        """
        store = self.store
        if isinstance(store, StoreSnapshot):
            return self
        with store.lock:
            store.finalize()
            snap_store = StoreSnapshot(store)
            pattern_first = PatternFirstIndex(self.interner, snap_store)
            root_first = RootFirstIndex(self.interner, snap_store)
            # Adopt the live view's grouping instead of starting an
            # empty one: the per-word root-type groupings built so far
            # for this version carry over to every snapshot of it.
            # Bringing the live view up to date here is the same work
            # the next live query would do anyway, and under the store
            # lock it is race-free and guaranteed to land on the pinned
            # version.
            live_pf = self.pattern_first
            live_pf.finalize()
            pattern_first._data = live_pf._data
            pattern_first._by_root_type = live_pf._by_root_type
            pattern_first._built_version = snap_store.version
            root_first.finalize()  # reference assignment, pinned store
        return replace(
            self,
            pattern_first=pattern_first,
            root_first=root_first,
            store=snap_store,
        )

    @property
    def is_snapshot(self) -> bool:
        """Whether this bundle is a read-only :meth:`snapshot` view."""
        return isinstance(self.store, StoreSnapshot)

    @property
    def num_entries(self) -> int:
        """Stored path postings (per index; both view the same store)."""
        return self.root_first.num_entries()

    @property
    def num_unique_paths(self) -> int:
        """Distinct physical paths interned in the shared store."""
        return self.store.num_paths

    @property
    def num_patterns(self) -> int:
        return len(self.interner)


def build_indexes(
    graph: KnowledgeGraph,
    d: int = DEFAULT_HEIGHT,
    normalizer: Optional[TextNormalizer] = None,
    synonyms: Optional[SynonymTable] = None,
    pagerank_scores: Optional[Sequence[float]] = None,
    lexicon: Optional[GraphLexicon] = None,
    roots: Optional[Sequence[int]] = None,
) -> PathIndexes:
    """Run Algorithm 1: build both path indexes for height threshold ``d``.

    Parameters
    ----------
    graph:
        The knowledge graph.
    d:
        Height threshold: only paths with at most ``d`` nodes are stored.
    normalizer, synonyms:
        Text-processing configuration shared with query parsing.
    pagerank_scores:
        Node importance scores; computed with the paper's PageRank settings
        when omitted.  Pass :func:`repro.kg.pagerank.uniform_scores` to
        reproduce the paper's worked example.
    lexicon:
        A prebuilt :class:`GraphLexicon` (reused across d values in the
        Figure 6 experiment); built on demand when omitted.
    roots:
        Restrict path enumeration to these roots (testing hook).
    """
    if d < 1:
        raise PathIndexError(f"height threshold d must be >= 1, got {d}")
    started = time.perf_counter()
    if normalizer is None:
        normalizer = DEFAULT_NORMALIZER
    if lexicon is None:
        lexicon = GraphLexicon(graph, normalizer, synonyms)
    if pagerank_scores is None:
        pagerank_scores = pagerank(graph)
    elif len(pagerank_scores) != graph.num_nodes:
        raise PathIndexError(
            f"pagerank_scores has {len(pagerank_scores)} entries for a "
            f"{graph.num_nodes}-node graph"
        )

    interner = PatternInterner()
    store = PostingStore(interner)
    pattern_first = PatternFirstIndex(interner, store)
    root_first = RootFirstIndex(interner, store)

    root_iter = graph.nodes() if roots is None else roots
    for root in root_iter:
        for nodes, attrs in iter_paths_from(graph, root, d):
            labels = interleaved_labels(graph, nodes, attrs)
            endpoint = nodes[-1]
            node_word_sims = lexicon.node_matches(endpoint)
            if node_word_sims:
                pid = interner.intern(labels, ends_at_edge=False)
                pr = pagerank_scores[endpoint]
                path_id = store.append_path(nodes, attrs, False, pid, pr)
                for word, sim in node_word_sims:
                    store.add_posting(word, path_id, sim)
            if attrs:
                attr_word_sims = lexicon.attr_matches(attrs[-1])
                if attr_word_sims:
                    pid = interner.intern(labels[:-1], ends_at_edge=True)
                    pr = pagerank_scores[nodes[-2]]
                    path_id = store.append_path(nodes, attrs, True, pid, pr)
                    for word, sim in attr_word_sims:
                        store.add_posting(word, path_id, sim)

    pattern_first.finalize()
    root_first.finalize()
    return PathIndexes(
        graph=graph,
        d=d,
        normalizer=normalizer,
        lexicon=lexicon,
        interner=interner,
        pattern_first=pattern_first,
        root_first=root_first,
        pagerank_scores=list(pagerank_scores),
        build_seconds=time.perf_counter() - started,
        synonyms=synonyms,
        store=store,
    )

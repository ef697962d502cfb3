"""The shared columnar posting store behind both path indexes.

Algorithm 1 inserts every root-to-keyword path into *two* indexes
(pattern-first and root-first), and a path matched by several keywords
yields one posting per keyword.  Materializing each posting as a
:class:`~repro.index.entry.PathEntry` inside triply-nested dicts makes
construction the dominant memory cost (the paper's Figure 6 shows index
building outweighing querying by orders of magnitude).

:class:`PostingStore` fixes the layout instead of the algorithms:

* each distinct **physical path** ``(nodes, attrs, matched_on_edge)`` is
  interned exactly once into flat columnar arrays (node chains in one
  ``array`` with an offsets column, plus per-path pattern id, root,
  matched-on-edge flag, and PageRank term);
* each **posting** — one ``(word, path)`` occurrence — is two scalars: the
  integer path id and the word-specific similarity term.

Both :class:`~repro.index.pattern_first.PatternFirstIndex` and
:class:`~repro.index.root_first.RootFirstIndex` are thin views over one
store; their leaf posting lists are shared :class:`PostingList` flyweights
that reconstruct :class:`PathEntry` tuples lazily (and cache them), so
count-only probes — ``|Paths(w, r)|``, ``num_entries(w)``, candidate-root
intersections — never materialize an entry at all.

A word's **finalized form** is the same thing in every store state: its
posting columns sorted by ``(pattern, root, path)`` plus its *leaf rows*
(:func:`derive_leaf_rows` — the five v3 leaf columns, see
``docs/index-format.md``).  :meth:`PostingStore.finalize` re-derives the
rows of exactly the words written to since it last ran;
:func:`decode_leaf_rows` turns a word's rows into the nested dicts the
search loops read, on the word's first touch.  A store opened from a v3
file (:mod:`repro.index.mmapstore`) starts with every word's rows in its
mapped *base*; a heap-built store is the same thing with no base.
"""

from __future__ import annotations

import threading
from array import array
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import PathIndexError
from repro.core.types import AttrId, NodeId, PatternId
from repro.index.delta import ChainColumn
from repro.index.entry import PathEntry
from repro.index.interner import PatternInterner

#: Typecodes of the columnar arrays (also the v2 on-disk encoding; see
#: ``docs/index-format.md``).  ``i`` is a 4-byte C int on every platform
#: CPython supports, capping node/pattern/path ids at 2**31 - 1.
ID_TYPECODE = "i"
OFFSET_TYPECODE = "q"
FLAG_TYPECODE = "b"
FLOAT_TYPECODE = "d"


class _Unfilled:
    """Placeholder of a ``self_invalid`` slot whose path is not boxed yet.

    Truth-testing it raises, so a hot loop that reaches a path its
    fill-by-word pass did not cover fails loudly — ``not None`` would
    read an unfilled slot as "valid" in the single-pair shortcut of
    :meth:`PostingStore.pairs_checker`.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        raise PathIndexError(
            "query columns read for a path that was never boxed"
        )


_UNFILLED = _Unfilled()


class QueryColumnMemo:
    """The append-only, path-keyed memo behind the enumeration hot loops.

    ``columns`` is the 5-tuple of parallel lists ``(roots, sizes, prs,
    edges, self_invalid)`` indexed by path id (see
    :meth:`PostingStore._query_columns`).  An entry is a pure function
    of its path id and the path columns are append-only, so a slot once
    boxed is never stale: a store mutation only means the lists may be
    too short or hold placeholders where the new paths go.  The live
    store and every :class:`StoreSnapshot` share one memo — the same
    list objects — and fill it under :attr:`lock`.

    * ``dense`` — every slot below it is boxed (raised by a full fill);
    * ``word_counts`` — word -> the posting count up to which that
      word's paths are boxed (fill by queried word).  Postings are only
      ever added, so a reader pinned at a smaller count is covered too.
    """

    __slots__ = ("columns", "dense", "word_counts", "lock")

    def __init__(self) -> None:
        self.columns: Tuple[list, list, list, list, list] = (
            [], [], [], [], []
        )
        self.dense = 0
        self.word_counts: Dict[str, int] = {}
        self.lock = threading.Lock()


class PostingList(Sequence[PathEntry]):
    """A flyweight, lazily-materialized sequence of :class:`PathEntry`.

    One leaf of the index views — the postings of one ``(word, pattern,
    root)`` triple — represented as a *slice* ``[start:stop)`` into the
    word's sorted posting columns (the paper's "sort and store paths
    sequentially in memory").  Full entries are reconstructed on first
    element access and cached, so ``len()`` and emptiness checks stay
    allocation-free.  The same object is shared by both index views.
    """

    __slots__ = (
        "_store",
        "_ids",
        "_sims",
        "_start",
        "_stop",
        "_entries",
        "_id_slice",
        "_sim_slice",
        "_pairs",
    )

    def __init__(
        self,
        store: "PostingStore",
        ids: array,
        sims: array,
        start: int,
        stop: int,
    ) -> None:
        self._store = store
        self._ids = ids
        self._sims = sims
        self._start = start
        self._stop = stop
        self._entries: Optional[List[PathEntry]] = None
        self._id_slice: Optional[array] = None
        self._sim_slice: Optional[array] = None
        self._pairs: Optional[List[Tuple[int, float]]] = None

    @property
    def path_ids(self) -> array:
        """The slice's path-id column (copied out of the word column once,
        then cached — repeated access is O(1)).

        A cached copy, not a ``memoryview``: the word columns are appended
        to by incremental maintenance, and an exported buffer would turn
        those appends into ``BufferError``s.
        """
        ids = self._id_slice
        if ids is None:
            ids = self._id_slice = self._ids[self._start:self._stop]
        return ids

    @property
    def sims(self) -> array:
        """The slice's similarity column (cached; see ``path_ids``)."""
        sims = self._sim_slice
        if sims is None:
            sims = self._sim_slice = self._sims[self._start:self._stop]
        return sims

    def pairs(self) -> List[Tuple[int, float]]:
        """The slice as ``(path_id, sim)`` scalar pairs (built once, cached).

        This is what the id-based enumeration loops iterate — two machine
        scalars per posting, no :class:`PathEntry` reconstruction.  Order
        matches :meth:`entries` element-for-element.
        """
        pairs = self._pairs
        if pairs is None:
            pairs = self._pairs = list(zip(self.path_ids, self.sims))
        return pairs

    def entries(self) -> List[PathEntry]:
        """The materialized entries (built once, then cached)."""
        if self._entries is None:
            make = self._store.make_entry
            ids = self._ids
            sims = self._sims
            self._entries = [
                make(ids[i], sims[i])
                for i in range(self._start, self._stop)
            ]
        return self._entries

    def __len__(self) -> int:
        return self._stop - self._start

    def __iter__(self) -> Iterator[PathEntry]:
        entries = self._entries  # avoid a call in the enumeration hot loop
        return iter(entries if entries is not None else self.entries())

    def __getitem__(self, index):
        entries = self._entries
        return (entries if entries is not None else self.entries())[index]

    def __eq__(self, other) -> bool:
        # Always compare by materialized entry values: path ids are only
        # meaningful within one store, so an id-level shortcut would make
        # lists from different stores (e.g. built vs loaded) compare
        # incorrectly.
        if isinstance(other, PostingList):
            return self.entries() == other.entries()
        if isinstance(other, (list, tuple)):
            return list(self.entries()) == list(other)
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(tuple(self.entries()))

    def __repr__(self) -> str:
        return f"PostingList({len(self)} postings)"


#: Per-word grouping: leaves sorted by (pattern id, root).
WordGroups = List[Tuple[PatternId, NodeId, PostingList]]

#: One word's leaf rows, in leaf (= pattern, then root) order — the five
#: v3 leaf columns restricted to the word: ``(leaf_pids, leaf_roots,
#: leaf_stops, leaf_sizes, leaf_floats)`` with one pid, root and stop
#: (exclusive end within the word's posting slice) per leaf, two sizes
#: (min, max) and four floats (PageRank min/max, similarity min/max).
LeafRows = Tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int],
                 Sequence[float]]


class LazyWordDict(dict):
    """A word-keyed dict whose values build lazily on first access.

    The per-word value (one word's view slice, bound map, ...) is
    produced by ``build(word)`` and cached in the dict itself, so the
    second access is a plain dict hit — subscripting (``d[word]``) then
    never leaves C, which is why the per-combination accessors subscript
    rather than ``get``.  Iteration, ``len``, membership, and the bulk
    accessors answer from the full vocabulary — in index word order —
    regardless of which words have been built; ``items()``/``values()``
    force every word (they are the full-scan accessors: ``groups()``,
    ``iter_entries``).
    """

    __slots__ = ("vocab", "_build")

    def __init__(
        self, vocab: Dict[str, object], build: Callable[[str], object]
    ) -> None:
        super().__init__()
        self.vocab = vocab
        self._build = build

    def __missing__(self, word):
        if word not in self.vocab:
            raise KeyError(word)
        value = self._build(word)
        dict.__setitem__(self, word, value)
        return value

    def get(self, word, default=None):
        if dict.__contains__(self, word):
            return dict.__getitem__(self, word)
        if word in self.vocab:
            return self[word]
        return default

    def __contains__(self, word) -> bool:
        return word in self.vocab

    def __iter__(self):
        return iter(self.vocab)

    def __len__(self) -> int:
        return len(self.vocab)

    def __bool__(self) -> bool:
        return bool(self.vocab)

    def keys(self):
        return self.vocab.keys()

    def items(self):
        return [(word, self[word]) for word in self.vocab]

    def values(self):
        return [self[word] for word in self.vocab]

    def __reduce__(self):
        # The build closure does not pickle; every word built does.
        return (dict, (self.items(),))


def derive_leaf_rows(store: "PostingStore", ids, sims) -> LeafRows:
    """Cut one word's *sorted* posting columns into leaf rows.

    One pass: a leaf is a maximal run of postings sharing ``(pattern,
    root)``; its row is its stop plus the min/max of its paths' size and
    PageRank term and of its postings' similarity — what
    :meth:`PostingStore.bound_columns` serves and the v3 file persists.
    """
    pids = store._pids
    roots = store._roots
    offsets = store._node_offsets
    prs = store._prs
    leaf_pids = array(ID_TYPECODE)
    leaf_roots = array(ID_TYPECODE)
    leaf_stops = array(OFFSET_TYPECODE)
    leaf_sizes = array(OFFSET_TYPECODE)
    leaf_floats = array(FLOAT_TYPECODE)
    n = len(ids)
    start = 0
    for stop in range(1, n + 1):
        path_id = ids[start]
        if stop < n and (
            pids[ids[stop]] == pids[path_id]
            and roots[ids[stop]] == roots[path_id]
        ):
            continue
        size_lo = size_hi = offsets[path_id + 1] - offsets[path_id]
        pr_lo = pr_hi = prs[path_id]
        sim_lo = sim_hi = sims[start]
        for i in range(start + 1, stop):
            other = ids[i]
            size = offsets[other + 1] - offsets[other]
            if size < size_lo:
                size_lo = size
            elif size > size_hi:
                size_hi = size
            pr = prs[other]
            if pr < pr_lo:
                pr_lo = pr
            elif pr > pr_hi:
                pr_hi = pr
            sim = sims[i]
            if sim < sim_lo:
                sim_lo = sim
            elif sim > sim_hi:
                sim_hi = sim
        leaf_pids.append(pids[path_id])
        leaf_roots.append(roots[path_id])
        leaf_stops.append(stop)
        leaf_sizes.extend((size_lo, size_hi))
        leaf_floats.extend((pr_lo, pr_hi, sim_lo, sim_hi))
        start = stop
    return leaf_pids, leaf_roots, leaf_stops, leaf_sizes, leaf_floats


def decode_leaf_rows(
    store: "PostingStore", word: str, ids, sims, rows: LeafRows, origin: str
) -> tuple:
    """One word's views from its sorted posting columns and leaf rows.

    Returns ``(pattern_leaves, root_leaves, root_counts, root_bounds,
    pattern_bounds)`` — what :meth:`PostingStore.pattern_view`,
    :meth:`~PostingStore.root_view`, :meth:`~PostingStore.root_counts`
    and :meth:`~PostingStore.bound_columns` hold under ``word``.  Rows
    come in leaf order (pattern id, then root, ascending), so every dict
    insertion order — and with it every downstream iteration, float
    aggregation, and tie-break — is the same whether the rows were just
    derived or are mapped slices of a file.  ``store`` is only threaded
    into the leaves for entry materialization (path ids are stable
    across generations, so the live store serves even old-generation
    leaves exactly).

    The rows may be a file's bytes: stops that do not rise strictly from
    0 to the word's posting count are refused, naming ``origin``.
    """
    leaf_pids, leaf_roots, leaf_stops, leaf_sizes, leaf_floats = rows
    word_pf: Dict[PatternId, Dict[NodeId, PostingList]] = {}
    rf_leaves: List[Tuple[NodeId, PatternId, PostingList]] = []
    word_counts: Dict[NodeId, int] = {}
    word_root: Dict[NodeId, tuple] = {}
    word_pat: Dict[PatternId, Dict[NodeId, tuple]] = {}
    corrupt = (
        f"corrupt leaf rows in {origin}: the leaf stops of word {word!r} "
        f"do not rise strictly from 0 to its {len(ids)} postings"
    )
    start = 0
    for j in range(len(leaf_stops)):
        stop = leaf_stops[j]
        if stop <= start:
            raise PathIndexError(corrupt)
        pid = leaf_pids[j]
        root = leaf_roots[j]
        leaf = PostingList(store, ids, sims, start, stop)
        word_pf.setdefault(pid, {})[root] = leaf
        rf_leaves.append((root, pid, leaf))
        word_counts[root] = word_counts.get(root, 0) + (stop - start)
        s = 2 * j
        f = 4 * j
        bound = (
            stop - start,
            leaf_sizes[s],
            leaf_sizes[s + 1],
            leaf_floats[f],
            leaf_floats[f + 1],
            leaf_floats[f + 2],
            leaf_floats[f + 3],
        )
        word_pat.setdefault(pid, {})[root] = bound
        merged = word_root.get(root)
        if merged is None:
            word_root[root] = bound
        else:
            word_root[root] = (
                merged[0] + bound[0],
                min(merged[1], bound[1]),
                max(merged[2], bound[2]),
                min(merged[3], bound[3]),
                max(merged[4], bound[4]),
                min(merged[5], bound[5]),
                max(merged[6], bound[6]),
            )
        start = stop
    if start != len(ids):
        raise PathIndexError(corrupt)
    word_rf: Dict[NodeId, Dict[PatternId, PostingList]] = {}
    rf_leaves.sort(key=lambda leaf: (leaf[0], leaf[1]))
    for root, pid, leaf in rf_leaves:
        word_rf.setdefault(root, {})[pid] = leaf
    return word_pf, word_rf, word_counts, word_root, word_pat


class WordRows:
    """One word's finalized form on the heap: the posting columns
    :meth:`PostingStore.finalize` sorted, their leaf rows, and the views
    decoded from them on first touch.  Never mutated once built — the
    next write to the word copies the columns and the next finalize
    replaces the object; a pinned generation keeps reading this one."""

    __slots__ = ("ids", "sims", "rows", "_views")

    def __init__(self, ids: array, sims: array, rows: LeafRows) -> None:
        self.ids = ids
        self.sims = sims
        self.rows = rows
        self._views: Optional[tuple] = None

    def views(self, store: "PostingStore", word: str) -> tuple:
        views = self._views
        if views is None:
            views = self._views = decode_leaf_rows(
                store, word, self.ids, self.sims, self.rows, "the heap"
            )
        return views


class PostingStore:
    """Columnar, deduplicated storage for all path postings.

    Building protocol (what :func:`repro.index.builder.build_indexes` and
    :mod:`repro.index.incremental` follow)::

        path_id = store.add_path(nodes, attrs, matched_on_edge, pid, pr)
        store.add_posting(word, path_id, sim)        # once per keyword

    ``add_path`` interns: re-adding an identical physical path returns the
    existing id without growing the columns.  ``finalize`` sorts the
    postings of the words written to exactly as the paper prescribes
    ("sort and store paths sequentially") and derives their leaf rows;
    the index views read the grouping via :meth:`pattern_view` /
    :meth:`root_view` / :meth:`root_counts`, decoded word by word on
    first touch.

    A store may sit on an immutable mapped *base*
    (:class:`~repro.index.mmapstore.MappedPostingStore` opens one from a
    v3 file): base columns are read in place, a write copies only the
    word it touches, and paths are interned only against those added
    past the base.  A heap-built store has no base.
    """

    #: Process-wide count of :class:`PathEntry` reconstructions across
    #: *all* stores — including short-lived query-local scratch stores
    #: whose per-instance counters are unreachable after the query.  The
    #: benchmarks' zero-materialization assertions read deltas of this.
    total_entries_materialized = 0

    def __init__(self, interner: PatternInterner) -> None:
        self.interner = interner
        # Path interning: (nodes, attrs, matched_on_edge) -> path id.
        # Built lazily — a fresh Algorithm 1 build never revisits a path
        # (see append_path), and keeping the key tuples alive would defeat
        # the columnar layout's memory win.
        self._path_ids: Optional[
            Dict[Tuple[Tuple[NodeId, ...], Tuple[AttrId, ...], bool], int]
        ] = None
        # Columnar path storage.  Path i's nodes live at
        # _nodes[_node_offsets[i]:_node_offsets[i+1]]; its attrs always
        # number one fewer than its nodes, so they share the offsets
        # column shifted by the path index: _attrs[_node_offsets[i]-i :
        # _node_offsets[i+1]-(i+1)].
        self._node_offsets = array(OFFSET_TYPECODE, [0])
        self._nodes = array(ID_TYPECODE)
        self._attrs = array(ID_TYPECODE)
        self._pids = array(ID_TYPECODE)
        self._roots = array(ID_TYPECODE)
        self._moe = array(FLAG_TYPECODE)
        self._prs = array(FLOAT_TYPECODE)
        # Per-word posting columns; insertion order until finalize() sorts
        # them (by pattern, root, then path order).
        self._posting_ids: Dict[str, array] = {}
        self._posting_sims: Dict[str, array] = {}
        # The mapped base (None for a heap-built store) and how many of
        # the paths are its: add_path interns against the rest only.
        self._base = None
        self._base_paths = 0
        # Finalized form of the words re-merged on the heap — every word
        # of a base-less store — and the words written to since
        # (insertion-ordered dict used as a set, for determinism).
        # finalize() swaps in a new _rows dict, never mutates one: the
        # view dicts of a generation resolve through the one they pinned.
        self._rows: Dict[str, WordRows] = {}
        self._pending: Dict[str, None] = {}
        #: Running count of per-word re-merges (sort + derive) done by
        #: :meth:`finalize`: a write costs the words it touched.
        self.words_remerged = 0
        self._vocab: Dict[str, object] = {}
        self.version = 0
        self._finalized_version = -1
        #: Running count of :class:`PathEntry` reconstructions through
        #: :meth:`make_entry` — the single choke point for materializing a
        #: stored posting.  Benchmarks and the zero-materialization
        #: regression tests read deltas of this.
        self.entries_materialized = 0
        # Query-time acceleration columns (see _query_columns): one
        # append-only memo, shared by reference with every snapshot.
        self._query_memo = QueryColumnMemo()
        #: Paths boxed into the query columns since this store was
        #: opened (snapshots count here too) — what a slow first read
        #: after a write or a cold open spent its time on.
        self.query_paths_boxed = 0
        #: Mutation lock for the snapshot protocol: writers that mutate a
        #: *served* store (incremental maintenance) and readers taking a
        #: :meth:`snapshot` both hold it, so a snapshot never observes a
        #: half-applied update.  The bulk build path (:mod:`builder`) runs
        #: before any concurrent serving and stays lock-free.
        self.lock = threading.Lock()
        self._install_views()

    def __getstate__(self):
        # Locks are not picklable (and a pickled store starts a new life
        # anyway); everything else round-trips — the lazy view dicts as
        # plain, fully built ones.  Normal persistence goes through
        # to_payload/from_payload — this only supports callers that
        # pickle a whole bundle (e.g. legacy/diagnostic envelopes).
        state = self.__dict__.copy()
        state["lock"] = None
        state["_query_memo"] = None  # holds a lock; re-boxed on demand
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.lock = threading.Lock()
        self._query_memo = QueryColumnMemo()
        self._install_views()

    @classmethod
    def scratch(cls, interner: Optional[PatternInterner] = None) -> "PostingStore":
        """A query-local store for online-discovered paths (the baseline).

        Columns are plain Python lists instead of typed arrays: a scratch
        store lives for a single query, so array compactness loses to the
        boxing round-trip (``append_path`` would unbox every id into the
        array only for :meth:`_query_columns` to box it right back out).
        Must never be serialized.
        """
        store = cls(interner if interner is not None else PatternInterner())
        store._node_offsets = [0]
        store._nodes = []
        store._attrs = []
        store._pids = []
        store._roots = []
        store._moe = []
        store._prs = []
        return store

    # ------------------------------------------------------------- building

    def _path_index(
        self,
    ) -> Dict[Tuple[Tuple[NodeId, ...], Tuple[AttrId, ...], bool], int]:
        """The interning map, (re)built on demand from the columns.

        Over the paths added past the mapped base only: boxing every
        base path would be O(index) heap, so re-adding a path that
        exists in the *base* is not detected.  The incremental
        maintainers (:mod:`repro.index.incremental`) only ever add paths
        that traverse a brand-new node or edge, which cannot be in the
        base; hand construction that re-adds base paths must go through
        a heap-built (or thawed) store, whose base is empty.
        """
        if self._path_ids is None:
            self._path_ids = {
                (
                    self.path_nodes(path_id),
                    self.path_attrs(path_id),
                    bool(self._moe[path_id]),
                ): path_id
                for path_id in range(self._base_paths, self.num_paths)
            }
        return self._path_ids

    def add_path(
        self,
        nodes: Tuple[NodeId, ...],
        attrs: Tuple[AttrId, ...],
        matched_on_edge: bool,
        pid: PatternId,
        pr: float,
    ) -> int:
        """Intern one physical path; returns its (possibly existing) id."""
        key = (nodes, attrs, bool(matched_on_edge))
        path_id = self._path_index().get(key)
        if path_id is not None:
            return path_id
        return self.append_path(nodes, attrs, matched_on_edge, pid, pr)

    def append_path(
        self,
        nodes: Tuple[NodeId, ...],
        attrs: Tuple[AttrId, ...],
        matched_on_edge: bool,
        pid: PatternId,
        pr: float,
    ) -> int:
        """Append a path the caller knows to be new — no intern lookup.

        Algorithm 1 enumerates each bounded simple path exactly once per
        root, so the bulk build takes this allocation-free fast path; use
        :meth:`add_path` when novelty is not guaranteed (migration, hand
        construction).
        """
        if len(attrs) != len(nodes) - 1:
            raise PathIndexError(
                f"path has {len(nodes)} nodes but {len(attrs)} attrs"
            )
        if isinstance(self._pids, memoryview):
            # First write over a mapped base: chain heap tails onto the
            # seven path columns.  Existing indices keep reading mapped
            # pages, appends go to the tails.
            self._node_offsets = ChainColumn(
                self._node_offsets, OFFSET_TYPECODE
            )
            self._nodes = ChainColumn(self._nodes, ID_TYPECODE)
            self._attrs = ChainColumn(self._attrs, ID_TYPECODE)
            self._pids = ChainColumn(self._pids, ID_TYPECODE)
            self._roots = ChainColumn(self._roots, ID_TYPECODE)
            self._moe = ChainColumn(self._moe, FLAG_TYPECODE)
            self._prs = ChainColumn(self._prs, FLOAT_TYPECODE)
        path_id = len(self._pids)
        self._nodes.extend(nodes)
        self._attrs.extend(attrs)
        self._node_offsets.append(len(self._nodes))
        self._pids.append(pid)
        self._roots.append(nodes[0])
        self._moe.append(1 if matched_on_edge else 0)
        self._prs.append(pr)
        self.version += 1
        if self._path_ids is not None:
            self._path_ids[(nodes, attrs, bool(matched_on_edge))] = path_id
        return path_id

    def add_entry(self, word: str, pid: PatternId, entry: PathEntry) -> int:
        """Convenience: intern ``entry``'s path and add its posting."""
        path_id = self.add_path(
            entry.nodes, entry.attrs, entry.matched_on_edge, pid, entry.pr
        )
        self.add_posting(word, path_id, entry.sim)
        return path_id

    def add_posting(self, word: str, path_id: int, sim: float) -> None:
        """Record one (word, path) posting with its similarity term."""
        if word in self._pending:
            ids = self._posting_ids[word]
        else:
            # First write to the word since it was last finalized.  Its
            # columns are a slice of the mapped base or the arrays a
            # generation's rows describe — never written again: one
            # O(word) heap copy, then every further append is O(1).
            self._pending[word] = None
            ids = self._posting_ids.get(word)
            if ids is None:
                ids = self._posting_ids[word] = array(ID_TYPECODE)
                self._posting_sims[word] = array(FLOAT_TYPECODE)
            else:
                ids = self._posting_ids[word] = array(
                    ID_TYPECODE, ids.tobytes()
                )
                self._posting_sims[word] = array(
                    FLOAT_TYPECODE, self._posting_sims[word].tobytes()
                )
        ids.append(path_id)
        self._posting_sims[word].append(sim)
        self.version += 1

    # ------------------------------------------------------------ finalizing

    def finalize(self) -> None:
        """Re-merge the words written to since the last finalize.

        O(delta): each pending word's columns are re-sorted and its leaf
        rows re-derived (:meth:`_remerge`) — every word after a bulk
        build, the touched ones after a write; the others keep their
        rows, mapped or heap, and whatever was decoded from them.  The
        view dicts are *replaced*, like the sorted columns: readers
        holding the previous generation (snapshots) keep a complete,
        internally consistent grouping.  Idempotent until the next
        mutation.
        """
        if self._finalized_version == self.version:
            return
        rows = dict(self._rows)
        for word in self._pending:
            rows[word] = self._remerge(word)
        self._rows = rows
        self.words_remerged += len(self._pending)
        self._pending = {}
        if len(self._vocab) != len(self._posting_ids):
            # New words extend the vocabulary in insertion order — the
            # order the writers persist.  A new dict (never mutated in
            # place): older generations keep iterating their own vocab.
            self._vocab = dict.fromkeys(self._posting_ids)
        self._install_views()
        self._finalized_version = self.version

    def _remerge(self, word: str) -> WordRows:
        """Sort one word's posting columns and derive its leaf rows.

        Postings sort by ``(pattern id, root, nodes, attrs, path id)`` —
        the paper's "sort paths sequentially" within a leaf, the path id
        breaking ties between physically equal paths — stably, so
        duplicate postings of one path keep insertion order.  The
        word's columns are **replaced** with newly sorted arrays (the
        snapshot invariant: pinned generations keep the old ones).
        """
        ids = self._posting_ids[word]
        sims = self._posting_sims[word]
        pids = self._pids
        roots = self._roots
        path_nodes = self.path_nodes
        path_attrs = self.path_attrs
        keys: Dict[int, tuple] = {}

        def key_of(path_id: int) -> tuple:
            key = keys.get(path_id)
            if key is None:
                key = keys[path_id] = (
                    pids[path_id],
                    roots[path_id],
                    path_nodes(path_id),
                    path_attrs(path_id),
                    path_id,
                )
            return key

        permutation = sorted(range(len(ids)), key=lambda i: key_of(ids[i]))
        sorted_ids = array(ID_TYPECODE, (ids[i] for i in permutation))
        sorted_sims = array(FLOAT_TYPECODE, (sims[i] for i in permutation))
        self._posting_ids[word] = sorted_ids
        self._posting_sims[word] = sorted_sims
        return WordRows(
            sorted_ids,
            sorted_sims,
            derive_leaf_rows(self, sorted_ids, sorted_sims),
        )

    def _install_views(self) -> None:
        """(Re)build the lazy per-word view dicts of this generation.

        A word resolves to its heap :class:`WordRows` when it has been
        re-merged since the base was mapped, to the base otherwise.  The
        closure captures this generation's ``_rows`` dict and base:
        snapshots keep the view dicts by reference, and a later write,
        finalize or re-map swaps ``self._rows`` / ``self._base`` without
        disturbing what older generations resolve to.
        """
        store = self
        base = self._base
        rows = self._rows
        vocab = self._vocab

        def view(i: int) -> LazyWordDict:
            return LazyWordDict(
                vocab,
                lambda word: (rows.get(word) or base).views(store, word)[i],
            )

        self._pattern_view = view(0)
        self._root_view = view(1)
        self._root_counts = view(2)
        self._bounds = (view(3), view(4))

    def pattern_view(
        self,
    ) -> Dict[str, Dict[PatternId, Dict[NodeId, PostingList]]]:
        """word -> pid -> root -> postings (pids and roots ascending)."""
        self.finalize()
        return self._pattern_view

    def root_view(
        self,
    ) -> Dict[str, Dict[NodeId, Dict[PatternId, PostingList]]]:
        """word -> root -> pid -> postings (roots and pids ascending)."""
        self.finalize()
        return self._root_view

    def groups(self) -> Dict[str, WordGroups]:
        """word -> [(pattern id, root, posting list)] sorted by (pid, root)."""
        self.finalize()
        return {
            word: [
                (pid, root, leaf)
                for pid, by_root in by_pattern.items()
                for root, leaf in by_root.items()
            ]
            for word, by_pattern in self._pattern_view.items()
        }

    def root_counts(self, word: str) -> Dict[NodeId, int]:
        """Precomputed |Paths(w, r)| per root for one word."""
        self.finalize()
        try:  # a C-level dict hit once the word has been touched
            return self._root_counts[word]
        except KeyError:
            return {}

    # ---------------------------------------------------------- path columns

    @property
    def num_paths(self) -> int:
        """Distinct physical paths stored (the dedup denominator)."""
        return len(self._pids)

    def path_nodes(self, path_id: int) -> Tuple[NodeId, ...]:
        start = self._node_offsets[path_id]
        end = self._node_offsets[path_id + 1]
        return tuple(self._nodes[start:end])

    def path_attrs(self, path_id: int) -> Tuple[AttrId, ...]:
        start = self._node_offsets[path_id] - path_id
        end = self._node_offsets[path_id + 1] - (path_id + 1)
        return tuple(self._attrs[start:end])

    def path_size(self, path_id: int) -> int:
        """|T(w)| — number of nodes on the path, without materializing it."""
        return (
            self._node_offsets[path_id + 1] - self._node_offsets[path_id]
        )

    def path_root(self, path_id: int) -> NodeId:
        return self._roots[path_id]

    def path_pattern(self, path_id: int) -> PatternId:
        return self._pids[path_id]

    def path_pr(self, path_id: int) -> float:
        return self._prs[path_id]

    def path_matched_on_edge(self, path_id: int) -> bool:
        return bool(self._moe[path_id])

    def path_sort_key(
        self, path_id: int
    ) -> Tuple[Tuple[NodeId, ...], Tuple[AttrId, ...]]:
        """The paper's "sort paths sequentially" key: (nodes, attrs)."""
        return (self.path_nodes(path_id), self.path_attrs(path_id))

    def make_entry(self, path_id: int, sim: float) -> PathEntry:
        """Reconstruct the flyweight :class:`PathEntry` for one posting."""
        self.entries_materialized += 1
        PostingStore.total_entries_materialized += 1
        return PathEntry(
            self.path_nodes(path_id),
            self.path_attrs(path_id),
            bool(self._moe[path_id]),
            self._prs[path_id],
            sim,
        )

    # -------------------------------------------------------------- counting

    def words(self) -> Iterable[str]:
        return self._posting_ids.keys()

    def has_word(self, word: str) -> bool:
        return word in self._posting_ids

    def num_postings(self, word: Optional[str] = None) -> int:
        """Total (word, path) postings, optionally for one word — O(1)."""
        if word is not None:
            ids = self._posting_ids.get(word)
            return len(ids) if ids is not None else 0
        return sum(len(ids) for ids in self._posting_ids.values())

    def postings(self, word: str) -> Iterable[Tuple[int, float]]:
        """One word's raw ``(path_id, sim)`` posting pairs, column order.

        Order is whatever the columns currently hold — the grouped
        order only once the store is finalized.
        """
        ids = self._posting_ids.get(word)
        if ids is None:
            return iter(())
        return zip(ids, self._posting_sims[word])

    def total_path_nodes(self) -> int:
        """``sum_p |p| * |text(p)|`` of Theorem 2, without materialization."""
        offsets = self._node_offsets
        total = 0
        for ids in self._posting_ids.values():
            for path_id in ids:
                total += offsets[path_id + 1] - offsets[path_id]
        return total

    def dedup_ratio(self) -> float:
        """Postings per stored physical path (>= 1; higher is better)."""
        if not self._pids:
            return 1.0
        return self.num_postings() / len(self._pids)

    def nbytes(self) -> int:
        """Bytes held by the columnar arrays (paths + raw postings)."""
        column_bytes = sum(
            column.itemsize * len(column)
            for column in (
                self._node_offsets,
                self._nodes,
                self._attrs,
                self._pids,
                self._roots,
                self._moe,
                self._prs,
            )
        )
        posting_bytes = sum(
            ids.itemsize * len(ids) + sims.itemsize * len(sims)
            for ids, sims in zip(
                self._posting_ids.values(), self._posting_sims.values()
            )
        )
        return column_bytes + posting_bytes

    # --------------------------------------------- store-native hot variants

    def _query_columns(self, words: Optional[Sequence[str]] = None) -> tuple:
        """Boxed, pre-shaped path columns for the enumeration hot loops.

        The ``array`` columns keep the resident footprint compact but box
        a fresh Python int on every subscript, and the query loops revisit
        the same paths thousands of times per cross product.  The
        :class:`QueryColumnMemo` re-shapes each *distinct* path once into
        plain lists/tuples::

            (roots, sizes, prs, edges, self_invalid)

        where ``edges[path_id]`` is a tuple of ``(child, (parent, attr))``
        pairs (the parent-edge tuple is pre-allocated and shared across
        every tree-validity check that touches the path) and
        ``self_invalid[path_id]`` records whether the path *alone* fails
        the tree check — it revisits its own root, or assigns a node two
        distinct parent edges (never true for builder-enumerated simple
        paths, but hand-constructed stores are checked identically to
        :func:`~repro.index.entry.entries_form_tree`).

        The memo is extended, never rebuilt: a call boxes only what is
        still missing below ``num_paths`` (the pinned count on a
        snapshot, so a row a writer is half-way through appending is
        never read).  With ``words`` only the paths in those words'
        posting columns are boxed — all a query over ``words`` can
        touch, and O(touched postings) on a cold mapping or after a
        write; the other slots keep placeholders that fail loudly when
        read.  With ``None`` every path is boxed.  Size is bounded by
        the number of distinct paths, not postings.
        """
        memo = self._query_memo
        limit = self.num_paths
        if memo.dense >= limit:
            return memo.columns
        if words is None:
            with memo.lock:
                # From the watermark as it is *now*: a racing full fill
                # may have raised it while this one waited for the lock.
                if memo.dense < limit:
                    self._box_paths(memo, limit, range(memo.dense, limit))
                    memo.dense = limit
            return memo.columns
        filled = memo.word_counts
        for word in words:
            ids = self._posting_ids.get(word)
            if ids is None:
                continue
            count = self.num_postings(word)
            if filled.get(word, -1) >= count:
                continue
            with memo.lock:
                if filled.get(word, -1) < count:
                    self._box_paths(memo, limit, ids[:count])
                    filled[word] = count
        return memo.columns

    def _box_paths(
        self, memo: QueryColumnMemo, limit: int, path_ids: Iterable[int]
    ) -> None:
        """Box the still-unfilled slots among ``path_ids`` (all below
        ``limit``).  Caller holds ``memo.lock``, which is what keeps the
        five lists the same length when snapshots race an extension."""
        roots, sizes, prs, edges, self_invalid = memo.columns
        # Grow from the lists' real length, never from a remembered one.
        grow = limit - len(edges)
        if grow > 0:
            for column in (roots, sizes, prs, edges):
                column.extend([None] * grow)
            self_invalid.extend([_UNFILLED] * grow)
        offsets = self._node_offsets
        nodes = self._nodes
        attrs = self._attrs
        path_roots = self._roots
        path_prs = self._prs
        boxed = 0
        for path_id in path_ids:
            if edges[path_id] is not None:
                continue
            start = offsets[path_id]
            end = offsets[path_id + 1]
            attr_start = start - path_id
            sizes[path_id] = end - start
            root = roots[path_id] = path_roots[path_id]
            prs[path_id] = path_prs[path_id]
            invalid = False
            path_edges = []
            parent: Dict[NodeId, Tuple[NodeId, AttrId]] = {}
            for i in range(end - start - 1):
                child = nodes[start + i + 1]
                edge = (nodes[start + i], attrs[attr_start + i])
                if child == root or parent.setdefault(child, edge) != edge:
                    invalid = True
                path_edges.append((child, edge))
            self_invalid[path_id] = invalid
            edges[path_id] = tuple(path_edges)  # last: marks the slot boxed
            boxed += 1
        self._count_boxed(boxed)

    def _count_boxed(self, paths: int) -> None:
        self.query_paths_boxed += paths

    def release_query_columns(self) -> None:
        """Drop the query-acceleration columns (re-boxed on demand).

        The memo trades resident memory for query speed and only ever
        grows; long-lived processes that query rarely can call this to
        reclaim it — the store starts an empty memo and later queries
        box what they touch again.  Readers and snapshots already
        holding the old lists keep them until they go away.
        """
        self._query_memo = QueryColumnMemo()

    def warm_query_caches(self) -> None:
        """Box every path now.

        The fork pool calls it before forking, batch drivers before
        fanning out threads, so the fills
        are neither raced by every thread nor repeated inside every
        child.  The memo survives writes and compaction, so on a
        rebuild after a version bump this boxes only the new paths.
        """
        self.finalize()
        self._query_columns()

    def path_columns(
        self, words: Optional[Sequence[str]] = None
    ) -> Tuple[List[int], List[float]]:
        """``(sizes, prs)`` boxed per-path columns for bound arithmetic.

        The same lists the query-column memo holds, filled for ``words``
        like :meth:`pairs_checker`; exposed so the bound-driven
        enumeration loops can accumulate partial subtree sums without
        re-boxing array elements per access.
        """
        _roots, sizes, prs, _edges, _self_invalid = self._query_columns(words)
        return sizes, prs

    def bound_columns(self) -> tuple:
        """Aggregate columns backing admissible score upper bounds.

        Returns ``(root_bounds, pattern_bounds)`` where::

            root_bounds[word][root]          -> Bound  (over all patterns)
            pattern_bounds[word][pid][root]  -> Bound  (one index leaf)

        and a ``Bound`` is the 7-tuple ``(count, size_lo, size_hi, pr_lo,
        pr_hi, sim_lo, sim_hi)`` aggregating that posting group: posting
        count, min/max path size, min/max PageRank term, min/max
        similarity term.  :class:`repro.search.bounds.QueryBounds` turns
        these into admissible upper bounds on subtree and pattern scores
        (see ``docs/pruning.md``).

        Slots 3 and 4 of the per-word views (:func:`decode_leaf_rows`):
        a word's bounds come out of its leaf rows when the word is first
        touched, and a mutation replaces them with the next
        :meth:`finalize`'s.  Size is one tuple per index leaf plus one
        per ``(word, root)`` group, for the touched words.
        """
        self.finalize()
        return self._bounds

    def form_tree(self, path_ids: Sequence[int]) -> bool:
        """Store-native :func:`repro.index.entry.entries_form_tree`.

        Operates on the store's columns — no :class:`PathEntry`
        materialization — with the identical tree-validity rule: all paths
        share the root, no node acquires two distinct parent edges, and no
        edge re-enters the root.  A convenience wrapper over
        :meth:`pairs_checker` (the hot loops' form, and the single
        implementation of the rule) for id-only callers.
        """
        return self.pairs_checker()([(path_id, 0.0) for path_id in path_ids])

    def pairs_checker(self, words: Optional[Sequence[str]] = None):
        """A tree-validity predicate over ``(path_id, sim)`` pair combos.

        Same rule as :meth:`form_tree`, specialized for the enumeration
        loop's native shape: the cross product yields pair combinations,
        so no id tuple is built per combination, and the returned closure
        is bound to the query-acceleration columns so the loop pays no
        per-call column lookup.  Fetch once per enumeration run, passing
        the query's ``words``: the closure then covers exactly the paths
        those words' postings held at the call (every path with
        ``None``), and reading any other raises.
        """
        roots, _sizes, _prs, edges, self_invalid = self._query_columns(words)

        def form_tree_pairs(pairs: Sequence[Tuple[int, float]]) -> bool:
            first = pairs[0][0]
            root = roots[first]
            if len(pairs) == 1:
                return not self_invalid[first]
            parent: Dict[NodeId, Tuple[NodeId, AttrId]] = {}
            get = parent.get
            for path_id, _sim in pairs:
                if roots[path_id] != root or self_invalid[path_id]:
                    return False
                for child, edge in edges[path_id]:
                    existing = get(child)
                    if existing is None:
                        parent[child] = edge
                    elif existing != edge:
                        return False
            return True

        return form_tree_pairs

    def score_terms(
        self, path_ids: Sequence[int], sims: Sequence[float]
    ) -> Tuple[int, float, float]:
        """Store-native :func:`~repro.index.entry.combination_score_terms`.

        Summed (size, pr, sim) for a subtree given as parallel posting
        columns (Equations 4-6), skipping entry materialization.  A
        convenience wrapper over :meth:`pairs_scorer` (the hot loops'
        form, and the single implementation of the sums — identical float
        order to the entry-based helper, so scores are bit-identical
        across the two pipelines).
        """
        return self.pairs_scorer()(list(zip(path_ids, sims)))

    def pairs_scorer(self, words: Optional[Sequence[str]] = None):
        """``pairs -> (size, pr, sim)`` bound to the query columns.

        The pair-combo companion of :meth:`score_terms` (identical sums
        and float order); fetch once per enumeration run, for the
        query's ``words``, like :meth:`pairs_checker`.
        """
        _roots, sizes, prs, _edges, _self_invalid = self._query_columns(words)

        def score_pairs(
            pairs: Sequence[Tuple[int, float]]
        ) -> Tuple[int, float, float]:
            size = 0
            pr = 0.0
            sim = 0.0
            for path_id, posting_sim in pairs:
                size += sizes[path_id]
                pr += prs[path_id]
                sim += posting_sim
            return size, pr, sim

        return score_pairs

    def matched_node(self, path_id: int) -> NodeId:
        """The node whose PageRank is the path's ``pr`` term.

        The path's endpoint for node matches; the edge's source (the
        second-to-last node) for edge matches.
        """
        end = self._node_offsets[path_id + 1]
        return self._nodes[end - 2 if self._moe[path_id] else end - 1]

    # ------------------------------------------------------------- snapshots

    def snapshot(self) -> "StoreSnapshot":
        """A read-only view pinned to the store's current version.

        The snapshot protocol (see ``docs/serving.md``) rides on two
        standing invariants of this class:

        * the **path columns are append-only** — a ``path_id`` assigned
          once maps to the same nodes/attrs/root/pr forever, so snapshot
          readers may keep delegating path lookups to the live columns;
        * :meth:`finalize` **replaces** the posting arrays and view dicts
          instead of mutating them — readers holding the previous
          generation keep a complete, internally consistent grouping.

        A snapshot therefore only needs to capture *references* to the
        current generation under :attr:`lock` (so it cannot observe a
        half-applied incremental update); it costs a few dict copies, not
        a data copy.  Writers proceed normally afterwards — they bump
        :attr:`version`, and version-guarded caches (every
        service-level cache keyed by ``version``) invalidate, while
        existing snapshots stay coherent.  The query-column memo
        is not among them: its slots are keyed by path id, so the
        snapshot shares it and a write only leaves new slots to box.
        """
        with self.lock:
            self.finalize()
            return StoreSnapshot(self)

    # ---------------------------------------------------------- persistence

    @property
    def has_mapped_base(self) -> bool:
        """Whether the store sits on the mapped columns of a v3 file."""
        return self._base is not None

    def clean_leaf_extents(self, word: str) -> Optional[LeafRows]:
        """Already-persisted leaf rows the v3 writer may copy for ``word``.

        The mapped base's rows, for a word in it that no write has
        touched — its posting slices are still the base's, so the
        persisted rows describe them exactly.  ``None`` for dirty and
        new words and for every word of a base-less store: their rows
        are :meth:`leaf_rows`.
        """
        if self._base is None or word in self._rows or word in self._pending:
            return None
        return self._base.leaf_extents(word)

    def leaf_rows(self, word: str) -> LeafRows:
        """The leaf rows :meth:`finalize` derived for a word re-merged
        on the heap (every word of a base-less store)."""
        return self._rows[word].rows

    def to_payload(
        self, pagerank_scores: Optional[Sequence[float]] = None
    ) -> Dict[str, object]:
        """Compact serialization payload: raw array bytes, no object graph.

        Derivable columns are elided (see ``docs/index-format.md``):

        * ``node_offsets`` is stored as per-path *lengths* (2 bytes each);
        * ``roots`` is dropped — it is each path's first node;
        * ``prs`` is dropped whenever it matches
          ``pagerank_scores[matched_node]`` for every path (always true
          for builder/incremental-produced stores), since the bundle
          serializes the PageRank vector anyway;
        * ``sims`` are dictionary-encoded (distinct similarity values are
          few: Jaccard terms ``1/|token set|``) as 2-byte codes when the
          value dictionary fits.

        :meth:`from_payload` inverts all of this.
        """
        offsets = self._node_offsets
        lengths = array("H")
        max_len = 65535
        for path_id in range(self.num_paths):
            size = offsets[path_id + 1] - offsets[path_id]
            if size > max_len:  # pragma: no cover - paths are d-bounded
                raise PathIndexError(
                    f"path {path_id} has {size} nodes; cannot serialize"
                )
            lengths.append(size)

        prs: Optional[bytes] = self._prs.tobytes()
        if pagerank_scores is not None:
            n = len(pagerank_scores)
            if all(
                (node := self.matched_node(i)) < n
                and self._prs[i] == pagerank_scores[node]
                for i in range(self.num_paths)
            ):
                prs = None

        sim_values: Optional[bytes]
        sim_columns: List[bytes]
        distinct = sorted(
            {sim for sims in self._posting_sims.values() for sim in sims}
        )
        if len(distinct) <= 65535:
            codes = {value: code for code, value in enumerate(distinct)}
            sim_values = array(FLOAT_TYPECODE, distinct).tobytes()
            sim_columns = [
                array("H", (codes[sim] for sim in sims)).tobytes()
                for sims in self._posting_sims.values()
            ]
        else:  # pragma: no cover - requires >65535 distinct similarities
            sim_values = None
            sim_columns = [
                sims.tobytes() for sims in self._posting_sims.values()
            ]
        return {
            "typecodes": {
                "id": ID_TYPECODE,
                "flag": FLAG_TYPECODE,
                "float": FLOAT_TYPECODE,
            },
            "num_paths": self.num_paths,
            "path_lengths": lengths.tobytes(),
            "nodes": self._nodes.tobytes(),
            "attrs": self._attrs.tobytes(),
            "pids": self._pids.tobytes(),
            "moe": self._moe.tobytes(),
            "prs": prs,
            "words": list(self._posting_ids.keys()),
            "posting_ids": [
                ids.tobytes() for ids in self._posting_ids.values()
            ],
            "sim_values": sim_values,
            "posting_sims": sim_columns,
        }

    @classmethod
    def from_payload(
        cls,
        interner: PatternInterner,
        payload: Dict[str, object],
        pagerank_scores: Optional[Sequence[float]] = None,
    ) -> "PostingStore":
        """Rebuild a store from :meth:`to_payload` output.

        ``pagerank_scores`` is required to reconstruct the elided ``prs``
        column when the payload omitted it.
        """
        store = cls(interner)

        def column(typecode: str, raw) -> array:
            out = array(typecode)
            out.frombytes(raw)
            return out

        lengths = column("H", payload["path_lengths"])
        store._nodes = column(ID_TYPECODE, payload["nodes"])
        store._attrs = column(ID_TYPECODE, payload["attrs"])
        store._pids = column(ID_TYPECODE, payload["pids"])
        store._moe = column(FLAG_TYPECODE, payload["moe"])
        offset = 0
        for size in lengths:
            offset += size
            store._node_offsets.append(offset)
        if (
            len(lengths) != len(store._pids)
            or store._node_offsets[-1] != len(store._nodes)
            or len(store._attrs) != len(store._nodes) - len(lengths)
            or len(store._moe) != len(lengths)
        ):
            raise PathIndexError(
                "corrupt posting store payload: column sizes disagree "
                f"({len(lengths)} paths, {len(store._nodes)} nodes, "
                f"{len(store._attrs)} attrs)"
            )
        store._roots = array(
            ID_TYPECODE,
            (
                store._nodes[store._node_offsets[i]]
                for i in range(len(lengths))
            ),
        )
        prs_raw = payload.get("prs")
        if prs_raw is not None:
            store._prs = column(FLOAT_TYPECODE, prs_raw)
        else:
            if pagerank_scores is None:
                raise PathIndexError(
                    "payload elides the pr column; pagerank_scores required"
                )
            store._prs = array(
                FLOAT_TYPECODE,
                (
                    pagerank_scores[store.matched_node(i)]
                    for i in range(len(lengths))
                ),
            )
        sim_values_raw = payload.get("sim_values")
        sim_values = (
            column(FLOAT_TYPECODE, sim_values_raw)
            if sim_values_raw is not None
            else None
        )
        for word, ids_raw, sims_raw in zip(
            payload["words"], payload["posting_ids"], payload["posting_sims"]
        ):
            store._posting_ids[word] = column(ID_TYPECODE, ids_raw)
            if sim_values is not None:
                codes = column("H", sims_raw)
                store._posting_sims[word] = array(
                    FLOAT_TYPECODE, (sim_values[code] for code in codes)
                )
            else:  # pragma: no cover - raw-sims fallback
                store._posting_sims[word] = column(FLOAT_TYPECODE, sims_raw)
            store.version += 1
        store._pending = dict.fromkeys(store._posting_ids)
        return store


class StoreSnapshot:
    """A version-pinned, read-only view of a :class:`PostingStore`.

    Obtained via :meth:`PostingStore.snapshot`; duck-types the store's
    *read* interface so every search algorithm runs against it unchanged
    (an :class:`~repro.index.builder.PathIndexes` snapshot swaps this in
    as the views' backing store).  Implementation-wise it is mostly
    **borrowed methods**: the version-sensitive accessors reuse
    :class:`PostingStore`'s own code bound to state captured at snapshot
    time — pinned ``version``/``num_paths``, the finalized view dicts,
    shallow copies of the posting-column dicts — so the two code paths
    cannot drift.  The query-column memo is the live store's own (same
    list objects; this view fills it at most up to its pinned
    ``num_paths``); the view dicts, bound columns included, are the
    pinned generation's, so a word first touched through the snapshot
    is decoded once for the live store too.

    Mutators raise :class:`~repro.core.errors.PathIndexError`; anything
    else (entry materialization, the counters it feeds) delegates to the
    live store via ``__getattr__``.
    """

    def __init__(self, store: PostingStore) -> None:
        # Caller holds store.lock and has finalized (PostingStore.snapshot).
        self._store = store
        self.interner = store.interner
        self.version = store.version
        self.num_paths = store.num_paths
        # Path columns: append-only, so sharing the live arrays is safe —
        # every id this snapshot can reach is < num_paths and immutable.
        self._node_offsets = store._node_offsets
        self._nodes = store._nodes
        self._attrs = store._attrs
        self._pids = store._pids
        self._roots = store._roots
        self._moe = store._moe
        self._prs = store._prs
        # Posting columns: a finalized column is never written again (a
        # write copies it, finalize() *replaces* the dict value), so a
        # shallow dict copy pins this generation of sorted arrays.
        self._posting_ids = dict(store._posting_ids)
        self._posting_sims = dict(store._posting_sims)
        # The finalized grouping (replaced wholesale by the next finalize).
        self._pattern_view = store._pattern_view
        self._root_view = store._root_view
        self._root_counts = store._root_counts
        self._bounds = store._bounds
        # Path-keyed, so never stale: share the live store's memo.
        self._query_memo = store._query_memo

    # -------------------------------------------------- pinned-state reads
    # Borrowed from PostingStore: these methods only touch attributes the
    # snapshot pins (or the append-only path columns), so reusing the
    # store's code gives bit-identical behavior by construction.

    pattern_view = PostingStore.pattern_view
    root_view = PostingStore.root_view
    groups = PostingStore.groups
    root_counts = PostingStore.root_counts
    bound_columns = PostingStore.bound_columns
    path_nodes = PostingStore.path_nodes
    path_attrs = PostingStore.path_attrs
    path_size = PostingStore.path_size
    path_root = PostingStore.path_root
    path_pattern = PostingStore.path_pattern
    path_pr = PostingStore.path_pr
    path_matched_on_edge = PostingStore.path_matched_on_edge
    path_sort_key = PostingStore.path_sort_key
    matched_node = PostingStore.matched_node
    path_columns = PostingStore.path_columns
    _query_columns = PostingStore._query_columns
    _box_paths = PostingStore._box_paths
    release_query_columns = PostingStore.release_query_columns
    warm_query_caches = PostingStore.warm_query_caches
    pairs_checker = PostingStore.pairs_checker
    pairs_scorer = PostingStore.pairs_scorer
    form_tree = PostingStore.form_tree
    score_terms = PostingStore.score_terms
    total_path_nodes = PostingStore.total_path_nodes
    dedup_ratio = PostingStore.dedup_ratio
    words = PostingStore.words
    has_word = PostingStore.has_word
    num_postings = PostingStore.num_postings
    postings = PostingStore.postings

    def finalize(self) -> None:
        """No-op: a snapshot is finalized by construction."""

    def _count_boxed(self, paths: int) -> None:
        self._store._count_boxed(paths)

    def make_entry(self, path_id: int, sim: float) -> PathEntry:
        """Delegates to the live store so the process-wide and per-store
        materialization counters keep counting (the regression tests and
        benchmarks read them there)."""
        return self._store.make_entry(path_id, sim)

    def snapshot(self) -> "StoreSnapshot":
        """Snapshotting a snapshot is the identity (already pinned)."""
        return self

    # ------------------------------------------------------------ read-only

    def _read_only(self, operation: str):
        raise PathIndexError(
            f"cannot {operation} through a StoreSnapshot: snapshots are "
            "read-only views; mutate the live PostingStore instead"
        )

    def add_path(self, *args, **kwargs):
        self._read_only("add a path")

    def append_path(self, *args, **kwargs):
        self._read_only("append a path")

    def add_posting(self, *args, **kwargs):
        self._read_only("add a posting")

    def add_entry(self, *args, **kwargs):
        self._read_only("add an entry")

    def to_payload(self, *args, **kwargs):
        self._read_only("serialize")

    def __getattr__(self, name: str):
        # Everything not version-sensitive (instrumentation counters,
        # nbytes, scratch, ...) answers from the live store.
        return getattr(self._store, name)

    def __repr__(self) -> str:
        return (
            f"StoreSnapshot(version={self.version}, "
            f"paths={self.num_paths})"
        )

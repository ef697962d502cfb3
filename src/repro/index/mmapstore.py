"""Memory-mapped (FORMAT_VERSION 3) backing for the columnar store.

The v2 envelope deserializes every posting column into Python ``array``
objects before the first query — cold start is O(index), and each forked
worker pays for it again in copy-on-write pages.  The v3 format
(:mod:`repro.index.serialize`) lays the same columns out as flat
fixed-width arrays in one file with an offset table; this module opens
that file via :mod:`mmap` and exposes the columns as ``memoryview``
casts, so

* **cold start is O(1)** — opening an index maps pages, it does not read
  them; nothing is deserialized until a query touches it;
* **worker pages are copy-free** — a forked worker inherits the parent's
  mapping, so K shard workers share one physical copy of the file cache;
* **the index may exceed RAM** — untouched columns never become resident.

:class:`MappedPostingStore` is a :class:`PostingStore` constructed from
such a file: the path and posting columns are mapped views, and the file's
leaf rows are the store's *base* (:class:`_MappedBaseViews`) — every
word's finalized form, decoded by the store's one decoder
(:func:`~repro.index.store.decode_leaf_rows`) word by word on first
access, so ``bounds.py``, ``context.py``, and all four algorithms run
unchanged and bit-identical to a heap build.  Everything else — reads,
O(delta) writes over the base (see :mod:`repro.index.delta`), finalize,
snapshots — is the inherited store; this module adds only what opening
a file needs: construction, :meth:`MappedPostingStore.remap` onto the
file a compaction wrote (:func:`repro.index.serialize.compact_indexes`;
the old generation's pages stay referenced by pinned snapshots until
they drop), the explicit :meth:`MappedPostingStore.thaw` escape hatch —
no mutation triggers it — and the counters the serving tier reads.
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import PathIndexError
from repro.core.pattern import PathPattern
from repro.core.types import PatternId
from repro.index.interner import PatternInterner
from repro.index.store import (
    FLAG_TYPECODE,
    FLOAT_TYPECODE,
    ID_TYPECODE,
    OFFSET_TYPECODE,
    LeafRows,
    PostingStore,
    decode_leaf_rows,
)
from repro.kg.graph import KnowledgeGraph

#: First bytes of every v3 index file (8 bytes, 8-byte aligned).
V3_MAGIC = b"RPIXv3\x00\x00"

_ALIGN = 8


def align8(offset: int) -> int:
    """Round ``offset`` up to the section alignment (8 bytes)."""
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


class MappedIndexReader:
    """One open v3 index file: parsed header + mapped section views.

    The mapping is opened read-only and shared (``ACCESS_READ``), so a
    forked worker inherits it without copying; it stays alive as long as
    any store/view/leaf built from it holds a reference to this reader.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        try:
            handle = open(self.path, "rb")
        except OSError as exc:
            raise PathIndexError(
                f"cannot open index file {str(self.path)!r}: {exc}"
            ) from exc
        with handle:
            magic = handle.read(len(V3_MAGIC))
            if magic != V3_MAGIC:
                raise PathIndexError(
                    f"{str(self.path)!r} is not a v3 index file"
                )
            raw_len = handle.read(8)
            if len(raw_len) != 8:
                raise PathIndexError(
                    f"{str(self.path)!r} is truncated (no v3 header)"
                )
            (header_len,) = struct.unpack("<Q", raw_len)
            handle.seek(0, os.SEEK_END)
            file_bytes = handle.tell()
            if len(V3_MAGIC) + 8 + header_len > file_bytes:
                raise PathIndexError(
                    f"{str(self.path)!r} is truncated (v3 header claims "
                    f"{header_len} bytes, file has {file_bytes})"
                )
            handle.seek(len(V3_MAGIC) + 8)
            header_bytes = handle.read(header_len)
            if len(header_bytes) != header_len:
                raise PathIndexError(
                    f"{str(self.path)!r} is truncated (short v3 header)"
                )
            try:
                header = pickle.loads(header_bytes)
            except Exception as exc:
                raise PathIndexError(
                    f"cannot read v3 header of {str(self.path)!r}: {exc}"
                ) from exc
            if not isinstance(header, dict) or "sections" not in header:
                raise PathIndexError(
                    f"{str(self.path)!r} has a malformed v3 header"
                )
            self.file_bytes = file_bytes
            # The mapping survives the fd close (POSIX semantics).
            self._mmap = mmap.mmap(
                handle.fileno(), 0, access=mmap.ACCESS_READ
            )
        self.header = header
        self.sections: Dict[str, Tuple[int, int]] = header["sections"]
        self.data_start = align8(len(V3_MAGIC) + 8 + header_len)
        end = max(
            (offset + nbytes for offset, nbytes in self.sections.values()),
            default=0,
        )
        if self.data_start + end > self.file_bytes:
            raise PathIndexError(
                f"{str(self.path)!r} is truncated: sections need "
                f"{self.data_start + end} bytes, file has {self.file_bytes}"
            )
        self._buffer = memoryview(self._mmap)

    def view(self, name: str, typecode: str) -> memoryview:
        """Section ``name`` as a typed ``memoryview`` over mapped pages."""
        offset, nbytes = self.sections[name]
        start = self.data_start + offset
        return self._buffer[start:start + nbytes].cast(typecode)

    def blob(self, name: str) -> bytes:
        """Section ``name`` as raw bytes (copied out of the mapping)."""
        offset, nbytes = self.sections[name]
        start = self.data_start + offset
        return self._buffer[start:start + nbytes].tobytes()


class _MappedBaseViews:
    """One mapped *generation*: the base a :class:`MappedPostingStore`
    sits on — per-word posting slices, the flat leaf columns, the word
    -> slot table, and the per-word cache of decoded views.

    The store holds the current instance in ``_base`` and swaps in a
    fresh one on :meth:`MappedPostingStore.remap`; the lazy view dicts
    built for an older generation close over *their* instance, so a
    word that goes dirty (or a store that re-maps) after a snapshot
    pinned those dicts still lazily resolves to the old generation's
    correct content.
    """

    __slots__ = (
        "path",
        "posting_ids",
        "posting_sims",
        "num_postings",
        "leaf_pids",
        "leaf_roots",
        "leaf_stops",
        "leaf_sizes",
        "leaf_floats",
        "leaf_starts",
        "word_slot",
        "cache",
    )

    def __init__(
        self, reader: MappedIndexReader, meta: Dict[str, object]
    ) -> None:
        self.path = reader.path
        prefix = meta["prefix"]
        view = reader.view
        words: List[str] = meta["words"]
        ids_col = view(prefix + "posting_ids", ID_TYPECODE)
        sims_col = view(prefix + "posting_sims", FLOAT_TYPECODE)
        posting_ids: Dict[str, memoryview] = {}
        posting_sims: Dict[str, memoryview] = {}
        offset = 0
        for word, count in zip(words, meta["posting_counts"]):
            posting_ids[word] = ids_col[offset:offset + count]
            posting_sims[word] = sims_col[offset:offset + count]
            offset += count
        self.posting_ids = posting_ids
        self.posting_sims = posting_sims
        self.num_postings = offset
        self.leaf_pids = view(prefix + "leaf_pids", ID_TYPECODE)
        self.leaf_roots = view(prefix + "leaf_roots", ID_TYPECODE)
        self.leaf_stops = view(prefix + "leaf_stops", OFFSET_TYPECODE)
        self.leaf_sizes = view(prefix + "leaf_sizes", OFFSET_TYPECODE)
        self.leaf_floats = view(prefix + "leaf_floats", FLOAT_TYPECODE)
        starts = [0]
        for count in meta["leaf_counts"]:
            starts.append(starts[-1] + count)
        self.leaf_starts = starts
        self.word_slot = {word: i for i, word in enumerate(words)}
        self.cache: Dict[str, tuple] = {}

    def leaf_extents(self, word: str) -> Optional[LeafRows]:
        """One word's persisted leaf rows, as mapped slices.

        The rows :meth:`views` decodes, undecoded — or ``None`` for a
        word this generation does not hold.  Stops are relative to the
        word's own posting slice, so the rows mean the same wherever the
        word lands in another file: compaction copies them as bytes
        instead of re-deriving them.
        """
        slot = self.word_slot.get(word)
        if slot is None:
            return None
        lo = self.leaf_starts[slot]
        hi = self.leaf_starts[slot + 1]
        return (
            self.leaf_pids[lo:hi],
            self.leaf_roots[lo:hi],
            self.leaf_stops[lo:hi],
            self.leaf_sizes[2 * lo:2 * hi],
            self.leaf_floats[4 * lo:4 * hi],
        )

    def views(self, store: "MappedPostingStore", word: str) -> tuple:
        """One word's views, decoded from the file's rows on first touch
        (counted in :attr:`MappedPostingStore.words_materialized`)."""
        cached = self.cache.get(word)
        if cached is None:
            MappedPostingStore.words_materialized += 1
            cached = self.cache[word] = decode_leaf_rows(
                store,
                word,
                self.posting_ids[word],
                self.posting_sims[word],
                self.leaf_extents(word),
                repr(str(self.path)),
            )
        return cached


class MappedPostingStore(PostingStore):
    """A :class:`PostingStore` opened from a v3 file.

    Construction is O(words), not O(postings): columns become
    ``memoryview`` casts, the per-word posting dicts slice them (real
    dicts — :class:`~repro.index.store.StoreSnapshot` shallow-copies
    them), and the file's leaf rows become the store's base — no
    posting is deserialized until a query touches its word.  Every
    accessor and mutator is the inherited one.
    """

    #: Process-wide count of mapped stores whose columns were copied to
    #: the heap by the *explicit* :meth:`thaw` escape hatch.  Mutation
    #: never thaws; the serving benches assert this stays flat across
    #: read **and** update phases.
    backed_stores_thawed = 0
    #: Process-wide count of words whose views were decoded from a
    #: *file's* rows — the unit of lazy deserialization work.
    words_materialized = 0

    def __init__(
        self,
        interner: PatternInterner,
        reader: MappedIndexReader,
        meta: Dict[str, object],
        generation: int = 0,
    ) -> None:
        super().__init__(interner)
        #: Compaction lineage: how many times this index content has been
        #: folded (base ⊕ heap) into a fresh file.  0 for a cold load of
        #: a freshly built index; bumped by :meth:`remap`.
        self.generation = generation
        self._map_base(reader, meta)
        # Mirror a v2 load: from_payload bumps the version once per word
        # — every version-keyed cache key is reproduced exactly.
        self.version = self._finalized_version = len(self._vocab)
        self._install_views()

    def _map_base(
        self, reader: MappedIndexReader, meta: Dict[str, object]
    ) -> None:
        """Point every column at ``reader``'s pages (init and re-map)."""
        self._reader = reader
        prefix = meta["prefix"]
        view = reader.view
        self._node_offsets = view(prefix + "node_offsets", OFFSET_TYPECODE)
        self._nodes = view(prefix + "nodes", ID_TYPECODE)
        self._attrs = view(prefix + "attrs", ID_TYPECODE)
        self._pids = view(prefix + "pids", ID_TYPECODE)
        self._roots = view(prefix + "roots", ID_TYPECODE)
        self._moe = view(prefix + "moe", FLAG_TYPECODE)
        self._prs = view(prefix + "prs", FLOAT_TYPECODE)
        base = self._base = _MappedBaseViews(reader, meta)
        # Live dicts are *copies* of the base dicts: per-word
        # copy-on-write replaces live values while the base (and any
        # snapshot's shallow copy) keeps the mapped slices.
        self._posting_ids = dict(base.posting_ids)
        self._posting_sims = dict(base.posting_sims)
        self._vocab = base.word_slot
        self._base_paths = self.num_paths
        self._path_ids = None
        self._rows = {}
        self._pending = {}

    #: The name the tests read ``has_mapped_base`` under.
    _backed = PostingStore.has_mapped_base

    # --------------------------------------------------- re-map & escape

    def remap(self, reader: MappedIndexReader, meta: Dict[str, object]) -> None:
        """Adopt a freshly compacted v3 file as the new base generation.

        The caller holds ``self.lock`` and guarantees the file holds
        exactly the live store's current finalized content (it was just
        written under the same lock — see
        :func:`repro.index.serialize.compact_indexes`).  What was on the
        heap is dropped (its content is in the new base), every column
        becomes a mapped view again, and the old generation's pages stay
        alive for as long as pinned snapshot views reference them.  Path
        ids are stable across generations (the compacted file preserves
        column order), so old-generation leaves materializing entries
        through the live store remain exact — and the query-column memo
        is kept for the same reason: every boxed slot describes the same
        path in the new generation, so the first read after a compaction
        boxes nothing.

        The version advances monotonically — never reset to the new
        file's word count, which could collide with a historical tag and
        let a version-keyed cache serve a stale entry — so every
        version-guarded consumer (view finalize, resolution caches, the
        fork and shard pools) rebuilds from the re-mapped generation on
        next access.
        """
        if self._base is None:
            raise PathIndexError("cannot re-map a thawed store")
        self._map_base(reader, meta)
        self.version += 1
        self._finalized_version = self.version
        self._install_views()
        self.generation = reader.header.get(
            "generation", self.generation + 1
        )

    def thaw(self) -> None:
        """Explicit escape hatch: copy the base to the heap and drop it.

        Mutation does **not** need this — a write costs the words it
        touches.  Thawing turns the store into a base-less heap
        :class:`PostingStore` at O(index) time and memory — the columns
        are copied here, and every word is marked pending, so the next
        finalize re-derives the whole vocabulary's rows — for callers
        that intend to rewrite most of the index in place (and for the
        tests' and BENCH_10's heap twin of a file).  View dicts pinned
        before the thaw keep resolving to the mapping, which stays
        referenced by them.
        """
        if self._base is None:
            return

        def heap(column, typecode: str) -> array:
            return array(typecode, column.tobytes())

        self._node_offsets = heap(self._node_offsets, OFFSET_TYPECODE)
        self._nodes = heap(self._nodes, ID_TYPECODE)
        self._attrs = heap(self._attrs, ID_TYPECODE)
        self._pids = heap(self._pids, ID_TYPECODE)
        self._roots = heap(self._roots, ID_TYPECODE)
        self._moe = heap(self._moe, FLAG_TYPECODE)
        self._prs = heap(self._prs, FLOAT_TYPECODE)
        self._posting_ids = {
            word: heap(ids, ID_TYPECODE)
            for word, ids in self._posting_ids.items()
        }
        self._posting_sims = {
            word: heap(sims, FLOAT_TYPECODE)
            for word, sims in self._posting_sims.items()
        }
        self._base = None
        self._base_paths = 0
        self._path_ids = None
        self._rows = {}
        self._pending = dict.fromkeys(self._posting_ids)
        self._finalized_version = -1
        MappedPostingStore.backed_stores_thawed += 1

    # ------------------------------------------------------- introspection

    def _overlay(self) -> set:
        """Words written to since the last (re-)map; none once thawed."""
        if self._base is None:
            return set()
        return self._rows.keys() | self._pending.keys()

    @property
    def overlay_words(self) -> int:
        """Words with postings added since the last (re-)map."""
        return len(self._overlay())

    @property
    def overlay_postings(self) -> int:
        """Postings added since the last (re-)map."""
        return sum(
            len(self._posting_ids[word])
            - len(self._base.posting_ids.get(word, ()))
            for word in self._overlay()
        )

    @property
    def overlay_paths(self) -> int:
        """Paths appended to the column tails since the last (re-)map."""
        if self._base is None:
            return 0
        return self.num_paths - self._base_paths

    @property
    def base_postings(self) -> int:
        """Postings in the mapped base generation (compaction ratio
        denominator)."""
        return self._base.num_postings if self._base is not None else 0

    def __repr__(self) -> str:
        state = "backed" if self._base is not None else "thawed"
        return (
            f"MappedPostingStore({state}, gen {self.generation}, "
            f"{len(self._vocab)} words, {self.num_paths} paths, "
            f"overlay {self.overlay_postings}p/{self.overlay_words}w)"
        )


class MappedPatternInterner(PatternInterner):
    """A :class:`PatternInterner` decoding patterns from mapped columns.

    ``pattern(pid)`` decodes one pattern on demand (memoized) — the only
    interner access on the query path.  Everything keyed by pattern
    *value* (``intern``, ``lookup``, ``in``) needs the full bijection
    and triggers a one-time full decode, as does ``to_payload``.
    """

    def __init__(
        self, offsets: memoryview, labels: memoryview, flags: memoryview
    ) -> None:
        super().__init__()
        self._mapped_offsets = offsets
        self._mapped_labels = labels
        self._mapped_flags = flags
        self._count = len(flags)
        self._cache: Dict[PatternId, PathPattern] = {}
        self._full = False

    def _decode(self, pid: PatternId) -> PathPattern:
        offsets = self._mapped_offsets
        chain = tuple(self._mapped_labels[offsets[pid]:offsets[pid + 1]])
        return PathPattern(chain, bool(self._mapped_flags[pid]))

    def _ensure_full(self) -> None:
        if self._full:
            return
        for pid in range(self._count):
            pattern = self._cache.get(pid)
            if pattern is None:
                pattern = self._decode(pid)
            PatternInterner.intern(self, pattern.labels, pattern.ends_at_edge)
        # Only now: a reader racing a writer's first intern() must keep
        # decoding on demand until the full table is there to answer.
        self._full = True
        self._cache.clear()

    def pattern(self, pid: PatternId) -> PathPattern:
        if self._full:
            return PatternInterner.pattern(self, pid)
        cached = self._cache.get(pid)
        if cached is not None:
            return cached
        if not 0 <= pid < self._count:
            raise PathIndexError(f"unknown pattern id {pid}")
        pattern = self._cache[pid] = self._decode(pid)
        return pattern

    def intern(self, labels, ends_at_edge) -> PatternId:
        self._ensure_full()
        return PatternInterner.intern(self, labels, ends_at_edge)

    def intern_pattern(self, pattern: PathPattern) -> PatternId:
        self._ensure_full()
        return PatternInterner.intern_pattern(self, pattern)

    def lookup(self, pattern: PathPattern) -> PatternId:
        self._ensure_full()
        return PatternInterner.lookup(self, pattern)

    def __contains__(self, pattern: PathPattern) -> bool:
        self._ensure_full()
        return PatternInterner.__contains__(self, pattern)

    def __len__(self) -> int:
        return len(self._patterns) if self._full else self._count

    def to_payload(self) -> Dict[str, bytes]:
        self._ensure_full()
        return PatternInterner.to_payload(self)


class _LazyObjects:
    """Memoized unpickler for the v3 file's small object-graph section.

    Holds the pickled graph/lexicon blob closed over by
    :class:`LazyGraph` and :class:`_LazyLexicon`; one ``get()`` decodes
    it for both (they share node/edge columns through the pickle memo).
    """

    __slots__ = ("_reader", "_value")

    def __init__(self, reader: MappedIndexReader) -> None:
        self._reader = reader
        self._value: Optional[dict] = None

    def get(self) -> dict:
        value = self._value
        if value is None:
            value = self._value = pickle.loads(self._reader.blob("objects"))
        return value


def _restore_graph(state: dict) -> KnowledgeGraph:
    """Unpickle target for :class:`LazyGraph` (restores a plain graph)."""
    graph = KnowledgeGraph.__new__(KnowledgeGraph)
    graph.__dict__.update(state)
    return graph


def _identity(obj):
    """Unpickle target for :class:`_LazyLexicon` (the real lexicon)."""
    return obj


class LazyGraph(KnowledgeGraph):
    """A :class:`KnowledgeGraph` that materializes from the v3 blob on
    first structural access.

    The query hot path needs exactly one graph column — ``node_type``
    (candidate-root grouping) — which v3 persists as a flat mapped
    array; it is served without touching the pickled object graph.
    Anything else (edges, texts, attribute lookups, mutation) loads the
    full graph from the file's ``objects`` section once and adopts its
    ``__dict__`` — after which this object *is* that graph, sharing its
    column lists with the lexicon's reference to it.
    """

    def __init__(self, node_types: memoryview, objects: _LazyObjects) -> None:
        # Deliberately no super().__init__(): columns come from the blob
        # on demand; until then only _node_types (mapped) exists.
        self._node_types = node_types
        self._lazy_objects = objects
        self._lazy_done = False

    def _materialize(self) -> None:
        if self._lazy_done:
            return
        real = self._lazy_objects.get()["graph"]
        state = dict(real.__dict__)
        self.__dict__.update(state)
        self._lazy_done = True

    def __getattr__(self, name: str):
        # Dunder probes (copy/pickle protocols) and our own guard
        # attributes must never force materialization — or recurse.
        if name.startswith("_lazy") or (
            name.startswith("__") and name.endswith("__")
        ):
            raise AttributeError(name)
        self._materialize()
        try:
            return self.__dict__[name]
        except KeyError:
            raise AttributeError(name) from None

    def add_node_typed(self, tid, text, is_entity=True):
        self._materialize()
        return KnowledgeGraph.add_node_typed(self, tid, text, is_entity)

    def add_edge_typed(self, source, attr, target):
        self._materialize()
        return KnowledgeGraph.add_edge_typed(self, source, attr, target)

    def __reduce__(self):
        # Re-pickling (e.g. saving a v3-loaded bundle back to v2)
        # produces a plain KnowledgeGraph; the pickle memo keeps its
        # column lists shared with the lexicon's graph reference.
        self._materialize()
        state = {
            key: value
            for key, value in self.__dict__.items()
            if not key.startswith("_lazy")
        }
        return (_restore_graph, (state,))


class _LazyLexicon:
    """Deferred :class:`~repro.index.lexicon.GraphLexicon` proxy.

    The lexicon's token tables are O(graph text) and only needed for
    (re)builds and incremental maintenance — never on the query path
    (queries resolve against the store's posting vocabulary).  Attribute
    access unpickles the real lexicon from the ``objects`` section and
    delegates; pickling writes the real lexicon.
    """

    __slots__ = ("_lazy_objects",)

    def __init__(self, objects: _LazyObjects) -> None:
        self._lazy_objects = objects

    def __getattr__(self, name: str):
        if name.startswith("_lazy") or (
            name.startswith("__") and name.endswith("__")
        ):
            raise AttributeError(name)
        return getattr(self._lazy_objects.get()["lexicon"], name)

    def __reduce__(self):
        return (_identity, (self._lazy_objects.get()["lexicon"],))

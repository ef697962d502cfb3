"""Memory-mapped (FORMAT_VERSION 3) backing for the columnar store.

The v2 envelope deserializes every posting column into Python ``array``
objects before the first query — cold start is O(index), and each forked
shard worker pays it again in copies.  The v3 format
(:mod:`repro.index.serialize`) lays the same columns out as flat
fixed-width arrays in one file with an offset table; this module opens
that file via :mod:`mmap` and exposes the columns as ``memoryview``
casts, so

* **cold start is O(1)** — opening an index maps pages, it does not read
  them; nothing is deserialized until a query touches it;
* **shard pages are copy-free** — a forked worker inherits the parent's
  mapping, so K shard stores share one physical copy of the file cache;
* **the index may exceed RAM** — untouched columns never become resident.

:class:`MappedPostingStore` subclasses :class:`PostingStore` in "backed"
mode: the path and posting columns are mapped views, and the finalized
view dicts (pattern-first, root-first, per-root counts) plus the
aggregate bound columns are *lazy per-word dicts* rebuilt from persisted
leaf extents — built exactly like the live store's version-guarded
caches, word by word on first access, so ``bounds.py``, ``context.py``,
and all four algorithms run unchanged and bit-identical.

Mutation is **O(delta)** via the LSM-style overlay in
:mod:`repro.index.delta`: ``append_path`` extends heap tails chained
onto the mapped path columns (:class:`~repro.index.delta.ChainColumn`),
``add_posting`` heap-copies just the touched word's posting columns
(per-word copy-on-write) and appends, and ``finalize`` re-merges only
the dirty words — untouched words keep serving zero-copy mapped views.
The mutator bumps ``store.version`` exactly as before, so the snapshot
protocol, version-guarded caches, and pool-rebuild triggers are
unchanged.  :func:`repro.index.serialize.compact_indexes` folds the
overlay into a fresh v3 file — untouched words' extents are copied from
the mapped base (:meth:`MappedPostingStore.clean_leaf_extents`), only
the dirty words re-derived — and atomically re-maps the store onto it
(:meth:`MappedPostingStore.remap`); the old generation's pages stay
referenced by pinned snapshots until they drop.  Wholesale thaw is an
explicit opt-in escape hatch (:meth:`MappedPostingStore.thaw`) — no
mutation triggers it.
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.errors import PathIndexError
from repro.core.pattern import PathPattern
from repro.core.types import NodeId, PatternId
from repro.index.delta import ChainColumn, DeltaOverlay, build_word_views
from repro.index.interner import PatternInterner
from repro.index.store import (
    FLAG_TYPECODE,
    FLOAT_TYPECODE,
    ID_TYPECODE,
    OFFSET_TYPECODE,
    PostingList,
    PostingStore,
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


class _LazyWordDict(dict):
    """A word-keyed dict whose values build lazily on first access.

    The per-word value (one word's finalized view slice or bound map) is
    produced by ``build(word)`` and cached in the dict itself, so the
    second access is a plain dict hit.  Iteration, ``len``, membership,
    and the bulk accessors answer from the full word table — in index
    word order, matching a fully-built store — regardless of which words
    have materialized; ``items()``/``values()`` force every word (they
    are the full-scan accessors: ``groups()``, ``iter_entries``).
    """

    __slots__ = ("_words", "_build")

    def __init__(
        self, words: Dict[str, int], build: Callable[[str], object]
    ) -> None:
        super().__init__()
        self._words = words
        self._build = build

    def __missing__(self, word):
        if word not in self._words:
            raise KeyError(word)
        value = self._build(word)
        dict.__setitem__(self, word, value)
        return value

    def get(self, word, default=None):
        if dict.__contains__(self, word):
            return dict.__getitem__(self, word)
        if word in self._words:
            return self[word]
        return default

    def __contains__(self, word) -> bool:
        return word in self._words

    def __iter__(self):
        return iter(self._words)

    def __len__(self) -> int:
        return len(self._words)

    def __bool__(self) -> bool:
        return bool(self._words)

    def keys(self):
        return self._words.keys()

    def items(self):
        return [(word, self[word]) for word in self._words]

    def values(self):
        return [self[word] for word in self._words]

    def materialize(self) -> None:
        """Force every word's value (used by the copy-on-write thaw)."""
        for word in self._words:
            self[word]


class _MappedBaseViews:
    """One mapped *generation*: per-word base state + lazy view builder.

    Everything needed to rebuild a word's finalized views from the
    persisted leaf extents lives here — the base posting slices, the
    flat leaf columns, the word -> slot table, and the per-word view
    cache.  The store holds the current instance in ``_base`` and swaps
    in a fresh one on :meth:`MappedPostingStore.remap`; the lazy view
    dicts built for an older generation close over *their* instance, so
    a word that goes dirty (or a store that re-maps) after a snapshot
    pinned those dicts still lazily resolves to the old generation's
    correct content.
    """

    __slots__ = (
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

    def leaf_extents(self, word: str) -> Optional[tuple]:
        """One word's persisted leaf-table rows, as mapped slices.

        Returns ``(leaf_pids, leaf_roots, leaf_stops, leaf_sizes,
        leaf_floats)`` — the rows :meth:`views` decodes, undecoded — or
        ``None`` for a word this generation does not hold.  Stops are
        relative to the word's own posting slice, so the rows mean the
        same wherever the word lands in another file: compaction copies
        them as bytes instead of re-deriving them.
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
        """One word's finalized views, rebuilt from persisted extents.

        Returns ``(pattern_leaves, root_leaves, root_counts, root_bounds,
        pattern_bounds)`` — exactly what :meth:`PostingStore.finalize`
        and :meth:`PostingStore.bound_columns` produce for this word.
        Leaves are recovered in on-disk order, which is the finalized
        position order (pattern id, then root, ascending), so every dict
        insertion order — and with it every downstream iteration, float
        aggregation, and tie-break — matches the in-memory build.
        ``store`` is only threaded into the leaves for entry
        materialization (path ids are stable across generations, so the
        live store serves even old-generation leaves exactly).
        """
        cached = self.cache.get(word)
        if cached is not None:
            return cached
        MappedPostingStore.words_materialized += 1
        slot = self.word_slot[word]
        lo = self.leaf_starts[slot]
        hi = self.leaf_starts[slot + 1]
        ids = self.posting_ids[word]
        sims = self.posting_sims[word]
        leaf_pids = self.leaf_pids
        leaf_roots = self.leaf_roots
        leaf_stops = self.leaf_stops
        leaf_sizes = self.leaf_sizes
        leaf_floats = self.leaf_floats
        word_pf: Dict[PatternId, Dict[NodeId, PostingList]] = {}
        rf_leaves: List[Tuple[NodeId, PatternId, PostingList]] = []
        word_counts: Dict[NodeId, int] = {}
        word_root: Dict[NodeId, tuple] = {}
        word_pat: Dict[PatternId, Dict[NodeId, tuple]] = {}
        start = 0
        for j in range(lo, hi):
            stop = leaf_stops[j]
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
        word_rf: Dict[NodeId, Dict[PatternId, PostingList]] = {}
        rf_leaves.sort(key=lambda leaf: (leaf[0], leaf[1]))
        for root, pid, leaf in rf_leaves:
            word_rf.setdefault(root, {})[pid] = leaf
        views = (word_pf, word_rf, word_counts, word_root, word_pat)
        self.cache[word] = views
        return views


class MappedPostingStore(PostingStore):
    """A :class:`PostingStore` whose columns are views over mapped pages.

    Construction is O(words), not O(postings): columns become
    ``memoryview`` casts, the per-word posting dicts slice them (real
    dicts — :class:`~repro.index.store.StoreSnapshot` shallow-copies
    them), and the finalized view dicts plus bound columns are
    :class:`_LazyWordDict` instances rebuilding one word at a time from
    the persisted leaf extents — no posting is deserialized until a
    query touches its word.  All read accessors are inherited unchanged;
    mutators route into the delta overlay (see module docstring) and
    stay O(delta).
    """

    #: Process-wide count of backed stores whose columns were copied to
    #: the heap by the *explicit* :meth:`thaw` escape hatch.  Mutation
    #: never thaws; the serving benches assert this stays flat across
    #: read **and** update phases.
    backed_stores_thawed = 0
    #: Process-wide count of per-word view materializations across all
    #: backed stores — the unit of lazy deserialization work.
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
        #: folded (base ⊕ overlay) into a fresh file.  0 for a cold load
        #: of a freshly built index; bumped by :meth:`remap`.
        self.generation = generation
        self._init_mapped_state(reader, meta)
        # Mirror a v2 load: from_payload bumps the version once per word,
        # and the load-time finalize pins _finalized_version to it —
        # every version-guarded cache key is reproduced exactly.
        self.version = len(self._base.word_slot)
        self._finalized_version = self.version
        self._install_generation(None)

    def _init_mapped_state(
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
        base = _MappedBaseViews(reader, meta)
        self._base = base
        # Live dicts are *copies* of the base dicts: per-word
        # copy-on-write replaces live values while the base (and any
        # snapshot's shallow copy) keeps the mapped slices.
        self._posting_ids = dict(base.posting_ids)
        self._posting_sims = dict(base.posting_sims)
        self._base_num_postings = base.num_postings
        self._word_slot = base.word_slot
        self._vocab = base.word_slot
        self._path_ids = None
        self._overlay: Optional[DeltaOverlay] = None
        self._backed = True

    def _install_generation(self, gen_views: Optional[Dict[str, tuple]]) -> None:
        """(Re)build the lazy finalized-view dicts for the current version.

        ``gen_views`` is a pinned ``word -> 5-tuple`` dict of merged
        overlay views (``None`` for a pure mapped generation).  The
        build closures capture this generation's ``_MappedBaseViews``
        and the pinned ``gen_views`` locally: snapshots keep the dicts
        by reference, and a later :meth:`remap` swaps ``self._base``
        without disturbing what older generations resolve to.
        """
        base = self._base
        vocab = self._vocab
        store = self

        if gen_views:
            def make(i: int) -> Callable[[str], object]:
                def build(word: str, _i: int = i):
                    views = gen_views.get(word)
                    if views is None:
                        views = base.views(store, word)
                    return views[_i]
                return build
        else:
            def make(i: int) -> Callable[[str], object]:
                def build(word: str, _i: int = i):
                    return base.views(store, word)[_i]
                return build

        self._pattern_view = _LazyWordDict(vocab, make(0))
        self._root_view = _LazyWordDict(vocab, make(1))
        self._root_counts = _LazyWordDict(vocab, make(2))
        self._lazy_bounds = (
            _LazyWordDict(vocab, make(3)),
            _LazyWordDict(vocab, make(4)),
        )
        # Pre-seed the bound slot: bound_columns() checks the
        # (version, cache) tag *before* building anything, and
        # StoreSnapshot adopts a fresh slot by reference, so both the
        # live store and every snapshot serve the lazy dicts with zero
        # changes to either class.
        self._bound_cache = (self.version, self._lazy_bounds)

    def by_root_type_view(
        self, interner: PatternInterner
    ) -> Optional["_LazyWordDict"]:
        """Lazy ``word -> root_type -> [pid]`` grouping for the view layer.

        :meth:`~repro.index.pattern_first.PatternFirstIndex.finalize`
        derives this grouping eagerly over the whole vocabulary; in
        backed mode that would materialize every word at load.  Returns
        ``None`` once thawed — the view falls back to its eager build.
        """
        if not self._backed:
            return None
        pattern_view = self._pattern_view

        def build(word: str) -> Dict[int, List[PatternId]]:
            grouping: Dict[int, List[PatternId]] = {}
            for pid in pattern_view[word]:
                root_type = interner.pattern(pid).root_type
                grouping.setdefault(root_type, []).append(pid)
            return grouping

        # Key off the generation's own vocab (via the pinned pattern
        # view) — after a re-map or vocab growth, _word_slot may describe
        # a different generation than the view this grouping wraps.
        return _LazyWordDict(pattern_view._words, build)

    # ------------------------------------------------------- delta overlay

    def _ensure_overlay(self) -> DeltaOverlay:
        """The mutation ledger, created on first write since (re-)map.

        Creation also chains heap tails onto the seven mapped path
        columns: existing indices keep reading mapped pages, appends go
        to the tails, and the inherited ``append_path`` / accessors work
        unchanged on the chained columns.
        """
        overlay = self._overlay
        if overlay is None:
            overlay = self._overlay = DeltaOverlay(
                base_paths=self.num_paths,
                base_postings=self._base_num_postings,
            )
            self._node_offsets = ChainColumn(
                self._node_offsets, OFFSET_TYPECODE
            )
            self._nodes = ChainColumn(self._nodes, ID_TYPECODE)
            self._attrs = ChainColumn(self._attrs, ID_TYPECODE)
            self._pids = ChainColumn(self._pids, ID_TYPECODE)
            self._roots = ChainColumn(self._roots, ID_TYPECODE)
            self._moe = ChainColumn(self._moe, FLAG_TYPECODE)
            self._prs = ChainColumn(self._prs, FLOAT_TYPECODE)
        return overlay

    def append_path(self, nodes, attrs, matched_on_edge, pid, pr) -> int:
        if not self._backed:
            return PostingStore.append_path(
                self, nodes, attrs, matched_on_edge, pid, pr
            )
        overlay = self._ensure_overlay()
        path_id = PostingStore.append_path(
            self, nodes, attrs, matched_on_edge, pid, pr
        )
        overlay.paths += 1
        overlay.path_index[
            (tuple(nodes), tuple(attrs), bool(matched_on_edge))
        ] = path_id
        return path_id

    def add_path(self, nodes, attrs, matched_on_edge, pid, pr) -> int:
        if not self._backed:
            return PostingStore.add_path(
                self, nodes, attrs, matched_on_edge, pid, pr
            )
        # Intern against the overlay only — the inherited _path_index()
        # would box every base path (O(index) heap, exactly what the
        # overlay exists to avoid).  See DeltaOverlay.path_index for why
        # this is sufficient for the incremental-maintenance callers.
        key = (tuple(nodes), tuple(attrs), bool(matched_on_edge))
        existing = self._ensure_overlay().path_index.get(key)
        if existing is not None:
            return existing
        return self.append_path(nodes, attrs, matched_on_edge, pid, pr)

    def add_posting(self, word, path_id, sim) -> None:
        if not self._backed:
            return PostingStore.add_posting(self, word, path_id, sim)
        overlay = self._ensure_overlay()
        if word not in overlay.dirty and word in self._posting_ids:
            # Per-word copy-on-write: one O(word) heap copy, then every
            # further append is O(1).  Pinned snapshots keep the old
            # slices through their shallow-copied posting dicts.
            ids = array(ID_TYPECODE)
            ids.frombytes(self._posting_ids[word].tobytes())
            sims = array(FLOAT_TYPECODE)
            sims.frombytes(self._posting_sims[word].tobytes())
            self._posting_ids[word] = ids
            self._posting_sims[word] = sims
        if word not in self._vocab:
            overlay.vocab_grew = True
        PostingStore.add_posting(self, word, path_id, sim)
        overlay.dirty.add(word)
        overlay.pending[word] = None
        overlay.postings += 1

    def finalize(self) -> None:
        """Re-merge the dirty words and refresh the lazy view dicts.

        O(delta): only words touched since the last finalize are
        re-sorted (:func:`~repro.index.delta.build_word_views`); clean
        words keep their mapped extents behind fresh lazy dicts.  The
        previous generation's dicts (pinned by snapshots) are left
        untouched — this *replaces* ``_pattern_view`` & friends exactly
        like the inherited eager finalize does.
        """
        if not self._backed:
            return PostingStore.finalize(self)
        if self._finalized_version == self.version:
            return
        overlay = self._overlay
        gen_views: Optional[Dict[str, tuple]] = None
        if overlay is not None:
            for word in overlay.pending:
                overlay.views[word] = build_word_views(self, word)
            overlay.pending.clear()
            if overlay.vocab_grew:
                # New words extend the vocabulary in insertion order —
                # the same order from_payload/_v3_bytes persist, so a
                # compacted file round-trips the vocab verbatim.  A new
                # dict (never mutated in place): older generations keep
                # iterating their own vocab.
                self._vocab = {
                    word: slot
                    for slot, word in enumerate(self._posting_ids)
                }
                overlay.vocab_grew = False
            gen_views = dict(overlay.views)
        self._install_generation(gen_views)
        self._finalized_version = self.version

    def bound_columns(self):
        if not self._backed:
            return PostingStore.bound_columns(self)
        slot = self._bound_cache
        if slot is not None and slot[0] == self.version:
            return slot[1]
        # Stale: re-merge pending words and re-seed the lazy dicts — the
        # inherited eager rebuild would force every word in the index.
        self.finalize()
        self._bound_cache = (self.version, self._lazy_bounds)
        return self._lazy_bounds

    def release_query_columns(self) -> None:
        PostingStore.release_query_columns(self)
        if self._backed and self._finalized_version == self.version:
            # The lazy bound dicts are the backed store's "cold" state
            # already — re-seed the slot instead of forcing the next
            # pruning query through a full eager rebuild.
            self._bound_cache = (self.version, self._lazy_bounds)

    def clean_leaf_extents(self, word: str) -> Optional[tuple]:
        """The mapped base's leaf rows for a word no write has touched.

        A backed store answers for a word that has a slot in its mapped
        base and is not in ``overlay.dirty`` — its posting slices are
        still the base's, so the persisted rows describe them exactly
        (see :meth:`_MappedBaseViews.leaf_extents`).  Dirty and new
        words, and every word of a thawed store, answer ``None``.
        """
        if not self._backed:
            return None
        overlay = self._overlay
        if overlay is not None and word in overlay.dirty:
            return None
        return self._base.leaf_extents(word)

    # --------------------------------------------------- re-map & escape

    def remap(self, reader: MappedIndexReader, meta: Dict[str, object]) -> None:
        """Adopt a freshly compacted v3 file as the new base generation.

        The caller holds ``self.lock`` and guarantees the file holds
        exactly the live store's current finalized content (it was just
        written under the same lock — see
        :func:`repro.index.serialize.compact_indexes`).  The overlay is
        dropped (its content is in the new base), every column becomes a
        mapped view again, and the old generation's pages stay alive for
        as long as pinned snapshot views reference them.  Path ids are
        stable across generations (the compacted file preserves column
        order), so old-generation leaves materializing entries through
        the live store remain exact — and the query-column memo is kept
        for the same reason: every boxed slot describes the same path
        in the new generation, so the first read after a compaction
        boxes nothing.

        The version advances monotonically — never reset to the new
        file's word count, which could collide with a historical tag and
        let a version-keyed cache serve a stale entry — so every
        version-guarded consumer (view finalize, resolution caches, the
        fork and shard pools) rebuilds from the re-mapped generation on
        next access.
        """
        if not self._backed:
            raise PathIndexError("cannot re-map a thawed store")
        old_version = self.version
        self._init_mapped_state(reader, meta)
        self.version = old_version + 1
        self._finalized_version = self.version
        self._install_generation(None)
        self.generation = reader.header.get(
            "generation", self.generation + 1
        )

    def thaw(self) -> None:
        """Explicit escape hatch: copy every column to the heap.

        Mutation does **not** need this — mutators land in the delta
        overlay at O(delta) cost.  Thawing turns the store into a plain
        heap :class:`PostingStore` at O(index) time and memory, for
        callers that intend to rewrite most of the index in place.

        Order matters: the lazy per-word views are materialized *first*,
        over the still-valid mapped generation — pinned snapshots hold
        those dicts by reference.  If mutations are pending, the
        materialized views describe the last finalized generation and
        ``_finalized_version < version`` already holds, so the next
        accessor runs the inherited wholesale finalize over the heap
        columns.  The mapping itself stays referenced so pre-thaw leaves
        keep reading valid pages.
        """
        if not self._backed:
            return
        for lazy in (
            self._pattern_view,
            self._root_view,
            self._root_counts,
            self._lazy_bounds[0],
            self._lazy_bounds[1],
        ):
            lazy.materialize()

        def heap(typecode: str, column) -> array:
            out = array(typecode)
            out.frombytes(column.tobytes())
            return out

        self._node_offsets = heap(OFFSET_TYPECODE, self._node_offsets)
        self._nodes = heap(ID_TYPECODE, self._nodes)
        self._attrs = heap(ID_TYPECODE, self._attrs)
        self._pids = heap(ID_TYPECODE, self._pids)
        self._roots = heap(ID_TYPECODE, self._roots)
        self._moe = heap(FLAG_TYPECODE, self._moe)
        self._prs = heap(FLOAT_TYPECODE, self._prs)
        self._posting_ids = {
            word: ids if isinstance(ids, array) else heap(ID_TYPECODE, ids)
            for word, ids in self._posting_ids.items()
        }
        self._posting_sims = {
            word: sims
            if isinstance(sims, array)
            else heap(FLOAT_TYPECODE, sims)
            for word, sims in self._posting_sims.items()
        }
        self._backed = False
        self._overlay = None
        self._bound_cache = None
        MappedPostingStore.backed_stores_thawed += 1

    # ------------------------------------------------------- introspection

    @property
    def overlay_words(self) -> int:
        """Words with overlay postings since the last (re-)map."""
        overlay = self._overlay
        return len(overlay.dirty) if overlay is not None else 0

    @property
    def overlay_postings(self) -> int:
        """Postings absorbed by the overlay since the last (re-)map."""
        overlay = self._overlay
        return overlay.postings if overlay is not None else 0

    @property
    def overlay_paths(self) -> int:
        """Paths appended to the column tails since the last (re-)map."""
        overlay = self._overlay
        return overlay.paths if overlay is not None else 0

    @property
    def base_postings(self) -> int:
        """Postings in the mapped base generation (compaction ratio
        denominator)."""
        return self._base_num_postings

    def __repr__(self) -> str:
        state = "backed" if self._backed else "thawed"
        overlay = self._overlay
        delta = (
            f", overlay {overlay.postings}p/{len(overlay.dirty)}w"
            if overlay is not None
            else ""
        )
        return (
            f"MappedPostingStore({state}, gen {self.generation}, "
            f"{len(self._vocab)} words, {self.num_paths} paths{delta})"
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

"""Persistence of built path indexes.

Index construction dominates query time by orders of magnitude (Figure 6:
minutes to hours on the paper's hardware), so a production deployment
builds once and serves many queries.  We persist the whole
:class:`PathIndexes` bundle — graph included, since postings reference
node ids that are only meaningful against that exact graph — with a
versioned header to fail loudly on format drift.

Three on-disk formats exist:

* **FORMAT_VERSION 3** (written by default): posting columns, path and
  bound aggregate columns and the interner laid out as flat fixed-width
  arrays in one file behind an offset table, opened via ``mmap`` (see
  :mod:`repro.index.mmapstore` and ``docs/index-format.md``).  Cold
  start is O(1): opening maps pages without reading them, and every
  column deserializes lazily, word by word, on first query access.
  Forked workers inherit the parent's mapping — index pages are
  copy-free across a pool.
* **FORMAT_VERSION 2** (written with ``version=2``, read transparently):
  a pickled envelope holding the columnar
  :class:`~repro.index.store.PostingStore` and the pattern interner as
  raw ``array`` bytes; the whole store deserializes into heap arrays at
  load.
* **FORMAT_VERSION 1** (read-only): the legacy wholesale object-graph
  pickle with per-entry ``PathEntry`` objects in triply-nested dicts,
  migrated into a columnar store on load.

Saves are crash-safe: bytes are written to a temporary file in the target
directory, fsynced, atomically renamed over the destination, and the
directory fsynced — an interrupted save can never leave a truncated or
corrupt index file behind, and a save that returned survives power loss.

A file holds one store.  Sharding is a serving parameter
(:mod:`repro.index.shards`: a shard is a set of root types, read from
that one store), not file content; files that earlier builds wrote with
K extra shard-store sections still open — the extra sections are
ignored.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import PathIndexError
from repro.index.builder import PathIndexes
from repro.index.interner import PatternInterner
from repro.index.mmapstore import (
    V3_MAGIC,
    LazyGraph,
    MappedIndexReader,
    MappedPatternInterner,
    MappedPostingStore,
    _LazyLexicon,
    _LazyObjects,
    align8,
)
from repro.index.pattern_first import PatternFirstIndex
from repro.index.root_first import RootFirstIndex
from repro.index.store import (
    FLAG_TYPECODE,
    FLOAT_TYPECODE,
    ID_TYPECODE,
    OFFSET_TYPECODE,
    PostingStore,
    StoreSnapshot,
)

FORMAT_NAME = "repro-path-index"
FORMAT_VERSION = 3
READABLE_VERSIONS = (1, 2, 3)
WRITABLE_VERSIONS = (2, 3)

#: ``array`` typecode byte widths used when sizing v2 payload columns.
_ID_ITEMSIZE = array(ID_TYPECODE).itemsize


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file + rename,
    fsyncing the file before the rename and the directory after it."""
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise
    # The rename is durable only once the directory entry is: without
    # this a power loss can bring the old file back after the caller was
    # told the new one is in place (compaction drops its overlay on it).
    dir_fd = os.open(str(path.parent), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _write_index_bytes(data: bytes, path: Union[str, Path]) -> int:
    try:
        _atomic_write_bytes(Path(path), data)
    except OSError as exc:
        raise PathIndexError(
            f"cannot write index to {str(path)!r}: {exc}"
        ) from exc
    return len(data)


# ------------------------------------------------------------------ v2 write


def _v2_envelope(indexes: PathIndexes) -> dict:
    """The v2 columnar envelope for one bundle."""
    store = indexes.store
    if store is None:  # pragma: no cover - PathIndexes always has a store
        raise PathIndexError("cannot serialize indexes without a store")
    return {
        "format": FORMAT_NAME,
        "version": 2,
        "d": indexes.d,
        "num_entries": indexes.num_entries,
        "num_paths": store.num_paths,
        "graph": indexes.graph,
        "normalizer": indexes.normalizer,
        "lexicon": indexes.lexicon,
        "synonyms": indexes.synonyms,
        "build_seconds": indexes.build_seconds,
        "pagerank": array("d", indexes.pagerank_scores).tobytes(),
        "interner": indexes.interner.to_payload(),
        "store": store.to_payload(indexes.pagerank_scores),
    }


def _write_envelope(envelope: dict, path: Union[str, Path]) -> int:
    data = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    return _write_index_bytes(data, path)


# ------------------------------------------------------------------ v3 write


def _as_bytes(typecode: str, column) -> bytes:
    """A column (``array``, ``memoryview``, chained, or sequence) as bytes."""
    if isinstance(column, (array, memoryview)):
        return column.tobytes()
    tobytes = getattr(column, "tobytes", None)
    if tobytes is not None:
        # ChainColumn (mapped base ⊕ heap tail): two memcpys, no boxing.
        return tobytes()
    return array(typecode, column).tobytes()


class _SectionWriter:
    """Accumulates named, 8-byte-aligned data sections + an offset table."""

    def __init__(self) -> None:
        self.chunks: List[bytes] = []
        self.sections: Dict[str, Tuple[int, int]] = {}
        self._offset = 0
        #: Words whose leaf rows were copied from a mapped base / derived
        #: from the finalized views.
        self.words_copied = 0
        self.words_rebuilt = 0

    def add(self, name: str, data: bytes) -> None:
        if name in self.sections:  # pragma: no cover - writer bug guard
            raise PathIndexError(f"duplicate v3 section {name!r}")
        pad = align8(self._offset) - self._offset
        if pad:
            self.chunks.append(b"\x00" * pad)
            self._offset += pad
        self.sections[name] = (self._offset, len(data))
        self.chunks.append(data)
        self._offset += len(data)


def _v3_store_sections(writer: _SectionWriter, store: PostingStore) -> dict:
    """Write the store's columns as ``s0/``-named sections.

    The posting columns are written in their finalized (pattern, root,
    path-lex) sort order, concatenated per word in vocabulary order,
    next to each word's leaf rows — every index leaf's extent plus its
    aggregate bound (min/max path size, PageRank, similarity — see
    :func:`~repro.index.store.derive_leaf_rows`) — so the mapped reader
    decodes the views and bound columns per word without scanning a
    single posting column.

    The rows are the store's own finalized form, written as bytes: the
    mapped base's for a word no write has touched
    (:meth:`~repro.index.store.PostingStore.clean_leaf_extents`,
    tallied as *copied*), the heap's for the others — every word of a
    heap store (:meth:`~repro.index.store.PostingStore.leaf_rows`,
    tallied as *rebuilt*).
    """
    prefix = "s0/"
    store.finalize()
    writer.add(
        prefix + "node_offsets",
        _as_bytes(OFFSET_TYPECODE, store._node_offsets),
    )
    writer.add(prefix + "nodes", _as_bytes(ID_TYPECODE, store._nodes))
    writer.add(prefix + "attrs", _as_bytes(ID_TYPECODE, store._attrs))
    writer.add(prefix + "pids", _as_bytes(ID_TYPECODE, store._pids))
    writer.add(prefix + "roots", _as_bytes(ID_TYPECODE, store._roots))
    writer.add(prefix + "moe", _as_bytes(FLAG_TYPECODE, store._moe))
    writer.add(prefix + "prs", _as_bytes(FLOAT_TYPECODE, store._prs))

    words = list(store._posting_ids.keys())
    posting_counts: List[int] = []
    leaf_counts: List[int] = []
    ids_chunks: List[bytes] = []
    sims_chunks: List[bytes] = []
    leaf_pids = array(ID_TYPECODE)
    leaf_roots = array(ID_TYPECODE)
    leaf_stops = array(OFFSET_TYPECODE)
    leaf_sizes = array(OFFSET_TYPECODE)
    leaf_floats = array(FLOAT_TYPECODE)
    for word in words:
        ids = store._posting_ids[word]
        posting_counts.append(len(ids))
        ids_chunks.append(_as_bytes(ID_TYPECODE, ids))
        sims_chunks.append(
            _as_bytes(FLOAT_TYPECODE, store._posting_sims[word])
        )
        rows = store.clean_leaf_extents(word)
        if rows is not None:
            writer.words_copied += 1
        else:
            rows = store.leaf_rows(word)
            writer.words_rebuilt += 1
        stops = rows[2]
        covered = stops[-1] if len(stops) else 0
        if covered != len(ids):
            raise PathIndexError(
                f"cannot write v3: word {word!r} leaves cover "
                f"{covered} of {len(ids)} postings"
            )
        for column, part in zip(
            (leaf_pids, leaf_roots, leaf_stops, leaf_sizes, leaf_floats),
            rows,
        ):
            column.frombytes(memoryview(part).cast("B"))
        leaf_counts.append(len(stops))
    writer.add(prefix + "posting_ids", b"".join(ids_chunks))
    writer.add(prefix + "posting_sims", b"".join(sims_chunks))
    writer.add(prefix + "leaf_pids", leaf_pids.tobytes())
    writer.add(prefix + "leaf_roots", leaf_roots.tobytes())
    writer.add(prefix + "leaf_stops", leaf_stops.tobytes())
    writer.add(prefix + "leaf_sizes", leaf_sizes.tobytes())
    writer.add(prefix + "leaf_floats", leaf_floats.tobytes())
    return {
        "prefix": prefix,
        "words": words,
        "posting_counts": posting_counts,
        "leaf_counts": leaf_counts,
        "num_paths": store.num_paths,
        "num_postings": sum(posting_counts),
    }


def _v3_bytes(
    indexes: PathIndexes,
    generation: Optional[int] = None,
    writer: Optional[_SectionWriter] = None,
) -> bytes:
    """Assemble one v3 file: magic, pickled header, aligned flat sections.

    A caller that wants the writer's tallies afterwards (how many words
    were copied, how many rebuilt) passes its own fresh ``writer``.
    """
    store = indexes.store
    if isinstance(store, StoreSnapshot):
        raise PathIndexError(
            "cannot serialize through a StoreSnapshot: snapshots are "
            "read-only views; save the live bundle instead"
        )
    if writer is None:
        writer = _SectionWriter()
    store_meta = _v3_store_sections(writer, store)
    graph = indexes.graph
    writer.add("node_types", _as_bytes(ID_TYPECODE, graph._node_types))
    writer.add(
        "pagerank", _as_bytes(FLOAT_TYPECODE, indexes.pagerank_scores)
    )
    interner_payload = indexes.interner.to_payload()
    writer.add("interner_offsets", interner_payload["offsets"])
    writer.add("interner_labels", interner_payload["labels"])
    writer.add("interner_flags", interner_payload["flags"])
    # The only object-pickled section; everything in it is off the query
    # hot path and unpickles lazily (see mmapstore.LazyGraph).
    writer.add(
        "objects",
        pickle.dumps(
            {"graph": graph, "lexicon": indexes.lexicon},
            protocol=pickle.HIGHEST_PROTOCOL,
        ),
    )
    header = {
        "format": FORMAT_NAME,
        "version": 3,
        # Always these two values: shards are not file content.  The
        # keys stay so that every header reads alike (older files say
        # "sharded") and no section offset moves.
        "kind": "single",
        "num_shards": 0,
        # Compaction lineage: 0 for a fresh build, +1 per fold of a live
        # delta overlay back into a flat file (see compact_indexes).
        "generation": generation
        if generation is not None
        else getattr(store, "generation", 0),
        "d": indexes.d,
        "num_entries": indexes.num_entries,
        "num_paths": store.num_paths,
        "num_nodes": graph.num_nodes,
        "build_seconds": indexes.build_seconds,
        "normalizer": indexes.normalizer,
        "synonyms": indexes.synonyms,
        "stores": [store_meta],
        "sections": writer.sections,
    }
    header_bytes = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    pre = len(V3_MAGIC) + 8 + len(header_bytes)
    pad = align8(pre) - pre
    return b"".join(
        [
            V3_MAGIC,
            struct.pack("<Q", len(header_bytes)),
            header_bytes,
            b"\x00" * pad,
        ]
        + writer.chunks
    )


def _check_writable(version: int) -> None:
    if version not in WRITABLE_VERSIONS:
        raise PathIndexError(
            f"cannot write format version {version!r}; this build writes "
            f"versions {WRITABLE_VERSIONS}"
        )


def save_indexes(
    indexes: PathIndexes,
    path: Union[str, Path],
    version: int = FORMAT_VERSION,
) -> int:
    """Write indexes to ``path`` (atomic); returns the bytes written.

    Writes the mmap-ready v3 layout by default; pass ``version=2`` for
    the legacy pickled columnar envelope (e.g. to compare sizes or feed
    an older reader).
    """
    _check_writable(version)
    if version == 2:
        return _write_envelope(_v2_envelope(indexes), path)
    return _write_index_bytes(_v3_bytes(indexes), path)


def save_sharded_indexes(
    sharded,
    path: Union[str, Path],
    version: int = FORMAT_VERSION,
) -> int:
    """:func:`save_indexes` of ``sharded.base``: the shard count is a
    serving parameter, not file content (:mod:`repro.index.shards`)."""
    return save_indexes(sharded.base, path, version)


# ---------------------------------------------------------------- compaction


def compact_indexes(indexes: PathIndexes, path: Union[str, Path]) -> dict:
    """Fold a mapped store's delta overlay into a fresh v3 file + re-map.

    The LSM "merge" step for :class:`~repro.index.mmapstore.
    MappedPostingStore`: streams base ⊕ overlay into a new v3 image
    (crash-safe — the bytes land in a temp file and atomically replace
    ``path``), then re-points the live store at the new mapping
    (:meth:`~repro.index.mmapstore.MappedPostingStore.remap`).  The
    overlay's heap state is dropped; untouched readers never notice —
    pinned snapshots keep the old generation's pages alive, and the
    version bump makes every pool and cache rebuild from the re-mapped
    generation.

    Every word's posting slice and leaf rows go into the new image as
    bytes: from the mapped base for the words no write touched
    (``words_copied``), from the heap — where the writes' finalize
    derived them — for the overlay's dirty and new words
    (``words_rebuilt``; see :func:`_v3_store_sections`).

    The whole operation holds ``store.lock``: writers and
    snapshot-takers block for the memcpy-bound write (readers on
    existing snapshots are unaffected) — this is what makes the written
    image and the re-mapped state exactly the live content.

    Returns ``{"bytes", "generation", "seconds", "words_copied",
    "words_rebuilt"}``: ``seconds`` is how long the lock was held, and
    the two word counts say how the writer got each word's leaf rows.
    """
    store = indexes.store
    if isinstance(store, StoreSnapshot):
        raise PathIndexError(
            "cannot compact through a StoreSnapshot: compact the live "
            "bundle"
        )
    if not store.has_mapped_base:
        raise PathIndexError(
            "compact requires a mapped (backed) v3 store; save_indexes() "
            "rewrites heap-resident bundles"
        )
    path = Path(path)
    writer = _SectionWriter()
    with store.lock:
        started = time.perf_counter()
        # Read under the lock: two racing compactions must not both
        # write generation g+1 with different content.
        generation = store.generation + 1
        data = _v3_bytes(indexes, generation=generation, writer=writer)
        nbytes = _write_index_bytes(data, path)
        reader = MappedIndexReader(path)
        store.remap(reader, reader.header["stores"][0])
        seconds = time.perf_counter() - started
    return {
        "bytes": nbytes,
        "generation": generation,
        "seconds": seconds,
        "words_copied": writer.words_copied,
        "words_rebuilt": writer.words_rebuilt,
    }


# ------------------------------------------------------------------- loading


def _load_v2(path: Path, envelope: dict) -> PathIndexes:
    """Reassemble a :class:`PathIndexes` from a v2 columnar envelope."""
    try:
        interner = PatternInterner.from_payload(envelope["interner"])
        pagerank = array("d")
        pagerank.frombytes(envelope["pagerank"])
        store = PostingStore.from_payload(
            interner, envelope["store"], pagerank
        )
        pattern_first = PatternFirstIndex(interner, store)
        root_first = RootFirstIndex(interner, store)
        pattern_first.finalize()
        root_first.finalize()
        return PathIndexes(
            graph=envelope["graph"],
            d=envelope["d"],
            normalizer=envelope["normalizer"],
            lexicon=envelope["lexicon"],
            interner=interner,
            pattern_first=pattern_first,
            root_first=root_first,
            pagerank_scores=list(pagerank),
            build_seconds=envelope.get("build_seconds", 0.0),
            synonyms=envelope.get("synonyms"),
            store=store,
        )
    except KeyError as exc:
        raise PathIndexError(
            f"{str(path)!r} v2 envelope is missing field {exc}"
        ) from exc


def _migrate_v1(path: Path, payload: object) -> PathIndexes:
    """Rebuild a columnar bundle from a legacy object-graph pickle.

    v1 payloads are :class:`PathIndexes` instances whose index attributes
    hold the pre-columnar layout (``word -> pid -> root -> [PathEntry]``
    dicts).  Attributes are read through ``__dict__`` so this works
    regardless of how the index classes have evolved since the file was
    written.
    """
    if not isinstance(payload, PathIndexes):
        raise PathIndexError(f"{str(path)!r} payload is not PathIndexes")
    state = payload.__dict__
    try:
        interner = state["interner"]
        legacy_data = state["pattern_first"].__dict__["_data"]
    except KeyError as exc:
        raise PathIndexError(
            f"{str(path)!r} v1 payload is missing attribute {exc}"
        ) from exc
    store = PostingStore(interner)
    for word, by_pattern in legacy_data.items():
        for pid, by_root in by_pattern.items():
            for entries in by_root.values():
                for entry in entries:
                    store.add_entry(word, pid, entry)
    pattern_first = PatternFirstIndex(interner, store)
    root_first = RootFirstIndex(interner, store)
    pattern_first.finalize()
    root_first.finalize()
    return PathIndexes(
        graph=state["graph"],
        d=state["d"],
        normalizer=state["normalizer"],
        lexicon=state["lexicon"],
        interner=interner,
        pattern_first=pattern_first,
        root_first=root_first,
        pagerank_scores=state["pagerank_scores"],
        build_seconds=state.get("build_seconds", 0.0),
        synonyms=state.get("synonyms"),
        store=store,
    )


def _is_v3_file(path: Path) -> bool:
    """Whether ``path`` starts with the v3 magic (False on any OSError,
    so a missing file falls through to the envelope path's error)."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(V3_MAGIC)) == V3_MAGIC
    except OSError:
        return False


def _load_v3(path: Path):
    """Open a v3 file: ``(header, indexes)``.

    O(1) in the index size: columns are mapped, not read — the bundle's
    views and bound columns deserialize lazily per word (see
    :mod:`repro.index.mmapstore`).  ``header["stores"][0]`` is the
    store; a file an earlier build wrote sharded names K more, which
    nothing reads.
    """
    reader = MappedIndexReader(path)
    header = reader.header
    if header.get("format") != FORMAT_NAME:
        raise PathIndexError(f"{str(path)!r} is not a {FORMAT_NAME} file")
    if header.get("version") != 3:
        raise PathIndexError(
            f"{str(path)!r} has format version {header.get('version')}, "
            f"this build reads versions {READABLE_VERSIONS}"
        )
    try:
        interner = MappedPatternInterner(
            reader.view("interner_offsets", OFFSET_TYPECODE),
            reader.view("interner_labels", ID_TYPECODE),
            reader.view("interner_flags", FLAG_TYPECODE),
        )
        objects = _LazyObjects(reader)
        graph = LazyGraph(reader.view("node_types", ID_TYPECODE), objects)
        lexicon = _LazyLexicon(objects)
        # Heap copy (one memcpy, no boxing): incremental maintenance
        # appends to the PageRank vector, a mapped view cannot grow.
        pagerank = array("d")
        pagerank.frombytes(reader.blob("pagerank"))
        store = MappedPostingStore(
            interner,
            reader,
            header["stores"][0],
            generation=header.get("generation", 0),
        )
        pattern_first = PatternFirstIndex(interner, store)
        root_first = RootFirstIndex(interner, store)
        pattern_first.finalize()
        root_first.finalize()
        return header, PathIndexes(
            graph=graph,
            d=header["d"],
            normalizer=header["normalizer"],
            lexicon=lexicon,
            interner=interner,
            pattern_first=pattern_first,
            root_first=root_first,
            pagerank_scores=pagerank,
            build_seconds=header.get("build_seconds", 0.0),
            synonyms=header.get("synonyms"),
            store=store,
        )
    except KeyError as exc:
        raise PathIndexError(
            f"{str(path)!r} v3 header is missing field {exc}"
        ) from exc


def _read_envelope(path: Path) -> dict:
    """Read and format-check an index file's outer pickled envelope."""
    if not path.exists():
        raise PathIndexError(f"no such index file: {str(path)!r}")
    try:
        envelope = pickle.loads(path.read_bytes())
    except Exception as exc:
        raise PathIndexError(f"cannot unpickle {str(path)!r}: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != FORMAT_NAME:
        raise PathIndexError(f"{str(path)!r} is not a {FORMAT_NAME} file")
    version = envelope.get("version")
    if version not in READABLE_VERSIONS:
        raise PathIndexError(
            f"{str(path)!r} has format version {version}, this build reads "
            f"versions {READABLE_VERSIONS}"
        )
    return envelope


def load_indexes(path: Union[str, Path]) -> PathIndexes:
    """Load indexes previously written by :func:`save_indexes`.

    Reads the mmap-backed v3 layout (O(1) cold start — columns stay on
    disk until queries touch them), the v2 pickled columnar envelope,
    and legacy v1 object-graph pickles (transparently migrated).  A
    file an earlier build wrote sharded loads as its base bundle.

    The elapsed wall-clock cold-start time is recorded on the returned
    bundle as ``indexes.load_seconds`` (surfaced by ``search --explain``,
    ``serve`` startup, and :class:`~repro.search.service.ServiceStats`).
    """
    path = Path(path)
    started = time.perf_counter()
    if _is_v3_file(path):
        header, indexes = _load_v3(path)
        expected_entries = header.get("num_entries")
    else:
        envelope = _read_envelope(path)
        if envelope.get("version") == 1:
            indexes = _migrate_v1(path, envelope.get("payload"))
        else:
            indexes = _load_v2(path, envelope)
        expected_entries = envelope.get("num_entries")
    if indexes.num_entries != expected_entries:
        raise PathIndexError(
            f"{str(path)!r} entry count mismatch: envelope says "
            f"{expected_entries}, payload has "
            f"{indexes.num_entries}"
        )
    indexes.load_seconds = time.perf_counter() - started
    return indexes


# --------------------------------------------------------------- inspection


def _v2_store_summary(name: str, payload: dict) -> dict:
    """Size/count summary of one v2 store payload without rebuilding it."""
    posting_ids = payload.get("posting_ids", [])
    byte_fields = [
        payload.get("path_lengths"),
        payload.get("nodes"),
        payload.get("attrs"),
        payload.get("pids"),
        payload.get("moe"),
        payload.get("prs"),
        payload.get("sim_values"),
    ]
    store_bytes = sum(len(raw) for raw in byte_fields if raw is not None)
    store_bytes += sum(len(raw) for raw in posting_ids)
    store_bytes += sum(len(raw) for raw in payload.get("posting_sims", []))
    return {
        "name": name,
        "num_paths": payload.get("num_paths"),
        "num_postings": sum(
            len(raw) // _ID_ITEMSIZE for raw in posting_ids
        ),
        "store_bytes": store_bytes,
    }


def describe_index_file(path: Union[str, Path]) -> dict:
    """Cheap structural summary of an index file for ``repro stats``.

    Returns ``{"file_bytes", "version", "kind", "num_shards", "d",
    "num_entries", "stores": [{"name", "num_paths", "num_postings",
    "store_bytes"}, ...]}`` — reading only the header for v3 files and
    the envelope (no store reconstruction) for v1/v2.  ``kind`` is
    ``"sharded"`` and ``stores`` has more than its ``base`` entry only
    for a file an earlier build wrote with shard-store sections: what
    the file holds, not what a loader reads.
    """
    path = Path(path)
    if not path.exists():
        raise PathIndexError(f"no such index file: {str(path)!r}")
    file_bytes = path.stat().st_size
    if _is_v3_file(path):
        reader = MappedIndexReader(path)
        header = reader.header
        stores = []
        for i, meta in enumerate(header.get("stores", [])):
            prefix = meta["prefix"]
            stores.append(
                {
                    "name": "base" if i == 0 else f"shard {i - 1}",
                    "num_paths": meta["num_paths"],
                    "num_postings": meta["num_postings"],
                    "store_bytes": sum(
                        nbytes
                        for name, (_offset, nbytes) in
                        reader.sections.items()
                        if name.startswith(prefix)
                    ),
                }
            )
        return {
            "file_bytes": file_bytes,
            "version": 3,
            "kind": header.get("kind", "single"),
            "num_shards": header.get("num_shards", 0),
            "generation": header.get("generation", 0),
            "d": header.get("d"),
            "num_entries": header.get("num_entries"),
            "stores": stores,
        }
    envelope = _read_envelope(path)
    version = envelope.get("version")
    if version == 1:
        payload = envelope.get("payload")
        d = None
        if isinstance(payload, PathIndexes):
            d = payload.__dict__.get("d")
        return {
            "file_bytes": file_bytes,
            "version": 1,
            "kind": "single",
            "num_shards": 0,
            "d": d,
            "num_entries": envelope.get("num_entries"),
            "stores": [],
        }
    stores = [_v2_store_summary("base", envelope["store"])]
    shard_payloads = envelope.get("shard_stores") or []
    for i, payload in enumerate(shard_payloads):
        stores.append(_v2_store_summary(f"shard {i}", payload))
    return {
        "file_bytes": file_bytes,
        "version": 2,
        "kind": envelope.get("kind", "single"),
        "num_shards": envelope.get("num_shards", 0),
        "d": envelope.get("d"),
        "num_entries": envelope.get("num_entries"),
        "stores": stores,
    }

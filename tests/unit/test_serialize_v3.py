"""The v3 mmap index format: laziness, delta overlay, migration, crash
safety.

v3 lays every posting/bound column out as flat fixed-width arrays behind
an offset table (``docs/index-format.md``); ``load_indexes`` maps the
file and returns a :class:`~repro.index.mmapstore.MappedPostingStore`
whose views deserialize one word at a time.  These tests pin the three
contracts the format exists for:

* **bit-identity** — all four algorithms agree with the in-memory build
  through every migration chain (build→v3, v1→v3, v2→v3, sharded v3);
* **laziness** — cold open + first query never thaws the store and only
  materializes the queried words (class counters assert it);
* **O(delta) mutation** — mutation lands in the heap delta overlay (no
  wholesale thaw, only the touched word's columns leave the mapping),
  bumps the version, pre-mutation snapshots keep serving the old bytes,
  and post-mutation / post-compaction answers are bit-identical to a
  heap engine that applied the same updates.
"""

import gc
import os
import pathlib
import pickle
import shutil
import stat
import struct
import threading
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import PathIndexError
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import ResolvedQuery, build_indexes
from repro.index.incremental import add_entity, add_relationship
from repro.index.mmapstore import (
    MappedIndexReader,
    MappedPostingStore,
    _MappedBaseViews,
)
from repro.index.serialize import (
    FORMAT_NAME,
    _SectionWriter,
    _v3_store_sections,
    compact_indexes,
    describe_index_file,
    load_indexes,
    save_indexes,
    save_sharded_indexes,
)
from repro.index.shards import partition_indexes
from repro.index.store import _VIEW_ATTRS, OFFSET_TYPECODE
from repro.search.baseline import baseline_search
from repro.search.linear_topk import linear_topk_search
from repro.search.pattern_enum import pattern_enum_search
from test_serialize_v2 import make_legacy_v1_bytes

#: The example graph (``repro.datasets.example``, d=3) as commit e47ad38
#: — the last that copied a bundle into K shard stores and wrote them as
#: K more store sections — saved it with ``save_sharded_indexes`` at K=2.
_DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
LEGACY_SHARDED = {
    "v2": _DATA / "legacy_sharded_k2.v2.idx",
    "v3": _DATA / "legacy_sharded_k2.v3.idx",
}

WIKI_CONFIG = WikiConfig(
    num_entities=400, num_types=16, num_attrs=24, vocabulary_size=160, seed=31
)


@pytest.fixture(scope="module")
def wiki_indexes():
    graph = generate_wiki_graph(WIKI_CONFIG)
    return build_indexes(graph, d=3)


def _query_for(indexes, num_words=2):
    words = sorted(
        indexes.store.words(),
        key=lambda w: (-indexes.store.num_postings(w), w),
    )[:num_words]
    return ResolvedQuery(tuple(words))


def _all_algorithms(indexes, query, k=10):
    """Four-algorithm top-k with full subtree rows, normalized."""
    results = {
        "pattern_enum": pattern_enum_search(indexes, query, k=k),
        "linear": linear_topk_search(indexes, query, k=k),
        "linear_topk": linear_topk_search(
            indexes, query, k=k, sampling_threshold=0, sampling_rate=0.5,
            seed=7,
        ),
        "baseline": baseline_search(indexes, query, k=k),
    }
    return {
        name: [
            (
                answer.pattern_key,
                answer.score,
                [tuple(combo) for combo in answer.subtrees],
            )
            for answer in result.answers
        ]
        for name, result in results.items()
    }


class TestV3RoundTrip:
    def test_loads_backed(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        loaded = load_indexes(path)
        assert isinstance(loaded.store, MappedPostingStore)
        assert loaded.store.has_mapped_base
        assert loaded.d == wiki_indexes.d
        assert loaded.num_entries == wiki_indexes.num_entries
        assert loaded.store.num_paths == wiki_indexes.store.num_paths

    def test_search_identical_after_roundtrip(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        loaded = load_indexes(path)
        query = _query_for(wiki_indexes)
        assert _all_algorithms(loaded, query) == _all_algorithms(
            wiki_indexes, query
        )

    def test_default_save_is_v3(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path)
        assert isinstance(load_indexes(path).store, MappedPostingStore)

    def test_unknown_version_rejected(self, wiki_indexes, tmp_path):
        with pytest.raises(PathIndexError):
            save_indexes(wiki_indexes, tmp_path / "wiki.idx", version=9)

    def test_load_seconds_recorded(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path)
        loaded = load_indexes(path)
        assert loaded.load_seconds > 0.0
        from repro.search.service import SearchService

        service = SearchService(loaded)
        assert service.stats.load_seconds == loaded.load_seconds
        assert "cold start" in service.stats.format()


class TestLaziness:
    def test_cold_open_and_first_query_stay_lazy(
        self, wiki_indexes, tmp_path
    ):
        """The O(1)-cold-start claim: no thaw, only queried words built."""
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        query = _query_for(wiki_indexes, num_words=2)
        thawed = MappedPostingStore.backed_stores_thawed
        words = MappedPostingStore.words_materialized
        loaded = load_indexes(path)
        assert MappedPostingStore.words_materialized == words, (
            "opening the file materialized posting columns"
        )
        pattern_enum_search(loaded, query, k=10)
        assert MappedPostingStore.backed_stores_thawed == thawed
        built = MappedPostingStore.words_materialized - words
        assert 0 < built <= 4 * len(query)

    def test_cold_query_boxes_only_its_words_paths(
        self, wiki_indexes, tmp_path
    ):
        """The first query after ``from_file`` boxes query columns for
        the paths its words post, not for the store; warming boxes the
        rest, each path once."""
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        loaded = load_indexes(path)
        store = loaded.store
        assert store.query_paths_boxed == 0
        query = _query_for(wiki_indexes, num_words=3)
        assert _all_algorithms(loaded, query) == _all_algorithms(
            wiki_indexes, query
        )
        boxed = store.query_paths_boxed
        assert 0 < boxed <= sum(store.num_postings(word) for word in query)
        assert boxed < store.num_paths
        store.warm_query_caches()
        assert store.query_paths_boxed == store.num_paths

    def test_posting_columns_are_views(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        loaded = load_indexes(path)
        ids = next(iter(loaded.store._posting_ids.values()))
        assert isinstance(ids, memoryview)

    def test_snapshot_protocol_stays_lazy(self, wiki_indexes, tmp_path):
        """SearchService snapshots over a backed store must not force the
        vocabulary: the pre-seeded lazy bound columns are adopted as-is."""
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        loaded = load_indexes(path)
        words = MappedPostingStore.words_materialized
        snapshot = loaded.snapshot()
        assert MappedPostingStore.words_materialized == words
        query = _query_for(wiki_indexes)
        assert _all_algorithms(snapshot, query) == _all_algorithms(
            wiki_indexes, query
        )


def _apply_updates(bundle):
    """The shared mutation script for the differential tests.

    Deterministic: applied to a mapped bundle and to a heap oracle, it
    produces identical node/path/posting ids in both.
    """
    a = add_entity(bundle, "city", "overlayton riverbed", pagerank=0.004)
    b = add_entity(bundle, "person", "quanta overlayton", pagerank=0.003)
    add_relationship(bundle, a, "mayor", b)
    return (a, b)


def _apply_more_updates(bundle, anchor):
    """A second script, for a compaction on top of a compaction: one new
    word, one word the first script already wrote, one edge to a node
    the first script added."""
    c = add_entity(bundle, "city", "secondburg overlayton", pagerank=0.002)
    return add_relationship(bundle, c, "twin", anchor)


def _file_store_sections(path):
    """``(s<i>/… section bytes, per-store header metas)`` of a v3 file."""
    reader = MappedIndexReader(path)
    sections = {
        name: reader.blob(name) for name in reader.sections if "/" in name
    }
    return sections, reader.header["stores"]


def _derived_store_sections(stores):
    """What the v3 writer *derives* for the heap store in ``stores`` (a
    file holds one), in the shape of :func:`_file_store_sections`."""
    writer = _SectionWriter()
    (store,) = stores
    metas = [_v3_store_sections(writer, store)]
    assert writer.words_copied == 0  # the reference side copies nothing
    assert writer.words_rebuilt == sum(len(m["words"]) for m in metas)
    data = b"".join(writer.chunks)
    sections = {
        name: data[offset:offset + nbytes]
        for name, (offset, nbytes) in writer.sections.items()
    }
    return sections, metas


def _mapped_and_oracle(indexes, tmp_path):
    """A mapped bundle and its thawed heap twin over one saved file."""
    path = tmp_path / "wiki.idx"
    save_indexes(indexes, path, version=3)
    mapped = load_indexes(path)
    oracle = load_indexes(path)
    oracle.store.thaw()
    return path, mapped, oracle


class TestDeltaOverlay:
    def _loaded(self, indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(indexes, path, version=3)
        return load_indexes(path)

    def test_mutation_stays_backed_and_bumps_version(
        self, wiki_indexes, tmp_path
    ):
        """O(delta): a posting append must not thaw — only the touched
        word's columns leave the mapping."""
        loaded = self._loaded(wiki_indexes, tmp_path)
        store = loaded.store
        words = iter(store.words())
        word = next(words)
        untouched = next(words)
        before_version = store.version
        thawed = MappedPostingStore.backed_stores_thawed
        store.add_posting(word, 0, 0.5)
        assert MappedPostingStore.backed_stores_thawed == thawed
        assert store.has_mapped_base
        assert store.version > before_version
        assert not isinstance(store._posting_ids[word], memoryview)
        assert isinstance(store._posting_ids[untouched], memoryview)
        assert store.num_postings(word) == (
            wiki_indexes.store.num_postings(word) + 1
        )
        assert store.overlay_words == 1
        assert store.overlay_postings == 1

    def test_snapshot_survives_mutation(self, wiki_indexes, tmp_path):
        """A snapshot pinned before the overlay keeps the mapped bytes."""
        loaded = self._loaded(wiki_indexes, tmp_path)
        query = _query_for(wiki_indexes)
        expected = _all_algorithms(wiki_indexes, query)
        snapshot = loaded.snapshot()
        loaded.store.add_posting(query[0], 0, 0.125)
        assert _all_algorithms(snapshot, query) == expected

    def test_incremental_update_answers_change(self, wiki_indexes, tmp_path):
        """The overlay posting is searchable after the views refresh."""
        loaded = self._loaded(wiki_indexes, tmp_path)
        query = _query_for(wiki_indexes, num_words=1)
        word = query[0]
        before = loaded.store.num_postings(word)
        loaded.store.add_posting(word, 0, 1.0)
        loaded.store.finalize()
        assert loaded.store.num_postings(word) == before + 1
        assert loaded.store.has_mapped_base
        result = pattern_enum_search(loaded, query, k=10)
        assert result.num_answers >= 1

    def test_explicit_thaw_is_the_only_thaw(self, wiki_indexes, tmp_path):
        """thaw() is an opt-in escape hatch, counted by the class
        counter; afterwards the store behaves like a heap store."""
        loaded = self._loaded(wiki_indexes, tmp_path)
        store = loaded.store
        _apply_updates(loaded)  # overlay first, to cover the mixed path
        thawed = MappedPostingStore.backed_stores_thawed
        store.thaw()
        assert MappedPostingStore.backed_stores_thawed == thawed + 1
        assert not store.has_mapped_base
        assert store.overlay_words == 0
        store.thaw()  # idempotent
        assert MappedPostingStore.backed_stores_thawed == thawed + 1
        query = _query_for(wiki_indexes, num_words=1)
        result = pattern_enum_search(loaded, query, k=10)
        assert result.num_answers >= 1

    def test_post_mutation_identical_to_heap_oracle(
        self, wiki_indexes, tmp_path
    ):
        """All four algorithms agree with a heap engine that applied the
        same updates — the no-thaw acceptance gate at unit scale."""
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        mapped = load_indexes(path)
        oracle = load_indexes(
            tmp_path / "wiki.idx"
        )  # second mapping, thawed into a heap oracle
        oracle.store.thaw()
        assert _apply_updates(mapped) == _apply_updates(oracle)
        thawed = MappedPostingStore.backed_stores_thawed
        for query in (
            _query_for(wiki_indexes),
            ResolvedQuery(("overlayton",)),
            ResolvedQuery(("overlayton", "riverbed")),
        ):
            assert _all_algorithms(mapped, query) == _all_algorithms(
                oracle, query
            )
        assert MappedPostingStore.backed_stores_thawed == thawed
        assert mapped.store.has_mapped_base


class TestCompaction:
    def test_compact_remaps_in_place(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        mapped = load_indexes(path)
        oracle = load_indexes(path)
        oracle.store.thaw()
        assert _apply_updates(mapped) == _apply_updates(oracle)
        store = mapped.store
        version_before = store.version
        result = compact_indexes(mapped, path)
        assert result["generation"] == 1
        assert store.generation == 1
        assert store.version == version_before + 1
        assert store.has_mapped_base
        assert store.overlay_words == 0
        assert isinstance(
            next(iter(store._posting_ids.values())), memoryview
        )
        for query in (
            _query_for(wiki_indexes),
            ResolvedQuery(("overlayton",)),
        ):
            assert _all_algorithms(mapped, query) == _all_algorithms(
                oracle, query
            )

    def test_compacted_file_reloads_identically(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        mapped = load_indexes(path)
        oracle = load_indexes(path)
        oracle.store.thaw()
        assert _apply_updates(mapped) == _apply_updates(oracle)
        compact_indexes(mapped, path)
        fresh = load_indexes(path)
        assert fresh.store.generation == 1
        assert describe_index_file(path)["generation"] == 1
        for query in (
            _query_for(wiki_indexes),
            ResolvedQuery(("overlayton",)),
        ):
            assert _all_algorithms(fresh, query) == _all_algorithms(
                oracle, query
            )

    def test_snapshot_pinned_across_compaction(self, wiki_indexes, tmp_path):
        """A snapshot taken before compaction keeps serving the old
        generation's answers after the re-map."""
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        mapped = load_indexes(path)
        query = _query_for(wiki_indexes)
        expected = _all_algorithms(wiki_indexes, query)
        snapshot = mapped.snapshot()
        _apply_updates(mapped)
        compact_indexes(mapped, path)
        assert _all_algorithms(snapshot, query) == expected

    def test_query_columns_survive_compaction(self, wiki_indexes, tmp_path):
        """Path ids and path columns are the same in the re-mapped
        generation, so the boxed query columns are kept: the first
        reads after ``compact`` box nothing, and a snapshot pinned
        before it reads the same lists."""
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        mapped = load_indexes(path)
        oracle = load_indexes(path)
        oracle.store.thaw()
        assert _apply_updates(mapped) == _apply_updates(oracle)
        queries = (
            _query_for(wiki_indexes),
            ResolvedQuery(("overlayton", "riverbed")),
        )
        expected = [_all_algorithms(oracle, query) for query in queries]
        pinned = mapped.snapshot()
        assert [_all_algorithms(pinned, q) for q in queries] == expected
        store = mapped.store
        lists = store._query_memo.columns
        boxed = store.query_paths_boxed
        compact_indexes(mapped, path)
        assert store.overlay_words == 0
        assert [_all_algorithms(mapped, q) for q in queries] == expected
        assert [_all_algorithms(pinned, q) for q in queries] == expected
        assert store.query_paths_boxed == boxed
        assert store._query_memo.columns is lists

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_sharded_compaction_identical(
        self, wiki_indexes, tmp_path, num_shards
    ):
        """A sharded service's compaction is the unsharded one: one
        store written, nothing re-partitioned, and the re-forked shards
        answer like the heap oracle for the updated content."""
        from repro.search.engine import TableAnswerEngine
        from repro.search.sharding import ShardedSearchService
        from tests.search.test_sharding import idle_split_width

        path, _mapped, oracle = _mapped_and_oracle(wiki_indexes, tmp_path)
        engine = TableAnswerEngine(oracle.graph, indexes=oracle)
        searches = [
            (terms, algorithm)
            for terms in (list(_query_for(wiki_indexes)), ["overlayton"])
            for algorithm in ("pattern_enum", "linear")
        ]
        service = ShardedSearchService.from_file(path, num_shards=num_shards)
        try:
            assert _apply_updates(service.indexes) == _apply_updates(oracle)
            dirty = service.indexes.store.overlay_words
            for compacted in (False, True):
                if compacted:
                    outcome = service.compact()
                    assert sorted(outcome) == [
                        "bytes", "generation", "seconds",
                        "words_copied", "words_rebuilt",
                    ]
                    assert outcome["words_rebuilt"] == dirty
                    assert service.indexes.store.overlay_words == 0
                for terms, algorithm in searches:
                    expected = engine.search(
                        terms, k=10, algorithm=algorithm
                    )
                    got = service.search(terms, k=10, algorithm=algorithm)
                    assert got.stats.shards_total == idle_split_width(
                        service, terms, k=10, algorithm=algorithm
                    )
                    assert got.scores() == expected.scores()
                    assert got.pattern_keys() == expected.pattern_keys()
            assert service.stats.pool_rebuilds == 2
        finally:
            service.close()
        info = describe_index_file(path)
        assert info["kind"] == "single"
        assert [entry["name"] for entry in info["stores"]] == ["base"]


class TestCompactionCopiesCleanWords:
    """Compaction copies what the overlay never touched: a clean word's
    posting and leaf extents go from the mapped base into the new file
    as bytes, and those bytes are the ones a derivation would write."""

    def test_copied_equals_derived(self, wiki_indexes, tmp_path):
        """Single, repeated: the compacted file's store sections are
        byte for byte what the writer derives from the heap twin."""
        path, mapped, oracle = _mapped_and_oracle(wiki_indexes, tmp_path)
        a, b = _apply_updates(mapped)
        assert (a, b) == _apply_updates(oracle)
        outcome = compact_indexes(mapped, path)
        assert outcome["words_copied"] > outcome["words_rebuilt"] > 0
        assert _file_store_sections(path) == _derived_store_sections(
            [oracle.store]
        )

        # On top of generation 1: base words of two different files.
        assert _apply_more_updates(mapped, a) == _apply_more_updates(
            oracle, a
        )
        second = compact_indexes(mapped, path)
        assert second["generation"] == 2
        assert second["words_copied"] > second["words_rebuilt"] > 0
        assert _file_store_sections(path) == _derived_store_sections(
            [oracle.store]
        )

    def test_overlay_free_compaction_is_a_copy(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        before = _file_store_sections(path)
        mapped = load_indexes(path)
        outcome = compact_indexes(mapped, path)
        assert outcome["words_rebuilt"] == 0
        assert outcome["words_copied"] == len(before[1][0]["words"])
        assert _file_store_sections(path) == before
        # save_indexes of a loaded bundle goes through the same writer.
        other = tmp_path / "other.idx"
        save_indexes(load_indexes(path), other)
        assert _file_store_sections(other) == before

    def test_sharded_copied_equals_derived(self, wiki_indexes, tmp_path):
        """Under a sharded service too: one store is written, its clean
        words copied, its dirty ones derived, nothing else; the bytes
        match the heap twin's."""
        from repro.search.sharding import ShardedSearchService

        path, _mapped, oracle = _mapped_and_oracle(wiki_indexes, tmp_path)
        with ShardedSearchService.from_file(path, num_shards=2) as service:
            store = service.indexes.store
            assert _apply_updates(service.indexes) == _apply_updates(oracle)
            service.search(list(_query_for(wiki_indexes)), k=5)
            dirty = store.overlay_words
            outcome = service.compact()
        derived, metas = _derived_store_sections([oracle.store])
        assert _file_store_sections(path) == (derived, metas)
        assert outcome["words_rebuilt"] == dirty > 0
        assert outcome["words_copied"] == len(metas[0]["words"]) - dirty

    def test_only_overlay_words_are_rebuilt(
        self, wiki_indexes, tmp_path, monkeypatch
    ):
        """No word is materialized to be written, the rebuilt words are
        the overlay's, and a brand-new word is among them."""
        path, mapped, _oracle = _mapped_and_oracle(wiki_indexes, tmp_path)
        _apply_updates(mapped)
        store = mapped.store
        dirty = store.overlay_words
        assert "overlayton" not in wiki_indexes.store.words()
        copied = {}
        real = MappedPostingStore.clean_leaf_extents

        def spy(self, word):
            extents = real(self, word)
            copied[word] = extents is not None
            return extents

        def no_views(self, store, word):
            raise AssertionError(f"compaction materialized {word!r}")

        monkeypatch.setattr(MappedPostingStore, "clean_leaf_extents", spy)
        monkeypatch.setattr(_MappedBaseViews, "views", no_views)
        materialized = MappedPostingStore.words_materialized
        outcome = compact_indexes(mapped, path)
        monkeypatch.undo()
        assert MappedPostingStore.words_materialized == materialized
        assert outcome["words_rebuilt"] == dirty
        assert outcome["words_copied"] == len(copied) - dirty
        assert sum(copied.values()) == outcome["words_copied"]
        assert copied["overlayton"] is False
        assert outcome["seconds"] > 0

    def test_the_store_decides(self, wiki_indexes, tmp_path):
        """Each side of the copy/derive choice: only a backed store, for
        a word in its base that no write touched, offers extents."""
        path, mapped, oracle = _mapped_and_oracle(wiki_indexes, tmp_path)
        words = list(wiki_indexes.store.words())
        clean, touched = words[0], words[1]
        assert wiki_indexes.store.clean_leaf_extents(clean) is None  # heap
        assert oracle.store.clean_leaf_extents(clean) is None  # thawed
        store = mapped.store
        extents = store.clean_leaf_extents(clean)
        assert [type(rows) for rows in extents] == [memoryview] * 5
        leaves = len(extents[2])
        assert [len(rows) for rows in extents] == [
            leaves, leaves, leaves, 2 * leaves, 4 * leaves
        ]
        assert extents[2][-1] == store.num_postings(clean)
        store.add_posting(touched, 0, 0.5)  # dirty
        store.add_posting("brandnewword", 0, 0.5)  # not in the base
        assert store.clean_leaf_extents(touched) is None
        assert store.clean_leaf_extents("brandnewword") is None
        assert store.clean_leaf_extents(clean) is not None
        compact_indexes(mapped, path)  # both are base words now
        assert store.clean_leaf_extents(touched) is not None
        assert store.clean_leaf_extents("brandnewword") is not None

    def test_corrupt_clean_extent_is_refused(self, wiki_indexes, tmp_path):
        """The copy keeps the writer's coverage check: a clean word whose
        last stop is not its posting count fails the compaction and
        leaves file, overlay and generation as they were."""
        path, mapped, _oracle = _mapped_and_oracle(wiki_indexes, tmp_path)
        _apply_updates(mapped)
        good = path.read_bytes()
        store = mapped.store
        base = store._base
        word = next(
            w for w in base.word_slot
            if store.clean_leaf_extents(w) is not None
        )
        stops = array(OFFSET_TYPECODE, base.leaf_stops)
        stops[base.leaf_starts[base.word_slot[word] + 1] - 1] += 1
        base.leaf_stops = memoryview(stops)
        dirty = store.overlay_words
        with pytest.raises(PathIndexError, match="leaves cover"):
            compact_indexes(mapped, path)
        assert path.read_bytes() == good
        assert [p for p in tmp_path.iterdir() if p.name != "wiki.idx"] == []
        assert store.generation == 0
        assert store.overlay_words == dirty

    def test_racing_compactions_get_distinct_generations(
        self, wiki_indexes, tmp_path, monkeypatch
    ):
        """The generation is read under ``store.lock``: a compaction
        that queued behind another one writes the next generation, not
        the same one again."""
        import repro.index.serialize as serialize
        from repro.search.service import SearchService

        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        service = SearchService.from_file(path)
        _apply_updates(service.indexes)
        entered, release = threading.Event(), threading.Event()
        real = serialize._v3_bytes

        def gated(*args, **kwargs):
            if not entered.is_set():
                entered.set()
                assert release.wait(30)
            return real(*args, **kwargs)

        monkeypatch.setattr(serialize, "_v3_bytes", gated)
        generations = []

        def compact():
            generations.append(service.compact()["generation"])

        first = threading.Thread(target=compact)
        second = threading.Thread(target=compact)
        try:
            first.start()
            assert entered.wait(30)
            second.start()
            second.join(0.2)  # let it reach the lock the first one holds
            assert second.is_alive()
        finally:
            release.set()
            first.join(30)
            second.join(30)
        assert not first.is_alive() and not second.is_alive()
        assert generations == [1, 2]
        store = service.indexes.store
        assert store.generation == 2
        assert describe_index_file(path)["generation"] == 2
        assert service.stats.compactions == 2
        service.close()

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_updates_copied_equals_derived(
        self, data, wiki_indexes, tmp_path
    ):
        """Random ``add_entity``/``add_relationship`` sequences: store
        sections of the compacted file ≡ the heap twin's, and all four
        algorithms answer alike."""
        saved = tmp_path / "saved.idx"
        if not saved.exists():
            save_indexes(wiki_indexes, saved, version=3)
        path = tmp_path / "live.idx"
        shutil.copyfile(saved, path)
        mapped = load_indexes(path)
        oracle = load_indexes(path)
        oracle.store.thaw()
        vocab = sorted(wiki_indexes.store.words())
        word = st.sampled_from(vocab + ["overlayton", "riverbed"])
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["city", "person", "delta_type"]),
                    st.lists(word, min_size=1, max_size=3),
                    # An edge from the new node to an earlier one (new
                    # edges only: the overlay interns paths against
                    # itself, see DeltaOverlay.path_index).
                    st.none() | st.integers(min_value=0),
                ),
                min_size=1,
                max_size=4,
            )
        )
        written = set()
        for type_name, words, target in ops:
            text = " ".join(words)
            # As the index stores them: the normalizer is not idempotent
            # ("riverbed" is posted as "riverb"), and a query of none of
            # the written words would be an empty one.
            written.update(mapped.resolve_query(text))
            node = add_entity(mapped, type_name, text)
            assert node == add_entity(oracle, type_name, text)
            if target is not None:
                target %= node  # any earlier node, old or new
                assert add_relationship(
                    mapped, node, "linked", target
                ) == add_relationship(oracle, node, "linked", target)
        dirty = mapped.store.overlay_words
        outcome = compact_indexes(mapped, path)
        assert outcome["words_rebuilt"] == dirty
        assert _file_store_sections(path) == _derived_store_sections(
            [oracle.store]
        )
        fresh = load_indexes(path)
        touched = sorted(written & set(fresh.store.words()))[:2]
        for query in (
            _query_for(wiki_indexes), ResolvedQuery(tuple(touched))
        ):
            expected = _all_algorithms(oracle, query)
            assert _all_algorithms(mapped, query) == expected
            assert _all_algorithms(fresh, query) == expected


_MAPS = pathlib.Path("/proc/self/maps")


def _mappings(path):
    """``(live, unlinked)``: this process's maps lines of ``path``, the
    second list those of replaced files (marked ``(deleted)``)."""
    real = os.path.realpath(path)
    live, unlinked = [], []
    for line in _MAPS.read_text().splitlines():
        fields = line.split(None, 5)
        if len(fields) < 6:
            continue
        if fields[5] == real:
            live.append(line)
        elif fields[5] == real + " (deleted)":
            unlinked.append(line)
    return live, unlinked


@pytest.mark.skipif(not _MAPS.exists(), reason="needs /proc/self/maps")
class TestOneMappingPerGeneration:
    """The store's views (and snapshots pinning older ones) are the only
    holders of a generation's mapping: once nothing pins a replaced
    file, refcounting unmaps it."""

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pool"])
    def test_compactions_leave_one_mapping(
        self, wiki_indexes, tmp_path, pooled
    ):
        from repro.search.service import SearchService
        from repro.serve.pool import PooledSearchService

        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        if pooled:
            service = PooledSearchService.from_file(path, processes=2)
        else:
            service = SearchService.from_file(path)
        query = _query_for(wiki_indexes)
        with service:
            for i in range(5):
                add_entity(service.indexes, "city", f"overlayton gen{i}")
                service.compact()
                assert service.search(query, k=5).num_answers
        gc.collect()
        live, unlinked = _mappings(path)
        assert len(live) == 1 and not unlinked, (live, unlinked)

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pool"])
    def test_an_idle_service_lets_go_after_compact(
        self, wiki_indexes, tmp_path, pooled
    ):
        """``compact()`` drops the serving snapshot and the caches built
        on it, so a service that serves nothing more pins no replaced
        file."""
        from repro.search.service import SearchService
        from repro.serve.pool import PooledSearchService

        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        if pooled:
            service = PooledSearchService.from_file(path, processes=2)
        else:
            service = SearchService.from_file(path)
        with service:
            assert service.search(_query_for(wiki_indexes), k=5).num_answers
            add_entity(service.indexes, "city", "overlayton idle")
            service.compact()
            gc.collect()
            live, unlinked = _mappings(path)
            assert len(live) == 1 and not unlinked, (live, unlinked)

    def test_a_held_snapshot_pins_its_generation(
        self, wiki_indexes, tmp_path
    ):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        mapped = load_indexes(path)
        snapshot = mapped.snapshot()
        _apply_updates(mapped)
        compact_indexes(mapped, path)
        gc.collect()
        live, unlinked = _mappings(path)
        assert len(live) == 1 and len(unlinked) == 1, (live, unlinked)
        del snapshot
        gc.collect()
        live, unlinked = _mappings(path)
        assert len(live) == 1 and not unlinked, (live, unlinked)

    def test_patterns_survive_the_interner_letting_go(
        self, wiki_indexes, tmp_path
    ):
        """``pattern(pid)`` answers the same from the mapped columns and
        from the heap table the full decode leaves behind."""
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        interner = load_indexes(path).interner
        pids = range(len(wiki_indexes.interner))
        decoded = [interner.pattern(pid) for pid in pids]
        assert decoded == [wiki_indexes.interner.pattern(p) for p in pids]
        assert interner.lookup(decoded[-1]) == len(decoded) - 1
        assert interner._mapped is None  # the full decode let go
        assert [interner.pattern(pid) for pid in pids] == decoded
        with pytest.raises(PathIndexError):
            interner.pattern(len(decoded))


class TestSnapshotsShareTheStoreViews:
    """A snapshot reads its version's view dicts, the live store's own:
    a word grouped through one is grouped for all of them."""

    def test_live_store_and_snapshot_share_the_grouping(
        self, wiki_indexes, tmp_path
    ):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        loaded = load_indexes(path)
        store = loaded.store
        snap = loaded.snapshot()
        assert snap.store.root_type_view() is store.root_type_view()
        assert snap.store.pattern_view() is store.pattern_view()
        assert snap.store.root_view() is store.root_view()

    def test_second_snapshot_does_not_group_again(
        self, wiki_indexes, tmp_path
    ):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        loaded = load_indexes(path)
        word = _query_for(wiki_indexes, num_words=1)[0]
        first = loaded.snapshot()
        types = first.pattern_first.root_types(word)
        assert types
        grouped = first.store.root_type_view()[word]
        materialized = MappedPostingStore.words_materialized
        second = loaded.snapshot()
        assert dict.__contains__(second.store.root_type_view(), word)
        assert second.store.root_type_view()[word] is grouped
        assert second.pattern_first.root_types(word) == types
        for root_type in types:
            assert second.pattern_first.patterns_rooted_at(
                word, root_type
            ) is grouped[root_type]
        assert MappedPostingStore.words_materialized == materialized

    def test_a_write_gives_the_next_snapshot_new_views(
        self, wiki_indexes, tmp_path
    ):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        loaded = load_indexes(path)
        before = loaded.snapshot()
        loaded.store.add_posting(next(iter(loaded.store.words())), 0, 0.5)
        after = loaded.snapshot()
        assert after.store.root_type_view() is not (
            before.store.root_type_view()
        )
        assert after.store.root_type_view() is loaded.store.root_type_view()


def _built_view_entries(store):
    """Words decoded into any of ``store``'s lazy views so far."""
    views = []
    for name in _VIEW_ATTRS:
        value = getattr(store, name)
        views.extend(value if isinstance(value, tuple) else (value,))
    return sum(dict.__len__(view) for view in views)


class TestPicklingLeavesTheViewsOut:
    """A pickled store carries its rows, not its decoded views: pickling
    decodes no word, and the copy rebuilds its views on demand."""

    def test_pickling_a_fresh_store_decodes_nothing(self, wiki_indexes):
        fresh = build_indexes(wiki_indexes.graph, d=3)
        assert _built_view_entries(fresh.store) == 0
        copy = pickle.loads(pickle.dumps(fresh))
        assert _built_view_entries(fresh.store) == 0
        assert _built_view_entries(copy.store) == 0
        query = _query_for(wiki_indexes)
        assert _all_algorithms(copy, query) == _all_algorithms(fresh, query)
        assert _built_view_entries(copy.store) > 0


class TestMigrationChains:
    def test_v1_to_v3(self, wiki_indexes, tmp_path):
        legacy = tmp_path / "legacy.idx"
        legacy.write_bytes(make_legacy_v1_bytes(wiki_indexes))
        migrated = load_indexes(legacy)
        fresh = tmp_path / "fresh.idx"
        save_indexes(migrated, fresh, version=3)
        reloaded = load_indexes(fresh)
        assert isinstance(reloaded.store, MappedPostingStore)
        query = _query_for(wiki_indexes)
        assert _all_algorithms(reloaded, query) == _all_algorithms(
            wiki_indexes, query
        )

    def test_v2_to_v3(self, wiki_indexes, tmp_path):
        v2 = tmp_path / "v2.idx"
        save_indexes(wiki_indexes, v2, version=2)
        migrated = load_indexes(v2)
        v3 = tmp_path / "v3.idx"
        save_indexes(migrated, v3, version=3)
        reloaded = load_indexes(v3)
        query = _query_for(wiki_indexes)
        assert _all_algorithms(reloaded, query) == _all_algorithms(
            wiki_indexes, query
        )

    def test_v3_to_v2(self, wiki_indexes, tmp_path):
        """Downgrade path: a mapped bundle re-serializes as v2 (lazy
        graph/lexicon/interner all materialize through their reducers)."""
        v3 = tmp_path / "v3.idx"
        save_indexes(wiki_indexes, v3, version=3)
        mapped = load_indexes(v3)
        v2 = tmp_path / "v2.idx"
        save_indexes(mapped, v2, version=2)
        reloaded = load_indexes(v2)
        assert not isinstance(reloaded.store, MappedPostingStore)
        query = _query_for(wiki_indexes)
        assert _all_algorithms(reloaded, query) == _all_algorithms(
            wiki_indexes, query
        )

    def test_sharded_v2_to_v3(self, wiki_indexes, tmp_path):
        sharded = partition_indexes(wiki_indexes, 2)
        v2 = tmp_path / "s2.idx"
        save_sharded_indexes(sharded, v2, version=2)
        restored = partition_indexes(load_indexes(v2), 2)
        v3 = tmp_path / "s3.idx"
        save_sharded_indexes(restored, v3, version=3)
        back = partition_indexes(load_indexes(v3), 2)
        assert isinstance(back.store, MappedPostingStore)
        query = _query_for(wiki_indexes)
        assert _all_algorithms(back, query) == _all_algorithms(
            wiki_indexes, query
        )


class TestShardedV3:
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_sharded_service_identical(
        self, wiki_indexes, tmp_path, num_shards
    ):
        """v3 sharded file through the fork-worker pool == unsharded."""
        from repro.search.engine import TableAnswerEngine
        from repro.search.sharding import ShardedSearchService

        path = tmp_path / f"s{num_shards}.idx"
        save_sharded_indexes(
            partition_indexes(wiki_indexes, num_shards), path, version=3
        )
        oracle = TableAnswerEngine(wiki_indexes.graph, indexes=wiki_indexes)
        service = ShardedSearchService.from_file(path)
        try:
            query = list(_query_for(wiki_indexes))
            for algorithm in ("pattern_enum", "linear"):
                expected = oracle.search(query, k=10, algorithm=algorithm)
                got = service.search(query, k=10, algorithm=algorithm)
                assert got.scores() == expected.scores()
                assert got.pattern_keys() == expected.pattern_keys()
                assert [
                    [tuple(c) for c in a.subtrees] for a in got.answers
                ] == [
                    [tuple(c) for c in a.subtrees]
                    for a in expected.answers
                ]
        finally:
            service.close()

    def test_sharded_file_loads_as_base(self, wiki_indexes, tmp_path):
        path = tmp_path / "s2.idx"
        save_sharded_indexes(partition_indexes(wiki_indexes, 2), path)
        base = load_indexes(path)
        assert base.num_entries == wiki_indexes.num_entries
        query = _query_for(wiki_indexes)
        assert _all_algorithms(base, query) == _all_algorithms(
            wiki_indexes, query
        )


class TestLegacyShardedFiles:
    """Files written sharded by earlier builds still open: their base
    store is the index, their shard-store sections are never read."""

    QUERY = "database software company revenue"

    @pytest.fixture(scope="class")
    def expected(self):
        from repro.datasets.example import EXAMPLE_NORMALIZER, example_graph

        fresh = build_indexes(
            example_graph(), d=3, normalizer=EXAMPLE_NORMALIZER
        )
        return fresh, _all_algorithms(fresh, self.QUERY.split())

    @pytest.mark.parametrize("version", ["v2", "v3"])
    def test_loads_as_its_base(self, expected, version):
        fresh, answers = expected
        loaded = load_indexes(LEGACY_SHARDED[version])
        assert loaded.num_entries == fresh.num_entries
        assert loaded.store.num_paths == fresh.store.num_paths
        assert _all_algorithms(loaded, self.QUERY.split()) == answers

    @pytest.mark.parametrize("version", ["v2", "v3"])
    def test_serves_sharded(self, expected, version):
        from repro.search.service import SearchService
        from repro.search.sharding import ShardedSearchService
        from tests.search.test_sharding import idle_split_width

        reference = SearchService(expected[0]).search(self.QUERY, k=5)
        with ShardedSearchService.from_file(
            LEGACY_SHARDED[version], num_shards=2
        ) as service:
            got = service.search(self.QUERY, k=5)
            assert got.stats.shards_total == idle_split_width(
                service, self.QUERY, k=5
            )
            assert got.scores() == reference.scores()
            assert got.pattern_keys() == reference.pattern_keys()
            assert [
                [tuple(c) for c in a.subtrees] for a in got.answers
            ] == [[tuple(c) for c in a.subtrees] for a in reference.answers]

    def test_compaction_writes_one_store(self, expected, tmp_path):
        path = tmp_path / "legacy.idx"
        shutil.copy(LEGACY_SHARDED["v3"], path)
        mapped = load_indexes(path)
        outcome = compact_indexes(mapped, path)
        assert outcome["words_rebuilt"] == 0 < outcome["words_copied"]
        info = describe_index_file(path)
        assert info["kind"] == "single" and info["generation"] == 1
        assert [entry["name"] for entry in info["stores"]] == ["base"]
        assert info["file_bytes"] < LEGACY_SHARDED["v3"].stat().st_size
        for bundle in (mapped, load_indexes(path)):
            assert _all_algorithms(bundle, self.QUERY.split()) == expected[1]


class TestSnapshotSaveRejected:
    def test_save_through_snapshot_raises(self, wiki_indexes, tmp_path):
        snapshot = wiki_indexes.snapshot()
        with pytest.raises(PathIndexError, match="StoreSnapshot"):
            save_indexes(snapshot, tmp_path / "snap.idx", version=3)


class TestDescribeIndexFile:
    def test_v3_single(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        nbytes = save_indexes(wiki_indexes, path, version=3)
        info = describe_index_file(path)
        assert info["version"] == 3
        assert info["kind"] == "single"
        assert info["file_bytes"] == nbytes == os.path.getsize(path)
        assert info["num_entries"] == wiki_indexes.num_entries
        (base,) = info["stores"]
        assert base["name"] == "base"
        assert base["num_paths"] == wiki_indexes.store.num_paths
        assert base["num_postings"] == wiki_indexes.num_entries
        assert 0 < base["store_bytes"] <= info["file_bytes"]

    def test_v3_sharded(self):
        """A file an earlier build wrote sharded: what it holds."""
        info = describe_index_file(LEGACY_SHARDED["v3"])
        assert info["kind"] == "sharded"
        assert info["num_shards"] == 2
        names = [entry["name"] for entry in info["stores"]]
        assert names == ["base", "shard 0", "shard 1"]
        base, *shards = info["stores"]
        assert sum(s["num_postings"] for s in shards) == base["num_postings"]

    def test_v2_sharded(self):
        info = describe_index_file(LEGACY_SHARDED["v2"])
        assert info["version"] == 2
        assert info["kind"] == "sharded"
        assert len(info["stores"]) == 3
        assert all(s["store_bytes"] > 0 for s in info["stores"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(PathIndexError, match="no such index file"):
            describe_index_file(tmp_path / "absent.idx")


class TestV3CrashSafety:
    def test_failed_save_preserves_existing(
        self, wiki_indexes, tmp_path, monkeypatch
    ):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        good = path.read_bytes()

        def boom(src, dst):
            raise OSError("disk detached mid-rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(PathIndexError, match="cannot write index"):
            save_indexes(wiki_indexes, path, version=3)
        monkeypatch.undo()
        assert path.read_bytes() == good
        assert [p for p in tmp_path.iterdir() if p.name != "wiki.idx"] == []


    def test_directory_synced_after_replace(
        self, wiki_indexes, tmp_path, monkeypatch
    ):
        """The rename is only durable once its directory is: the file
        is synced before ``os.replace``, the directory after it."""
        path = tmp_path / "wiki.idx"
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            events.append("fsync dir" if is_dir else "fsync file")
            return real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_indexes(wiki_indexes, path, version=3)
        assert events == ["fsync file", "replace", "fsync dir"]
        # Compaction drops its overlay on the strength of that write.
        mapped = load_indexes(path)
        _apply_updates(mapped)
        del events[:]
        compact_indexes(mapped, path)
        assert events == ["fsync file", "replace", "fsync dir"]

    def test_failed_directory_sync_is_a_write_failure(
        self, wiki_indexes, tmp_path, monkeypatch
    ):
        path = tmp_path / "wiki.idx"
        real_fsync = os.fsync

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("directory on a detached disk")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(PathIndexError, match="cannot write index"):
            save_indexes(wiki_indexes, path, version=3)


class TestCorruptV3Files:
    def test_truncated_after_magic(self, tmp_path):
        path = tmp_path / "trunc.idx"
        path.write_bytes(b"RPIXv3\x00\x00\x10")
        with pytest.raises(PathIndexError):
            load_indexes(path)

    def test_magic_with_garbage_header(self, tmp_path):
        path = tmp_path / "garbage.idx"
        path.write_bytes(b"RPIXv3\x00\x00" + b"\xff" * 64)
        with pytest.raises(PathIndexError):
            load_indexes(path)

    def test_wrong_format_name_in_header(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        raw = bytearray(path.read_bytes())
        # Corrupt the pickled header's format string in place.
        marker = FORMAT_NAME.encode()
        index = raw.find(marker)
        assert index > 0
        raw[index : index + len(marker)] = marker[::-1]
        bad = tmp_path / "bad.idx"
        bad.write_bytes(bytes(raw))
        with pytest.raises(PathIndexError):
            load_indexes(bad)

    @pytest.mark.parametrize("damage", ["runs backwards", "past the end"])
    def test_corrupt_leaf_stop_fails_its_word_only(
        self, wiki_indexes, tmp_path, damage
    ):
        """A file's leaf stops are untrusted bytes: the open stays O(1),
        the word whose stops do not rise strictly from 0 to its posting
        count is refused when a query first touches it — by file and
        word — and every other word answers."""
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path, version=3)
        query = _query_for(wiki_indexes)
        reader = MappedIndexReader(path)
        meta = reader.header["stores"][0]
        slot = next(
            i for i, leaves in enumerate(meta["leaf_counts"])
            if leaves >= 2 and meta["words"][i] not in query
        )
        word = meta["words"][slot]
        first = sum(meta["leaf_counts"][:slot])
        if damage == "runs backwards":
            leaf, stop = first + 1, 0
        else:
            leaf = first + meta["leaf_counts"][slot] - 1
            stop = meta["posting_counts"][slot] + 1
        raw = bytearray(path.read_bytes())
        offset, _nbytes = reader.sections["s0/leaf_stops"]
        struct.pack_into(
            OFFSET_TYPECODE, raw, reader.data_start + offset + 8 * leaf, stop
        )
        bad = tmp_path / "bad.idx"
        bad.write_bytes(bytes(raw))

        materialized = MappedPostingStore.words_materialized
        loaded = load_indexes(bad)
        assert MappedPostingStore.words_materialized == materialized
        assert _all_algorithms(loaded, query) == _all_algorithms(
            wiki_indexes, query
        )
        with pytest.raises(PathIndexError) as refused:
            pattern_enum_search(loaded, ResolvedQuery((word,)), k=5)
        assert str(bad) in str(refused.value)
        assert repr(word) in str(refused.value)

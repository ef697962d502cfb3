"""The v2 columnar index format: round-trips, v1 migration, crash safety.

The legacy (v1) format was a wholesale object-graph pickle of
:class:`PathIndexes` with one ``PathEntry`` object per posting inside
triply-nested dicts; :func:`make_legacy_v1_bytes` reconstructs that exact
layout so we can (a) prove ``load_indexes`` still reads v1 files and
(b) measure the v2 size win against a faithful v1 baseline.
"""

import os
import pickle

import pytest

from repro.core.errors import PathIndexError
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import PathIndexes, ResolvedQuery, build_indexes
from repro.index.interner import PatternInterner
from repro.index.pattern_first import PatternFirstIndex
from repro.index.root_first import RootFirstIndex
from repro.index.serialize import (
    FORMAT_NAME,
    load_indexes,
    save_indexes,
)
from repro.index.store import PostingStore
from repro.kg.graph import KnowledgeGraph
from repro.search.baseline import baseline_search
from repro.search.linear_topk import linear_topk_search
from repro.search.pattern_enum import pattern_enum_search

WIKI_CONFIG = WikiConfig(
    num_entities=400, num_types=16, num_attrs=24, vocabulary_size=160, seed=29
)


def make_legacy_v1_bytes(indexes: PathIndexes) -> bytes:
    """Serialize ``indexes`` exactly as the pre-columnar code did.

    Rebuilds the seed attribute layout — ``word -> pid -> root ->
    [PathEntry]`` for the pattern-first index, ``word -> root -> pid ->
    [PathEntry]`` for the root-first one, entry objects shared between the
    two — and pickles it inside a version-1 envelope.
    """
    pf_data, rf_data, rf_counts = {}, {}, {}
    for word, leaves in indexes.store.groups().items():
        for pid, root, _leaf in leaves:
            # one materialized list, shared
            entries = indexes.pattern_first.paths(word, pid, root)
            pf_data.setdefault(word, {}).setdefault(pid, {})[root] = entries
            rf_data.setdefault(word, {}).setdefault(root, {})[pid] = entries
    for word, by_root in rf_data.items():
        rf_counts[word] = {
            root: sum(len(entries) for entries in by_pattern.values())
            for root, by_pattern in by_root.items()
        }
    pattern_first = PatternFirstIndex.__new__(PatternFirstIndex)
    pattern_first.__dict__.update(
        {
            "interner": indexes.interner,
            "_data": pf_data,
            "_by_root_type": {},
            "_finalized": True,
        }
    )
    root_first = RootFirstIndex.__new__(RootFirstIndex)
    root_first.__dict__.update(
        {
            "interner": indexes.interner,
            "_data": rf_data,
            "_counts": rf_counts,
            "_finalized": True,
        }
    )
    payload = PathIndexes.__new__(PathIndexes)
    payload.__dict__.update(
        {
            "graph": indexes.graph,
            "d": indexes.d,
            "normalizer": indexes.normalizer,
            "lexicon": indexes.lexicon,
            "interner": indexes.interner,
            "pattern_first": pattern_first,
            "root_first": root_first,
            "pagerank_scores": indexes.pagerank_scores,
            "build_seconds": indexes.build_seconds,
            "synonyms": indexes.synonyms,
            "_notes": [],
        }
    )
    envelope = {
        "format": FORMAT_NAME,
        "version": 1,
        "d": indexes.d,
        "num_entries": indexes.num_entries,
        "payload": payload,
    }
    return pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)


@pytest.fixture(scope="module")
def wiki_indexes_small():
    graph = generate_wiki_graph(WIKI_CONFIG)
    return build_indexes(graph, d=3)


def _query_for(indexes, num_words=2):
    """A resolved query of the index's most frequent words."""
    words = sorted(
        indexes.store.words(),
        key=lambda w: (-indexes.store.num_postings(w), w),
    )[:num_words]
    return ResolvedQuery(tuple(words))


def _all_algorithms(indexes, query, k=10):
    """Top-k output of all four search algorithms, normalized for compare."""
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
            (answer.pattern_key, answer.score, answer.num_subtrees)
            for answer in result.answers
        ]
        for name, result in results.items()
    }


class TestV2RoundTrip:
    def test_search_identical_after_roundtrip(
        self, wiki_indexes_small, tmp_path
    ):
        """All four algorithms return identical top-k through save/load."""
        indexes = wiki_indexes_small
        path = tmp_path / "wiki.idx"
        save_indexes(indexes, path)
        loaded = load_indexes(path)
        assert loaded.d == indexes.d
        assert loaded.num_entries == indexes.num_entries
        assert loaded.store.num_paths == indexes.store.num_paths
        query = _query_for(indexes)
        assert _all_algorithms(loaded, query) == _all_algorithms(
            indexes, query
        )

    def test_posting_multiset_preserved(self, wiki_indexes_small, tmp_path):
        indexes = wiki_indexes_small
        path = tmp_path / "wiki.idx"
        save_indexes(indexes, path)
        loaded = load_indexes(path)
        original = sorted(
            (w, pid, e) for w, pid, e in indexes.root_first.iter_entries()
        )
        restored = sorted(
            (w, pid, e) for w, pid, e in loaded.root_first.iter_entries()
        )
        assert original == restored

    def test_path_counts_preserved(self, wiki_indexes_small, tmp_path):
        indexes = wiki_indexes_small
        path = tmp_path / "wiki.idx"
        save_indexes(indexes, path)
        loaded = load_indexes(path)
        for word in indexes.root_first.words():
            for root in indexes.root_first.roots(word):
                assert loaded.root_first.path_count(
                    word, root
                ) == indexes.root_first.path_count(word, root)


class TestV1Migration:
    def test_loads_legacy_file(self, wiki_indexes_small, tmp_path):
        indexes = wiki_indexes_small
        path = tmp_path / "legacy.idx"
        path.write_bytes(make_legacy_v1_bytes(indexes))
        migrated = load_indexes(path)
        assert migrated.num_entries == indexes.num_entries
        assert migrated.store.num_paths == indexes.store.num_paths
        query = _query_for(indexes)
        assert _all_algorithms(migrated, query) == _all_algorithms(
            indexes, query
        )

    def test_v1_then_v2_roundtrip(self, wiki_indexes_small, tmp_path):
        """Migrating v1 and re-saving as v2 loses nothing."""
        indexes = wiki_indexes_small
        legacy = tmp_path / "legacy.idx"
        legacy.write_bytes(make_legacy_v1_bytes(indexes))
        migrated = load_indexes(legacy)
        fresh = tmp_path / "fresh.idx"
        save_indexes(migrated, fresh)
        reloaded = load_indexes(fresh)
        query = _query_for(indexes)
        assert _all_algorithms(reloaded, query) == _all_algorithms(
            indexes, query
        )

    def test_corrupt_v1_payload_rejected(self, tmp_path):
        envelope = {
            "format": FORMAT_NAME,
            "version": 1,
            "num_entries": 0,
            "payload": {"not": "indexes"},
        }
        path = tmp_path / "bad.idx"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(PathIndexError):
            load_indexes(path)


class TestSizeWin:
    def test_v2_at_least_2x_smaller_than_v1(
        self, wiki_indexes_small, tmp_path
    ):
        """Acceptance: the wiki synthetic d=3 index shrinks >= 2x."""
        indexes = wiki_indexes_small
        v1_bytes = len(make_legacy_v1_bytes(indexes))
        v2_bytes = save_indexes(indexes, tmp_path / "wiki.idx", version=2)
        assert v2_bytes * 2 <= v1_bytes, (
            f"v2 {v2_bytes} bytes vs v1 {v1_bytes}: "
            f"only {v1_bytes / v2_bytes:.2f}x"
        )


class TestCrashSafety:
    def _small_indexes(self):
        graph = KnowledgeGraph()
        software = graph.add_node("Software", "SQL Server")
        company = graph.add_node("Company", "Microsoft")
        graph.add_edge(software, "Developer", company)
        return build_indexes(graph, d=2)

    def test_failed_save_preserves_existing_file(self, tmp_path, monkeypatch):
        indexes = self._small_indexes()
        path = tmp_path / "index.bin"
        save_indexes(indexes, path)
        good = path.read_bytes()

        def boom(src, dst):
            raise OSError("disk detached mid-rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(PathIndexError, match="cannot write index"):
            save_indexes(indexes, path)
        assert path.read_bytes() == good, "interrupted save corrupted file"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "index.bin"]
        assert leftovers == [], f"temp files left behind: {leftovers}"

    def test_successful_save_leaves_no_temp_files(self, tmp_path):
        indexes = self._small_indexes()
        path = tmp_path / "index.bin"
        save_indexes(indexes, path)
        assert [p.name for p in tmp_path.iterdir()] == ["index.bin"]
        assert load_indexes(path).num_entries == indexes.num_entries


class TestStorePayload:
    def test_store_payload_roundtrip(self, wiki_indexes_small):
        store = wiki_indexes_small.store
        payload = store.to_payload(wiki_indexes_small.pagerank_scores)
        assert payload["prs"] is None, "pr column should be derivable"
        restored = PostingStore.from_payload(
            store.interner, payload, wiki_indexes_small.pagerank_scores
        )
        assert restored.num_paths == store.num_paths
        assert restored.num_postings() == store.num_postings()
        for word in store.words():
            assert restored._posting_ids[word] == store._posting_ids[word]
            assert restored._posting_sims[word] == store._posting_sims[word]
        for path_id in range(store.num_paths):
            assert restored.path_nodes(path_id) == store.path_nodes(path_id)
            assert restored.path_attrs(path_id) == store.path_attrs(path_id)
            assert restored.path_pr(path_id) == store.path_pr(path_id)

    def test_inconsistent_pr_kept_explicitly(self):
        """A store whose pr terms don't match PageRank keeps its pr column."""
        interner = PatternInterner()
        store = PostingStore(interner)
        pid = interner.intern((0,), ends_at_edge=False)
        store.add_path((0,), (), False, pid, 0.75)
        store.add_posting("word", 0, 1.0)
        payload = store.to_payload(pagerank_scores=[0.5])
        assert payload["prs"] is not None
        restored = PostingStore.from_payload(interner, payload, [0.5])
        assert restored.path_pr(0) == 0.75

    def test_elided_pr_requires_pagerank(self, wiki_indexes_small):
        store = wiki_indexes_small.store
        payload = store.to_payload(wiki_indexes_small.pagerank_scores)
        with pytest.raises(PathIndexError):
            PostingStore.from_payload(store.interner, payload)

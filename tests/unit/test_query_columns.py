"""The path-keyed query-column memo: extended, filled by word, shared.

``PostingStore._query_columns`` boxes each path's ``(root, size, pr,
edges, self_invalid)`` once, keyed by path id, and never throws a boxed
slot away on a write (``docs/enumeration.md``).  These tests pin what
that buys and what it must not cost:

* a read after a write boxes the new paths only, into the *same* list
  objects, and answers exactly what a store with a dropped memo and a
  from-scratch twin answer;
* a snapshot never extends the memo past its pinned ``num_paths``, and
  readers racing a writer leave the five lists the same length;
* a slot the fill-by-word pass did not cover raises instead of reading
  as "valid".
"""

import sys
import threading

import pytest

from repro.core.errors import PathIndexError
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import ResolvedQuery, build_indexes
from repro.index.incremental import add_entity
from repro.index.path_enum import interleaved_labels
from repro.index.serialize import load_indexes, save_indexes
from repro.kg.graph import KnowledgeGraph
from repro.kg.pagerank import pagerank
from repro.search.baseline import baseline_search
from repro.search.engine import TableAnswerEngine
from repro.search.individual import individual_topk
from repro.search.linear_enum import linear_enum_search
from repro.search.linear_topk import linear_topk_search
from repro.search.pattern_enum import pattern_enum_search
from repro.search.service import SearchService

CONFIG = WikiConfig(
    num_entities=200, num_types=10, num_attrs=16, vocabulary_size=80, seed=11
)
WRITE_TYPE = "memo_type"


def answers(indexes, query, k=10):
    """The four algorithms' answers, by value (comparable across stores)."""
    searches = {
        "pattern_enum": pattern_enum_search(indexes, query, k=k),
        "linear_topk": linear_topk_search(indexes, query, k=k),
        "linear_enum": linear_enum_search(indexes, query, k=k),
        "baseline": baseline_search(indexes, query, k=k),
    }
    found = {
        name: [
            (
                answer.pattern_key,
                answer.score,
                [tuple(combo) for combo in answer.subtrees],
            )
            for answer in result.answers
        ]
        for name, result in searches.items()
    }
    found["individual"] = [
        (score, tuple(combo))
        for score, _key, combo in individual_topk(indexes, query, k=k).ranked
    ]
    return found


def busiest_words(indexes, count):
    store = indexes.store
    return tuple(sorted(
        store.words(), key=lambda w: (-store.num_postings(w), w)
    )[:count])


def heap_bundle(tmp_path):
    return build_indexes(generate_wiki_graph(CONFIG), d=3)


def mapped_bundle(tmp_path, name="memo.idx"):
    path = tmp_path / name
    save_indexes(build_indexes(generate_wiki_graph(CONFIG), d=3), path)
    return load_indexes(path)


def twin_with(texts):
    """A from-scratch build of the graph with ``texts`` already in it,
    each new node at the PageRank floor ``add_entity`` gives it."""
    graph = generate_wiki_graph(CONFIG)
    ranks = list(pagerank(graph))
    for text in texts:
        graph.add_node(WRITE_TYPE, text)
        ranks.append(0.15 / graph.num_nodes)
    return build_indexes(graph, d=3, pagerank_scores=ranks)


@pytest.mark.parametrize("bundle", [heap_bundle, mapped_bundle])
class TestReadAfterWrite:
    def test_boxes_only_the_new_paths_into_the_same_lists(
        self, bundle, tmp_path
    ):
        indexes = bundle(tmp_path)
        store = indexes.store
        words = busiest_words(indexes, 2)
        query = ResolvedQuery(words)
        answers(indexes, query)
        lists = store._query_columns(words)
        boxed = store.query_paths_boxed
        paths = store.num_paths

        texts = [f"{words[0]} memoone", f"{words[1]} memotwo", "memothree"]
        for text in texts:
            add_entity(indexes, WRITE_TYPE, text)
        new_paths = store.num_paths - paths
        assert new_paths == len(texts)

        after_write = answers(indexes, query)
        delta = store.query_paths_boxed - boxed
        # Two of the three new paths carry a queried word.
        assert 2 <= delta <= new_paths
        assert all(
            now is before
            for now, before in zip(store._query_columns(words), lists)
        )

        store.release_query_columns()
        assert store._query_columns(words)[0] is not lists[0]
        assert answers(indexes, query) == after_write
        assert answers(twin_with(texts), query) == after_write

    def test_repeat_query_boxes_nothing(self, bundle, tmp_path):
        indexes = bundle(tmp_path)
        query = ResolvedQuery(busiest_words(indexes, 3))
        pattern_enum_search(indexes, query, k=10)
        boxed = indexes.store.query_paths_boxed
        assert boxed > 0
        answers(indexes, query)
        assert indexes.store.query_paths_boxed == boxed


class TestSnapshotsShareTheMemo:
    def test_snapshot_never_extends_past_its_pinned_paths(self, tmp_path):
        indexes = mapped_bundle(tmp_path)
        store = indexes.store
        pinned = indexes.snapshot()
        assert pinned.store._query_memo is store._query_memo
        add_entity(indexes, WRITE_TYPE, "memoone memotwo")
        assert store.num_paths == pinned.store.num_paths + 1
        columns = pinned.store._query_columns()
        assert {len(column) for column in columns} == {pinned.store.num_paths}
        # The live store grows the same lists by the one new path.
        boxed = store.query_paths_boxed
        assert store._query_columns()[3] is columns[3]
        assert {len(column) for column in columns} == {store.num_paths}
        assert store.query_paths_boxed == boxed + 1

    def test_counter_is_the_live_stores(self, tmp_path):
        indexes = heap_bundle(tmp_path)
        pinned = indexes.snapshot()
        pinned.store.warm_query_caches()
        assert indexes.store.query_paths_boxed == indexes.store.num_paths
        assert pinned.store.query_paths_boxed == indexes.store.num_paths

    def test_snapshots_racing_one_extension(self, tmp_path):
        """Eight threads, each on a snapshot of its own, extend the memo
        at once after every write: no slot is appended or boxed twice."""
        indexes = mapped_bundle(tmp_path)
        store = indexes.store
        word = busiest_words(indexes, 1)[0]
        store.warm_query_caches()
        errors = []

        def extend(snap, barrier, by_word):
            try:
                barrier.wait(timeout=30)
                snap.store._query_columns((word,) if by_word else None)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_number in range(25):
                for i in range(4):
                    add_entity(indexes, WRITE_TYPE, f"{word} r{round_number}x{i}")
                boxed = store.query_paths_boxed
                barrier = threading.Barrier(8)
                threads = [
                    threading.Thread(
                        target=extend,
                        args=(indexes.snapshot(), barrier, i % 2 == 0),
                    )
                    for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors
                columns = store._query_memo.columns
                assert {len(column) for column in columns} == {store.num_paths}
                assert store.query_paths_boxed == boxed + 4
        finally:
            sys.setswitchinterval(interval)

    def test_readers_racing_a_writer(self, tmp_path):
        """8 readers against one ``add_entity`` writer: every answer is
        some update boundary's, and the memo's lists end up aligned."""
        indexes = mapped_bundle(tmp_path)
        # A rare word: the pattern the writes grow stays inside the top k.
        word = min(
            indexes.store.words(),
            key=lambda w: (indexes.store.num_postings(w), w),
        )
        query = word
        texts = [f"{word} racer{i}" for i in range(10)]

        def observe(result):
            return repr((
                result.scores(),
                result.pattern_keys(),
                [answer.num_subtrees for answer in result.answers],
            ))

        # Oracles from a twin mapping (its own memo), one per boundary.
        twin = mapped_bundle(tmp_path, "twin.idx")
        valid = set()
        for text in [None] + texts:
            if text is not None:
                add_entity(twin, WRITE_TYPE, text)
            snap = twin.snapshot()
            valid.add(observe(
                TableAnswerEngine(snap.graph, indexes=snap).search(query, k=50)
            ))
        assert len(valid) == len(texts) + 1

        service = SearchService(indexes, max_cached_results=0)
        stop = threading.Event()
        observed = []
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    observed.append(observe(service.search(query, k=50)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer():
            try:
                for text in texts:
                    add_entity(indexes, WRITE_TYPE, text)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(8)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert observed
        assert not [seen for seen in observed if seen not in valid]
        assert observe(service.search(query, k=50)) == observe(
            TableAnswerEngine(twin.graph, indexes=twin).search(query, k=50)
        )
        store = indexes.store
        columns = store._query_memo.columns
        assert len({len(column) for column in columns}) == 1
        assert len(columns[0]) <= store.num_paths
        assert store.query_paths_boxed <= store.num_paths


class TestUnfilledSlotsFailLoudly:
    def loop_indexes(self):
        """A tiny index plus one hand-added path that revisits its root,
        posted under a word of its own."""
        graph = KnowledgeGraph()
        a = graph.add_node("T0", "apple")
        b = graph.add_node("T1", "berry")
        graph.add_edge(a, "rel", b)
        graph.add_edge(b, "rel", a)
        indexes = build_indexes(graph, d=3)
        nodes, attrs = (a, b, a), (0, 0)
        pid = indexes.interner.intern(
            interleaved_labels(graph, nodes, attrs), ends_at_edge=False
        )
        path_id = indexes.store.append_path(nodes, attrs, False, pid, 0.125)
        indexes.store.add_posting("loop", path_id, 1.0)
        indexes.pattern_first.finalize()
        indexes.root_first.finalize()
        return indexes, path_id

    def test_self_invalid_single_pair_rejected_when_filled_by_word(self):
        indexes, path_id = self.loop_indexes()
        store = indexes.store
        checker = store.pairs_checker(("loop",))
        assert store.query_paths_boxed == 1
        assert checker(((path_id, 1.0),)) is False
        other = next(i for i in range(store.num_paths) if i != path_id)
        with pytest.raises(PathIndexError):
            checker(((other, 1.0),))
        with pytest.raises(PathIndexError):
            checker(((other, 1.0), (path_id, 1.0)))

    def test_one_keyword_query_over_the_loop_finds_nothing(self):
        indexes, _path_id = self.loop_indexes()
        query = ResolvedQuery(("loop",))
        result = pattern_enum_search(indexes, query, k=5, prune=False)
        assert indexes.store.query_paths_boxed == 1
        assert result.num_answers == 0
        assert result.stats.tree_check_rejections == 1
        assert linear_enum_search(indexes, query, k=5).num_answers == 0
        assert individual_topk(indexes, query, k=5).ranked == []


class TestCounterIsReported:
    def test_service_stats_and_format(self, tmp_path):
        indexes = mapped_bundle(tmp_path)
        service = SearchService(indexes)
        service.search(" ".join(busiest_words(indexes, 2)), k=5)
        boxed = indexes.store.query_paths_boxed
        assert 0 < boxed < indexes.store.num_paths
        assert service.stats.query_paths_boxed == boxed
        assert f"{boxed} query paths boxed" in service.stats.format()

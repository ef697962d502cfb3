"""SearchService: cross-query caching, snapshots, and concurrent serving.

The contract under test is the serving analogue of the id-enumeration
oracle suite: everything the service returns — through any cache tier,
any thread count, any batch path — must be bit-identical to a cold
single-threaded ``TableAnswerEngine.search()`` on the same store
version, and concurrent readers racing an incremental writer must only
ever observe results belonging to *some* complete store version.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import SearchError, StalePlanError
from repro.datasets.example import EXAMPLE_NORMALIZER, example_graph_with_nodes
from repro.index.builder import build_indexes
from repro.index.incremental import add_entity, add_relationship
from repro.kg.pagerank import uniform_scores
from repro.search.engine import TableAnswerEngine
from repro.search.service import MAX_RENDERINGS, SearchService

QUERY = "database software company revenue"


def fingerprint(result):
    """Everything that identifies an answer set bit-for-bit."""
    return (
        result.scores(),
        result.pattern_keys(),
        [answer.num_subtrees for answer in result.answers],
        [list(answer.subtrees) for answer in result.answers],
    )


def cold_search(indexes, query, **kwargs):
    """A fresh engine on a fresh snapshot: the no-cache reference."""
    snap = indexes.snapshot()
    return TableAnswerEngine(snap.graph, indexes=snap).search(query, **kwargs)


@pytest.fixture()
def mutable_bundle():
    """A private example-graph bundle tests may mutate freely."""
    graph, nodes = example_graph_with_nodes()
    indexes = build_indexes(
        graph,
        d=3,
        normalizer=EXAMPLE_NORMALIZER,
        pagerank_scores=uniform_scores(graph),
    )
    return graph, nodes, indexes


@pytest.fixture(scope="module")
def wiki_service(wiki_indexes):
    return SearchService(wiki_indexes)


class TestBitIdentical:
    @pytest.mark.parametrize(
        "algorithm",
        ["pattern_enum", "linear", "letopk", "linear_full", "baseline"],
    )
    def test_matches_cold_engine(self, example_indexes, algorithm):
        service = SearchService(example_indexes)
        served = service.search(QUERY, k=5, algorithm=algorithm)
        cold = cold_search(example_indexes, QUERY, k=5, algorithm=algorithm)
        assert fingerprint(served) == fingerprint(cold)

    def test_warm_hits_are_the_same_answers(self, example_indexes):
        service = SearchService(example_indexes)
        first = service.search(QUERY, k=5)
        second = service.search(QUERY, k=5)
        assert not first.stats.from_result_cache
        assert second.stats.from_result_cache
        # Shared answer objects (no recomputation), fresh stats copy.
        assert second.answers is first.answers
        assert second.stats is not first.stats
        assert not first.stats.from_result_cache  # original never mutated
        assert service.stats.result_hits == 1

    def test_spelling_and_alias_share_cache(self, example_indexes):
        service = SearchService(example_indexes)
        service.search("Software Company!", k=3, algorithm="letopk")
        hit = service.search("software   company", k=3,
                             algorithm="linear_topk")
        assert hit.stats.from_result_cache

    def test_uncacheable_plans_bypass_result_cache(self, example_indexes):
        service = SearchService(example_indexes)
        kwargs = dict(
            k=3, algorithm="letopk", seed=None,
            sampling_threshold=1, sampling_rate=0.5,
        )
        service.search(QUERY, **kwargs)
        again = service.search(QUERY, **kwargs)
        assert not again.stats.from_result_cache

    def test_fragment_tier_shared_across_k_and_algorithms(
        self, example_indexes
    ):
        service = SearchService(example_indexes)
        service.search(QUERY, k=3)
        service.search(QUERY, k=7)                       # same words, new k
        service.search(QUERY, k=3, algorithm="linear")   # new algorithm
        assert service.stats.context_hits == 2
        assert service.stats.context_misses == 1

    def test_candidate_fragments_cross_word_order(self, example_indexes):
        service = SearchService(example_indexes)
        service.search("software company", k=3)
        service.search("company software", k=3)
        assert service.stats.candidate_hits == 1


class TestInvalidation:
    def test_version_bump_flushes_and_recomputes(self, mutable_bundle):
        _graph, _nodes, indexes = mutable_bundle
        service = SearchService(indexes)
        query = "company"
        before = service.search(query, k=10)
        assert service.search(query, k=10).stats.from_result_cache

        add_entity(indexes, "Company", "Freshly Added Company")
        after = service.search(query, k=10)
        assert not after.stats.from_result_cache
        assert service.stats.invalidations == 1
        # The new singleton subtree is actually visible.
        totals = lambda r: sum(a.num_subtrees for a in r.answers)  # noqa: E731
        assert totals(after) == totals(before) + 1
        assert fingerprint(after) == fingerprint(
            cold_search(indexes, query, k=10)
        )

    def test_snapshot_survives_mutation(self, mutable_bundle):
        _graph, nodes, indexes = mutable_bundle
        snap = indexes.snapshot()
        engine = TableAnswerEngine(snap.graph, indexes=snap)
        before = fingerprint(engine.search(QUERY, k=5))
        pinned = snap.store.version

        new_node = add_entity(indexes, "Company", "Mutation Corp")
        add_relationship(indexes, nodes["SQL Server"], "developer", new_node)
        assert indexes.store.version > pinned
        assert snap.store.version == pinned
        assert fingerprint(engine.search(QUERY, k=5)) == before

    def test_result_not_cached_when_writer_races_execution(
        self, mutable_bundle, monkeypatch
    ):
        # A result computed while the store version moved may reflect a
        # mid-update world (the baseline walks the live graph); it must
        # not be admitted to the result cache.
        import repro.search.service as service_module

        _graph, _nodes, indexes = mutable_bundle
        service = SearchService(indexes)
        real_execute = service_module.execute_plan

        def racing_execute(snap, plan, context=None, **kwargs):
            result = real_execute(snap, plan, context=context, **kwargs)
            add_entity(indexes, "Company", "Raced In Mid Query")
            return result

        monkeypatch.setattr(service_module, "execute_plan", racing_execute)
        service.search("company", k=5)
        monkeypatch.setattr(service_module, "execute_plan", real_execute)
        assert service.cache_sizes()["results"] == 0
        again = service.search("company", k=5)
        assert not again.stats.from_result_cache

    def test_manual_invalidate(self, example_indexes):
        service = SearchService(example_indexes)
        service.search(QUERY, k=3)
        service.invalidate()
        assert service.cache_sizes()["results"] == 0
        result = service.search(QUERY, k=3)
        assert not result.stats.from_result_cache

    def test_context_of_a_dropped_snapshot_is_not_served(
        self, example_indexes, monkeypatch
    ):
        # invalidate() replaces the snapshot without a version change.
        # A reader still on the old one publishes its context late; the
        # next reader, on the new snapshot of the same version, must not
        # be handed it ("built for a different index").
        import repro.search.service as service_module

        service = SearchService(example_indexes)
        plan = service.plan(QUERY, k=3)
        first = service.snapshot()
        built, publish = threading.Event(), threading.Event()
        real_context = service_module.EnumerationContext

        def slow_context(snap, query, **kwargs):
            context = real_context(snap, query, **kwargs)
            if snap is first:
                built.set()
                assert publish.wait(timeout=30)
            return context

        monkeypatch.setattr(
            service_module, "EnumerationContext", slow_context
        )
        results = []
        reader = threading.Thread(
            target=lambda: results.append(service.search(plan=plan))
        )
        reader.start()
        assert built.wait(timeout=30)
        service.invalidate()
        second = service.snapshot()
        assert second is not first
        assert second.store.version == first.store.version
        publish.set()
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert service.cache_sizes()["contexts"] == 1  # published late
        fresh = service.execute(plan)  # past the result cache
        assert fingerprint(fresh) == fingerprint(results[0])
        assert fingerprint(fresh) == fingerprint(
            cold_search(example_indexes, QUERY, k=3)
        )

    def test_service_rejects_snapshot_bundle(self, example_indexes):
        with pytest.raises(SearchError, match="live"):
            SearchService(example_indexes.snapshot())


class TestBatch:
    def test_order_dedup_and_equivalence(self, example_indexes):
        service = SearchService(example_indexes)
        queries = [
            "software company",
            QUERY,
            "Software Company",   # same plan as the first, spelled oddly
            "database revenue",
            QUERY,
        ]
        results = service.search_many(queries, k=3)
        assert len(results) == len(queries)
        assert fingerprint(results[0]) == fingerprint(results[2])
        assert fingerprint(results[1]) == fingerprint(results[4])
        assert results[2].stats.from_result_cache
        assert service.stats.batch_deduped == 2
        for query, result in zip(queries, results):
            assert fingerprint(result) == fingerprint(
                cold_search(example_indexes, query, k=3)
            )

    def test_threads_match_inline(self, wiki_service, wiki_indexes):
        vocab = sorted(wiki_indexes.root_first.words())
        queries = [
            " ".join(vocab[i::7][:2]) for i in range(0, 21, 3)
        ]
        inline = wiki_service.search_many(queries, k=5)
        wiki_service.invalidate()
        threaded = wiki_service.search_many(queries, k=5, threads=4)
        assert [fingerprint(r) for r in inline] == [
            fingerprint(r) for r in threaded
        ]

    def test_processes_match_inline(self, example_indexes):
        service = SearchService(example_indexes)
        queries = [QUERY, "software company", "database revenue"]
        inline = service.search_many(queries, k=3, keep_subtrees=False)
        service.invalidate()
        forked = service.search_many(
            queries, k=3, keep_subtrees=False, processes=2
        )
        assert [(r.scores(), r.pattern_keys()) for r in inline] == [
            (r.scores(), r.pattern_keys()) for r in forked
        ]

    def test_processes_keep_subtrees_rows_match_inline(
        self, example_indexes
    ):
        # Kept subtree combos are ComboRef store views in the child; the
        # fork path ships their (path_id, sim) pairs and the parent
        # re-binds them to its snapshot — value-equal to entry tuples.
        service = SearchService(example_indexes)
        queries = [QUERY, "software company", "database revenue"]
        inline = service.search_many(queries, k=3)
        service.invalidate()
        forked = service.search_many(queries, k=3, processes=2)
        assert [fingerprint(r) for r in inline] == [
            fingerprint(r) for r in forked
        ]
        for reference, result in zip(inline, forked):
            for ref_answer, answer in zip(reference.answers, result.answers):
                assert [
                    tuple(combo) for combo in ref_answer.subtrees
                ] == list(answer.subtrees)

    def test_threads_and_processes_exclusive(self, example_indexes):
        service = SearchService(example_indexes)
        with pytest.raises(SearchError, match="not both"):
            service.search_many(
                [QUERY], threads=2, processes=2, keep_subtrees=False
            )


class TestConcurrentServing:
    """N reader threads against a mutating incremental index."""

    READERS = 4
    UPDATES = 6

    def test_readers_see_only_version_consistent_snapshots(
        self, mutable_bundle
    ):
        _graph, _nodes, indexes = mutable_bundle
        service = SearchService(indexes)
        query = "company"  # every added entity matches it

        # version -> oracle fingerprint, recorded at every update boundary
        # (the store lock makes boundaries the only observable states).
        oracles = {}

        def record():
            snap = indexes.snapshot()
            result = TableAnswerEngine(snap.graph, indexes=snap).search(
                query, k=10
            )
            oracles[snap.store.version] = (
                result.scores(),
                result.pattern_keys(),
                [a.num_subtrees for a in result.answers],
            )

        record()
        stop = threading.Event()
        observed = []
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    result = service.search(query, k=10)
                    observed.append(
                        (
                            result.scores(),
                            result.pattern_keys(),
                            [a.num_subtrees for a in result.answers],
                        )
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer():
            try:
                for i in range(self.UPDATES):
                    add_entity(indexes, "Company", f"Company Number {i}")
                    record()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        threads = [
            threading.Thread(target=reader) for _ in range(self.READERS)
        ] + [threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert observed
        valid = set(map(repr, oracles.values()))
        torn = [o for o in observed if repr(o) not in valid]
        assert not torn, f"{len(torn)} reader results match no version"
        # And the updates were actually picked up by the end.
        final = service.search(query, k=10)
        assert (
            final.scores(),
            final.pattern_keys(),
            [a.num_subtrees for a in final.answers],
        ) == oracles[max(oracles)]

    def test_concurrent_distinct_queries_share_caches_safely(
        self, wiki_service, wiki_indexes
    ):
        vocab = sorted(wiki_indexes.root_first.words())
        queries = [" ".join(vocab[i::11][:2]) for i in range(11)]
        expected = {
            q: fingerprint(cold_search(wiki_indexes, q, k=5))
            for q in queries
        }
        errors = []

        def hammer(worker: int):
            try:
                for i in range(3):
                    q = queries[(worker + i) % len(queries)]
                    got = fingerprint(wiki_service.search(q, k=5))
                    assert got == expected[q]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors


class TestRenderedTier:
    """The bytes a front-end stored on a result-tier entry: found again
    only through a live entry, dropped with it, counted like a search."""

    ROWS = (True, 10)

    @pytest.fixture()
    def served(self, mutable_bundle):
        """``(service, plan, result)``: one admitted result, no bytes."""
        service = SearchService(mutable_bundle[2])
        plan = service.plan(QUERY, k=3)
        return service, plan, service.search(plan=plan)

    def test_a_probe_that_misses_counts_nothing(self, served):
        service, plan, _ = served
        before = (service.stats.searches, service.stats.result_misses)
        assert service.rendered(plan, self.ROWS) is None  # entry, no bytes
        assert service.rendered(service.plan("software"), self.ROWS) is None
        assert (service.stats.searches, service.stats.result_misses) == before
        assert service.stats.rendered_hits == 0

    def test_a_hit_is_counted_as_search_would_count_it(self, served):
        service, plan, result = served
        service.store_rendering(plan, result, self.ROWS, b"[1]")
        stats, fragment = service.rendered(plan, self.ROWS)
        assert fragment == b"[1]"
        assert stats.from_result_cache
        assert not result.stats.from_result_cache  # the original is kept
        stats.from_result_cache = False
        assert stats == result.stats
        assert (
            service.stats.searches,
            service.stats.result_hits,
            service.stats.result_misses,
            service.stats.rendered_hits,
            service.stats.rendered_misses,
        ) == (2, 1, 1, 1, 0)
        assert service.rendered(plan, (True, 3)) is None  # other rendering
        # The key is the plan's: another spelling finds the same bytes.
        spelled = service.plan("Database  SOFTWARE company revenue", k=3)
        assert service.rendered(spelled, self.ROWS)[1] == b"[1]"
        assert "2 from rendered bytes, 0 re-rendered" in service.stats.format()

    def test_a_cached_result_that_is_rendered_again_is_a_miss(self, served):
        service, plan, _ = served
        cached = service.search(plan=plan)
        assert cached.stats.from_result_cache
        service.store_rendering(plan, cached, self.ROWS, b"[2]")
        assert service.stats.rendered_misses == 1
        # The served copy shares the entry's answers: the bytes attach.
        assert service.rendered(plan, self.ROWS)[1] == b"[2]"

    def test_bytes_attach_only_to_the_entry_they_rendered(self, served):
        service, plan, _ = served
        stray = service.execute(plan)  # same answers, never admitted
        service.store_rendering(plan, stray, self.ROWS, b"[3]")
        assert service.rendered(plan, self.ROWS) is None

    def test_no_result_tier_no_bytes(self, example_indexes):
        service = SearchService(example_indexes, max_cached_results=0)
        plan = service.plan(QUERY, k=3)
        result = service.search(plan=plan)
        service.store_rendering(plan, result, self.ROWS, b"[4]")
        assert service.rendered(plan, self.ROWS) is None
        assert service.cache_sizes()["results"] == 0

    def test_dropped_by_invalidate(self, served):
        service, plan, result = served
        service.store_rendering(plan, result, self.ROWS, b"[5]")
        service.invalidate()
        assert service.rendered(plan, self.ROWS) is None

    def test_a_plan_a_writer_overtook_is_simply_no(self, served):
        service, plan, result = served
        service.store_rendering(plan, result, self.ROWS, b"[6]")
        add_entity(service.indexes, "company", "database")
        searches = service.stats.searches
        # Nobody has re-snapshotted yet: the old entry is still in the
        # dict, and must not be served.
        assert service.rendered(plan, self.ROWS) is None
        assert service.stats.searches == searches
        fresh = service.plan(QUERY, k=3)
        assert fresh.store_version > plan.store_version
        assert service.rendered(fresh, self.ROWS) is None
        # A rendering that finishes after the flush has no entry left.
        service.store_rendering(plan, result, self.ROWS, b"[6]")
        assert service.rendered(fresh, self.ROWS) is None

    def test_a_stale_plan_is_not_counted_as_a_search(self, served):
        """``searches == result_hits + result_misses`` also when writers
        overtake plans: the attempt that raises counts nothing."""
        service, plan, _ = served
        add_entity(service.indexes, "company", "database")
        with pytest.raises(StalePlanError):
            service.search(plan=plan)
        stats = service.stats
        assert stats.searches == 1 == stats.result_hits + stats.result_misses

    def test_dropped_by_lru_eviction_and_by_replacement(self, mutable_bundle):
        service = SearchService(mutable_bundle[2], max_cached_results=1)
        plan = service.plan(QUERY, k=3)
        result = service.search(plan=plan)
        service.store_rendering(plan, result, self.ROWS, b"[7]")
        service.search("software company")
        assert service.rendered(plan, self.ROWS) is None
        result = service.search(plan=plan)
        service.store_rendering(plan, result, self.ROWS, b"[7]")
        service._store_result(plan, service.execute(plan))  # re-admitted
        assert service.rendered(plan, self.ROWS) is None

    def test_renderings_per_entry_are_capped_fifo(self, served):
        service, plan, result = served
        for max_rows in range(MAX_RENDERINGS + 2):
            service.store_rendering(
                plan, result, (True, max_rows), b"[%d]" % max_rows
            )
        kept = [
            max_rows
            for max_rows in range(MAX_RENDERINGS + 2)
            if service.rendered(plan, (True, max_rows)) is not None
        ]
        assert kept == list(range(2, MAX_RENDERINGS + 2))

    def test_uncacheable_plans_have_no_bytes(self, served):
        service, _, _ = served
        plan = service.plan(
            QUERY, algorithm="letopk", sampling_rate=0.5,
            sampling_threshold=1, seed=None,
        )
        assert not plan.cacheable
        result = service.search(plan=plan)
        service.store_rendering(plan, result, self.ROWS, b"[8]")
        assert service.rendered(plan, self.ROWS) is None


class TestDifferentialHypothesis:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_served_equals_cold(self, wiki_service, wiki_indexes, data):
        vocab = sorted(wiki_indexes.root_first.words())
        words = data.draw(
            st.lists(
                st.sampled_from(vocab), min_size=1, max_size=3, unique=True
            )
        )
        k = data.draw(st.integers(min_value=1, max_value=8))
        algorithm = data.draw(
            st.sampled_from(["pattern_enum", "linear", "linear_full"])
        )
        query = " ".join(words)
        served = wiki_service.search(query, k=k, algorithm=algorithm)
        cold = cold_search(wiki_indexes, query, k=k, algorithm=algorithm)
        assert fingerprint(served) == fingerprint(cold)

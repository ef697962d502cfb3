"""Sharded scatter–gather serving: partition invariants, bit-identity,
bound-driven shard skipping, and worker-pool robustness.

The load-bearing contract is differential: for every shardable algorithm
and every shard count, :class:`ShardedSearchService` must return answers
**bit-identical** to the plain single-store service — scores, pattern
keys, subtree rows, ordering, everything (see ``docs/sharding.md``).
"""

from __future__ import annotations

import ast
import itertools
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import PathIndexError, SearchError
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import ResolvedQuery, build_indexes
from repro.index.serialize import (
    describe_index_file,
    load_indexes,
    save_sharded_indexes,
)
from repro.index.incremental import add_entity
from repro.index.shards import partition_indexes
from repro.index.store import PostingStore
from repro.kg.graph import KnowledgeGraph
from repro.search import sharding
from repro.search.context import EnumerationContext
from repro.search.plan import execute_plan, plan_search
from repro.search.service import SearchService
from repro.search.sharding import (
    _ADDITIVE_COUNTERS,
    DEFAULT_NUM_SHARDS,
    SHARDABLE_ALGORITHMS,
    ShardedSearchService,
    ShardWorkerError,
    execute_shard_plan,
    execute_sharded_plan,
    plan_shardable,
    search_shard,
    shard_upper_bounds,
)
from repro.serve.pool import PooledSearchService

ALGORITHMS = ("pattern_enum", "linear_topk", "linear_full", "baseline")
SHARD_COUNTS = (1, 2, 4, 7)


def fingerprint(result):
    """Everything observable about the answers, subtree rows included."""
    return [
        (
            answer.score,
            answer.pattern_key,
            answer.num_subtrees,
            [tuple(combo) for combo in answer.subtrees],
            answer.estimated_score,
        )
        for answer in result.answers
    ]


@pytest.fixture(scope="module")
def plain_service(wiki_indexes):
    return SearchService(wiki_indexes)


@pytest.fixture(scope="module")
def wiki_queries(wiki_indexes):
    """Queries with real candidate intersections, plus edge cases."""
    vocab = sorted(wiki_indexes.store.words())
    queries = []
    for pair in itertools.combinations(vocab[:25], 2):
        context = EnumerationContext(wiki_indexes, ResolvedQuery(pair))
        if len(context.candidate_roots) >= 5:
            queries.append(" ".join(pair))
        if len(queries) >= 4:
            break
    assert len(queries) >= 2, "fixture graph lost its vocabulary overlap"
    queries.append(vocab[0])          # single keyword
    queries.append("xyzzy unknown")   # resolves to nothing -> empty answer
    return queries


@pytest.fixture(scope="module")
def sharded_services(wiki_indexes):
    """One pool per shard count, shared by the differential tests."""
    services = {
        num_shards: ShardedSearchService(wiki_indexes, num_shards=num_shards)
        for num_shards in SHARD_COUNTS
    }
    yield services
    for service in services.values():
        service.close()


@pytest.fixture()
def small_bundle():
    """A private (mutation-safe) bundle for lifecycle tests."""
    graph = generate_wiki_graph(
        WikiConfig(
            num_entities=120,
            num_types=8,
            num_attrs=12,
            vocabulary_size=60,
            seed=5,
        )
    )
    return build_indexes(graph, d=3)


def patch_cores(monkeypatch, cores: int) -> None:
    monkeypatch.setattr(sharding, "usable_cores", lambda: cores)


def bin_loads(sharded, context, shard_map):
    """``N_R`` summed per shard under ``shard_map``."""
    counts = context.subtree_counts()
    loads = [0] * sharded.num_shards
    for root_type, shard_id in shard_map.items():
        loads[shard_id] += counts[root_type]
    return loads


class TestPartition:
    """The shard map: per query, LPT over the types' ``N_R`` into
    ``min(K, usable cores)`` shards."""

    SHARDS_AND_CORES = [(1, 2), (2, 2), (4, 2), (4, 8), (7, 3), (9, 64)]

    @pytest.mark.parametrize("num_shards, cores", SHARDS_AND_CORES)
    def test_every_candidate_type_in_one_bin(
        self, wiki_indexes, wiki_queries, monkeypatch, num_shards, cores
    ):
        patch_cores(monkeypatch, cores)
        sharded = partition_indexes(wiki_indexes, num_shards)
        assert sharded.width == min(num_shards, cores)
        assert sharded.base is wiki_indexes
        assert sharded.num_shards == num_shards
        for query in wiki_queries:
            context = EnumerationContext(wiki_indexes, query)
            shard_map = sharded.assign(context)
            by_type = context.roots_by_type(wiki_indexes.graph)
            assert set(shard_map) == set(by_type)
            assert set(shard_map.values()) <= set(range(sharded.width))

    @pytest.mark.parametrize("num_shards, cores", SHARDS_AND_CORES)
    def test_map_is_a_function_of_snapshot_and_query(
        self, wiki_indexes, wiki_queries, monkeypatch, num_shards, cores
    ):
        patch_cores(monkeypatch, cores)
        for query in wiki_queries:
            maps = [
                partition_indexes(wiki_indexes, num_shards).assign(
                    EnumerationContext(wiki_indexes, query)
                )
                for _ in range(2)
            ]
            assert maps[0] == maps[1]

    @pytest.mark.parametrize("num_shards, cores", SHARDS_AND_CORES)
    def test_lpt_balances_within_the_largest_type(
        self, wiki_indexes, wiki_queries, monkeypatch, num_shards, cores
    ):
        patch_cores(monkeypatch, cores)
        sharded = partition_indexes(wiki_indexes, num_shards)
        for query in wiki_queries:
            context = EnumerationContext(wiki_indexes, query)
            counts = context.subtree_counts()
            loads = bin_loads(sharded, context, sharded.assign(context))
            assert sum(loads) == sum(counts.values())
            assert loads[sharded.width:] == [0] * (
                num_shards - sharded.width
            )
            used = loads[: sharded.width]
            assert max(used) - min(used) <= max(counts.values(), default=0)

    @pytest.mark.parametrize("num_shards, cores", SHARDS_AND_CORES)
    def test_shard_candidates_partition_the_query(
        self, wiki_indexes, wiki_queries, monkeypatch, num_shards, cores
    ):
        patch_cores(monkeypatch, cores)
        sharded = partition_indexes(wiki_indexes, num_shards)
        graph = wiki_indexes.graph
        for query in wiki_queries:
            context = EnumerationContext(wiki_indexes, query)
            shard_map = sharded.assign(context)
            parts = [
                context.restricted_to(
                    lambda t, shard_id=shard_id: shard_map.get(t) == shard_id
                ).candidate_roots
                for shard_id in range(num_shards)
            ]
            assert sorted(sum(parts, [])) == context.candidate_roots
            for shard_id, part in enumerate(parts):
                assert part == sorted(part)
                assert {
                    shard_map[graph.node_type(root)] for root in part
                } <= {shard_id}

    def test_partition_rejects_bad_shard_count(self, wiki_indexes):
        with pytest.raises(PathIndexError, match="num_shards"):
            partition_indexes(wiki_indexes, 0)


@pytest.fixture()
def store_births(monkeypatch):
    """Class names of the stores constructed while the test runs."""
    built = []
    real_init = PostingStore.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(PostingStore, "__init__", counting_init)
    return built


def rows_of(result):
    """Answers with their first ten rendered rows, keyed by pattern."""
    return {
        answer.pattern_key: (
            answer.score,
            answer.num_subtrees,
            [tuple(combo) for combo in answer.subtrees],
            answer.estimated_score,
        )
        for answer in result.answers
    }


def scatter_in_process(indexes, plan, num_shards, width=1):
    """The merge loop over in-process shard runs, loose bounds."""
    sharded = partition_indexes(indexes, num_shards)
    context = EnumerationContext(indexes, plan.resolved_query())
    shards = sharded.shards
    return execute_sharded_plan(
        plan,
        sharded,
        shard_upper_bounds(sharded, context, plan.scoring),
        lambda shard_ids: [
            (result.answers, result.stats)
            for result in (
                search_shard(shards[shard_id], plan) for shard_id in shard_ids
            )
        ],
        width,
    )


@st.composite
def typed_graphs(draw):
    """Small graphs over up to five root types, few words — so most
    draws have shared vocabulary, and K often exceeds the populated
    types."""
    types = ["TA", "TB", "TC", "TD", "TE"][: draw(st.integers(1, 5))]
    words = ["alpha", "beta", "gamma"]
    num_nodes = draw(st.integers(min_value=1, max_value=8))
    graph = KnowledgeGraph()
    for _ in range(num_nodes):
        text = " ".join(
            draw(st.lists(st.sampled_from(words), min_size=1, max_size=2,
                          unique=True))
        )
        graph.add_node(draw(st.sampled_from(types)), text)
    possible = [
        (u, v, attr)
        for u in range(num_nodes)
        for v in range(num_nodes)
        if u != v
        for attr in ("ra", "rb")
    ]
    for u, v, attr in draw(
        st.lists(st.sampled_from(possible), max_size=12, unique=True)
    ) if possible else []:
        graph.add_edge(u, attr, v)
    return graph


class TestShardsAreSlices:
    """A shard is the set of root types the query's shard map puts in
    it: its run is the unsharded run restricted to those types, on the
    one store."""

    #: Enough to retain every pattern, so no run prunes and every
    #: counter is a plain sum over root types.
    ALL = 10**6

    @pytest.mark.parametrize("num_shards", (1, 2, 3, 5, 8))
    def test_shard_runs_are_the_unsharded_run_by_root_type(
        self, wiki_indexes, wiki_queries, num_shards
    ):
        sharded = partition_indexes(wiki_indexes, num_shards)
        interner = wiki_indexes.interner
        checked = 0
        for algorithm in sorted(SHARDABLE_ALGORITHMS):
            for query in wiki_queries[:-1]:
                plan = plan_search(
                    wiki_indexes, query, k=self.ALL, algorithm=algorithm
                )
                whole = execute_plan(wiki_indexes, plan)
                shard_map = sharded.assign(
                    EnumerationContext(wiki_indexes, plan.resolved_query())
                )
                expected = [{} for _ in range(num_shards)]
                for key, row in rows_of(whole).items():
                    owner = shard_map[interner.pattern(key[0]).root_type]
                    expected[owner][key] = row
                runs = [search_shard(shard, plan) for shard in sharded.shards]
                assert [rows_of(run) for run in runs] == expected
                # Ranked like the unsharded run ranks them.
                order = [a.pattern_key for a in whole.answers]
                for run in runs:
                    keys = [a.pattern_key for a in run.answers]
                    assert keys == sorted(keys, key=order.index)
                for counter in _ADDITIVE_COUNTERS + ("candidate_roots",):
                    assert sum(
                        getattr(run.stats, counter) for run in runs
                    ) == getattr(whole.stats, counter), (counter, algorithm)
                checked += len(whole.answers)
        assert checked > 0

    def test_partitioning_touches_no_store(
        self, wiki_indexes, wiki_queries, store_births
    ):
        store = wiki_indexes.store
        plan = plan_search(wiki_indexes, wiki_queries[0], k=5)
        execute_plan(wiki_indexes, plan)  # boxes the query's paths
        before = (store.version, store.words_remerged, store.query_paths_boxed)
        sharded = partition_indexes(wiki_indexes, 3)
        assert sharded.base.store is store
        for shard in sharded.shards:
            for answer in search_shard(shard, plan).answers:
                assert {combo._store for combo in answer.subtrees} == {store}
        assert fingerprint(scatter_in_process(wiki_indexes, plan, 3)) == (
            fingerprint(execute_plan(wiki_indexes, plan))
        )
        assert store_births == []
        assert before == (
            store.version, store.words_remerged, store.query_paths_boxed
        )

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph=typed_graphs(),
        num_shards=st.integers(min_value=1, max_value=9),
        k=st.sampled_from([1, 2, 50]),
        width=st.sampled_from([1, 3]),
        data=st.data(),
    )
    def test_random_graphs_and_shard_counts(
        self, graph, num_shards, k, width, data
    ):
        """Empty shards and K above the populated types included."""
        indexes = build_indexes(graph, d=3)
        vocab = sorted(indexes.store.words())
        if not vocab:
            return
        words = data.draw(
            st.lists(st.sampled_from(vocab), min_size=1, max_size=2,
                     unique=True)
        )
        for algorithm in sorted(SHARDABLE_ALGORITHMS):
            plan = plan_search(
                indexes, " ".join(words), k=k, algorithm=algorithm
            )
            whole = execute_plan(indexes, plan)
            merged = scatter_in_process(indexes, plan, num_shards, width)
            assert fingerprint(merged) == fingerprint(whole)
            assert merged.stats.shards_total == num_shards

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph=typed_graphs(),
        num_shards=st.integers(min_value=1, max_value=9),
        cores=st.integers(min_value=1, max_value=8),
        k=st.sampled_from([1, 2, 50]),
        data=st.data(),
    )
    def test_random_graphs_at_any_core_count(
        self, graph, num_shards, cores, k, data
    ):
        """The map's shard count follows the cores: merged equals
        unsharded in process and through a pooled × sharded worker."""
        indexes = build_indexes(graph, d=3)
        vocab = sorted(indexes.store.words())
        if not vocab:
            return
        words = data.draw(
            st.lists(st.sampled_from(vocab), min_size=1, max_size=2,
                     unique=True)
        )
        with mock.patch.object(sharding, "usable_cores", lambda: cores):
            width = partition_indexes(indexes, num_shards).width
            assert width == min(num_shards, cores)
            with PooledSearchService(
                indexes, processes=1, num_shards=num_shards,
                max_cached_results=0,
            ) as pooled:
                for algorithm in sorted(SHARDABLE_ALGORITHMS):
                    plan = plan_search(
                        indexes, " ".join(words), k=k, algorithm=algorithm
                    )
                    whole = fingerprint(execute_plan(indexes, plan))
                    merged = scatter_in_process(
                        indexes, plan, num_shards, width
                    )
                    assert fingerprint(merged) == whole
                    dispatched = merged.stats.shard_dispatch_order
                    assert all(shard_id < width for shard_id in dispatched)
                    assert fingerprint(pooled.search(plan=plan)) == whole


class TestOneStore:
    """The process holds one store per bundle however it is served, and
    a write costs a pool-backed service a fork, nothing O(index)."""

    @pytest.fixture()
    def mapped_path(self, small_bundle, tmp_path):
        path = tmp_path / "kb.idx"
        save_sharded_indexes(partition_indexes(small_bundle, 2), path)
        return path

    @staticmethod
    def open_services(path):
        return [
            SearchService.from_file(path),
            ShardedSearchService.from_file(path, num_shards=3),
            PooledSearchService.from_file(path, processes=1, num_shards=3),
        ]

    def test_one_store_per_served_bundle(
        self, small_bundle, mapped_path, store_births
    ):
        query = " ".join(sorted(small_bundle.store.words())[:2])
        services = self.open_services(mapped_path)
        try:
            assert store_births == ["MappedPostingStore"] * 3
            answers = [fingerprint(s.search(query, k=5)) for s in services]
            assert answers[0] == answers[1] == answers[2] != []
            assert store_births == ["MappedPostingStore"] * 3
        finally:
            for service in services:
                service.close()

    def test_a_write_rebuilds_the_pool_with_a_fork(
        self, small_bundle, mapped_path, store_births
    ):
        """No store is built for the new version, and the live store
        re-merges exactly what the unsharded service's does."""
        query = " ".join(sorted(small_bundle.store.words())[:2])
        services = self.open_services(mapped_path)
        try:
            for service in services:
                service.search(query, k=5)
            del store_births[:]
            remerged = []
            for service in services:
                store = service.indexes.store
                before = store.words_remerged
                add_entity(service.indexes, "company", f"freshword {query}")
                assert fingerprint(service.search(query, k=5)) != []
                remerged.append(store.words_remerged - before)
            assert remerged[0] == remerged[1] == remerged[2] > 0
            assert [s.stats.pool_rebuilds for s in services] == [0, 2, 2]
            assert store_births == []
        finally:
            for service in services:
                service.close()

    def test_sharded_compaction_is_the_unsharded_one(
        self, small_bundle, mapped_path
    ):
        """Same words rebuilt — the overlay's — and the same work under
        ``store.lock``, whatever the service's K."""
        outcomes = []
        services = self.open_services(mapped_path)
        try:
            for service in services:
                add_entity(service.indexes, "company", "freshword")
                overlay = service.indexes.store.overlay_words
                outcome = service.compact(
                    mapped_path.with_name(type(service).__name__)
                )
                assert outcome["words_rebuilt"] == overlay > 0
                outcomes.append(outcome)
        finally:
            for service in services:
                service.close()
        plain = outcomes[0]
        for outcome in outcomes[1:]:
            assert {
                name: outcome[name]
                for name in ("bytes", "words_copied", "words_rebuilt")
            } == {
                name: plain[name]
                for name in ("bytes", "words_copied", "words_rebuilt")
            }
        assert (
            mapped_path.with_name("ShardedSearchService").read_bytes()
            == mapped_path.with_name("SearchService").read_bytes()
        )

    SRC = Path(sharding.__file__).resolve().parent.parent

    @staticmethod
    def calls_in(tree, names):
        return [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in names
        ]

    @pytest.mark.parametrize(
        "module",
        ["index/shards.py", "search/sharding.py", "search/workers.py",
         "serve/pool.py"],
    )
    def test_the_shard_layer_constructs_no_store(self, module):
        source = (self.SRC / module).read_text()
        tree = ast.parse(source)
        assert not self.calls_in(
            tree, {"PostingStore", "MappedPostingStore", "from_payload"}
        )
        assert "PostingStore" not in {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }

    def test_a_file_is_written_with_one_store(self):
        source = (self.SRC / "index/serialize.py").read_text()
        # One function lays a store out and one call site uses it; the
        # header names that one store; the v2 envelope holds one payload.
        assert source.count("_v3_store_sections(") == 2
        assert source.count('"stores": [store_meta],') == 1
        assert source.count("store.to_payload(") == 1
        # ... and only describe_index_file still knows older files' key.
        assert source.count("shard_stores") == 1

    def test_the_shard_restriction_is_applied_in_one_function(self):
        narrowing, mapping, defined = [], [], []
        for path in sorted(self.SRC.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                where = f"{path.relative_to(self.SRC)}:{node.name}"
                if node.name == "assign":
                    defined.append(where)
                if self.calls_in(node, {"restricted_to"}):
                    narrowing.append(where)
                if self.calls_in(node, {"assign"}):
                    mapping.append(where)
        assert narrowing == ["search/sharding.py:search_shard"]
        # One map, computed in one function, read by both sides of the
        # pipe: the shard run and the coordinator's bounds.
        assert defined == ["index/shards.py:assign"]
        assert mapping == [
            "search/sharding.py:search_shard",
            "search/sharding.py:shard_upper_bounds",
        ]
        # ... which hands the narrowed context to the unmodified
        # algorithms: none of them knows about shards.
        for module in ("pattern_enum", "linear_topk", "linear_enum",
                       "expand", "bounds"):
            assert "shard" not in (
                self.SRC / "search" / f"{module}.py"
            ).read_text().lower()


class TestBitIdentity:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_all_algorithms_match_unsharded(
        self, sharded_services, plain_service, wiki_queries, num_shards
    ):
        service = sharded_services[num_shards]
        for algorithm in ALGORITHMS:
            for query in wiki_queries:
                reference = plain_service.search(
                    query, k=5, algorithm=algorithm
                )
                sharded = service.search(query, k=5, algorithm=algorithm)
                assert fingerprint(sharded) == fingerprint(reference), (
                    num_shards,
                    algorithm,
                    query,
                )
                if algorithm in SHARDABLE_ALGORITHMS and not (
                    sharded.stats.from_result_cache
                ):
                    assert sharded.stats.shards_total == num_shards

    def test_no_subtrees_matches_too(
        self, sharded_services, plain_service, wiki_queries
    ):
        service = sharded_services[4]
        for query in wiki_queries[:3]:
            reference = plain_service.search(
                query, k=5, keep_subtrees=False
            )
            sharded = service.search(query, k=5, keep_subtrees=False)
            assert fingerprint(sharded) == fingerprint(reference)

    def test_search_many_through_shards(
        self, sharded_services, plain_service, wiki_queries
    ):
        service = sharded_services[2]
        reference = plain_service.search_many(wiki_queries, k=5)
        batched = service.search_many(wiki_queries, k=5, threads=2)
        for got, want in zip(batched, reference):
            assert fingerprint(got) == fingerprint(want)


class TestHypothesisDifferential:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_queries_match(
        self, data, sharded_services, plain_service, wiki_indexes
    ):
        vocab = sorted(wiki_indexes.store.words())
        words = data.draw(
            st.lists(
                st.sampled_from(vocab), min_size=1, max_size=3, unique=True
            )
        )
        algorithm = data.draw(st.sampled_from(sorted(SHARDABLE_ALGORITHMS)))
        k = data.draw(st.sampled_from([1, 3, 10]))
        num_shards = data.draw(st.sampled_from(SHARD_COUNTS))
        query = " ".join(words)
        reference = plain_service.search(
            query, k=k, algorithm=algorithm, keep_subtrees=False
        )
        sharded = sharded_services[num_shards].search(
            query, k=k, algorithm=algorithm, keep_subtrees=False
        )
        assert fingerprint(sharded) == fingerprint(reference)


class TestBoundSkipping:
    def test_small_k_skips_shards(
        self, sharded_services, plain_service, wiki_queries
    ):
        service = sharded_services[7]
        skipped = 0
        for query in wiki_queries:
            result = service.search(
                query, k=1, keep_subtrees=False, algorithm="pattern_enum"
            )
            reference = plain_service.search(
                query, k=1, keep_subtrees=False, algorithm="pattern_enum"
            )
            assert fingerprint(result) == fingerprint(reference)
            stats = result.stats
            if stats.from_result_cache:
                continue
            skipped += stats.shards_skipped
            assert stats.shards_total == 7
            assert (
                len(stats.shard_dispatch_order) + stats.shards_skipped == 7
            )
        assert skipped > 0, "k=1 over 7 shards never skipped a shard"

    def test_dispatch_order_is_best_bound_first(
        self, sharded_services, wiki_queries
    ):
        service = sharded_services[4]
        service._results.clear()
        result = service.search(wiki_queries[0], k=5)
        stats = result.stats
        order = stats.shard_dispatch_order
        snap = service.snapshot()
        plan = service.plan(wiki_queries[0], k=5)
        context = service._context_for(snap, plan)
        with service._scatter_lock:
            sharded, _ = service._ensure_pool(snap)
            uppers = service._shard_bounds(snap, plan, context, sharded)
        bounds = [uppers[shard_id] for shard_id in order]
        assert bounds == sorted(bounds, reverse=True)

    def test_unknown_words_skip_everything(self, sharded_services):
        service = sharded_services[4]
        result = service.search("xyzzy unknown", k=5)
        if not result.stats.from_result_cache:
            assert result.stats.shards_skipped == 4
            assert result.stats.shard_dispatch_order == ()
        assert result.answers == []


class TestShardSubtrees:
    def test_stats_carry_each_dispatched_shards_subtrees(
        self, sharded_services, wiki_queries
    ):
        from repro.cli import _explain_pruning

        service = sharded_services[4]
        for query in wiki_queries:
            service._results.clear()
            stats = service.search(query, k=5).stats
            snap = service.snapshot()
            with service._scatter_lock:
                sharded, _ = service._ensure_pool(snap)
            context = EnumerationContext(snap, query)
            loads = bin_loads(sharded, context, sharded.assign(context))
            assert stats.shard_subtrees == tuple(
                loads[shard_id] for shard_id in stats.shard_dispatch_order
            )
            assert f"subtrees={list(stats.shard_subtrees)}" in (
                _explain_pruning(stats)
            )

    def test_a_letopk_shard_run_counts_subtrees_once(
        self, wiki_indexes, wiki_queries, monkeypatch
    ):
        """The map and LETopK's sampling test read one memo."""
        calls = []
        real = EnumerationContext.path_count

        def counting(self, word_index, root):
            calls.append(root)
            return real(self, word_index, root)

        monkeypatch.setattr(EnumerationContext, "path_count", counting)
        sharded = partition_indexes(wiki_indexes, 2)
        plan = plan_search(
            wiki_indexes, wiki_queries[0], k=5, algorithm="linear_topk"
        )
        context = EnumerationContext(wiki_indexes, plan.resolved_query())
        for shard in sharded.shards:
            search_shard(shard, plan, context)
        assert len(calls) == len(context.candidate_roots) * len(plan.words)


class TestInlineRouting:
    def test_baseline_routes_inline(self, sharded_services, wiki_queries):
        result = sharded_services[2].search(
            wiki_queries[0], k=3, algorithm="baseline"
        )
        assert result.stats.shards_total == 0

    def test_sampled_letopk_routes_inline(
        self, sharded_services, plain_service, wiki_queries
    ):
        # Sampled LETopK draws its keep/drop stream over the global
        # candidate ordering; per-shard streams would diverge, so the
        # coordinator executes it inline — still bit-identical.
        params = dict(
            algorithm="linear_topk",
            sampling_threshold=0.0,
            sampling_rate=0.5,
            seed=11,
        )
        result = sharded_services[2].search(wiki_queries[0], k=3, **params)
        reference = plain_service.search(wiki_queries[0], k=3, **params)
        assert result.stats.shards_total == 0
        assert fingerprint(result) == fingerprint(reference)

    def test_plan_shardable_predicate(self, plain_service, wiki_queries):
        shardable = plain_service.plan(wiki_queries[0], algorithm="letopk")
        assert plan_shardable(shardable)
        sampled = plain_service.plan(
            wiki_queries[0],
            algorithm="letopk",
            sampling_threshold=0.0,
            sampling_rate=0.5,
        )
        assert not plan_shardable(sampled)
        baseline = plain_service.plan(wiki_queries[0], algorithm="baseline")
        assert not plan_shardable(baseline)


class TestWorkerRobustness:
    def test_killed_worker_fails_over_and_respawns(
        self, small_bundle, monkeypatch
    ):
        plain = SearchService(small_bundle)
        vocab = sorted(small_bundle.store.words())
        query = " ".join(vocab[:2])
        with ShardedSearchService(small_bundle, num_shards=4) as service:
            first = service.search(query, k=5)
            assert first.stats.shard_dispatch_order, "query dispatched nothing"
            victim = first.stats.shard_dispatch_order[0]
            service._pool.kill_worker(victim)
            service._results.clear()  # force re-execution, not a cache hit
            recovered = service.search(query, k=5)
            assert fingerprint(recovered) == fingerprint(first)
            assert recovered.stats.shard_failovers >= 1
            # The pool respawned the worker: the next query runs fully
            # remote again, no failover.
            service._results.clear()
            healthy = service.search(query, k=5)
            assert healthy.stats.shard_failovers == 0
            assert fingerprint(healthy) == fingerprint(
                plain.search(query, k=5)
            )

    def test_failed_respawn_does_not_fail_the_query(
        self, small_bundle, monkeypatch
    ):
        # The lost shard is answered inline *before* the respawn is
        # tried; a respawn that fails is counted and retried by the
        # next query, never raised.
        vocab = sorted(small_bundle.store.words())
        query = " ".join(vocab[:2])
        with ShardedSearchService(
            small_bundle, num_shards=4, max_cached_results=0
        ) as service:
            healthy = service.search(query, k=5)
            victim = healthy.stats.shard_dispatch_order[0]
            pool = service._pool
            real_spawn = pool._spawn
            failures = [1]

            def flaky_spawn(shard_id):
                if failures[0]:
                    failures[0] -= 1
                    raise OSError("fork: resource temporarily unavailable")
                return real_spawn(shard_id)

            monkeypatch.setattr(pool, "_spawn", flaky_spawn)
            pool.kill_worker(victim)
            lost = service.search(query, k=5)
            assert fingerprint(lost) == fingerprint(healthy)
            assert lost.stats.shard_failovers == 1
            assert service.stats.respawn_failures == 1
            assert pool._workers[victim] is None  # slot left empty
            with pytest.raises(ShardWorkerError):
                pool.send(victim, service.plan(query, k=5))
            # The next query fails over again and the retry succeeds.
            retried = service.search(query, k=5)
            assert fingerprint(retried) == fingerprint(healthy)
            assert retried.stats.shard_failovers == 1
            assert service.stats.respawn_failures == 1
            assert pool._workers[victim].process.is_alive()
            whole = service.search(query, k=5)
            assert whole.stats.shard_failovers == 0
            assert fingerprint(whole) == fingerprint(healthy)
            assert "1 failed respawns" in service.stats.format()

    def test_inline_execution_matches_worker(self, small_bundle):
        # The failover path runs the same function the workers run.
        service = SearchService(small_bundle)
        vocab = sorted(small_bundle.store.words())
        plan = service.plan(" ".join(vocab[:2]), k=5)
        sharded = partition_indexes(small_bundle, 2)
        portable = [
            execute_shard_plan(shard, plan)[0] for shard in sharded.shards
        ]
        merged_keys = sorted(
            key for answers in portable for _, key, _, _, _ in answers
        )
        reference = service.search(plan=plan)
        assert set(a.pattern_key for a in reference.answers) <= set(
            merged_keys
        )

    def test_processes_batch_is_rejected(self, small_bundle):
        with ShardedSearchService(small_bundle, num_shards=2) as service:
            with pytest.raises(SearchError, match="parallel path"):
                service.search_many(
                    ["anything"], k=3, processes=2, keep_subtrees=False
                )


class TestShardedPersistence:
    """K is a serving parameter, not file content."""

    def test_round_trip(self, small_bundle, tmp_path):
        path = tmp_path / "kb.sharded.idx"
        other = tmp_path / "kb.idx"
        nbytes = save_sharded_indexes(partition_indexes(small_bundle, 4), path)
        assert nbytes == save_sharded_indexes(
            partition_indexes(small_bundle, 2), other
        )
        assert path.read_bytes() == other.read_bytes()
        info = describe_index_file(path)
        assert info["kind"] == "single" and info["num_shards"] == 0
        assert [entry["name"] for entry in info["stores"]] == ["base"]
        loaded = partition_indexes(load_indexes(path), 4)
        assert loaded.num_shards == 4
        assert loaded.base.num_entries == small_bundle.num_entries

    def test_plain_load_returns_base(self, small_bundle, tmp_path):
        path = tmp_path / "kb.sharded.idx"
        save_sharded_indexes(partition_indexes(small_bundle, 2), path)
        base = load_indexes(path)
        assert base.num_entries == small_bundle.num_entries
        assert base.store.num_paths == small_bundle.store.num_paths

    def test_service_from_sharded_file(self, small_bundle, tmp_path):
        path = tmp_path / "kb.sharded.idx"
        save_sharded_indexes(partition_indexes(small_bundle, 3), path)
        vocab = sorted(small_bundle.store.words())
        query = " ".join(vocab[:2])
        reference = SearchService(small_bundle).search(query, k=5)
        # The file does not carry its writer's K: the service's is used.
        with ShardedSearchService.from_file(path) as service:
            assert service.num_shards == DEFAULT_NUM_SHARDS != 3
            assert fingerprint(service.search(query, k=5)) == fingerprint(
                reference
            )
        with ShardedSearchService.from_file(path, num_shards=2) as service:
            assert service.num_shards == 2
            assert fingerprint(service.search(query, k=5)) == fingerprint(
                reference
            )


class TestPoolLifecycle:
    def test_pool_rebuilds_after_store_mutation(self, small_bundle):
        vocab = sorted(small_bundle.store.words())
        query = " ".join(vocab[:2])
        with ShardedSearchService(small_bundle, num_shards=2) as service:
            before = service.search(query, k=5)
            first_pool = service._pool
            # Any store mutation bumps the version; the next shardable
            # query must re-partition and re-fork against the new state.
            word, path_id, sim = "zzz-new-word", 0, 0.5
            small_bundle.store.add_posting(word, path_id, sim)
            after = service.search(query, k=5)
            assert service._pool is not first_pool
            assert fingerprint(after) == fingerprint(
                SearchService(small_bundle).search(query, k=5)
            )
            assert not before.stats.from_result_cache
            assert not after.stats.from_result_cache

    def test_close_is_idempotent_and_service_survives(self, small_bundle):
        vocab = sorted(small_bundle.store.words())
        query = vocab[0]
        service = ShardedSearchService(small_bundle, num_shards=2)
        first = service.search(query, k=3)
        service.close()
        service.close()
        # Serving continues: a fresh pool is built on demand.
        service._results.clear()
        again = service.search(query, k=3)
        assert fingerprint(again) == fingerprint(first)
        service.close()

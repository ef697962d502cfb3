"""The fork-pool execution backend: bit-identity, invalidation,
failover, and the HTTP bridge.

The load-bearing contract is differential, same as sharding's: a
:class:`PooledSearchService` — plain or composed with a shard
partition — must return answers **bit-identical** to the plain
single-store service (scores, pattern keys, subtree rows, ordering),
with every execution crossing a pipe to a pre-forked worker.  On top of
that sit the fault model (SIGKILL / mid-request death → inline
failover + respawn + ``worker_failovers``) and the version-guard
protocol (a store bump forks a fresh pool; workers never serve a stale
snapshot).
"""

from __future__ import annotations

import json

import pytest

from repro.datasets.example import EXAMPLE_NORMALIZER, example_graph_with_nodes
from repro.index.builder import build_indexes
from repro.index.incremental import add_entity
from repro.kg.pagerank import uniform_scores
from repro.search.service import SearchService
from repro.core.errors import SearchError
from repro.serve import start_http_server
from repro.serve.pool import ForkWorkerPool, PooledSearchService

from tests.serve.test_http import get, post

QUERY = "database software company revenue"
ALGORITHMS = ("pattern_enum", "linear_topk", "linear_full", "baseline")


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


def body_fingerprint(body: bytes):
    """An HTTP body minus its timing field (the only nondeterminism)."""
    payload = json.loads(body)
    payload.get("stats", {}).pop("elapsed_ms", None)
    return payload


@pytest.fixture(scope="module")
def plain_service(example_indexes):
    return SearchService(example_indexes)


@pytest.fixture(scope="module")
def pooled_service(example_indexes):
    service = PooledSearchService(example_indexes, processes=2)
    yield service
    service.close()


@pytest.fixture(scope="module")
def pooled_sharded_service(example_indexes):
    service = PooledSearchService(
        example_indexes, processes=2, num_shards=3
    )
    yield service
    service.close()


@pytest.fixture()
def private_bundle():
    """A mutation-safe bundle for lifecycle/failover tests."""
    graph, _nodes = example_graph_with_nodes()
    return build_indexes(
        graph,
        d=3,
        normalizer=EXAMPLE_NORMALIZER,
        pagerank_scores=uniform_scores(graph),
    )


class TestDifferential:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_pooled_matches_plain(
        self, plain_service, pooled_service, algorithm
    ):
        for query in (QUERY, "software company", "database revenue"):
            expected = plain_service.search(query, k=4, algorithm=algorithm)
            served = pooled_service.search(query, k=4, algorithm=algorithm)
            assert fingerprint(served) == fingerprint(expected)
            assert not served.stats.from_result_cache

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_pooled_sharded_matches_plain(
        self, plain_service, pooled_sharded_service, algorithm
    ):
        for query in (QUERY, "software company"):
            expected = plain_service.search(query, k=4, algorithm=algorithm)
            served = pooled_sharded_service.search(
                query, k=4, algorithm=algorithm
            )
            assert fingerprint(served) == fingerprint(expected)
            if algorithm != "baseline":
                # The worker ran the inline scatter loop: shard counters
                # must flow back across the pipe.
                assert served.stats.shards_total == 3

    def test_seeded_sampling_crosses_the_pipe(
        self, plain_service, pooled_service
    ):
        # Sampled LETopK is NOT shardable (per-shard RNG streams would
        # diverge) but it IS poolable: the single seeded stream runs
        # whole inside one worker.
        params = dict(
            algorithm="linear_topk",
            sampling_rate=0.5,
            sampling_threshold=1.0,
            seed=11,
        )
        expected = plain_service.search(QUERY, k=4, **params)
        served = pooled_service.search(QUERY, k=4, **params)
        assert fingerprint(served) == fingerprint(expected)

    def test_result_cache_stays_in_the_parent(self, pooled_service):
        first = pooled_service.search("software company", k=3)
        again = pooled_service.search("software company", k=3)
        assert again.stats.from_result_cache
        assert fingerprint(again) == fingerprint(first)


class TestLifecycle:
    def test_pool_is_lazy_and_survives_close(self, private_bundle):
        service = PooledSearchService(private_bundle, processes=2)
        assert service.worker_snapshot() == []
        assert service.pool_info()["built"] is False
        service.search(QUERY, k=3)
        assert service.pool_info()["built"] is True
        assert service.stats.pool_rebuilds == 1
        rows = service.worker_snapshot()
        assert [row["worker"] for row in rows] == [0, 1]
        assert all(row["alive"] for row in rows)
        service.close()
        assert service.pool_info()["built"] is False
        # The service stays usable: the next execution forks afresh.
        result = service.search(QUERY, k=3, algorithm="linear_topk")
        assert result.num_answers > 0
        assert service.stats.pool_rebuilds == 2
        service.close()

    def test_version_bump_rebuilds_the_pool(self, private_bundle):
        service = PooledSearchService(private_bundle, processes=2)
        try:
            before = service.search("company", k=5)
            first_pool = service._pool
            assert first_pool.store_version == private_bundle.store.version
            add_entity(private_bundle, "Company", "Freshly Added Company")
            after = service.search("company", k=5)
            # New pool, pinned to the new version; the old workers are
            # gone — a stale snapshot can never be served.
            assert service._pool is not first_pool
            assert first_pool.closed
            assert (
                service._pool.store_version == private_bundle.store.version
            )
            assert service.stats.pool_rebuilds == 2
            # And the answers reflect the write.
            cold = SearchService(private_bundle).search("company", k=5)
            assert fingerprint(after) == fingerprint(cold)
            assert fingerprint(after) != fingerprint(before)
        finally:
            service.close()

    def test_batch_fork_is_rejected(self, pooled_service):
        with pytest.raises(SearchError, match="disabled"):
            pooled_service.search_many([QUERY], k=7, processes=2)

    def test_batch_threads_drive_the_pool(self, private_bundle):
        service = PooledSearchService(private_bundle, processes=2)
        try:
            queries = [QUERY, "software company", "database revenue"]
            results = service.search_many(queries, k=3, threads=2)
            plain = SearchService(private_bundle)
            for query, result in zip(queries, results):
                assert fingerprint(result) == fingerprint(
                    plain.search(query, k=3)
                )
        finally:
            service.close()

    def test_stats_self_describe_the_backend(
        self, pooled_service, pooled_sharded_service
    ):
        assert pooled_service.stats.execution_backend == "fork-pool"
        assert pooled_service.stats.execution_workers == 2
        assert "backend fork-pool x2" in pooled_service.stats.format()
        assert (
            pooled_sharded_service.stats.execution_backend
            == "fork-pool+sharded"
        )

    def test_pool_rejects_bad_sizes(self, private_bundle):
        with pytest.raises(SearchError, match="processes"):
            PooledSearchService(private_bundle, processes=0)
        with pytest.raises(SearchError, match="num_workers"):
            ForkWorkerPool(private_bundle, 0)


class TestFailover:
    def test_sigkilled_worker_fails_over_and_respawns(self, private_bundle):
        service = PooledSearchService(private_bundle, processes=2)
        try:
            expected = fingerprint(
                SearchService(private_bundle).search(QUERY, k=3)
            )
            service.search(QUERY, k=3)  # builds the pool
            for slot in range(2):
                service.kill_worker(slot)
            # Both workers are dead; both requests must still answer
            # correctly (inline failover) and heal the pool.
            recovered = service.search(
                QUERY, k=3, algorithm="linear_topk"
            )
            assert recovered.num_answers > 0
            again = service.execute(service.plan(QUERY, k=3))
            assert fingerprint(again) == expected
            assert service.stats.worker_failovers >= 1
            assert service._pool.alive_workers() == 2
            rows = service.worker_snapshot()
            assert sum(row["respawns"] for row in rows) >= 1
        finally:
            service.close()

    def test_armed_mid_request_death_fails_over(self, private_bundle):
        service = PooledSearchService(private_bundle, processes=1)
        try:
            expected = fingerprint(
                SearchService(private_bundle).search(QUERY, k=3)
            )
            service.search(QUERY, k=3)
            service.arm_exit(0)
            # The worker dies after *receiving* this plan — a genuine
            # mid-request death, detected while the parent awaits the
            # reply.
            result = service.execute(service.plan(QUERY, k=3))
            assert fingerprint(result) == expected
            assert service.stats.worker_failovers == 1
            assert service._pool.alive_workers() == 1
        finally:
            service.close()


    def test_failed_respawn_does_not_fail_the_request(
        self, private_bundle, monkeypatch
    ):
        # Mirrors test_sharding.py::test_failed_respawn_does_not_fail_\
        # the_query: the lost worker's request is answered inline
        # *before* the respawn is tried; a respawn that fails is counted
        # and retried by the next request, never raised.
        service = PooledSearchService(
            private_bundle, processes=1, max_cached_results=0
        )
        try:
            healthy = service.search(QUERY, k=3)
            pool = service._pool
            real_spawn = pool._spawn
            failures = [1]

            def flaky_spawn(*args, **kwargs):
                if failures[0]:
                    failures[0] -= 1
                    raise OSError("fork: resource temporarily unavailable")
                return real_spawn(*args, **kwargs)

            monkeypatch.setattr(pool, "_spawn", flaky_spawn)
            service.kill_worker(0)
            lost = service.search(QUERY, k=3)
            assert fingerprint(lost) == fingerprint(healthy)
            assert service.stats.worker_failovers == 1
            assert service.stats.respawn_failures == 1
            assert pool._workers[0] is None  # slot left empty
            assert pool.free_slots() == 1  # ... but not leaked
            # The next request fails over again and the retry succeeds.
            retried = service.search(QUERY, k=3)
            assert fingerprint(retried) == fingerprint(healthy)
            assert service.stats.worker_failovers == 2
            assert service.stats.respawn_failures == 1
            assert pool._workers[0].process.is_alive()
            whole = service.search(QUERY, k=3)
            assert fingerprint(whole) == fingerprint(healthy)
            assert service.stats.worker_failovers == 2
            assert service._pool is pool
            assert "1 failed respawns" in service.stats.format()
        finally:
            service.close()


class TestPooledHttp:
    @pytest.fixture()
    def pooled_server(self, example_indexes):
        service = PooledSearchService(example_indexes, processes=2)
        thread = start_http_server(service, max_queue=16, workers=2)
        yield thread, service
        thread.stop()

    def test_responses_match_threaded_backend(
        self, pooled_server, example_indexes
    ):
        thread, _service = pooled_server
        plain = start_http_server(
            SearchService(example_indexes), max_queue=16, workers=2
        )
        try:
            for path in (
                f"/search?q={QUERY.replace(' ', '+')}&k=3",
                f"/search?q={QUERY.replace(' ', '+')}&k=2"
                "&include_rows=1&max_rows=5",
                "/search?q=software+company&k=4&algorithm=linear_full"
                "&include_rows=1",
            ):
                status, body, _ = get(thread.address, path)
                ref_status, ref_body, _ = get(plain.address, path)
                assert (status, ref_status) == (200, 200)
                assert body_fingerprint(body) == body_fingerprint(ref_body)
        finally:
            plain.stop()

    def test_metrics_expose_pool_gauges(self, pooled_server):
        thread, _service = pooled_server
        get(thread.address, f"/search?q={QUERY.replace(' ', '+')}&k=3")
        _status, body, _ = get(thread.address, "/metrics")
        text = body.decode()
        assert 'repro_execution_workers{backend="fork-pool"} 2' in text
        assert 'repro_pool_worker_alive{worker="0"} 1' in text
        assert 'repro_pool_worker_alive{worker="1"} 1' in text
        assert "repro_pool_worker_executed_total" in text
        assert "repro_pool_worker_respawns_total" in text
        assert "repro_worker_failovers_total 0" in text
        assert "repro_pool_rebuilds_total 1" in text
        assert "repro_pool_free_slots 2" in text

    def test_http_failover_and_drain_with_dead_worker(self, pooled_server):
        # Satellite: SIGKILL an HTTP fork worker mid-request — the
        # request answers correctly via inline failover, the worker
        # respawns, worker_failovers increments, and graceful drain
        # completes with a (second) dead worker left in the pool.
        thread, service = pooled_server
        plain = start_http_server(
            SearchService(service.indexes), max_queue=16, workers=2
        )
        status, _body, _ = get(
            thread.address, f"/search?q={QUERY.replace(' ', '+')}&k=3"
        )
        assert status == 200
        service.arm_exit(0)
        service.kill_worker(1)
        try:
            # Distinct plans dodge the parent's result cache, so these
            # executions must cross (and heal) the pool.
            for k in (4, 5):
                fresh = f"/search?q={QUERY.replace(' ', '+')}&k={k}"
                status, body, _ = get(thread.address, fresh)
                ref_status, ref_body, _ = get(plain.address, fresh)
                assert (status, ref_status) == (200, 200)
                assert body_fingerprint(body) == body_fingerprint(ref_body)
        finally:
            plain.stop()
        _status, metrics, _ = get(thread.address, "/metrics")
        text = metrics.decode()
        failovers = [
            line for line in text.splitlines()
            if line.startswith("repro_worker_failovers_total")
        ]
        assert failovers and float(failovers[0].split()[-1]) >= 1
        assert service._pool.alive_workers() == 2
        # Leave a dead worker behind and drain: stop() must complete.
        service.kill_worker(0)
        post(thread.address, "/admin/invalidate")  # exercise drain paths
        # thread.stop() runs in the fixture finalizer; reaching it with a
        # dead worker in the pool IS the assertion.


class TestPooledShardedHttp:
    def test_composed_backend_serves_and_counts_shards(
        self, example_indexes
    ):
        service = PooledSearchService(
            example_indexes, processes=2, num_shards=3
        )
        plain = SearchService(example_indexes)
        thread = start_http_server(service, max_queue=16, workers=2)
        reference = start_http_server(plain, max_queue=16, workers=2)
        try:
            path = f"/search?q={QUERY.replace(' ', '+')}&k=3&include_rows=1"
            status, body, _ = get(thread.address, path)
            ref_status, ref_body, _ = get(reference.address, path)
            assert (status, ref_status) == (200, 200)
            # Work counters legitimately differ across spines (shard
            # skipping prunes patterns); the answers are the contract.
            served, ref = body_fingerprint(body), body_fingerprint(ref_body)
            assert served["stats"]["shards_total"] == 3
            served.pop("stats"), ref.pop("stats")
            assert served == ref
            _status, metrics, _ = get(thread.address, "/metrics")
            text = metrics.decode()
            assert (
                'repro_execution_workers{backend="fork-pool+sharded"} 2'
                in text
            )
            assert 'repro_search_counter_total{counter="shards_total"} 3' in text
        finally:
            thread.stop()
            reference.stop()

"""The asyncio HTTP tier: routing, coalescing, admission, deadlines.

Each test hosts a real server on a background event loop
(:class:`ServerThread`) over the worked example's indexes and talks to
it with ``http.client`` over real sockets.  Dispatch-race tests get
determinism by wrapping ``service.search`` with an Event-gated slow
search: the worker blocks *inside* execution until the test releases it,
so "requests arriving while the leader is in flight" is a controlled
fact, not a timing hope.
"""

import http.client
import json
import threading

import pytest

from repro.search.engine import TableAnswerEngine
from repro.search.service import SearchService
from repro.serve import start_http_server

QUERY = "database software company revenue"


def get(address, path, timeout=30):
    host, _, port = address.partition(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    conn.request("GET", path)
    response = conn.getresponse()
    body = response.read()
    headers = dict(response.getheaders())
    conn.close()
    return response.status, body, headers


def post(address, path, timeout=30):
    host, _, port = address.partition(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    conn.request("POST", path)
    response = conn.getresponse()
    body = response.read()
    conn.close()
    return response.status, body


class GatedSearch:
    """Wraps ``service.search`` so executions block until released."""

    def __init__(self, service):
        self.calls = []
        self.started = threading.Event()
        self.release = threading.Event()
        self._real = service.search
        service.search = self._slow  # instance attribute shadows the method

    def _slow(self, *args, **kwargs):
        plan = kwargs.get("plan")
        self.calls.append(plan.k if plan is not None else None)
        self.started.set()
        assert self.release.wait(timeout=30), "test never released the gate"
        return self._real(*args, **kwargs)


@pytest.fixture()
def service(example_indexes):
    return SearchService(example_indexes)


@pytest.fixture()
def server(service):
    thread = start_http_server(service, max_queue=8, workers=2)
    yield thread
    thread.stop()


class TestRouting:
    def test_search_matches_cold_engine(self, server, example_indexes):
        status, body, _ = get(
            server.address, f"/search?q={QUERY.replace(' ', '+')}&k=3"
        )
        assert status == 200
        payload = json.loads(body)
        snap = example_indexes.snapshot()
        cold = TableAnswerEngine(snap.graph, indexes=snap).search(
            QUERY.split(), k=3
        )
        assert [a["score"] for a in payload["answers"]] == cold.scores()
        assert [
            tuple(a["pattern_key"]) for a in payload["answers"]
        ] == cold.pattern_keys()
        assert [a["num_subtrees"] for a in payload["answers"]] == [
            answer.num_subtrees for answer in cold.answers
        ]
        assert payload["algorithm"] == "pattern_enum"
        assert payload["k"] == 3

    def test_include_rows_renders_tables(self, server):
        status, body, _ = get(
            server.address,
            f"/search?q={QUERY.replace(' ', '+')}&k=1"
            "&include_rows=1&max_rows=2",
        )
        assert status == 200
        answer = json.loads(body)["answers"][0]
        assert answer["columns"]
        assert len(answer["rows"]) <= 2

    def test_bad_request_400(self, server):
        for path in (
            "/search",                                   # missing q
            "/search?q=x&k=0",                           # bad range
            "/search?q=x&wat=1",                         # unknown param
            "/search?q=x&algorithm=quantum",             # unknown algorithm
            "/search?q=x&algorithm=pattern_enum&sampling_rate=0.5",
        ):
            status, body, _ = get(server.address, path)
            assert status == 400, path
            assert json.loads(body)["status"] == 400

    def test_unknown_route_404(self, server):
        status, body, _ = get(server.address, "/nope")
        assert status == 404

    def test_wrong_method_405(self, server):
        status, _ = post(server.address, "/search?q=x")
        assert status == 405
        status, _, _ = get(server.address, "/admin/invalidate")
        assert status == 405

    def test_healthz(self, server):
        status, body, _ = get(server.address, "/healthz")
        assert status == 200
        assert json.loads(body)["ok"] is True

    def test_admin_invalidate_flushes_caches(self, server, service):
        get(server.address, f"/search?q={QUERY.replace(' ', '+')}")
        status, body = post(server.address, "/admin/invalidate")
        assert status == 200
        assert json.loads(body)["invalidated"] is True
        assert service.stats.invalidations == 1

    def test_metrics_exposes_counters(self, server):
        get(server.address, f"/search?q={QUERY.replace(' ', '+')}")
        get(server.address, "/search?q=x&wat=1")
        status, body, headers = get(server.address, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert (
            'repro_http_requests_total{endpoint="/search",status="200"} 1'
            in text
        )
        assert (
            'repro_http_requests_total{endpoint="/search",status="400"} 1'
            in text
        )
        assert "repro_http_qps" in text
        assert "repro_http_queue_depth 0" in text
        assert 'repro_http_request_latency_seconds{quantile="0.99"}' in text
        assert 'repro_cache_hits_total{tier="result"} 0' in text
        assert 'repro_cache_misses_total{tier="result"} 1' in text
        assert (
            'repro_search_counter_total{counter="patterns_checked"}' in text
        )
        assert "repro_store_query_paths_boxed_total" in text

    def test_rows_are_served_without_materializing_entries(self, server):
        def materialized():
            _, body, _ = get(server.address, "/metrics")
            for line in body.decode().splitlines():
                if line.startswith("repro_store_entries_materialized_total"):
                    return float(line.split()[-1])
            raise AssertionError("entries_materialized is not exported")

        before = materialized()
        status, body, _ = get(
            server.address,
            f"/search?q={QUERY.replace(' ', '+')}&include_rows=1",
        )
        assert status == 200
        assert json.loads(body)["answers"][0]["rows"]
        assert materialized() == before


class TestCoalescing:
    def test_n_waiters_one_execution_identical_bytes(self, example_indexes):
        service = SearchService(example_indexes)
        gate = GatedSearch(service)
        server = start_http_server(service, max_queue=16, workers=4)
        try:
            results = []
            lock = threading.Lock()

            def fetch():
                status, body, headers = get(server.address, path)
                with lock:
                    results.append((status, body, headers))

            path = f"/search?q={QUERY.replace(' ', '+')}&k=3"
            leader = threading.Thread(target=fetch)
            leader.start()
            assert gate.started.wait(timeout=30)
            # The leader is now blocked inside execution; every follower
            # from here on MUST coalesce onto its in-flight future.
            followers = [threading.Thread(target=fetch) for _ in range(5)]
            for thread in followers:
                thread.start()
            deadline_metrics = server.server.metrics
            for _ in range(1000):
                if deadline_metrics.requests_coalesced >= 5:
                    break
                threading.Event().wait(0.01)
            assert deadline_metrics.requests_coalesced == 5
            gate.release.set()
            leader.join(timeout=30)
            for thread in followers:
                thread.join(timeout=30)

            assert len(gate.calls) == 1  # one execution for six requests
            assert len(results) == 6
            assert {status for status, _, _ in results} == {200}
            bodies = {body for _, body, _ in results}
            assert len(bodies) == 1  # bit-identical bytes for everyone
            coalesced = [
                headers.get("X-Coalesced")
                for _, _, headers in results
            ].count("1")
            assert coalesced == 5
        finally:
            gate.release.set()
            server.stop()

    def test_different_rendering_does_not_coalesce(self, example_indexes):
        # Same plan, different max_rows: responses must not share bytes.
        service = SearchService(example_indexes)
        gate = GatedSearch(service)
        server = start_http_server(service, max_queue=16, workers=4)
        try:
            results = {}

            def fetch(name, path):
                results[name] = get(server.address, path)

            base = f"/search?q={QUERY.replace(' ', '+')}&k=2&include_rows=1"
            first = threading.Thread(
                target=fetch, args=("a", base + "&max_rows=1")
            )
            first.start()
            assert gate.started.wait(timeout=30)
            second = threading.Thread(
                target=fetch, args=("b", base + "&max_rows=5")
            )
            second.start()
            # Give the second request time to reach dispatch, then let
            # both executions run.
            gate.release.set()
            first.join(timeout=30)
            second.join(timeout=30)
            assert len(gate.calls) == 2  # distinct rendering: no sharing
            rows_a = json.loads(results["a"][1])["answers"][0]["rows"]
            rows_b = json.loads(results["b"][1])["answers"][0]["rows"]
            assert len(rows_a) == 1
            assert len(rows_b) > 1
        finally:
            gate.release.set()
            server.stop()


class TestAdmission:
    def test_queue_fills_fifo_then_sheds(self, example_indexes):
        service = SearchService(example_indexes)
        gate = GatedSearch(service)
        server = start_http_server(service, max_queue=2, workers=1)
        try:
            results = []
            lock = threading.Lock()

            def fetch(k):
                status, body, _ = get(
                    server.address,
                    f"/search?q={QUERY.replace(' ', '+')}&k={k}",
                )
                with lock:
                    results.append((k, status))

            # k distinguishes the plans, so nothing coalesces.
            first = threading.Thread(target=fetch, args=(1,))
            first.start()
            assert gate.started.wait(timeout=30)  # occupies the worker
            second = threading.Thread(target=fetch, args=(2,))
            second.start()
            for _ in range(1000):  # admitted: executing + queued == 2
                if server.server._admitted == 2:
                    break
                threading.Event().wait(0.01)
            assert server.server._admitted == 2

            status, body, _ = get(  # third: queue full -> shed
                server.address, f"/search?q={QUERY.replace(' ', '+')}&k=3"
            )
            assert status == 503
            assert "admission queue full" in json.loads(body)["message"]
            assert server.server.metrics.requests_shed == 1

            gate.release.set()
            first.join(timeout=30)
            second.join(timeout=30)
            assert {status for _, status in results} == {200}
            assert gate.calls == [1, 2]  # FIFO: admission order preserved
        finally:
            gate.release.set()
            server.stop()


class TestDeadlines:
    def test_expired_request_never_executes(self, example_indexes):
        service = SearchService(example_indexes)
        gate = GatedSearch(service)
        server = start_http_server(service, max_queue=8, workers=1)
        try:
            results = []

            def fetch_blocker():
                results.append(
                    get(
                        server.address,
                        f"/search?q={QUERY.replace(' ', '+')}&k=1",
                    )
                )

            blocker = threading.Thread(target=fetch_blocker)
            blocker.start()
            assert gate.started.wait(timeout=30)
            # Queued behind the blocker with a 30ms deadline: by the time
            # the worker frees up the deadline is long gone.
            deadline_result = {}

            def fetch_deadline():
                deadline_result["r"] = get(
                    server.address,
                    f"/search?q={QUERY.replace(' ', '+')}&k=2"
                    "&deadline_ms=30",
                )

            expiring = threading.Thread(target=fetch_deadline)
            expiring.start()
            threading.Event().wait(0.2)  # let the deadline lapse
            gate.release.set()
            blocker.join(timeout=30)
            expiring.join(timeout=30)

            status, body, _ = deadline_result["r"]
            assert status == 504
            assert "deadline expired" in json.loads(body)["message"]
            assert gate.calls == [1]  # the expired plan never executed
            assert server.server.metrics.requests_expired == 1
        finally:
            gate.release.set()
            server.stop()

    def test_server_default_deadline_applies(self, example_indexes):
        service = SearchService(example_indexes)
        gate = GatedSearch(service)
        server = start_http_server(
            service, max_queue=8, workers=1, default_deadline_ms=30
        )
        try:
            blocker_result = []

            def fetch_blocker():
                blocker_result.append(
                    get(
                        server.address,
                        f"/search?q={QUERY.replace(' ', '+')}&k=1",
                    )
                )

            blocker = threading.Thread(target=fetch_blocker)
            blocker.start()
            assert gate.started.wait(timeout=30)
            expired = {}

            def fetch_expired():
                expired["r"] = get(
                    server.address,
                    f"/search?q={QUERY.replace(' ', '+')}&k=2",
                )

            waiter = threading.Thread(target=fetch_expired)
            waiter.start()
            threading.Event().wait(0.2)
            gate.release.set()
            blocker.join(timeout=30)
            waiter.join(timeout=30)
            assert expired["r"][0] == 504
        finally:
            gate.release.set()
            server.stop()


class TestShutdown:
    def test_graceful_drain_completes_inflight_then_closes(
        self, example_indexes
    ):
        service = SearchService(example_indexes)
        closed = []
        real_close = service.close
        service.close = lambda: (closed.append(True), real_close())[1]
        gate = GatedSearch(service)
        server = start_http_server(service, max_queue=8, workers=1)
        result = {}

        def fetch():
            result["r"] = get(
                server.address, f"/search?q={QUERY.replace(' ', '+')}&k=1"
            )

        inflight = threading.Thread(target=fetch)
        inflight.start()
        assert gate.started.wait(timeout=30)
        releaser = threading.Timer(0.2, gate.release.set)
        releaser.start()
        server.stop(drain=True)  # blocks until drained
        inflight.join(timeout=30)
        assert result["r"][0] == 200  # the in-flight request completed
        assert closed == [True]  # the service was released afterwards

    def test_draining_server_sheds_new_requests(self, example_indexes):
        service = SearchService(example_indexes)
        server = start_http_server(service, max_queue=8, workers=1)
        server.server._draining = True
        status, body, _ = get(
            server.address, f"/search?q={QUERY.replace(' ', '+')}"
        )
        assert status == 503
        assert "draining" in json.loads(body)["message"]
        server.stop()


class TestShardedBackend:
    """Satellite contract: ``--http`` and ``--shards`` compose — the
    sharded service serves concurrent HTTP load bit-identically to the
    plain engine, and its shard counters flow into ``/metrics``."""

    def test_concurrent_sharded_responses_match_plain(self, example_indexes):
        from repro.search.sharding import ShardedSearchService

        sharded = ShardedSearchService(example_indexes, num_shards=3)
        plain = SearchService(example_indexes)
        server = start_http_server(sharded, max_queue=32, workers=4)
        reference = start_http_server(plain, max_queue=32, workers=4)
        paths = [
            f"/search?q={QUERY.replace(' ', '+')}&k={k}&include_rows=1"
            for k in (1, 2, 3)
        ] + ["/search?q=software+company&k=4"]
        try:
            results = {}

            def fetch(i, path):
                results[i] = (path, get(server.address, path))

            threads = [
                threading.Thread(target=fetch, args=(i, path))
                for i, path in enumerate(paths * 2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(results) == len(paths) * 2
            for path, (status, body, _headers) in results.values():
                ref_status, ref_body, _ = get(reference.address, path)
                assert (status, ref_status) == (200, 200)
                payload, ref = json.loads(body), json.loads(ref_body)
                stats = payload["stats"]
                if not stats["from_result_cache"]:
                    # The straggler is visible per request: one busy
                    # figure per dispatched shard, beside the totals.
                    assert stats["shards_total"] == 3
                    assert stats["shard_waves"] >= 1
                    assert len(stats["shard_busy_ms"]) == (
                        stats["shards_total"] - stats["shards_skipped"]
                    )
                assert ref["stats"]["shard_waves"] == 0
                assert ref["stats"]["shard_busy_ms"] == []
                payload["stats"] = ref["stats"] = None  # work counters differ
                assert payload == ref

            _status, metrics, _ = get(server.address, "/metrics")
            text = metrics.decode()
            assert 'repro_execution_workers{backend="sharded"} 3' in text
            shard_counters = {
                line.split()[0]: float(line.split()[1])
                for line in text.splitlines()
                if line.startswith('repro_search_counter_total{counter="shard')
            }
            assert (
                shard_counters['repro_search_counter_total{counter="shards_total"}']
                >= len(paths) * 3
            )
            assert 'counter="shards_skipped"' in text
            assert (
                shard_counters['repro_search_counter_total{counter="shard_waves"}']
                >= 1
            )
            # The shard pool reports per-worker gauges like the fork
            # pool does; the free-slot gauge belongs to the lease pool.
            for worker in range(3):
                assert f'repro_pool_worker_alive{{worker="{worker}"}} 1' in text
                assert (
                    f'repro_pool_worker_respawns_total{{worker="{worker}"}} 0'
                    in text
                )
            assert "repro_pool_worker_busy" in text
            assert "repro_pool_worker_executed_total" in text
            assert "repro_pool_free_slots" not in text
            # One SIGKILLed shard: the next query that reaches it fails
            # over inline, and the respawn shows up under its label.
            victim = sharded.search(QUERY, k=7).stats.shard_dispatch_order[0]
            sharded.kill_worker(victim)
            status, _body, _ = get(
                server.address, f"/search?q={QUERY.replace(' ', '+')}&k=8"
            )
            assert status == 200
            _status, metrics, _ = get(server.address, "/metrics")
            text = metrics.decode()
            assert "repro_worker_failovers_total 1" in text
            assert (
                f'repro_pool_worker_respawns_total{{worker="{victim}"}} 1'
                in text
            )
            assert f'repro_pool_worker_alive{{worker="{victim}"}} 1' in text
        finally:
            server.stop()
            reference.stop()

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
import logging
import socket
import sys
import threading
import time

import pytest

from repro.datasets.example import EXAMPLE_NORMALIZER, example_graph_with_nodes
from repro.index.builder import build_indexes
from repro.index.incremental import add_entity
from repro.index.serialize import save_indexes
from repro.kg.pagerank import uniform_scores
from repro.search.engine import TableAnswerEngine
from repro.search.service import MAX_RENDERINGS, SearchService
from repro.search.sharding import ShardedSearchService
from repro.serve import start_http_server
from repro.serve.pool import PooledSearchService

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


def raw_exchange(address, payload, timeout=10):
    """Everything the server answers to ``payload`` before it closes."""
    host, _, port = address.partition(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def search_path(query, **params):
    extra = "".join(f"&{name}={value}" for name, value in params.items())
    return f"/search?q={query.replace(' ', '+')}{extra}"


MISS_FLAG = b'"from_result_cache": false'


def as_hit(body):
    """A response's body as its repeat must read: only the flag differs
    (if the response was not itself served from the result tier)."""
    return body.replace(MISS_FLAG, b'"from_result_cache": true')


def comparable(body, *drop):
    """A 200 body as a dict, minus its timing, its cache flag and the
    named top-level keys: what an uncached server must agree on."""
    payload = json.loads(body)
    del payload["stats"]["elapsed_ms"], payload["stats"]["from_result_cache"]
    for key in drop:
        del payload[key]
    return payload


def metric(address, sample):
    """The value of one ``/metrics`` sample, named with its labels."""
    _, body, _ = get(address, "/metrics")
    for line in body.decode().splitlines():
        if line.startswith(sample + " "):
            return float(line.split()[-1])
    raise AssertionError(f"{sample} is not exported")


def example_twin():
    """A private copy of the worked example's bundle (tests may write)."""
    graph, _nodes = example_graph_with_nodes()
    return build_indexes(
        graph,
        d=3,
        normalizer=EXAMPLE_NORMALIZER,
        pagerank_scores=uniform_scores(graph),
    )


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
    splitting pool serves concurrent HTTP load bit-identically to the
    plain engine, and its split counters flow into ``/metrics``."""

    def test_concurrent_sharded_responses_match_plain(
        self, example_indexes, monkeypatch
    ):
        from repro.search.sharding import ShardedSearchService, usable_cores
        from tests.search.test_sharding import kill_the_next_lease

        sharded = ShardedSearchService(example_indexes, num_shards=3)
        plain = SearchService(example_indexes)
        server = start_http_server(sharded, max_queue=32, workers=4)
        reference = start_http_server(plain, max_queue=32, workers=4)
        paths = [
            f"/search?q={QUERY.replace(' ', '+')}&k={k}&include_rows=1"
            for k in (1, 2, 3)
        ] + ["/search?q=software+company&k=4"]
        widest = min(3, usable_cores())
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
                    # figure per slice of a split — over the workers
                    # that were free, or none when it ran whole.
                    assert stats["shards_total"] in (
                        0, *range(2, widest + 1)
                    )
                    assert len(stats["shard_busy_ms"]) == (
                        stats["shards_total"]
                    )
                    assert stats["shards_skipped"] == 0
                assert ref["stats"]["shards_total"] == 0
                assert ref["stats"]["shard_busy_ms"] == []
                payload["stats"] = ref["stats"] = None  # work counters differ
                assert payload == ref
            # Alone on an idle pool, a miss takes every worker it can use.
            status, body, _ = get(
                server.address, f"/search?q={QUERY.replace(' ', '+')}&k=5"
            )
            assert status == 200
            alone = json.loads(body)["stats"]["shards_total"]
            assert alone == (widest if widest >= 2 else 0)

            _status, metrics, _ = get(server.address, "/metrics")
            text = metrics.decode()
            assert (
                'repro_execution_workers{backend="fork-pool+sharded"} 3'
                in text
            )
            shard_counters = {
                line.split()[0]: float(line.split()[1])
                for line in text.splitlines()
                if line.startswith('repro_search_counter_total{counter="shard')
            }
            assert (
                shard_counters['repro_search_counter_total{counter="shards_total"}']
                >= alone
            )
            assert 'counter="shards_skipped"' in text
            # The pool reports per-worker gauges and its free slots.
            for worker in range(3):
                assert f'repro_pool_worker_alive{{worker="{worker}"}} 1' in text
                assert (
                    f'repro_pool_worker_respawns_total{{worker="{worker}"}} 0'
                    in text
                )
            assert "repro_pool_worker_busy" in text
            assert "repro_pool_worker_executed_total" in text
            assert "repro_pool_free_slots 3" in text
            # One SIGKILLed worker — the next miss's first lease: it
            # fails over inline, and the respawn shows up under its
            # label.
            victims = kill_the_next_lease(sharded._pool, monkeypatch)
            status, _body, _ = get(
                server.address, f"/search?q={QUERY.replace(' ', '+')}&k=8"
            )
            assert status == 200
            (victim,) = victims
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


class TestMalformedRequests:
    """The socket boundary: a request that cannot be framed is a counted
    400 on a closed connection — not a traceback and a dropped peer."""

    SHAPES = {
        "length-not-a-number": (
            b"GET /healthz HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
        ),
        "length-negative": (
            b"GET /healthz HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        ),
        "request-line-too-long": (
            b"GET /search?q=" + b"x" * 66000 + b" HTTP/1.1\r\n\r\n"
        ),
        "header-too-long": (
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"x" * 66000 + b"\r\n\r\n"
        ),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_answers_400_and_keeps_serving(self, server, caplog, shape):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            reply = raw_exchange(server.address, self.SHAPES[shape])
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            assert b"Connection: close" in head
            assert json.loads(body)["status"] == 400
            status, _, _ = get(server.address, "/healthz")
            assert status == 200
        assert not caplog.records  # no "Unhandled exception in ..._cb"
        assert metric(
            server.address,
            'repro_http_requests_total{endpoint="malformed",status="400"}',
        ) == 1


#: The three services behind the same server; every one keeps the result
#: tier in the serving process, so every one answers hits the same way.
BACKENDS = {
    "plain": lambda indexes, **kwargs: SearchService(indexes, **kwargs),
    "pooled": lambda indexes, **kwargs: PooledSearchService(
        indexes, processes=2, **kwargs
    ),
    "sharded": lambda indexes, **kwargs: ShardedSearchService(
        indexes, num_shards=2, **kwargs
    ),
}
RENDERINGS = [
    {"include_rows": rows, "max_rows": max_rows}
    for rows in (0, 1)
    for max_rows in (0, 3, 10)
]


@pytest.fixture(scope="module")
def wiki_queries(wiki_indexes):
    from repro.datasets.queries import WorkloadConfig, generate_workload

    workload = generate_workload(
        wiki_indexes,
        WorkloadConfig(queries_per_size=3, max_keywords=3, seed=23),
    )
    return sorted({" ".join(query) for query in workload})


class TestRenderedHits:
    """Hit ≡ miss: a repeat is answered from the bytes the first request
    rendered, and those bytes are what rendering again would produce."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_repeat_differs_only_in_the_cache_flag(
        self, wiki_indexes, wiki_queries, backend
    ):
        service = BACKENDS[backend](wiki_indexes)
        server = start_http_server(service, max_queue=8, workers=2)
        # The oracle needs no switch: a service without a result tier
        # renders every response from a fresh execution.
        uncached = SearchService(wiki_indexes, max_cached_results=0)
        oracle = start_http_server(uncached, max_queue=8, workers=2)
        try:
            assert len(wiki_queries) >= 6
            for query in wiki_queries:
                for rendering in RENDERINGS:
                    path = search_path(query, k=4, **rendering)
                    _, first, _ = get(server.address, path)
                    # Only a query's first rendering executes it.
                    assert (MISS_FLAG in first) == (
                        rendering is RENDERINGS[0]
                    )
                    status, second, _ = get(server.address, path)
                    assert status == 200
                    assert second == as_hit(first), path
                    # Canonical JSON: the splice is json.dumps' bytes.
                    assert second.decode() == json.dumps(
                        json.loads(second), sort_keys=True
                    ) + "\n"
                    _, expected, _ = get(oracle.address, path)
                    if backend == "plain":
                        assert comparable(second) == comparable(expected)
                    else:  # work counters are the backend's own
                        assert comparable(second, "stats") == comparable(
                            expected, "stats"
                        )
            requests = len(wiki_queries) * len(RENDERINGS)
            stats = service.stats
            assert stats.rendered_hits == requests
            # A query's first rendering is the miss's; its other five
            # found the result cached and rendered it their way.
            assert stats.rendered_misses == requests - len(wiki_queries)
            assert stats.result_hits == (
                stats.rendered_hits + stats.rendered_misses
            )
            assert stats.searches == stats.result_hits + stats.result_misses
            assert uncached.stats.result_hits == 0
            assert uncached.stats.rendered_misses == 0
            assert metric(
                server.address, 'repro_cache_hits_total{tier="rendered"}'
            ) == requests
            assert metric(
                server.address, 'repro_cache_misses_total{tier="rendered"}'
            ) == requests - len(wiki_queries)
        finally:
            server.stop()
            oracle.stop()

    def test_render_counters_move_on_misses_only(
        self, wiki_indexes, wiki_queries
    ):
        server = start_http_server(
            SearchService(wiki_indexes), max_queue=8, workers=2
        )
        seconds = "repro_http_render_seconds_total"
        rendered = "repro_http_rendered_rows_total"
        try:
            assert metric(server.address, seconds) == 0
            assert metric(server.address, rendered) == 0
            paths = [
                search_path(query, k=4, include_rows=1, max_rows=3)
                for query in wiki_queries
            ]
            rows = 0
            for path in paths:
                _, body, _ = get(server.address, path)
                assert MISS_FLAG in body
                rows += sum(
                    len(answer["rows"])
                    for answer in json.loads(body)["answers"]
                )
            assert rows > len(paths)
            assert metric(server.address, rendered) == rows
            spent = metric(server.address, seconds)
            assert spent > 0
            for path in paths:
                _, body, _ = get(server.address, path)
                assert MISS_FLAG not in body
            assert metric(server.address, rendered) == rows
            assert metric(server.address, seconds) == spent
        finally:
            server.stop()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_repeat_composes_no_table(
        self, example_indexes, monkeypatch, backend
    ):
        service = BACKENDS[backend](example_indexes)
        server = start_http_server(service, max_queue=8, workers=2)
        try:
            path = search_path(QUERY, k=3, include_rows=1, max_rows=3)
            status, first, _ = get(server.address, path)
            assert status == 200 and MISS_FLAG in first

            def no_more_tables(*args, **kwargs):
                raise AssertionError("a table was composed")

            # Where the renderer looks the composer up, and its home.
            monkeypatch.setattr(
                "repro.search.result.compose_rows", no_more_tables
            )
            monkeypatch.setattr(
                "repro.core.table.compose_rows", no_more_tables
            )
            status, second, _ = get(server.address, path)
            assert status == 200
            assert second == as_hit(first)
            # The other side of the choice: a rendering the entry does
            # not hold does go to the composer.
            status, _, _ = get(
                server.address,
                search_path(QUERY, k=3, include_rows=1, max_rows=2),
            )
            assert status == 500
        finally:
            server.stop()

    def test_hit_takes_no_worker_and_no_admission_slot(self, example_indexes):
        service = SearchService(example_indexes)
        gate = GatedSearch(service)
        server = start_http_server(service, max_queue=2, workers=1)
        cached = search_path(QUERY, k=9)
        try:
            gate.release.set()  # open while the cache is primed
            status, first, _ = get(server.address, cached)
            assert status == 200 and MISS_FLAG in first
            gate.release.clear()
            gate.started.clear()
            gate.calls.clear()
            results = []

            def fetch(k):
                results.append(get(server.address, search_path(QUERY, k=k)))

            holders = [
                threading.Thread(target=fetch, args=(k,)) for k in (1, 2)
            ]
            holders[0].start()
            assert gate.started.wait(timeout=30)  # the only worker is held
            holders[1].start()
            for _ in range(1000):
                if server.server._admitted == 2:
                    break
                threading.Event().wait(0.01)
            assert server.server._admitted == 2  # and the queue is full
            assert metric(server.address, "repro_http_queue_depth") == 2

            status, second, _ = get(server.address, cached)
            assert status == 200
            assert second == as_hit(first)
            status, _, _ = get(server.address, search_path(QUERY, k=3))
            assert status == 503  # a miss is shed; the hit above was not
            assert server.server.metrics.requests_shed == 1
            assert metric(server.address, "repro_http_queue_depth") == 2
            assert gate.calls == [1]  # the hit never reached search()

            gate.release.set()
            for thread in holders:
                thread.join(timeout=30)
            assert [status for status, _, _ in results] == [200, 200]
        finally:
            gate.release.set()
            server.stop()

    def test_draining_server_sheds_cached_requests_too(self, example_indexes):
        service = SearchService(example_indexes)
        server = start_http_server(service, max_queue=8, workers=1)
        try:
            path = search_path(QUERY)
            assert get(server.address, path)[0] == 200
            server.server._draining = True
            status, body, _ = get(server.address, path)
            assert status == 503
            assert "draining" in json.loads(body)["message"]
            assert service.stats.rendered_hits == 0
        finally:
            server.stop()

    def test_spellings_share_bytes_and_echo_their_own_query(self, server):
        spelled = "Database  SOFTWARE company revenue"
        _, first, _ = get(server.address, search_path(QUERY, include_rows=1))
        _, second, _ = get(
            server.address, search_path(spelled, include_rows=1)
        )
        one, other = json.loads(first), json.loads(second)
        assert other["stats"]["from_result_cache"] is True
        assert (one["query"], other["query"]) == (QUERY, spelled)
        assert one["answers"] == other["answers"]
        assert server.server.service.stats.rendered_hits == 1

    def test_renderings_never_share(self, server, service):
        bodies = {}
        for max_rows in (1, 2):
            for _ in range(2):
                _, bodies[max_rows], _ = get(
                    server.address,
                    search_path(QUERY, k=1, include_rows=1, max_rows=max_rows),
                )
        for max_rows, body in bodies.items():
            payload = json.loads(body)
            assert payload["stats"]["from_result_cache"] is True
            assert len(payload["answers"][0]["rows"]) == max_rows
        assert service.stats.rendered_hits == 2
        assert service.stats.rendered_misses == 1

    def test_uncacheable_plan_never_takes_the_loop_exit(self, server, service):
        path = search_path(
            QUERY, algorithm="letopk", sampling_rate=0.5,
            sampling_threshold=1, seed="none",
        )
        for _ in range(3):
            status, body, _ = get(server.address, path)
            assert status == 200
            assert json.loads(body)["stats"]["from_result_cache"] is False
        assert service.stats.rendered_hits == 0
        assert service.stats.result_misses == 3

    def test_counts_are_what_search_would_have_counted(
        self, server, service, example_indexes
    ):
        """A probe that misses counts nothing; a loop hit counts once."""
        paths = [
            search_path(QUERY, k=2),
            search_path(QUERY, k=2),
            search_path("software company", k=2),
            search_path(QUERY, k=2, include_rows=1),
            search_path(QUERY, k=2),
        ]
        for path in paths:
            assert get(server.address, path)[0] == 200
        library = SearchService(example_indexes)
        for query in (QUERY, QUERY, "software company", QUERY, QUERY):
            library.search(query, k=2)
        for name in ("searches", "result_hits", "result_misses",
                     "context_hits", "context_misses"):
            assert getattr(service.stats, name) == getattr(
                library.stats, name
            ), name
        assert service.stats.rendered_hits == 2
        assert service.stats.rendered_misses == 1
        assert server.server.metrics.latency.count == len(paths)


class TestRenderedLifecycle:
    """The stored bytes go when their result-tier entry goes — by
    ``invalidate()``, a version bump, a compaction, LRU eviction or the
    per-entry cap — and the next request renders again, correctly."""

    PATH = search_path(QUERY, k=4, include_rows=1)

    def serve(self, service):
        server = start_http_server(service, max_queue=8, workers=2)
        for expected in (False, True):  # miss, then a hit on its bytes
            status, body, _ = get(server.address, self.PATH)
            assert status == 200
            assert json.loads(body)["stats"]["from_result_cache"] is expected
        assert service.stats.rendered_hits == 1
        return server

    def rerendered(self, server, twin):
        """The next response: not a hit, and what an uncached server
        over ``twin`` — the heap copy at the same update boundary —
        answers."""
        hits = server.server.service.stats.rendered_hits
        status, body, _ = get(server.address, self.PATH)
        assert status == 200
        assert json.loads(body)["stats"]["from_result_cache"] is False
        assert server.server.service.stats.rendered_hits == hits
        oracle = start_http_server(
            SearchService(twin, max_cached_results=0), workers=1
        )
        try:
            _, expected, _ = get(oracle.address, self.PATH)
        finally:
            oracle.stop()
        # Version numbers are each store's own count of its writes.
        assert comparable(body, "store_version") == comparable(
            expected, "store_version"
        )
        return json.loads(body)

    def test_admin_invalidate_drops_the_bytes(self):
        server = self.serve(SearchService(example_twin()))
        try:
            assert post(server.address, "/admin/invalidate")[0] == 200
            self.rerendered(server, example_twin())
        finally:
            server.stop()

    def test_version_bump_drops_the_bytes(self):
        served, twin = example_twin(), example_twin()
        server = self.serve(SearchService(served))
        try:
            before = served.store.version
            for bundle in (served, twin):
                add_entity(bundle, "company", "database software revenue")
            payload = self.rerendered(server, twin)
            assert payload["store_version"] == served.store.version > before
        finally:
            server.stop()

    def test_compaction_drops_the_bytes(self, tmp_path):
        path = tmp_path / "served.repro"
        save_indexes(example_twin(), path)
        service = SearchService.from_file(path)
        twin = example_twin()
        for bundle in (service.indexes, twin):
            add_entity(bundle, "company", "database software revenue")
        server = self.serve(service)
        try:
            assert service.compact()["generation"] == 1
            self.rerendered(server, twin)
        finally:
            server.stop()

    def test_lru_eviction_drops_the_bytes(self):
        server = self.serve(
            SearchService(example_twin(), max_cached_results=1)
        )
        try:
            assert get(server.address, search_path("software company"))[0] == 200
            self.rerendered(server, example_twin())
        finally:
            server.stop()

    def test_rendering_cap_evicts_the_oldest(self):
        service = SearchService(example_twin())
        server = self.serve(service)  # holds PATH's rendering (10 rows)
        try:
            for max_rows in range(1, MAX_RENDERINGS + 1):
                get(server.address, self.PATH + f"&max_rows={max_rows}")
            hits = service.stats.rendered_hits
            status, body, _ = get(server.address, self.PATH)
            payload = json.loads(body)
            # Still a result-tier hit — the entry is live — but its
            # first rendering was pushed out and had to be made again.
            assert payload["stats"]["from_result_cache"] is True
            assert service.stats.rendered_hits == hits
            assert service.stats.rendered_misses == MAX_RENDERINGS + 1
            fresh = start_http_server(
                SearchService(example_twin(), max_cached_results=0), workers=1
            )
            try:
                _, expected, _ = get(fresh.address, self.PATH)
            finally:
                fresh.stop()
            assert comparable(body) == comparable(expected)
            # The newest rendering survived its predecessors' eviction.
            get(server.address, self.PATH + f"&max_rows={MAX_RENDERINGS}")
            assert service.stats.rendered_hits == hits + 1
        finally:
            server.stop()

    def test_no_result_tier_means_render_every_time(self):
        service = SearchService(example_twin(), max_cached_results=0)
        server = start_http_server(service, max_queue=8, workers=1)
        try:
            for _ in range(3):
                status, body, _ = get(server.address, self.PATH)
                assert status == 200
                assert (
                    json.loads(body)["stats"]["from_result_cache"] is False
                )
            assert service.stats.rendered_hits == 0
            assert service.stats.rendered_misses == 0
            assert service.stats.result_misses == 3
        finally:
            server.stop()


class TestRenderedHammer:
    def test_hot_set_races_a_writer(self, caplog):
        """8 readers on a hot set, one writer adding entities and
        ticking ``/admin/invalidate``: every 200 is the uncached heap
        twin's answer at the body's own ``store_version``."""
        served, twin = example_twin(), example_twin()
        service = SearchService(served)
        server = start_http_server(service, max_queue=64, workers=2)
        words = ("database", "software", "revenue", "company")
        paths = [
            search_path(QUERY, k=3, include_rows=1),
            search_path("software company", k=3, include_rows=1, max_rows=2),
            search_path("database", k=2),
        ]
        versions = [served.store.version]
        stop = threading.Event()
        observed, errors = [], []

        def writer():
            step = 0
            while not stop.is_set():
                add_entity(served, "company", words[step % len(words)])
                versions.append(served.store.version)
                post(server.address, "/admin/invalidate")
                step += 1
                time.sleep(0.05)

        def reader(offset):
            turn = offset
            while not stop.is_set():
                path = paths[turn % len(paths)]
                turn += 1
                status, body, _ = get(server.address, path)
                if status == 200:
                    observed.append((path, body))
                else:
                    errors.append((status, body))

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(i,)) for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # more interleavings per second
        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                for thread in threads:
                    thread.start()
                time.sleep(2.0)
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert not caplog.records
            assert not errors
            stats = service.stats
            assert stats.searches == stats.result_hits + stats.result_misses
            assert stats.rendered_hits > 0 and len(versions) > 2
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            server.stop()

        # Replay the writes on the twin, one boundary at a time, and
        # check every body seen at that boundary's version.
        by_version = {}
        for path, body in observed:
            by_version.setdefault(
                json.loads(body)["store_version"], set()
            ).add((path, body))
        assert set(by_version) <= set(versions)
        oracle = start_http_server(
            SearchService(twin, max_cached_results=0), workers=1
        )
        try:
            for step, version in enumerate(versions):
                if step:
                    add_entity(twin, "company", words[(step - 1) % len(words)])
                expected = {}
                for path, body in by_version.get(version, ()):
                    if path not in expected:
                        expected[path] = comparable(
                            get(oracle.address, path)[1], "store_version"
                        )
                    assert comparable(body, "store_version") == expected[path]
        finally:
            oracle.stop()

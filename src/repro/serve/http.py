"""Asyncio HTTP front-end over :class:`~repro.search.service.SearchService`.

Stdlib-only HTTP/1.1 serving tier with the three mechanisms a keyword
-search endpoint needs before "millions of users" is more than a slogan:

* **deadlines** — each request carries an absolute deadline (per-request
  ``deadline_ms`` or the server default); a request whose deadline passes
  while it waits in the executor queue is answered 504 *without ever
  executing*, so a backlog drains at queue speed instead of search speed;
* **admission control** — at most ``max_queue`` requests may be executing
  or queued; beyond that the server sheds instantly with a 503 and a
  ``requests_shed`` counter, keeping the latency of admitted requests
  bounded under overload;
* **coalescing** — concurrent duplicate requests (same
  :attr:`~repro.search.plan.QueryPlan.cache_key`, store version, and
  rendering options) share one execution: followers await the leader's
  future and receive bit-identical response bytes plus ``X-Coalesced: 1``.

Search execution is CPU-bound pure Python, so the event loop never runs
it: requests bridge to a small :class:`~concurrent.futures.ThreadPoolExecutor`
via ``run_in_executor`` (the executor's FIFO queue doubles as the
admission queue), while the loop thread keeps accepting, shedding, and
coalescing.  What the loop does answer itself is a **hit**: a cacheable
plan whose result-tier entry already holds this rendering's ``answers``
bytes (:meth:`~repro.search.service.SearchService.rendered`) is
answered right after the coalescing check — no executor, no admission
slot, no table composed.  The bytes were put there by the request that
rendered them (:meth:`~repro.search.service.SearchService.store_rendering`)
and go when the entry goes; miss and hit build their bodies with the
same :func:`_search_body`, from the one renderer's output.

True CPU parallelism lives underneath: front a
:class:`~repro.serve.pool.PooledSearchService` (``repro serve --http
... --processes N``) and each executor thread drives one long-lived
fork worker — the loop keeps owning admission, deadlines, coalescing,
and the result LRU, only cache-miss executions cross a pipe — or a
:class:`~repro.search.sharding.ShardedSearchService` for intra-request
scatter–gather.

Endpoints: ``GET /search``, ``GET /metrics`` (Prometheus text),
``GET /healthz``, ``POST /admin/invalidate`` (writer tick).
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.errors import ReproError, StalePlanError
from repro.search.service import SearchService
from repro.serve.metrics import (
    MetricFamily,
    ServerMetrics,
    render_prometheus,
)
from repro.serve.params import ParamError, SearchRequest, parse_search_params

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: (status, body-bytes) — what one execution produces and every coalesced
#: follower reuses verbatim.
Response = Tuple[int, bytes]


def _json_body(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def _error_body(status: int, message: str) -> bytes:
    return _json_body({"error": _REASONS.get(status, "Error"),
                       "status": status, "message": message})


def _search_body(plan, stats, answers: bytes) -> bytes:
    """The ``/search`` 200 body: ``answers`` — the rendered fragment, as
    :meth:`HttpSearchServer._render_result` made it — spliced into what
    is this request's own (``query`` is the caller's spelling, ``stats``
    say whether the result tier served it).  Byte for byte
    ``_json_body`` of the whole object: sorted keys put ``"answers"``
    second, right after ``"algorithm"``."""
    rest = json.dumps({
        "query": plan.query_text,
        "words": list(plan.words),
        "k": plan.k,
        "d": plan.d,
        "store_version": plan.store_version,
        "stats": {
            "elapsed_ms": stats.elapsed_seconds * 1000.0,
            "from_result_cache": stats.from_result_cache,
            "candidate_roots": stats.candidate_roots,
            "roots_expanded": stats.roots_expanded,
            "patterns_checked": stats.patterns_checked,
            "subtrees_enumerated": stats.subtrees_enumerated,
            "roots_skipped": stats.roots_skipped,
            "prefixes_skipped": stats.prefixes_skipped,
            "pairs_skipped": stats.pairs_skipped,
            "shards_total": stats.shards_total,
            "shards_skipped": stats.shards_skipped,
            "shard_waves": stats.shard_waves,
            "shard_busy_ms": list(stats.shard_busy_ms),
        },
    }, sort_keys=True)
    return b"".join((
        b'{"algorithm": ', json.dumps(plan.algorithm).encode("utf-8"),
        b', "answers": ', answers, b", ",
        rest[1:].encode("utf-8"), b"\n",
    ))


class HttpSearchServer:
    """The serving tier: one event loop, one worker pool, one service.

    Construct, ``await start()``, serve, ``await stop()``.  All mutable
    dispatch state (``_admitted``, ``_inflight``) is touched only from
    the event-loop thread — worker threads compute response bodies,
    hand the rendered bytes to the service and update (locked) metrics,
    nothing else — so admission and coalescing need no locks of their
    own.
    """

    def __init__(
        self,
        service: SearchService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 64,
        workers: int = 4,
        default_deadline_ms: Optional[float] = None,
        drain_timeout: float = 10.0,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.service = service
        self.host = host
        self.port = port
        self.max_queue = max_queue
        self.workers = workers
        self.default_deadline_ms = default_deadline_ms
        self.drain_timeout = drain_timeout
        self.metrics = ServerMetrics()
        #: Requests currently executing or queued for the executor.
        self._admitted = 0
        #: Coalescing table: request identity -> the leader's future.
        self._inflight: Dict[Tuple, "asyncio.Future[Response]"] = {}
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        #: Open connection handlers, so ``stop`` can close idle
        #: keep-alive sockets instead of leaving tasks to be cancelled.
        self._conn_writers: set = set()
        self._conn_tasks: set = set()

    # ------------------------------------------------------------ lifecycle

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-http"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, drain admitted requests,
        then release the worker pool and the service's resources (the
        sharded service reaps its fork-worker pool in ``close``)."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            deadline = time.monotonic() + self.drain_timeout
            while self._admitted > 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=1.0)
        if self._executor is not None:
            self._executor.shutdown(wait=drain)
        self.service.close()

    # ------------------------------------------------------- HTTP plumbing

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_writers.add(writer)
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ValueError as exc:
                    status, body, _ = self._observe(
                        "malformed", 400, _error_body(400, str(exc)))
                    await self._write_response(
                        writer, status, body, keep_alive=False)
                    break
                if request is None:
                    break
                method, target, version, headers = request

                keep_alive = (
                    version != "HTTP/1.0"
                    and headers.get("connection", "").lower() != "close"
                )
                status, body, extra = await self._dispatch(method, target)
                await self._write_response(
                    writer, status, body,
                    content_type=extra.pop("content-type", "application/json"),
                    extra_headers=extra,
                    keep_alive=keep_alive,
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    async def _read_request(reader):
        """``(method, target, version, headers)`` of the connection's
        next request, its body read and dropped; ``None`` once the peer
        is done.  What cannot be framed raises ``ValueError`` with the
        400's message: a line past the reader's limit (``readline``
        itself), a request line that is not three tokens, a
        ``Content-Length`` that is not a count."""
        request_line = await reader.readline()
        if not request_line or not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ValueError("malformed request line")
        headers = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length") or "0"
        if not length.isdecimal():
            raise ValueError(f"malformed Content-Length {length!r}")
        await reader.readexactly(int(length))
        return (*parts, headers)

    async def _write_response(
        self,
        writer,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: Optional[Dict[str, str]] = None,
        keep_alive: bool = True,
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()

    # ----------------------------------------------------------- dispatch

    async def _dispatch(
        self, method: str, target: str
    ) -> Tuple[int, bytes, Dict[str, str]]:
        parts = urlsplit(target)
        path = parts.path
        if path == "/search":
            if method != "GET":
                return self._observe(path, 405, _error_body(
                    405, "/search is GET-only"))
            return await self._handle_search(parts.query)
        if path == "/metrics":
            if method != "GET":
                return self._observe(path, 405, _error_body(
                    405, "/metrics is GET-only"))
            body = render_prometheus(self._metric_families()).encode("utf-8")
            return self._observe(
                path, 200, body,
                {"content-type": "text/plain; version=0.0.4; charset=utf-8"},
            )
        if path == "/healthz":
            if method != "GET":
                return self._observe(path, 405, _error_body(
                    405, "/healthz is GET-only"))
            return self._observe(path, 200, _json_body(
                {"ok": True, "draining": self._draining}))
        if path == "/admin/invalidate":
            if method != "POST":
                return self._observe(path, 405, _error_body(
                    405, "/admin/invalidate is POST-only"))
            self.service.invalidate()
            return self._observe(path, 200, _json_body(
                {"invalidated": True}))
        return self._observe(path, 404, _error_body(
            404, f"no route for {path!r}"))

    def _observe(
        self,
        endpoint: str,
        status: int,
        body: bytes,
        extra: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes, Dict[str, str]]:
        self.metrics.observe_response(endpoint, status)
        return status, body, dict(extra or {})

    # ------------------------------------------------------------- search

    async def _handle_search(
        self, query_string: str
    ) -> Tuple[int, bytes, Dict[str, str]]:
        arrival = time.monotonic()
        try:
            request = parse_search_params(
                parse_qs(query_string, keep_blank_values=True)
            )
            plan = self.service.plan(
                request.query,
                k=request.k,
                algorithm=request.algorithm,
                **dict(request.params),
            )
        except (ParamError, ReproError) as exc:
            return self._observe("/search", 400, _error_body(400, str(exc)))

        deadline_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.default_deadline_ms
        )
        deadline = (
            arrival + deadline_ms / 1000.0 if deadline_ms is not None else None
        )

        # Coalesce: a cacheable plan already being executed for the same
        # store version and rendering options shares the leader's bytes.
        key = (
            (plan.cache_key, plan.store_version) + request.response_key()
            if plan.cacheable
            else None
        )
        if key is not None and key in self._inflight:
            self.metrics.inc("requests_coalesced")
            status, body = await asyncio.shield(self._inflight[key])
            headers = {"X-Coalesced": "1"}
            if status == 200:
                self.metrics.latency.record(time.monotonic() - arrival)
            return self._observe("/search", status, body, headers)

        # Hit: the result tier holds this rendering's bytes.  Answered
        # here — nothing executes, so nothing is admitted or can expire.
        if key is not None and not self._draining:
            hit = self.service.rendered(plan, request.response_key())
            if hit is not None:
                stats, answers = hit
                self.metrics.absorb_search_stats(stats)
                self.metrics.latency.record(time.monotonic() - arrival)
                return self._observe(
                    "/search", 200, _search_body(plan, stats, answers))

        # Admission control: shed instead of queueing without bound.
        if self._draining or self._admitted >= self.max_queue:
            self.metrics.inc("requests_shed")
            return self._observe("/search", 503, _error_body(
                503,
                "draining" if self._draining else
                f"admission queue full ({self.max_queue} in flight)",
            ))

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Response]" = loop.create_future()
        if key is not None:
            self._inflight[key] = future
        self._admitted += 1
        try:
            status, body = await loop.run_in_executor(
                self._executor, self._execute_request, plan, deadline, request
            )
        except Exception as exc:  # pragma: no cover - defensive
            status, body = 500, _error_body(500, repr(exc))
        finally:
            self._admitted -= 1
            if key is not None and self._inflight.get(key) is future:
                del self._inflight[key]
            # Followers must always be released, even on failure paths.
            future.set_result((status, body))
        if status == 200:
            self.metrics.latency.record(time.monotonic() - arrival)
        return self._observe("/search", status, body)

    def _execute_request(
        self, plan, deadline: Optional[float], request: SearchRequest
    ) -> Response:
        """Worker-thread body: deadline gate, execute, render JSON."""
        if deadline is not None and time.monotonic() >= deadline:
            self.metrics.inc("requests_expired")
            return 504, _error_body(
                504, "deadline expired before execution")
        try:
            # A writer can move the store between planning (in the async
            # loop) and execution (here); a stale plan is not an error to
            # surface, just a race to absorb — replan against the fresh
            # snapshot.  Bounded: a writer hot enough to outrun three
            # replans gets the 500 and the client's retry.
            for attempt in range(3):
                try:
                    result = self.service.search(plan=plan)
                    break
                except StalePlanError:
                    if attempt == 2:
                        raise
                    plan = self.service.plan(
                        request.query,
                        k=request.k,
                        algorithm=request.algorithm,
                        **dict(request.params),
                    )
        except ReproError as exc:
            return 500, _error_body(500, str(exc))
        self.metrics.absorb_search_stats(result.stats)
        answers = self._render_result(result, request)
        self.service.store_rendering(
            plan, result, request.response_key(), answers)
        return 200, _search_body(plan, result.stats, answers)

    def _render_result(self, result, request: SearchRequest) -> bytes:
        """The ``answers`` array of a ``/search`` body, as JSON bytes."""
        started = time.perf_counter()
        graph = self.service.snapshot().graph if request.include_rows else None
        answers = []
        rows = 0
        for answer in result.answers:
            rendered = {
                "score": answer.score,
                "pattern_key": list(answer.pattern_key),
                "num_subtrees": answer.num_subtrees,
            }
            if request.include_rows:
                table = answer.to_table(graph, request.max_rows)
                rendered["columns"] = table.headers()
                rendered["rows"] = table.rows
                rows += table.num_rows
            answers.append(rendered)
        body = json.dumps(answers, sort_keys=True).encode("utf-8")
        self.metrics.observe_render(time.perf_counter() - started, rows)
        return body

    # ------------------------------------------------------------- metrics

    def _metric_families(self) -> List[MetricFamily]:
        metrics = self.metrics
        stats = self.service.stats
        families = [
            MetricFamily(
                "repro_http_uptime_seconds", "gauge",
                "Seconds since the server object was created.",
            ).add({}, metrics.uptime_seconds()),
            MetricFamily(
                "repro_http_qps", "gauge",
                "Responses per second over the sliding rate window.",
            ).add({}, metrics.qps.rate()),
            MetricFamily(
                "repro_http_queue_depth", "gauge",
                "Requests currently admitted (executing or queued); "
                "misses only, a hit answered from stored bytes takes no "
                "slot.",
            ).add({}, self._admitted),
            MetricFamily(
                "repro_http_requests_shed_total", "counter",
                "Requests rejected 503 by admission control (misses "
                "only, except while draining).",
            ).add({}, metrics.requests_shed),
            MetricFamily(
                "repro_http_render_seconds_total", "counter",
                "Seconds spent rendering the answers of /search misses "
                "(tables and JSON); a hit answered from stored bytes "
                "renders nothing.",
            ).add({}, metrics.render_seconds),
            MetricFamily(
                "repro_http_rendered_rows_total", "counter",
                "Table rows rendered into /search miss bodies "
                "(include_rows=1).",
            ).add({}, metrics.rendered_rows),
            MetricFamily(
                "repro_http_requests_coalesced_total", "counter",
                "Requests served from an in-flight duplicate execution.",
            ).add({}, metrics.requests_coalesced),
            MetricFamily(
                "repro_http_requests_expired_total", "counter",
                "Requests whose deadline passed before execution (504).",
            ).add({}, metrics.requests_expired),
        ]

        requests = MetricFamily(
            "repro_http_requests_total", "counter",
            "Responses written, by endpoint and status.",
        )
        totals, counters = metrics.totals()
        for (endpoint, status), count in sorted(totals.items()):
            requests.add({"endpoint": endpoint, "status": status}, count)
        families.append(requests)

        latency = metrics.latency.snapshot()
        summary = MetricFamily(
            "repro_http_request_latency_seconds", "summary",
            "Latency of answered (200) /search requests.",
        )
        for quantile, key in (
            ("0.5", "p50_seconds"),
            ("0.95", "p95_seconds"),
            ("0.99", "p99_seconds"),
        ):
            summary.add({"quantile": quantile}, latency[key])
        families.append(summary)
        families.append(MetricFamily(
            "repro_http_request_latency_seconds_sum", "counter",
            "Total latency of answered /search requests.",
        ).add({}, latency["sum_seconds"]))
        families.append(MetricFamily(
            "repro_http_request_latency_seconds_count", "counter",
            "Count of answered /search requests.",
        ).add({}, latency["count"]))

        hits = MetricFamily(
            "repro_cache_hits_total", "counter",
            "SearchService cache hits by tier.",
        )
        misses = MetricFamily(
            "repro_cache_misses_total", "counter",
            "SearchService cache misses by tier.",
        )
        hits.add({"tier": "result"}, stats.result_hits)
        misses.add({"tier": "result"}, stats.result_misses)
        # Result-tier hits, split by what they cost: answered on the loop
        # from the entry's stored bytes, or rendered again on a worker.
        hits.add({"tier": "rendered"}, stats.rendered_hits)
        misses.add({"tier": "rendered"}, stats.rendered_misses)
        hits.add({"tier": "context"}, stats.context_hits)
        misses.add({"tier": "context"}, stats.context_misses)
        hits.add({"tier": "resolution"}, stats.resolution_hits)
        misses.add({"tier": "resolution"}, stats.resolution_misses)
        hits.add({"tier": "candidate"}, stats.candidate_hits)
        families.extend([hits, misses])

        families.append(MetricFamily(
            "repro_service_searches_total", "counter",
            "Queries served by the underlying SearchService.",
        ).add({}, stats.searches))
        families.append(MetricFamily(
            "repro_service_snapshots_total", "counter",
            "Serving snapshots taken (cold loads + invalidation refreshes).",
        ).add({}, stats.snapshots_taken))
        families.append(MetricFamily(
            "repro_service_invalidations_total", "counter",
            "Explicit cache invalidations (writer ticks).",
        ).add({}, stats.invalidations))
        families.append(MetricFamily(
            "repro_index_load_seconds", "gauge",
            "Seconds spent (re)loading the serving snapshot.",
        ).add({}, stats.load_seconds))

        # Delta-overlay lifecycle: live mutation backlog and compaction
        # lineage of the serving store (all zero for heap-resident
        # bundles, which have no overlay and no generations).
        store = self.service.indexes.store
        families.append(MetricFamily(
            "repro_service_compactions_total", "counter",
            "Delta-overlay compactions run through the service.",
        ).add({}, stats.compactions))
        families.append(MetricFamily(
            "repro_service_compaction_seconds_total", "counter",
            "Seconds compactions held the store lock, summed.",
        ).add({}, stats.compaction_seconds))
        families.append(MetricFamily(
            "repro_store_compaction_words_rebuilt", "gauge",
            "Words the last compaction re-derived instead of copying.",
        ).add({}, stats.compaction_words_rebuilt))
        families.append(MetricFamily(
            "repro_store_generation", "gauge",
            "Compaction generation of the serving store's mapped base.",
        ).add({}, getattr(store, "generation", 0)))
        families.append(MetricFamily(
            "repro_store_overlay_words", "gauge",
            "Words holding heap overlay postings since the last re-map.",
        ).add({}, getattr(store, "overlay_words", 0)))
        families.append(MetricFamily(
            "repro_store_overlay_postings", "gauge",
            "Heap overlay postings awaiting compaction.",
        ).add({}, getattr(store, "overlay_postings", 0)))
        families.append(MetricFamily(
            "repro_store_query_paths_boxed_total", "counter",
            "Paths boxed into the store's query columns since open.",
        ).add({}, store.query_paths_boxed))
        families.append(MetricFamily(
            "repro_store_entries_materialized_total", "counter",
            "PathEntry objects rebuilt from the store's path columns "
            "since open (0 while requests stay on the entry-free path).",
        ).add({}, store.entries_materialized))

        # Execution backend: which spine runs cache-miss executions and
        # how wide it is.  A plain service executes on this server's
        # thread bridge; pool-backed services self-describe via stats.
        backend = stats.execution_backend
        backend_workers = stats.execution_workers
        if backend == "inline":
            backend, backend_workers = "threads", self.workers
        families.append(MetricFamily(
            "repro_execution_workers", "gauge",
            "Parallel execution width of the active backend.",
        ).add({"backend": backend}, backend_workers))
        families.append(MetricFamily(
            "repro_worker_failovers_total", "counter",
            "Executions answered inline after a pool worker died.",
        ).add({}, stats.worker_failovers))
        families.append(MetricFamily(
            "repro_worker_respawn_failures_total", "counter",
            "Dead pool workers whose replacement failed to start.",
        ).add({}, stats.respawn_failures))
        families.append(MetricFamily(
            "repro_pool_rebuilds_total", "counter",
            "Worker pools (re)built (lazy first build + version bumps).",
        ).add({}, stats.pool_rebuilds))
        worker_snapshot = getattr(self.service, "worker_snapshot", None)
        if worker_snapshot is not None:
            alive = MetricFamily(
                "repro_pool_worker_alive", "gauge",
                "1 when the pool worker process is alive.",
            )
            busy = MetricFamily(
                "repro_pool_worker_busy", "gauge",
                "1 while the pool worker slot is executing a plan.",
            )
            executed = MetricFamily(
                "repro_pool_worker_executed_total", "counter",
                "Plans executed by the pool worker slot.",
            )
            respawns = MetricFamily(
                "repro_pool_worker_respawns_total", "counter",
                "Times the pool worker slot was respawned after a death.",
            )
            for row in worker_snapshot():
                label = {"worker": str(row["worker"])}
                alive.add(label, 1.0 if row["alive"] else 0.0)
                busy.add(label, 1.0 if row["busy"] else 0.0)
                executed.add(label, row["executed"])
                respawns.add(label, row["respawns"])
            families.extend([alive, busy, executed, respawns])
            pool_info = getattr(self.service, "pool_info", None)
            if pool_info is not None:
                families.append(MetricFamily(
                    "repro_pool_free_slots", "gauge",
                    "Pool worker slots currently free.",
                ).add({}, pool_info()["free_slots"]))

        work = MetricFamily(
            "repro_search_counter_total", "counter",
            "Aggregated per-request search work counters.",
        )
        for name in sorted(counters):
            work.add({"counter": name}, counters[name])
        families.append(work)
        return families


# --------------------------------------------------------------- runners


class ServerThread:
    """An :class:`HttpSearchServer` on a background thread with its own
    event loop — what tests and the load benches use to host a server
    inside the measuring process."""

    def __init__(self, server: HttpSearchServer) -> None:
        self.server = server
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain = True
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-http-server", daemon=True
        )

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self, drain: bool = True) -> None:
        if self._loop is None or self._stop is None:
            return
        self._drain = drain
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join()

    @property
    def address(self) -> str:
        return self.server.address

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # pragma: no cover - defensive
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.server.stop(drain=self._drain)


def start_http_server(service: SearchService, **kwargs) -> ServerThread:
    """Convenience: construct, start, and return a background server."""
    return ServerThread(HttpSearchServer(service, **kwargs)).start()


def run_server(
    service: SearchService,
    host: str = "127.0.0.1",
    port: int = 8080,
    ready=None,
    **kwargs,
) -> None:
    """Foreground runner for ``repro serve --http``: serves until SIGINT
    or SIGTERM, then drains and shuts down.  ``ready`` (if given) is
    called with the bound server once it is listening."""

    async def main() -> None:
        server = HttpSearchServer(service, host=host, port=port, **kwargs)
        await server.start()
        if ready is not None:
            ready(server)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop.wait()
        await server.stop(drain=True)

    asyncio.run(main())

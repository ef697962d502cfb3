"""``http_zipf``: the HTTP tier over a two-process fork pool, under a
Zipf request stream with periodic writer ticks."""

from __future__ import annotations

import json
import random
import re
import time
from typing import Dict, List
from urllib.parse import parse_qs, urlsplit

from repro.index.builder import build_indexes
from repro.index.serialize import load_indexes, save_indexes
from repro.search.engine import TableAnswerEngine
from repro.search.plan import execute_plan, plan_search
from repro.serve.params import parse_search_params
from repro.serve.pool import ForkWorkerPool

import inputs
import loadgen
from measure import median, ms, percentile, timed, us
from spans import Tracer
from workloads import HEIGHT, K_SERVE, MAX_ROWS, PassResult, Workload

POOL_PROCESSES = 2
#: A window is the traffic between two writer ticks: ``profile.window - 1``
#: Zipf-drawn searches, then ``POST /admin/invalidate``.  The stream the
#: seed draws is this many windows long; a run that sends more starts over.
STREAM_WINDOWS = 64
#: Traced run: open-loop rates swept, the one whose latencies are
#: reported, and the latency limit a rate must meet.
SWEEP_RATES = (50.0, 100.0, 200.0)
OPEN_RATE = 100.0
SLO_P95_MS = 250.0
PROBES = 40

_SAMPLE = re.compile(r"^(\w+)(\{[^}]*\})? ([-+.eE\d]+|NaN)$", re.MULTILINE)


def scrape(connection: loadgen.Connection) -> Dict[str, float]:
    """``/metrics`` as ``{name{labels}: value}``."""
    status, body = connection.send(("GET", "/metrics"))
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return {
        name + (labels or ""): float(value)
        for name, labels, value in _SAMPLE.findall(body.decode())
    }


def answer_fingerprint(body: bytes) -> inputs.Fingerprint:
    answers = json.loads(body)["answers"]
    return (
        tuple(answer["score"] for answer in answers),
        tuple(tuple(answer["pattern_key"]) for answer in answers),
        tuple(answer["num_subtrees"] for answer in answers),
    )


class HttpZipf(Workload):
    """Load from this process over ``loadgen.CONNECTIONS`` keep-alive
    connections, closed loop: each connection sends its next request
    when the reply arrives.  A pass is one window; times are raw
    wall-clock readings (both vCPUs are busy: there is no idle moment to
    read the machine's speed in, see ``measure.Clock``).  The open loop
    is in the traced run: at 100 requests per second this server is past
    the knee, and its p95 moved 50-160 ms between runs of one seed."""

    name = "http_zipf"

    def prepare(self) -> None:
        self.graph = inputs.search_graph(self.profile)
        self.pins["graph.search"] = inputs.graph_digest(self.graph)
        self.oracle_indexes = build_indexes(self.graph, d=HEIGHT)
        oracle = TableAnswerEngine(self.graph, indexes=self.oracle_indexes)
        pool = inputs.query_pool(
            self.oracle_indexes, self.profile.pool_families)
        self.pins["queries.pool"] = inputs.digest(pool)
        self.members = inputs.select_group(
            oracle, pool, self.profile.served, K_SERVE)
        self.pins["queries.served"] = inputs.digest(
            [query for query, _ in self.members]
        )
        self.window = self.profile.window
        ranks = inputs.zipf_stream(
            random.Random(self.seed), len(self.members),
            STREAM_WINDOWS * (self.window - 1))
        if self.seed == inputs.DEFAULT_SEED:
            self.pins["zipf.stream"] = inputs.digest(ranks)
        #: ``stream[i]`` is request i and ``expected[i]`` the fingerprint
        #: its answer must have (None for a writer tick).
        self.stream: List[loadgen.Request] = []
        self.expected: List = []
        for start in range(0, len(ranks), self.window - 1):
            for rank in ranks[start:start + self.window - 1]:
                query, fingerprint = self.members[rank]
                self.stream.append(
                    loadgen.search_request(query, K_SERVE, MAX_ROWS))
                self.expected.append(fingerprint)
            self.stream.append(loadgen.INVALIDATE)
            self.expected.append(None)
        self.first_request = loadgen.search_request(
            self.members[0][0], K_SERVE, MAX_ROWS)
        self.server = None

    def setup(self) -> None:
        build_s, indexes = timed(build_indexes, self.graph, d=HEIGHT)
        self.builder_metrics(indexes, build_s)
        self.index_path = self.workdir / "served.idx"
        save_s, nbytes = timed(save_indexes, indexes, self.index_path)
        self.setup_parts.update({
            "index_mb": nbytes / 1e6,
            "index.serialize.save_s": save_s,
            "index.serialize.bytes_per_posting": nbytes / indexes.num_entries,
        })

    def open(self) -> None:
        self.server = loadgen.ServerProcess(
            self.index_path, POOL_PROCESSES, self.src_dir)
        start_s, _ = timed(self.server.start)
        self.setup_parts["serve.pool.start_s"] = start_s
        self.connection = self.server.connect()
        status, _ = self.connection.send(self.first_request)
        if status != 200:
            raise RuntimeError(f"first request answered {status}")

    def close(self) -> None:
        if self.server is not None:
            self.connection.close()
            self.server.stop()
        self.server = None

    # ------------------------------------------------------------ measuring

    def diverges(self, seen: loadgen.Observation) -> bool:
        """Whether a reply is a non-200, a transport error or an answer
        unlike the oracle's."""
        expected = self.expected[seen.index]
        bad = seen.status != 200 or (
            expected is not None
            and answer_fingerprint(seen.body) != expected)
        if bad:
            print(f"FAILED: request {seen.index} {self.stream[seen.index][1]}"
                  f" answered {seen.status or 'nothing'}"
                  + (" unlike the oracle" if seen.status == 200 else ""))
        return bad

    def measure(self, seconds: float) -> List[PassResult]:
        """One pass per window, until ``seconds`` have gone by."""
        passes: List[PassResult] = []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            first = len(passes) % STREAM_WINDOWS * self.window
            seen = loadgen.closed_loop(
                self.server, self.stream, range(first, first + self.window))
            ops: Dict[str, List[float]] = {"read": [], "tick": []}
            for one in seen:
                kind = "tick" if self.expected[one.index] is None else "read"
                ops[kind].append(one.latency)
            passes.append(PassResult(
                ops, sum(self.diverges(one) for one in seen),
                max(one.done for one in seen)
                - min(one.sent for one in seen)))
        return passes

    # -------------------------------------------------------------- tracing

    def trace_pass(self, tracer: Tracer, seconds: float):
        connection = self.connection
        request_ids = iter(range(1 << 30))
        failed = 0

        def probe(name: str, request: loadgen.Request, **counts):
            nonlocal failed
            started = time.perf_counter()
            status, body = connection.send(request)
            tracer.record(
                name, next(request_ids), started, time.perf_counter(),
                status=status, response_bytes=len(body), **counts)
            failed += status != 200
            return body

        before = scrape(connection)
        for _ in range(PROBES):
            probe("serve.http.healthz", ("GET", "/healthz"))
            probe("serve.metrics", ("GET", "/metrics"))

        # Miss, then hit, for a seeded sample of the served queries; the
        # same plan executed in this process is what the tier adds to.
        sample = random.Random(self.seed).sample(
            self.members, min(PROBES, len(self.members)))
        heap = self.oracle_indexes
        probe("serve.http.invalidate", loadgen.INVALIDATE)
        for query, expected in sample:
            request = loadgen.search_request(query, K_SERVE, MAX_ROWS)
            body = probe("serve.http.miss", request)
            failed += answer_fingerprint(body) != expected
            probe("serve.http.hit", request)
            with tracer.span("serve.params", next(request_ids)):
                parse_search_params(parse_qs(
                    urlsplit(request[1]).query, keep_blank_values=True))
            with tracer.span("search.inline", next(request_ids)):
                plan = plan_search(heap, query, k=K_SERVE)
                result = execute_plan(heap, plan)
                result.tables(heap.graph, max_rows=MAX_ROWS)

        self._trace_pool(tracer, request_ids, [q for q, _ in sample])

        # Offered-rate sweep, each rate for a third of the seconds;
        # latencies run from the due time.
        depth_max, in_slo, lag, at_open_rate = 0.0, 0.0, [], []
        for rate in SWEEP_RATES:
            at_start = scrape(connection)
            count = int(rate * seconds / len(SWEEP_RATES))
            observed = loadgen.open_loop(
                self.server, self.stream, range(count), rate)
            at_end = scrape(connection)
            refused = sum(
                at_end.get(name, 0.0) - at_start.get(name, 0.0)
                for name in ("repro_http_requests_shed_total",
                             "repro_http_requests_expired_total"))
            latencies = [seen.latency for seen in observed]
            bad = sum(self.diverges(seen) for seen in observed)
            failed += bad
            for seen in observed:
                tracer.record(
                    "serve.http.sweep", next(request_ids), seen.due,
                    seen.done, rate=rate, status=seen.status,
                    lateness=seen.lateness)
            if (not bad and not refused
                    and ms(percentile(latencies, 0.95)) <= SLO_P95_MS):
                in_slo = max(in_slo, rate)
            if rate == OPEN_RATE:
                at_open_rate = latencies
            depth_max = max(depth_max, at_end["repro_http_queue_depth"])
            lag += [seen.lateness for seen in observed]
        after = scrape(connection)

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        def rate_of(tier: str) -> float:
            hits = delta(f'repro_cache_hits_total{{tier="{tier}"}}')
            misses = delta(f'repro_cache_misses_total{{tier="{tier}"}}')
            return hits / max(1.0, hits + misses)

        miss = tracer.durations("serve.http.miss")
        inline = tracer.durations("search.inline")
        searches = max(1.0, delta("repro_service_searches_total"))
        return {
            "serve.http.healthz_p50_ms": ms(median(
                tracer.durations("serve.http.healthz"))),
            "serve.http.hit_p50_ms": ms(median(
                tracer.durations("serve.http.hit"))),
            "serve.http.miss_overhead_ms": ms(median(
                [m - i for m, i in zip(miss, inline)])),
            "serve.http.response_bytes": tracer.count_total(
                "serve.http.miss", "response_bytes") / max(1, len(miss)),
            "serve.http.shed": delta("repro_http_requests_shed_total"),
            "serve.http.expired": delta("repro_http_requests_expired_total"),
            "serve.http.coalesced": delta(
                "repro_http_requests_coalesced_total"),
            "serve.http.open_p50_ms": ms(median(at_open_rate)),
            "serve.http.open_p95_ms": ms(percentile(at_open_rate, 0.95)),
            "serve.http.queue_depth_max": depth_max,
            "serve.http.max_rate_in_slo": in_slo,
            "serve.http.sched_lag_ms": ms(percentile(lag, 0.95)),
            "serve.params.parse_us": us(median(
                tracer.durations("serve.params"))),
            "serve.metrics.scrape_ms": ms(median(
                tracer.durations("serve.metrics"))),
            "serve.pool.pipe_rtt_ms": ms(median([
                p - i for p, i in zip(
                    tracer.durations("serve.pool"),
                    tracer.durations("search.pool_inline"))])),
            "serve.pool.rebuilds": delta("repro_pool_rebuilds_total"),
            "serve.pool.failovers": delta("repro_worker_failovers_total"),
            "search.service.result_hit_rate": rate_of("result"),
            "search.service.context_hit_rate": rate_of("context"),
            "search.plan.resolution_hit_rate": rate_of("resolution"),
            "search.service.candidate_hit_rate": delta(
                'repro_cache_hits_total{tier="candidate"}') / searches,
            "search.service.invalidate_us": us(median(
                tracer.durations("serve.http.invalidate"))),
        }, failed

    def _trace_pool(self, tracer, request_ids, queries: List[str]) -> None:
        """Pipe transit: the same plans on a fork worker of this process
        and inline, over the served file."""
        loaded = load_indexes(self.index_path).snapshot()
        loaded.store.warm_query_caches()
        pool = ForkWorkerPool(loaded, 1)
        try:
            for query in queries:
                plan = plan_search(loaded, query, k=K_SERVE)
                with tracer.span("serve.pool", next(request_ids)):
                    pool.execute(plan)
                with tracer.span("search.pool_inline", next(request_ids)):
                    execute_plan(loaded, plan)
        finally:
            pool.close()

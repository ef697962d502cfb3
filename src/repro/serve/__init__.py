"""Network serving tier: HTTP front-end, metrics, and workload files.

The first clients of :class:`~repro.search.service.SearchService` were
the single-threaded ``serve`` REPL and the ``batch`` CLI; this package is
the concurrent, measurable front the ROADMAP's "millions of users" story
needs:

* :mod:`repro.serve.http` — an asyncio HTTP/1.1 server with per-request
  deadlines, admission control (bounded queue + load shedding), and
  in-flight duplicate coalescing keyed on
  :attr:`~repro.search.plan.QueryPlan.cache_key`;
* :mod:`repro.serve.pool` — the fork-pool execution backend
  (``--processes N`` / ``--shards K``): long-lived fork workers
  executing cache-miss plans over tagged pipes for true multi-core HTTP
  serving, a query split over the free ones under ``--shards``, with
  inline failover + respawn on worker death;
* :mod:`repro.serve.metrics` — latency quantiles, QPS windows, and the
  Prometheus text rendering behind ``/metrics``;
* :mod:`repro.serve.params` — request-parameter parsing and the
  applicability validation shared between the HTTP parser and the
  ``serve`` REPL;
* :mod:`repro.serve.workload` — the JSONL request-stream format the
  open-loop load generator replays and ``repro batch`` accepts, so
  offline and online benches share seedable streams.

See ``docs/serving.md`` (HTTP tier section) and ``benchmarks/loadgen.py``.
"""

from repro.serve.http import HttpSearchServer, ServerThread, start_http_server
from repro.serve.pool import ForkWorkerPool, PooledSearchService
from repro.serve.params import (
    ParamError,
    SearchRequest,
    describe_inapplicable,
    inapplicable_params,
    parse_search_params,
)
from repro.serve.workload import (
    WorkloadRequest,
    load_workload,
    requests_from_queries,
    save_workload,
    zipf_workload,
)

__all__ = [
    "HttpSearchServer",
    "ServerThread",
    "start_http_server",
    "ForkWorkerPool",
    "PooledSearchService",
    "ParamError",
    "SearchRequest",
    "describe_inapplicable",
    "inapplicable_params",
    "parse_search_params",
    "WorkloadRequest",
    "load_workload",
    "requests_from_queries",
    "save_workload",
    "zipf_workload",
]

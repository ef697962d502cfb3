"""Command-line interface.

Subcommands mirror the production flow:

* ``build``  — parse a knowledge base (JSON or N-Triples), build the path
  indexes for a height threshold d, and persist them;
* ``search`` — load persisted indexes and answer one keyword query with
  any of the paper's algorithms, printing table answers;
* ``plan``   — print the :class:`~repro.search.plan.QueryPlan` a query
  would execute, without running it;
* ``serve``  — load once, then answer a query *stream*: interactively
  through a cached :class:`~repro.search.service.SearchService`, or —
  with ``--http HOST:PORT`` — over the asyncio HTTP front-end
  (:mod:`repro.serve.http`: deadlines, admission control, coalescing,
  ``/metrics``);
* ``batch``  — load once, answer a file of queries (optionally on a
  thread pool) through the same service; accepts both plain query-per-
  line files and the ``.jsonl`` workload format the HTTP load generator
  replays (:mod:`repro.serve.workload`);
* ``stats``  — inspect a persisted index bundle;
* ``compact`` — rewrite an index file as a flat next-generation v3 image
  (the offline twin of the service's online delta-overlay compaction;
  doubles as the v1/v2 -> v3 migration path).

``search`` loads the index per invocation (cold single-shot); ``serve``
and ``batch`` amortize one load across every query — see
``docs/serving.md``.

Examples::

    python -m repro.cli build kb.json --format json -d 3 -o kb.idx
    python -m repro.cli search kb.idx "database software company revenue"
    python -m repro.cli search kb.idx "movies gibson" --algorithm letopk \
        --sampling-rate 0.2 --sampling-threshold 1000
    python -m repro.cli plan kb.idx "database software company"
    echo "software company" | python -m repro.cli serve kb.idx
    python -m repro.cli serve kb.idx --http 127.0.0.1:8080 --max-queue 64
    python -m repro.cli batch kb.idx queries.txt --threads 4
    python -m repro.cli batch kb.idx workload.jsonl
    python -m repro.cli stats kb.idx
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.core.errors import ReproError, SearchError
from repro.index.builder import build_indexes
from repro.index.serialize import load_indexes, save_indexes
from repro.index.stats import index_statistics
from repro.kg.builder import build_graph
from repro.kg.loaders.jsonkb import load_json_kb
from repro.kg.loaders.ntriples import load_ntriples
from repro.kg.statistics import compute_statistics
from repro.search.service import SearchService


def _cmd_build(args: argparse.Namespace) -> int:
    if args.format == "json":
        kb = load_json_kb(args.input)
    else:
        kb = load_ntriples(args.input)
    graph, _nodes = build_graph(kb)
    print(compute_statistics(graph).format())
    indexes = build_indexes(graph, d=args.d)
    stats = index_statistics(indexes)
    print(stats.format())
    size = save_indexes(indexes, args.output)
    print(f"wrote {size / 1e6:.1f} MB to {args.output}")
    return 0


def _format_store_line(indexes) -> str:
    """One line on the columnar store: dedup ratio and byte footprint."""
    store = indexes.store
    return (
        f"store: {store.num_postings()} postings over "
        f"{store.num_paths} unique paths "
        f"({store.dedup_ratio():.2f}x dedup), "
        f"{store.nbytes() / 1e6:.1f} MB columnar, "
        f"{store.query_paths_boxed} query paths boxed, "
        f"{store.entries_materialized} entries materialized"
    )


def _format_file_stats(path) -> str:
    """Multi-line summary of the index *file*: format version, total
    bytes, and the size of each store section set it holds (one; a
    file an earlier build wrote sharded also lists its unused shard
    sections)."""
    from repro.index.serialize import describe_index_file

    info = describe_index_file(path)
    lines = [
        f"file: {info['file_bytes'] / 1e6:.1f} MB, "
        f"format v{info['version']}, kind={info['kind']}"
        + (
            f" ({info['num_shards']} shards)"
            if info["kind"] == "sharded"
            else ""
        )
        + (
            f", generation {info['generation']}"
            if "generation" in info
            else ""
        )
    ]
    for entry in info["stores"]:
        lines.append(
            f"  {entry['name']}: {entry['num_postings']} postings over "
            f"{entry['num_paths']} paths, "
            f"{entry['store_bytes'] / 1e6:.1f} MB on disk"
        )
    return "\n".join(lines)


def _format_cold_start(service) -> str:
    """One line on how long the bundle took to come off disk."""
    return f"cold start: index loaded in {service.stats.load_seconds * 1000.0:.1f} ms"


def _format_backend(service, http_workers=None) -> str:
    """One line on which execution spine answers cache-miss queries."""
    stats = service.stats
    if stats.execution_backend != "inline":
        return (
            f"execution backend: {stats.execution_backend} "
            f"({stats.execution_workers} workers)"
        )
    if http_workers is not None:
        return (
            f"execution backend: threads ({http_workers} executor "
            "threads, GIL-bound)"
        )
    return "execution backend: inline (single process)"


#: Search algorithms whose hot loops take the ``prune`` switch (the
#: baseline and the full-enumeration ranker have nothing to prune: their
#: contract is the complete answer set).
_PRUNABLE_ALGORITHMS = (
    "pattern_enum", "petopk", "linear", "letopk", "linear_topk",
)

# One-shot commands pass mismatched flags through so plan-time
# validation rejects them loudly; only the ``serve`` REPL drops
# inapplicable flags — with a warning, via the same applicability check
# the HTTP parser uses (``repro.serve.params``) — so an ``:algorithm``
# switch mid-session is not poisoned by a once-given ``--sampling-rate``.


def _explain_pruning(stats) -> str:
    """The ``--explain`` lines: pruning counters + threshold trajectory."""
    lines = [
        "pruning: "
        f"roots_skipped={stats.roots_skipped} "
        f"prefixes_skipped={stats.prefixes_skipped} "
        f"pairs_skipped={stats.pairs_skipped}"
    ]
    if stats.shards_total:
        busy = ", ".join(f"{ms:.1f}" for ms in stats.shard_busy_ms)
        line = (
            f"split: {stats.shards_total} slices "
            f"busy=[{busy}]ms subtrees={list(stats.shard_subtrees)}"
        )
        if stats.shard_failovers:
            line += f" failovers={stats.shard_failovers}"
        lines.append(line)
    if stats.threshold_first is not None:
        lines.append(
            "k-th score trajectory: "
            f"{stats.threshold_first:.6g} -> {stats.threshold_last:.6g}"
        )
    else:
        lines.append(
            "k-th score trajectory: queue never filled (nothing pruned)"
        )
    return "\n".join(lines)


def _search_params(args: argparse.Namespace) -> dict:
    """Collect algorithm parameters from the shared search/serve flags.

    Sampling flags pass through for *any* algorithm: a mismatch (e.g.
    ``--sampling-rate`` with ``pattern_enum``) is a loud plan-time
    error, not a silently inert flag.  ``--no-prune`` keeps its
    pre-existing per-algorithm gating (prune simply has no meaning for
    the complete-answer-set algorithms).
    """
    params = {}
    if getattr(args, "sampling_rate", None) is not None:
        params["sampling_rate"] = args.sampling_rate
    if getattr(args, "sampling_threshold", None) is not None:
        params["sampling_threshold"] = args.sampling_threshold
    if args.algorithm in _PRUNABLE_ALGORITHMS:
        params["prune"] = not getattr(args, "no_prune", False)
    return params


def _print_result(service, result, max_rows: int, explain: bool) -> int:
    """Render one SearchResult (shared by search and serve)."""
    graph = service.snapshot().graph
    if not result.answers:
        print("no answers")
        if explain:
            print(result.stats.format())
            print(_explain_pruning(result.stats))
        return 1
    for rank, answer in enumerate(result.answers, start=1):
        print(
            f"--- #{rank}  score={answer.score:.4f} "
            f"rows={answer.num_subtrees} ---"
        )
        print(answer.pattern.format(graph, result.query))
        if answer.subtrees:
            print(answer.to_table(graph, max_rows).to_ascii(max_rows))
        print()
    print(result.stats.format())
    if explain:
        print(_explain_pruning(result.stats))
    return 0


def _make_service(
    args: argparse.Namespace, pool_processes: Optional[int] = None
) -> SearchService:
    """The service a command serves through: a fork-pool service when
    ``--processes N`` (``serve``, ``batch``) or ``--shards K`` asks for
    it — N workers (K when only ``--shards`` is given), a shardable
    query split over up to K of them that are free — the plain service
    otherwise.  K is this command's choice, never the file's."""
    shards = getattr(args, "shards", None)
    if shards is not None and shards < 1:
        raise SearchError(f"--shards must be >= 1, got {shards}")
    if pool_processes is not None and pool_processes < 1:
        raise SearchError(f"--processes must be >= 1, got {pool_processes}")
    if pool_processes is None and shards is None:
        return SearchService.from_file(args.index)
    from repro.serve.pool import PooledSearchService

    return PooledSearchService.from_file(
        args.index,
        processes=pool_processes or shards,
        num_shards=shards or 0,
    )


def _cmd_search(args: argparse.Namespace) -> int:
    # Single-shot serving: one service, one query — identical cold
    # behavior to the pre-service CLI, but through the same plan/execute
    # path `serve` and `batch` use.
    service = _make_service(args)
    try:
        plan = service.plan(
            args.query, k=args.k, algorithm=args.algorithm,
            **_search_params(args),
        )
        if args.explain:
            print(_format_cold_start(service))
            print(plan.describe(service.snapshot()))
        result = service.search(plan=plan)
        return _print_result(service, result, args.max_rows, args.explain)
    finally:
        service.close()


def _cmd_plan(args: argparse.Namespace) -> int:
    service = SearchService.from_file(args.index)
    plan = service.plan(
        args.query, k=args.k, algorithm=args.algorithm,
        **_search_params(args),
    )
    print(plan.describe(service.snapshot()))
    return 0


#: ``serve`` REPL meta-commands (anything else is a query).
_SERVE_HELP = """\
commands:
  :k N            set the answer count (current value shown in the prompt)
  :algorithm A    switch algorithm (pattern_enum, linear, letopk, ...)
  :explain        toggle plan + pruning diagnostics
  :stats          print service cache statistics
  :help           this text
  :quit           exit (EOF works too)
anything else is searched as a keyword query."""


def _cmd_serve(args: argparse.Namespace) -> int:
    service = _make_service(
        args, pool_processes=getattr(args, "processes", None)
    )
    try:
        if args.http is not None:
            return _serve_http(service, args)
        return _serve_loop(service, args)
    finally:
        service.close()


def _serve_http(service: SearchService, args: argparse.Namespace) -> int:
    """``serve --http``: the asyncio front-end instead of the REPL."""
    from repro.serve.http import run_server

    host, _, port_text = args.http.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        print(
            f"error: --http wants HOST:PORT, got {args.http!r}",
            file=sys.stderr,
        )
        return 2

    # Executor width defaults to the fork-pool size when one is
    # configured: each executor thread then drives exactly one worker
    # process, so the pool is saturated without queueing inside it.
    workers = args.workers
    if workers is None:
        workers = args.processes if args.processes else 4

    def ready(server) -> None:
        print(_format_cold_start(service))
        print(_format_backend(service, http_workers=workers))
        print(
            f"serving {args.index} on http://{server.address} "
            f"(workers={workers}, max_queue={args.max_queue}, "
            f"deadline_ms={args.deadline_ms}); endpoints: /search "
            f"/metrics /healthz /admin/invalidate",
            flush=True,
        )

    run_server(
        service,
        host=host,
        port=port,
        ready=ready,
        max_queue=args.max_queue,
        workers=workers,
        default_deadline_ms=args.deadline_ms,
    )
    print(service.stats.format())
    return 0


def _serve_loop(service: SearchService, args: argparse.Namespace) -> int:
    store = service.indexes.store
    print(
        f"serving {args.index}: {store.num_postings()} postings over "
        f"{store.num_paths} paths; type a query (:help for commands)"
    )
    print(_format_cold_start(service))
    print(_format_backend(service))
    k = args.k
    algorithm = args.algorithm
    explain = args.explain
    interactive = sys.stdin.isatty()

    def plan_params() -> dict:
        # Recomputed per query (:algorithm changes mid-session), and —
        # unlike the one-shot commands — inapplicable sampling flags are
        # dropped rather than rejected: a flag given for the starting
        # algorithm must not poison the session after a switch.  The
        # drop is *audible*: the same applicability check the HTTP
        # parameter parser rejects with is printed here as a warning.
        from repro.serve.params import (
            describe_inapplicable,
            split_applicable_params,
        )

        shadow = argparse.Namespace(**{**vars(args), "algorithm": algorithm})
        kept, dropped = split_applicable_params(
            algorithm, _search_params(shadow)
        )
        if dropped:
            print(
                "warning: ignoring "
                + describe_inapplicable(algorithm, dropped)
            )
        return kept
    while True:
        if interactive:
            print(f"[{algorithm} k={k}]> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        if line.startswith(":"):
            command, _, value = line.partition(" ")
            if command in (":quit", ":q", ":exit"):
                break
            elif command == ":help":
                print(_SERVE_HELP)
            elif command == ":stats":
                print(service.stats.format())
                print(f"cache sizes: {service.cache_sizes()}")
            elif command == ":explain":
                explain = not explain
                print(f"explain {'on' if explain else 'off'}")
            elif command == ":k":
                try:
                    k = int(value)
                except ValueError:
                    print(f"error: :k needs an integer, got {value!r}")
            elif command == ":algorithm":
                from repro.search.plan import canonical_algorithm

                try:
                    # Same validation (incl. case-insensitivity) as every
                    # other entry point; keep the user's alias spelling.
                    canonical_algorithm(value.strip())
                    algorithm = value.strip().lower()
                except ReproError as exc:
                    print(f"error: {exc}")
            else:
                print(f"error: unknown command {command!r} (:help)")
            continue
        try:
            plan = service.plan(
                line, k=k, algorithm=algorithm, **plan_params()
            )
            if explain:
                print(plan.describe(service.snapshot()))
            result = service.search(plan=plan)
            _print_result(service, result, args.max_rows, explain)
        except ReproError as exc:
            print(f"error: {exc}")
    print(service.stats.format())
    return 0


def _load_batch_requests(args: argparse.Namespace):
    """The batch input as workload requests.

    ``.jsonl`` files parse as the :mod:`repro.serve.workload` format (the
    stream the HTTP load generator replays, possibly carrying per-request
    k/algorithm/params overrides and ``invalidate`` writer ticks); any
    other file is the classic one-query-per-line format.  Returns
    ``(requests, None)`` or ``(None, exit_code)``.
    """
    from repro.serve.workload import (
        WorkloadError,
        load_workload,
        requests_from_queries,
    )

    try:
        if args.queries.endswith(".jsonl"):
            return load_workload(args.queries), None
        with open(args.queries) as handle:
            queries = [
                stripped
                for stripped in (line.strip() for line in handle)
                if stripped and not stripped.startswith("#")
            ]
    except OSError as exc:
        print(f"error: cannot read {args.queries!r}: {exc}", file=sys.stderr)
        return None, 2
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2
    if not queries:
        print(f"error: no queries in {args.queries!r}", file=sys.stderr)
        return None, 2
    return requests_from_queries(queries), None


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.threads < 0:
        raise SearchError(f"--threads must be >= 0, got {args.threads}")
    requests, exit_code = _load_batch_requests(args)
    if requests is None:
        return exit_code
    uniform = all(
        not request.is_mutation and not request.has_overrides()
        for request in requests
    )
    if not uniform and (args.threads or args.processes):
        print(
            "error: this workload carries per-request overrides or "
            "invalidation ticks, which replay in order on one thread; "
            "drop --threads/--processes (or use a uniform workload)",
            file=sys.stderr,
        )
        return 2
    if not uniform:
        return _batch_replay(args, requests)
    queries = [request.query for request in requests]
    # N pool workers are kept busy by N batch threads.
    threads = args.threads or args.processes
    service = _make_service(args, pool_processes=args.processes or None)
    params = _search_params(args)
    if args.no_subtrees:
        params["keep_subtrees"] = False
    started = time.perf_counter()
    try:
        results = service.search_many(
            queries,
            k=args.k,
            algorithm=args.algorithm,
            threads=threads,
            **params,
        )
    finally:
        service.close()
    elapsed = time.perf_counter() - started
    for query, result in zip(queries, results):
        top = f"{result.answers[0].score:.4f}" if result.answers else "-"
        cached = " (cached)" if result.stats.from_result_cache else ""
        print(
            f"{query!r}: {result.num_answers} answers, top={top}, "
            f"{result.stats.elapsed_seconds * 1000:.1f} ms{cached}"
        )
    qps = len(queries) / elapsed if elapsed > 0 else float("inf")
    print(
        f"batch: {len(queries)} queries in {elapsed:.3f} s "
        f"({qps:.1f} QPS, threads={threads}, "
        f"processes={args.processes})"
    )
    print(service.stats.format())
    return 0


def _batch_replay(args: argparse.Namespace, requests) -> int:
    """Non-uniform workload replay: in order, one thread, writer ticks
    included — the offline twin of what the HTTP load generator sends."""
    from repro.serve.params import split_applicable_params

    service = _make_service(args)
    base_params = _search_params(args)
    if args.no_subtrees:
        base_params["keep_subtrees"] = False
    searches = invalidations = 0
    started = time.perf_counter()
    try:
        for request in requests:
            if request.is_mutation:
                service.invalidate()
                invalidations += 1
                print(":invalidate: caches flushed")
                continue
            algorithm = request.algorithm or args.algorithm
            params, _dropped = split_applicable_params(
                algorithm, base_params
            )
            params.update(dict(request.params))
            result = service.search(
                request.query,
                k=request.k if request.k is not None else args.k,
                algorithm=algorithm,
                **params,
            )
            searches += 1
            top = f"{result.answers[0].score:.4f}" if result.answers else "-"
            cached = " (cached)" if result.stats.from_result_cache else ""
            print(
                f"{request.query!r}: {result.num_answers} answers, "
                f"top={top}, "
                f"{result.stats.elapsed_seconds * 1000:.1f} ms{cached}"
            )
    finally:
        service.close()
    elapsed = time.perf_counter() - started
    qps = searches / elapsed if elapsed > 0 else float("inf")
    print(
        f"batch: {searches} queries + {invalidations} invalidations in "
        f"{elapsed:.3f} s ({qps:.1f} QPS, sequential replay)"
    )
    print(service.stats.format())
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    """``repro compact``: rewrite an index file as a flat next-generation
    v3 image.

    For a mapped v3 bundle this is the offline twin of the service's
    online compaction (``SearchService.compact``): the content streams
    into a fresh file at generation+1.  A v1/v2 bundle is rewritten
    into the mmap v3 layout — ``compact`` doubles as the format
    migration path.  The output holds one store whatever the input
    held.
    """
    from repro.index.serialize import (
        compact_indexes,
        describe_index_file,
        save_indexes,
    )

    out = args.output or args.index
    indexes = load_indexes(args.index)
    started = time.perf_counter()
    if indexes.store.has_mapped_base:
        outcome = compact_indexes(indexes, out)
        size, generation = outcome["bytes"], outcome["generation"]
        words = (
            f", {outcome['words_copied']} words copied, "
            f"{outcome['words_rebuilt']} rebuilt"
        )
    else:
        # Heap-resident (v1/v2) bundle: a compacting rewrite into the
        # mmap v3 layout.
        size = save_indexes(indexes, out)
        generation = describe_index_file(out).get("generation", 0)
        words = ""
    elapsed = time.perf_counter() - started
    print(
        f"wrote {size / 1e6:.1f} MB to {out} "
        f"(generation {generation}, {elapsed * 1000.0:.1f} ms{words})"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    print(_format_file_stats(args.index))
    indexes = load_indexes(args.index)
    print(f"load: {indexes.load_seconds * 1000.0:.1f} ms")
    print(compute_statistics(indexes.graph).format())
    print(index_statistics(indexes).format())
    print(_format_store_line(indexes))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Keyword search over knowledge bases, composing "
        "table answers (VLDB 2014 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="build and persist indexes")
    build.add_argument("input", help="knowledge-base file")
    build.add_argument(
        "--format", choices=("json", "ntriples"), default="json"
    )
    build.add_argument("-d", type=int, default=3, help="height threshold")
    build.add_argument("-o", "--output", required=True, help="index file")
    build.set_defaults(handler=_cmd_build)

    def add_query_flags(sub, with_query: bool = True) -> None:
        """The flags search/plan/serve/batch share."""
        sub.add_argument("index", help="persisted index file")
        if with_query:
            sub.add_argument("query", help="keyword query")
        sub.add_argument("-k", type=int, default=5)
        sub.add_argument(
            "--algorithm",
            default="pattern_enum",
            choices=(
                "pattern_enum", "petopk", "linear", "letopk", "linear_topk",
                "linear_full", "baseline",
            ),
        )
        sub.add_argument("--sampling-rate", type=float, default=None)
        sub.add_argument("--sampling-threshold", type=float, default=None)
        sub.add_argument(
            "--no-prune",
            action="store_true",
            help="disable bound-driven top-k pruning "
            "(exhaustive enumeration)",
        )

    def add_shards_flag(sub) -> None:
        sub.add_argument(
            "--shards", type=int, default=None, metavar="K",
            help="serve through a fork pool that splits each query over "
            "up to K free workers (K workers unless --processes says "
            "otherwise; bit-identical answers; the query's root types "
            "are balanced by subtree count over min(K, usable cores, "
            "root types) slices, read from the one store in the file; a "
            "query that finds one free worker runs whole on it)",
        )

    search = commands.add_parser("search", help="answer a keyword query")
    add_query_flags(search)
    add_shards_flag(search)
    search.add_argument("--max-rows", type=int, default=10)
    search.add_argument(
        "--explain",
        action="store_true",
        help="print the query plan, pruning counters, and the "
        "k-th-score trajectory",
    )
    search.set_defaults(handler=_cmd_search)

    plan = commands.add_parser(
        "plan", help="print a query's execution plan without running it"
    )
    add_query_flags(plan)
    plan.set_defaults(handler=_cmd_plan)

    serve = commands.add_parser(
        "serve",
        help="interactive query REPL: load the index once, serve a "
        "query stream through the caching SearchService",
    )
    add_query_flags(serve, with_query=False)
    add_shards_flag(serve)
    serve.add_argument("--max-rows", type=int, default=10)
    serve.add_argument(
        "--explain",
        action="store_true",
        help="start with plan/pruning diagnostics on (:explain toggles)",
    )
    serve.add_argument(
        "--http", metavar="HOST:PORT", default=None,
        help="serve over HTTP instead of the REPL: asyncio front-end "
        "with request coalescing, admission control, per-request "
        "deadlines, and a Prometheus /metrics endpoint (port 0 picks "
        "a free port)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="HTTP admission limit: requests executing or queued before "
        "the server sheds with 503 (default 64)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="HTTP default per-request deadline; requests that expire "
        "before execution are answered 504 without running "
        "(clients override per request with ?deadline_ms=)",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="HTTP executor threads running searches (default: "
        "--processes when given, else 4)",
    )
    serve.add_argument(
        "--processes", type=int, default=None, metavar="N",
        help="execute cache-miss searches on N long-lived fork workers "
        "instead of the GIL-bound executor threads (multi-core serving "
        "over copy-free mmap pages; composes with --shards K: a query "
        "is split over up to K of the N workers that are free; "
        "bit-identical answers, inline failover on worker death)",
    )
    serve.set_defaults(handler=_cmd_serve)

    batch = commands.add_parser(
        "batch",
        help="answer a file of queries (one per line) through one "
        "shared SearchService",
    )
    add_query_flags(batch, with_query=False)
    add_shards_flag(batch)
    batch.add_argument(
        "queries",
        help="query file: one query per line, or a .jsonl workload "
        "(repro.serve.workload format — per-request overrides and "
        "invalidation ticks replay in order)",
    )
    batch.add_argument(
        "--threads", type=int, default=0,
        help="thread-pool size for batch execution (0 = inline)",
    )
    batch.add_argument(
        "--processes", type=int, default=0, metavar="N",
        help="N fork-pool workers; composes with --shards K",
    )
    batch.add_argument(
        "--no-subtrees", action="store_true",
        help="run with keep_subtrees=False: answers keep exact scores "
        "and row counts but drop the subtree rows",
    )
    batch.set_defaults(handler=_cmd_batch)

    compact = commands.add_parser(
        "compact",
        help="rewrite an index file as a flat next-generation v3 image "
        "(one store per file; migrates v1/v2 bundles to the mmap layout)",
    )
    compact.add_argument("index", help="persisted index file")
    compact.add_argument(
        "-o", "--output", default=None,
        help="output file (default: rewrite in place, atomically)",
    )
    compact.set_defaults(handler=_cmd_compact)

    stats = commands.add_parser("stats", help="inspect a persisted index")
    stats.add_argument("index", help="persisted index file")
    stats.set_defaults(handler=_cmd_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

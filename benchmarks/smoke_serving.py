"""BENCH_4: SearchService serving — cold/warm latency, batch QPS, hit rates.

Measures the plan/execute + SearchService layer on the wiki synthetic
(d=3) over the same heavy 1-3 keyword workload BENCH_3 uses, replayed
the way a service sees traffic (queries repeat):

* **cold vs warm p50/p95** — first service hit per query (empty caches)
  vs the same queries replayed (result-cache tier);
* **batch QPS at 1/4/8 threads** — ``search_many`` over the repeated
  workload, caches flushed between runs (CPython threads interleave
  CPU-bound execution, so thread QPS measures overhead + cache sharing,
  not parallelism — the honest number is printed either way);
* **batch QPS at 1/4/8 fork workers** — the genuinely parallel path:
  a ``PooledSearchService`` of n workers kept busy by n batch threads,
  subtree rows included;
* **cache hit rates** from ``ServiceStats``.

Emits ``BENCH_4.json`` and **fails (exit 1) if any served result — warm,
threaded, or forked — diverges** from a cold single-threaded
``TableAnswerEngine`` run on the same store version.  CI runs the
``smoke`` profile and uploads the JSON; ``full`` reproduces the
acceptance numbers (800 entities)::

    PYTHONPATH=src python benchmarks/smoke_serving.py --profile full \
        --out BENCH_4.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.datasets.queries import WorkloadConfig, generate_workload
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import build_indexes
from repro.search.engine import TableAnswerEngine
from repro.search.linear_enum import count_answers
from repro.search.service import SearchService
from repro.serve.pool import PooledSearchService

PROFILES = {
    # ~seconds in CI; mirrors the BENCH_3 smoke graph.
    "smoke": {
        "wiki": WikiConfig(
            num_entities=120, num_types=8, num_attrs=12,
            vocabulary_size=60, seed=5,
        ),
        "min_subtrees": 64,
        "max_queries": 8,
        "repeat_factor": 4,
    },
    # The acceptance configuration: wiki synthetic, 800 entities, d=3.
    "full": {
        "wiki": WikiConfig(
            num_entities=800, num_types=24, num_attrs=36,
            vocabulary_size=240, seed=23,
        ),
        "min_subtrees": 4096,
        "max_queries": 10,
        "repeat_factor": 8,
    },
}


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1,
        max(0, round(fraction * (len(sorted_values) - 1))),
    )
    return sorted_values[rank]


def heavy_workload(indexes, min_subtrees, max_queries):
    """Deduplicated 1-3 keyword queries in the heavy answer-set group."""
    seen = set()
    heavy = []
    for seed in (23, 29, 31, 37, 41):
        for query in generate_workload(
            indexes,
            WorkloadConfig(
                queries_per_size=6, min_keywords=1, max_keywords=3, seed=seed
            ),
        ):
            if query in seen:
                continue
            seen.add(query)
            _patterns, subtrees = count_answers(indexes, query)
            if subtrees >= min_subtrees:
                heavy.append(query)
        if len(heavy) >= max_queries:
            break
    return heavy[:max_queries]


def fingerprint(result):
    return (
        result.scores(),
        result.pattern_keys(),
        [answer.num_subtrees for answer in result.answers],
    )


def run(profile_name: str, k: int, out_path: str) -> int:
    profile = PROFILES[profile_name]
    graph = generate_wiki_graph(profile["wiki"])
    indexes = build_indexes(graph, d=3)
    queries = heavy_workload(
        indexes, profile["min_subtrees"], profile["max_queries"]
    )
    if not queries:
        print("error: no heavy queries in the workload", file=sys.stderr)
        return 1

    # The no-cache oracle: cold engine on a pinned snapshot per query.
    snap = indexes.snapshot()
    engine = TableAnswerEngine(snap.graph, indexes=snap)

    def served(result):
        # Rows too: the fork-pool runs ship them across a pipe.
        rows = [list(answer.subtrees) for answer in result.answers]
        return fingerprint(result), rows

    oracle = {
        query: served(engine.search(query, k=k)) for query in queries
    }
    divergences = []

    def check(label, query, result):
        if served(result) != oracle[query]:
            divergences.append({"stage": label, "query": " ".join(query)})

    service = SearchService(indexes)

    # ---- cold vs warm single-query latency ----------------------------
    cold_latencies = []
    for query in queries:
        started = time.perf_counter()
        result = service.search(query, k=k)
        cold_latencies.append(time.perf_counter() - started)
        check("cold", query, result)
    warm_latencies = []
    for _round in range(3):
        for query in queries:
            started = time.perf_counter()
            result = service.search(query, k=k)
            warm_latencies.append(time.perf_counter() - started)
            check("warm", query, result)
    cold_latencies.sort()
    warm_latencies.sort()
    cold_p50 = percentile(cold_latencies, 0.50)
    warm_p50 = percentile(warm_latencies, 0.50)
    single_stats = service.stats

    # ---- batch throughput: a repeat-heavy stream ----------------------
    repeat = profile["repeat_factor"]
    stream = [
        queries[(i * 7 + j) % len(queries)]
        for i in range(repeat)
        for j in range(len(queries))
    ]

    def batch_run(threads=0, processes=0):
        if processes:
            runner = PooledSearchService(indexes, processes=processes)
        else:
            runner = service
            runner.invalidate()
            runner.stats = type(runner.stats)()  # fresh counters per config
        try:
            started = time.perf_counter()
            results = runner.search_many(
                stream, k=k, threads=threads or processes
            )
            elapsed = time.perf_counter() - started
        finally:
            if processes:
                runner.close()
        label = f"processes={processes}" if processes else f"threads={threads}"
        for query, result in zip(stream, results):
            check(label, query, result)
        return {
            "queries": len(stream),
            "seconds": elapsed,
            "qps": len(stream) / elapsed if elapsed > 0 else None,
            "result_hit_rate": runner.stats.result_hit_rate(),
            "deduped": runner.stats.batch_deduped,
        }

    thread_runs = {n: batch_run(threads=n) for n in (1, 4, 8)}
    process_runs = {}
    if hasattr(sys, "getwindowsversion"):  # pragma: no cover
        pass  # no fork
    else:
        process_runs = {n: batch_run(processes=n) for n in (1, 4, 8)}

    report = {
        "bench": "BENCH_4",
        "profile": profile_name,
        "k": k,
        "d": indexes.d,
        "num_entities": profile["wiki"].num_entities,
        "queries": [" ".join(query) for query in queries],
        "single_query": {
            "cold_p50_ms": cold_p50 * 1000,
            "cold_p95_ms": percentile(cold_latencies, 0.95) * 1000,
            "warm_p50_ms": warm_p50 * 1000,
            "warm_p95_ms": percentile(warm_latencies, 0.95) * 1000,
            "warm_speedup_p50": (
                cold_p50 / warm_p50 if warm_p50 > 0 else None
            ),
            "result_hit_rate": single_stats.result_hit_rate(),
            "context_hit_rate": single_stats.context_hit_rate(),
            "resolution_hit_rate": single_stats.resolution_hit_rate(),
        },
        "batch_threads": thread_runs,
        "batch_processes": process_runs,
        "thread_scaling_4x": (
            thread_runs[4]["qps"] / thread_runs[1]["qps"]
            if thread_runs[1]["qps"]
            else None
        ),
        "process_scaling_4x": (
            process_runs[4]["qps"] / process_runs[1]["qps"]
            if process_runs and process_runs[1]["qps"]
            else None
        ),
        "divergences": divergences,
        # The ISSUE acceptance criteria, answered explicitly rather than
        # buried in the numbers.  The 4-thread >= 2x criterion is not
        # achievable for CPU-bound pure-Python loops under the GIL
        # (threads buy snapshot/cache sharing, not parallelism); the
        # measured ratio is recorded unvarnished and the fork pool is
        # the parallel path — see docs/serving.md.
        "acceptance": {
            "warm_speedup_p50_required": 5.0,
            "warm_speedup_p50_met": (
                cold_p50 / warm_p50 >= 5.0 if warm_p50 > 0 else True
            ),
            "thread_scaling_4x_required": 2.0,
            "thread_scaling_4x_met": (
                thread_runs[1]["qps"] is not None
                and thread_runs[4]["qps"] is not None
                and thread_runs[4]["qps"] >= 2.0 * thread_runs[1]["qps"]
            ),
            "bit_identical_met": not divergences,
        },
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    single = report["single_query"]
    print(
        f"single query: cold p50 {single['cold_p50_ms']:.2f} ms -> warm "
        f"p50 {single['warm_p50_ms']:.4f} ms "
        f"({single['warm_speedup_p50']:.0f}x)"
    )
    for n, stats in thread_runs.items():
        print(f"batch threads={n}: {stats['qps']:.0f} QPS")
    for n, stats in process_runs.items():
        print(f"batch processes={n}: {stats['qps']:.0f} QPS")
    print(f"wrote {out_path}")
    if divergences:
        print(
            f"FAIL: {len(divergences)} served results diverged from the "
            "cold engine",
            file=sys.stderr,
        )
        return 1
    # Acceptance floor: the result-cache tier must keep warm repeats at
    # least 5x faster than cold execution (in practice it is orders of
    # magnitude; a bench run scraping past 5x means the cache broke).
    # Thread scaling is recorded but not gated — CPython's GIL holds
    # CPU-bound thread pools at ~1x; the fork pool is the parallel path
    # (see docs/serving.md).
    speedup = report["single_query"]["warm_speedup_p50"]
    if speedup is not None and speedup < 5.0:
        print(
            f"FAIL: warm p50 only {speedup:.1f}x faster than cold "
            "(acceptance floor is 5x)",
            file=sys.stderr,
        )
        return 1
    print("all served results identical to the cold engine")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="smoke"
    )
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument("--out", default="BENCH_4.json")
    args = parser.parse_args(argv)
    return run(args.profile, args.k, args.out)


if __name__ == "__main__":
    sys.exit(main())

"""BENCH_7: memory-mapped v3 index — O(1) cold start at scale.

Builds the scaled wiki synthetic (``scaled_wiki_config``, 1.5k–50k
entities) at each profile scale point, saves the same bundle as both a
FORMAT_VERSION 2 pickled envelope and a FORMAT_VERSION 3 mmap layout,
and measures — **in a fresh forked child per format**, so every load is
genuinely cold for the process:

* **cold start** — ``load_indexes`` wall time and resident-set growth
  (``/proc/self/status`` VmRSS) for v2 (full deserialize) vs v3 (mmap
  open);
* **first query** — latency of one fixed query straight after the load,
  plus the v3 laziness counters: the child asserts
  ``backed_stores_thawed == 0`` (no COW fired) and that
  ``words_materialized`` stays bounded by the query's keywords — the
  load + first query must complete without deserializing posting
  columns into heap lists;
* **oracle gate** — all four algorithms (PETopK, exact LINEARENUM-TOPK,
  sampled LETopK, baseline) replayed over the mapped bundle must be
  bit-identical (scores, pattern keys, subtree rows) to the in-memory
  build, unsharded and through a ``ShardedSearchService`` over the v3
  file at K in {2, 4} (smallest scale point);
* **serving** — p50/p95 over a Zipfian-popularity request stream
  (``zipfian_requests``) served by a ``SearchService`` on the mapped
  bundle.

The bench **fails (exit 1)** on any oracle divergence, on a COW thaw
during read-only serving, or if the v3 cold open is not >= 10x faster
than the v2 deserialize at the largest profile scale.  CI runs the
``smoke`` profile and uploads the JSON; ``full`` adds the 50k-entity
acceptance point::

    PYTHONPATH=src python benchmarks/smoke_mmap.py --profile full \
        --out BENCH_7.json
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import statistics
import sys
import time
from pathlib import Path

from repro.datasets.queries import (
    WorkloadConfig,
    generate_workload,
    zipfian_requests,
)
from repro.datasets.wiki import generate_wiki_graph, scaled_wiki_config
from repro.index.builder import build_indexes
from repro.index.serialize import load_indexes, save_indexes
from repro.search.engine import TableAnswerEngine
from repro.search.service import SearchService
from repro.search.sharding import ShardedSearchService

PROFILES = {
    # CI configuration; the 4000-entity point is "the largest smoke
    # scale" the cold-start gate runs against.
    "smoke": {"scales": [1500, 4000], "num_requests": 120},
    # Acceptance configuration: adds the 50k-entity scale point.
    # ``--scale-500k`` opts the full profile into a 500k-entity point on
    # top — index build takes tens of minutes, so it never runs in CI.
    "full": {"scales": [1500, 4000, 12000, 50000], "num_requests": 300},
}

ALGORITHMS = ("pattern_enum", "linear", "letopk", "baseline")
SHARD_COUNTS = (2, 4)


def fingerprint(result):
    return (
        result.scores(),
        result.pattern_keys(),
        [answer.num_subtrees for answer in result.answers],
        [
            [tuple(combo) for combo in answer.subtrees]
            for answer in result.answers
        ],
    )


def _algo_params(algorithm):
    # Sampled LETopK draws from a seeded stream; pin it so the oracle and
    # the mapped replay sample identically.
    return {"seed": 1234} if algorithm == "letopk" else {}


def _rss_kb():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0  # pragma: no cover - VmRSS always present on Linux


def _cold_load_child(conn, path, query, k):
    """Forked child: cold ``load_indexes`` + one query, timed.

    Runs in a fresh process so nothing is pre-deserialized and the
    laziness counters start at zero.
    """
    from repro.index.mmapstore import MappedPostingStore

    # Class counters are cumulative and inherited through fork; everything
    # this child reports is the delta from its own start.
    thawed_base = MappedPostingStore.backed_stores_thawed
    words_base = MappedPostingStore.words_materialized
    rss_before = _rss_kb()
    t0 = time.perf_counter()
    indexes = load_indexes(path)
    load_seconds = time.perf_counter() - t0
    rss_loaded = _rss_kb()
    engine = TableAnswerEngine(indexes.graph, indexes=indexes)
    t0 = time.perf_counter()
    result = engine.search(list(query), k=k, algorithm="pattern_enum")
    first_query_seconds = time.perf_counter() - t0
    conn.send(
        {
            "backed": type(indexes.store).__name__ == "MappedPostingStore",
            "load_seconds": load_seconds,
            "first_query_seconds": first_query_seconds,
            "rss_delta_kb": _rss_kb() - rss_before,
            "rss_load_delta_kb": rss_loaded - rss_before,
            "load_seconds_reported": indexes.load_seconds,
            "num_answers": result.num_answers,
            "thawed": MappedPostingStore.backed_stores_thawed - thawed_base,
            "words_materialized": (
                MappedPostingStore.words_materialized - words_base
            ),
        }
    )
    conn.close()


def measure_cold(path, query, k):
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_cold_load_child, args=(child, path, query, k))
    proc.start()
    child.close()
    payload = parent.recv()
    proc.join()
    return payload


def build_scale_point(num_entities):
    config = scaled_wiki_config(num_entities)
    t0 = time.perf_counter()
    graph = generate_wiki_graph(config)
    indexes = build_indexes(graph, d=3)
    build_seconds = time.perf_counter() - t0
    return indexes, build_seconds


def pick_workload(indexes, max_queries):
    queries = generate_workload(
        indexes,
        WorkloadConfig(
            queries_per_size=max_queries, min_keywords=1, max_keywords=3,
            seed=11,
        ),
    )
    # Dedup preserving order; the Zipf stream ranks by position.
    return list(dict.fromkeys(queries))


def oracle_gate(indexes, loaded, queries, k):
    """Replay every (query, algorithm) on the mapped bundle; collect
    divergences against the in-memory build."""
    oracle = TableAnswerEngine(indexes.graph, indexes=indexes)
    mapped = TableAnswerEngine(loaded.graph, indexes=loaded)
    divergences = []
    for query in queries:
        for algorithm in ALGORITHMS:
            params = _algo_params(algorithm)
            expected = fingerprint(
                oracle.search(list(query), k=k, algorithm=algorithm, **params)
            )
            got = fingerprint(
                mapped.search(list(query), k=k, algorithm=algorithm, **params)
            )
            if expected != got:
                divergences.append(
                    {"query": " ".join(query), "algorithm": algorithm}
                )
    return divergences


def sharded_gate(indexes, queries, k, tmp_dir):
    """The v3 file served through K shard workers vs oracle."""
    oracle = TableAnswerEngine(indexes.graph, indexes=indexes)
    divergences = []
    path = Path(tmp_dir) / "sharded.idx"
    save_indexes(indexes, path)
    for num_shards in SHARD_COUNTS:
        service = ShardedSearchService.from_file(path, num_shards=num_shards)
        try:
            for query in queries:
                for algorithm in ALGORITHMS:
                    params = _algo_params(algorithm)
                    expected = fingerprint(
                        oracle.search(
                            list(query), k=k, algorithm=algorithm, **params
                        )
                    )
                    got = fingerprint(
                        service.search(
                            list(query), k=k, algorithm=algorithm, **params
                        )
                    )
                    if expected != got:
                        divergences.append(
                            {
                                "query": " ".join(query),
                                "algorithm": algorithm,
                                "shards": num_shards,
                            }
                        )
        finally:
            service.close()
    return divergences


def serve_stream(loaded, queries, num_requests, k):
    """Zipfian-popularity stream through a SearchService on the mapped
    bundle; per-request latencies in milliseconds."""
    from repro.index.mmapstore import MappedPostingStore

    thawed_before = MappedPostingStore.backed_stores_thawed
    stream = zipfian_requests(queries, num_requests, alpha=0.9, seed=3)
    service = SearchService(loaded)
    latencies = []
    for query in stream:
        t0 = time.perf_counter()
        service.search(list(query), k=k)
        latencies.append((time.perf_counter() - t0) * 1000.0)
    latencies.sort()
    return {
        "requests": num_requests,
        "distinct_queries": len(queries),
        "p50_ms": statistics.median(latencies),
        "p95_ms": latencies[int(0.95 * (len(latencies) - 1))],
        "result_hit_rate": service.stats.result_hit_rate(),
        "thaws_during_serving": (
            MappedPostingStore.backed_stores_thawed - thawed_before
        ),
    }


def run(profile_name, k, out_path, keep_dir=None, scale_500k=False):
    import tempfile

    profile = PROFILES[profile_name]
    scales = list(profile["scales"])
    if scale_500k:
        scales.append(500_000)
    tmp_dir = keep_dir or tempfile.mkdtemp(prefix="bench_mmap_")
    per_scale = []
    divergences = []
    thaws = 0
    for position, num_entities in enumerate(scales):
        print(f"[{num_entities} entities] building ...", flush=True)
        indexes, build_seconds = build_scale_point(num_entities)
        queries = pick_workload(indexes, max_queries=4)
        first_query = max(queries, key=len)
        base = Path(tmp_dir) / f"wiki_{num_entities}"
        v2_bytes = save_indexes(indexes, base.with_suffix(".v2"), version=2)
        v3_bytes = save_indexes(indexes, base.with_suffix(".v3"), version=3)
        cold_v2 = measure_cold(base.with_suffix(".v2"), first_query, k)
        cold_v3 = measure_cold(base.with_suffix(".v3"), first_query, k)
        assert not cold_v2["backed"] and cold_v3["backed"]
        speedup = cold_v2["load_seconds"] / max(cold_v3["load_seconds"], 1e-9)
        # The O(1) claim, asserted: no COW thaw, and only the first
        # query's keywords came off disk (a few words, not the vocab).
        word_budget = 8 * len(first_query)
        lazy_ok = (
            cold_v3["thawed"] == 0
            and cold_v3["words_materialized"] <= word_budget
        )
        loaded = load_indexes(base.with_suffix(".v3"))
        # Oracle + sharded gates only at the smaller scales: the frozen
        # oracle is the in-memory build, and replaying 4 algorithms x
        # (1 + len(SHARD_COUNTS)) services at 50k entities dominates the
        # bench without adding coverage (laziness/speedup are gated at
        # every scale).
        if num_entities <= 4000:
            divergences += oracle_gate(indexes, loaded, queries, k)
            if position == 0:
                divergences += sharded_gate(indexes, queries, k, tmp_dir)
        serving = serve_stream(
            loaded, queries, profile["num_requests"], k
        )
        thaws += serving["thaws_during_serving"] + cold_v3["thawed"]
        row = {
            "num_entities": num_entities,
            "num_paths": indexes.store.num_paths,
            "num_postings": indexes.store.num_postings(),
            "build_seconds": build_seconds,
            "v2_bytes": v2_bytes,
            "v3_bytes": v3_bytes,
            "cold_v2": cold_v2,
            "cold_v3": cold_v3,
            "cold_start_speedup": speedup,
            "lazy_ok": lazy_ok,
            "serving": serving,
        }
        per_scale.append(row)
        print(
            f"[{num_entities} entities] v2 load "
            f"{cold_v2['load_seconds'] * 1000:.1f} ms "
            f"(+{cold_v2['rss_load_delta_kb']} KB RSS) vs v3 "
            f"{cold_v3['load_seconds'] * 1000:.1f} ms "
            f"(+{cold_v3['rss_load_delta_kb']} KB RSS): "
            f"{speedup:.0f}x; first query "
            f"{cold_v3['first_query_seconds'] * 1000:.1f} ms, "
            f"{cold_v3['words_materialized']} words off disk; "
            f"serving p50 {serving['p50_ms']:.2f} ms "
            f"p95 {serving['p95_ms']:.2f} ms",
            flush=True,
        )
    largest = per_scale[-1]
    speedup_met = largest["cold_start_speedup"] >= 10.0
    lazy_met = all(row["lazy_ok"] for row in per_scale)
    report = {
        "bench": "mmap_v3_cold_start",
        "profile": profile_name,
        "k": k,
        "scales": scales,
        "per_scale": per_scale,
        "divergences": divergences,
        "acceptance": {
            "bit_identical_met": not divergences,
            "speedup_met": speedup_met,
            "no_thaw_met": lazy_met and thaws == 0,
        },
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"wrote {out_path}")
    if divergences:
        print(
            f"FAIL: {len(divergences)} mapped results diverged from the "
            "in-memory oracle",
            file=sys.stderr,
        )
        return 1
    if not speedup_met:
        print(
            f"FAIL: v3 cold open only "
            f"{largest['cold_start_speedup']:.1f}x faster than v2 at "
            f"{largest['num_entities']} entities (>= 10x required)",
            file=sys.stderr,
        )
        return 1
    if not (lazy_met and thaws == 0):
        print(
            "FAIL: backed mode materialized eagerly (thaw fired or the "
            "word counter blew its budget)",
            file=sys.stderr,
        )
        return 1
    print("all mapped results identical to the in-memory oracle")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="smoke"
    )
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument("--out", default="BENCH_7.json")
    parser.add_argument(
        "--scale-500k", action="store_true",
        help="append a 500k-entity scale point (opt-in: tens of minutes "
        "of index build; intended with --profile full)",
    )
    args = parser.parse_args(argv)
    return run(args.profile, args.k, args.out, scale_500k=args.scale_500k)


if __name__ == "__main__":
    sys.exit(main())

"""BENCH_5: queries split over free fork-pool workers — exactness and
row rendering.

Serves the wiki synthetic (d=3) index through a
:class:`ShardedSearchService` — a fork pool of K workers that splits
each query's root types over up to ``min(K, usable cores, root types)``
of them, each slice read from the one posting store (pattern
containment, see ``docs/sharding.md``) — and runs the same heavy 1-3
keyword workload BENCH_3/BENCH_4 use.

Per shard count K in {2, 4, 7}, each query runs at the report ``k`` and
at ``k=1``:

* **divergence gate** — every split answer list (scores, pattern keys,
  subtree rows) must be bit-identical to a cold single-store
  ``TableAnswerEngine`` run; any mismatch fails the bench (exit 1);
* **split widths** — how many searches ran whole and how many were
  split over how many slices, from ``SearchStats.shards_total``
  (recorded, ungated: one caller on an idle pool splits every query
  with two or more root types over ``min(K, usable cores)``);
* **shard subtrees** — per slice, the ``N_R`` the splits gave it, summed
  over the searches (ungated);
* **count gate** — answering a request with its kept subtree rows and
  rendering ten rows per table rebuilds no ``PathEntry`` in the parent
  (workers ship ``(path_id, sim)`` pairs; rows render from the path
  columns); the rows per reply are recorded beside it, ungated.

CI runs the ``smoke`` profile and uploads the JSON; ``full`` is the
acceptance configuration (800 entities)::

    PYTHONPATH=src python benchmarks/smoke_sharding.py --profile full \
        --out BENCH_5.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.datasets.queries import WorkloadConfig, generate_workload
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import build_indexes
from repro.index.store import PostingStore
from repro.search.engine import TableAnswerEngine
from repro.search.linear_enum import count_answers
from repro.search.sharding import ShardedSearchService

SHARD_COUNTS = (2, 4, 7)

PROFILES = {
    # ~seconds in CI; mirrors the BENCH_3/BENCH_4 smoke graph.
    "smoke": {
        "wiki": WikiConfig(
            num_entities=120, num_types=8, num_attrs=12,
            vocabulary_size=60, seed=5,
        ),
        "min_subtrees": 64,
        "max_queries": 8,
    },
    # The acceptance configuration: wiki synthetic, 800 entities, d=3.
    "full": {
        "wiki": WikiConfig(
            num_entities=800, num_types=24, num_attrs=36,
            vocabulary_size=240, seed=23,
        ),
        "min_subtrees": 4096,
        "max_queries": 10,
    },
}


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
        [
            [tuple(combo) for combo in answer.subtrees]
            for answer in result.answers
        ],
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
    k_values = sorted({1, k})

    # The no-cache oracle: cold engine on a pinned snapshot per (query, k).
    snap = indexes.snapshot()
    engine = TableAnswerEngine(snap.graph, indexes=snap)
    oracle = {
        (query, kk): fingerprint(engine.search(query, k=kk))
        for query in queries
        for kk in k_values
    }
    divergences = []
    per_k = {}

    for num_shards in SHARD_COUNTS:
        widths = {}
        failovers = 0
        materialized = 0
        shard_subtrees = [0] * num_shards
        latencies = []
        reply_rows = []
        with ShardedSearchService(indexes, num_shards=num_shards) as service:
            for query in queries:
                for kk in k_values:
                    service._results.clear()  # measure execution, not cache
                    materialized_before = (
                        PostingStore.total_entries_materialized
                    )
                    started = time.perf_counter()
                    result = service.search(query, k=kk)
                    latencies.append(time.perf_counter() - started)
                    result.tables(graph, max_rows=10)
                    materialized += (
                        PostingStore.total_entries_materialized
                        - materialized_before
                    )
                    reply_rows.append(
                        sum(len(a.subtrees) for a in result.answers)
                    )
                    # (The comparison itself materializes: it is by
                    # entry value.)
                    if fingerprint(result) != oracle[(query, kk)]:
                        divergences.append(
                            {
                                "num_shards": num_shards,
                                "k": kk,
                                "query": " ".join(query),
                            }
                        )
                    stats = result.stats
                    width = str(stats.shards_total)
                    widths[width] = widths.get(width, 0) + 1
                    failovers += stats.shard_failovers
                    for slot, subtrees in enumerate(stats.shard_subtrees):
                        shard_subtrees[slot] += subtrees
        per_k[num_shards] = {
            "shard_subtrees": shard_subtrees,
            "searches": len(queries) * len(k_values),
            "split_widths": widths,
            "searches_split": sum(
                count for width, count in widths.items() if width != "0"
            ),
            "shard_failovers": failovers,
            "coordinator_entries_materialized": materialized,
            "reply_rows": reply_rows,
            "mean_latency_ms": (
                sum(latencies) / len(latencies) * 1000 if latencies else None
            ),
        }

    total_split = sum(row["searches_split"] for row in per_k.values())
    total_materialized = sum(
        row["coordinator_entries_materialized"] for row in per_k.values()
    )
    report = {
        "bench": "BENCH_5",
        "profile": profile_name,
        "k": k,
        "k_values": k_values,
        "d": indexes.d,
        "num_entities": profile["wiki"].num_entities,
        "queries": [" ".join(query) for query in queries],
        "per_shard_count": {str(n): row for n, row in per_k.items()},
        "total_searches": sum(row["searches"] for row in per_k.values()),
        "total_searches_split": total_split,
        "divergences": divergences,
        "acceptance": {
            "bit_identical_met": not divergences,
            "rows_entry_free_met": total_materialized == 0,
        },
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    for num_shards, row in per_k.items():
        print(
            f"K={num_shards}: {row['searches_split']} of {row['searches']} "
            f"searches split (widths {row['split_widths']}), "
            f"mean {row['mean_latency_ms']:.2f} ms"
        )
    print(f"wrote {out_path}")
    if divergences:
        print(
            f"FAIL: {len(divergences)} split results diverged from the "
            "cold single-store engine",
            file=sys.stderr,
        )
        return 1
    if total_materialized:
        print(
            f"FAIL: serving rows materialized {total_materialized} path "
            "entries in the parent",
            file=sys.stderr,
        )
        return 1
    print("all split results identical to the single-store engine")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="smoke"
    )
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument("--out", default="BENCH_5.json")
    args = parser.parse_args(argv)
    return run(args.profile, args.k, args.out)


if __name__ == "__main__":
    sys.exit(main())

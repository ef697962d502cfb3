"""BENCH_10: delta-overlay updates — O(delta) mutation on the mapped store.

Before the overlay, the first mutation against a memory-mapped v3 bundle
paid a wholesale thaw: every column copied into heap arrays, RSS jumping
by the full index size, latency by the full deserialization cost.  This
bench pins the new story on a saved-and-reloaded bundle at scale:

* **overlay stream** — ``mutations`` timed ``add_entity`` calls (plus a
  handful of ``add_relationship`` edges for the path-explosion case)
  landing in the heap overlay: p50/p95 per-mutation latency, RSS delta
  across the whole stream, and ``backed_stores_thawed`` pinned at zero;
* **thaw baseline** — a fresh mapping of the same file put through the
  old path (explicit ``thaw()`` + one mutation), timed and RSS-metered:
  the denominator of the **speedup gate** (>= 10x on the smoke scale,
  >= 100x on the 50k full scale) and of the **RSS gate** (the overlay
  stream must stay within a fraction of the thaw copy's footprint).
  Both metered phases run in a fresh forked child each, as BENCH_7's
  cold loads do, so neither reading depends on what the other phase
  left on the heap;
* **read after write** — on a second mapping with the workload's words
  boxed, a search follows each of the first mutations (and every edge):
  the **count gate** allows it to box no more query-column paths than
  the overlay holds (``store.query_paths_boxed``), whatever the index
  size; its latency goes into the report ungated (``read_after_write_ms``
  — timing only the write is how a 130 ms read after a 1 ms write once
  passed the speedup gate);
* **compaction** — the overlay folded into a generation-1 v3 file,
  atomically re-mapped in place: overlay drained, timed, and the first
  searches afterwards must box **zero** paths (the query columns
  survive the re-map); the compaction itself must materialize **zero**
  words and rebuild exactly the overlay's words — every other word's
  extents are copied from the mapped base;
* **parity gate** — a heap twin of the bundle receives the identical
  mutation sequence; all four algorithms must answer bit-identically on
  (a) the live re-mapped bundle, (b) a cold reload of the compacted
  file, and (c) sharded services at K in {2, 4} over that reload.

Emits ``BENCH_10.json``; exit 1 if any gate fails.  CI runs ``smoke``::

    PYTHONPATH=src python benchmarks/smoke_update.py --out BENCH_10.json
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import random
import statistics
import sys
import time
from pathlib import Path

from repro.index.incremental import add_entity, add_relationship
from repro.index.mmapstore import MappedPostingStore
from repro.index.serialize import (
    compact_indexes,
    load_indexes,
    save_indexes,
)
from repro.search.engine import TableAnswerEngine
from repro.search.sharding import ShardedSearchService

from smoke_mmap import (
    ALGORITHMS,
    SHARD_COUNTS,
    _algo_params,
    _rss_kb,
    build_scale_point,
    fingerprint,
    pick_workload,
)

PROFILES = {
    # CI configuration: the largest scale BENCH_7's smoke profile builds.
    "smoke": {"num_entities": 4000, "mutations": 200, "speedup": 10.0},
    # Acceptance configuration: the 50k-entity point from the issue.
    "full": {"num_entities": 50_000, "mutations": 400, "speedup": 100.0},
}

#: Edges interleaved into the entity stream (timed separately — an edge
#: indexes every new bounded path, not one singleton).
RELATIONSHIP_MUTATIONS = 8

#: Entity mutations replayed, each followed by a search, in the
#: read-after-write phase (the edges are all replayed as well).
READ_AFTER_WRITE_STEPS = 16

#: The overlay stream's RSS growth must stay within this fraction of the
#: thaw copy's, with an absolute floor for allocator noise at small
#: scales.
RSS_FRACTION = 0.5
RSS_FLOOR_KB = 16384


def mutation_plan(queries, num_nodes, mutations):
    """A deterministic mutation sequence, replayable on any twin bundle.

    Entity texts reuse workload words so the writes land in posting
    lists the parity queries actually read; relationship endpoints are
    seeded draws over the *pre-mutation* node range, valid on both
    twins.
    """
    words = [query[0] for query in queries]
    rng = random.Random(4242)
    plan = []
    for index in range(mutations):
        plan.append(("entity", "delta_type", words[index % len(words)]))
    for _ in range(RELATIONSHIP_MUTATIONS):
        plan.append(
            (
                "edge",
                rng.randrange(num_nodes),
                "delta_link",
                rng.randrange(num_nodes),
            )
        )
    return plan


def apply_plan(indexes, plan, timings=None):
    """Replay ``plan``; when ``timings`` is given, record per-kind lists."""
    first_node = None
    for step in plan:
        started = time.perf_counter()
        if step[0] == "entity":
            node = add_entity(indexes, step[1], step[2])
            if first_node is None:
                first_node = node
        else:
            add_relationship(indexes, step[1], step[2], step[3])
        if timings is not None:
            timings[step[0]].append(time.perf_counter() - started)
    return first_node


def in_child(phase, *args):
    """``phase(*args)`` in a fresh forked child; returns its result.

    The child freezes the objects it inherited first, so a collection
    in it does not copy the parent's pages onto its RSS.
    """
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def target():
        gc.freeze()
        sender.send(phase(*args))
        sender.close()

    proc = ctx.Process(target=target)
    proc.start()
    sender.close()
    payload = receiver.recv()
    proc.join()
    return payload


def overlay_stream(index_path, plan):
    """The timed mutation stream on a fresh mapping (run in a child)."""
    thawed_base = MappedPostingStore.backed_stores_thawed
    bundle = load_indexes(index_path)
    rss_before = _rss_kb()
    timings = {"entity": [], "edge": []}
    apply_plan(bundle, plan, timings)
    return {
        "timings": timings,
        "rss_delta_kb": max(0, _rss_kb() - rss_before),
        "thawed": MappedPostingStore.backed_stores_thawed - thawed_base,
        "overlay_postings": bundle.store.overlay_postings,
    }


def thaw_first_mutation(index_path, text):
    """The pre-overlay first-mutation cost on a fresh mapping: explicit
    ``thaw()`` + one mutation, timed and RSS-metered (run in a child)."""
    thawed_base = MappedPostingStore.backed_stores_thawed
    bundle = load_indexes(index_path)
    rss_before = _rss_kb()
    started = time.perf_counter()
    bundle.store.thaw()
    add_entity(bundle, "delta_type", text)
    return {
        "seconds": time.perf_counter() - started,
        "rss_delta_kb": max(1, _rss_kb() - rss_before),
        "thawed": MappedPostingStore.backed_stores_thawed - thawed_base,
    }


def warm(engine, queries, k):
    """Search every workload query once (boxes its words' paths)."""
    for query in queries:
        engine.search(list(query), k=k, algorithm="pattern_enum")


def read_after_write(index_path, plan, queries, k):
    """One search after each mutation on a fresh, warmed mapping.

    Returns ``(latencies_ms, violations)``.  The queries' words are
    boxed before the first write, so whatever a later search still has
    to box was written since: more than ``overlay_paths`` of it means
    boxed query columns were thrown away.
    """
    bundle = load_indexes(index_path)
    engine = TableAnswerEngine(bundle.graph, indexes=bundle)
    store = bundle.store
    warm(engine, queries, k)
    steps = plan[:READ_AFTER_WRITE_STEPS] + plan[-RELATIONSHIP_MUTATIONS:]
    latencies_ms = []
    violations = []
    for index, step in enumerate(steps):
        apply_plan(bundle, [step])
        query = queries[index % len(queries)]
        boxed = store.query_paths_boxed
        started = time.perf_counter()
        engine.search(list(query), k=k, algorithm="pattern_enum")
        latencies_ms.append((time.perf_counter() - started) * 1000.0)
        boxed = store.query_paths_boxed - boxed
        if boxed > store.overlay_paths:
            violations.append(
                {
                    "step": index,
                    "query": " ".join(query),
                    "boxed": boxed,
                    "overlay_paths": store.overlay_paths,
                }
            )
    return latencies_ms, violations


def parity_divergences(stage, oracle_engine, engine, queries, k):
    divergences = []
    for query in queries:
        for algorithm in ALGORITHMS:
            params = _algo_params(algorithm)
            expected = fingerprint(
                oracle_engine.search(
                    list(query), k=k, algorithm=algorithm, **params
                )
            )
            got = fingerprint(
                engine.search(list(query), k=k, algorithm=algorithm, **params)
            )
            if expected != got:
                divergences.append(
                    {
                        "stage": stage,
                        "query": " ".join(query),
                        "algorithm": algorithm,
                    }
                )
    return divergences


def run(profile_name, k, out_path, keep_dir=None):
    import tempfile

    profile = PROFILES[profile_name]
    num_entities = profile["num_entities"]
    tmp_dir = Path(keep_dir or tempfile.mkdtemp(prefix="bench_update_"))

    print(f"[{num_entities} entities] building ...", flush=True)
    indexes, build_seconds = build_scale_point(num_entities)
    queries = pick_workload(indexes, max_queries=4)
    plan = mutation_plan(
        queries, indexes.graph.num_nodes, profile["mutations"]
    )
    index_path = tmp_dir / f"wiki_{num_entities}.repro"
    save_indexes(indexes, index_path)
    print(
        f"built in {build_seconds:.1f}s, saved "
        f"{index_path.stat().st_size >> 20} MB", flush=True
    )

    # ---- overlay stream: O(delta) writes against the mapped bundle ---
    thawed_before = MappedPostingStore.backed_stores_thawed
    overlay = in_child(overlay_stream, index_path, plan)
    overlay_rss_delta = overlay["rss_delta_kb"]
    overlay_thawed = overlay["thawed"]
    assert overlay_thawed == 0, (
        f"overlay mutation phase thawed {overlay_thawed} mapped stores"
    )
    timings = overlay["timings"]
    entity_ms = sorted(seconds * 1000.0 for seconds in timings["entity"])
    p50_ms = statistics.median(entity_ms)
    p95_ms = entity_ms[int(0.95 * (len(entity_ms) - 1))]
    edge_p50_ms = statistics.median(timings["edge"]) * 1000.0
    overlay_postings = overlay["overlay_postings"]
    # The same writes, untimed, on the mapping the compaction folds.
    overlay_bundle = load_indexes(index_path)
    apply_plan(overlay_bundle, plan)
    print(
        f"overlay: {len(entity_ms)} entities p50 {p50_ms:.3f} ms "
        f"p95 {p95_ms:.3f} ms, {RELATIONSHIP_MUTATIONS} edges p50 "
        f"{edge_p50_ms:.3f} ms, {overlay_postings} overlay postings, "
        f"+{overlay_rss_delta} KB RSS, {overlay_thawed} thaws"
    )

    # ---- thaw baseline: the pre-overlay first-mutation cost ----------
    thaw = in_child(thaw_first_mutation, index_path, plan[0][2])
    thaw_seconds = thaw["seconds"]
    thaw_rss_delta = thaw["rss_delta_kb"]
    thaw_count = thaw["thawed"]
    speedup = (thaw_seconds * 1000.0) / max(p50_ms, 1e-9)
    print(
        f"thaw baseline: first mutation {thaw_seconds * 1000.0:.1f} ms "
        f"(+{thaw_rss_delta} KB RSS) -> overlay speedup {speedup:.0f}x "
        f"(floor {profile['speedup']:.0f}x)"
    )

    # ---- read after write: what the first search after a write boxes -
    raw_ms, raw_violations = read_after_write(index_path, plan, queries, k)
    read_after_write_ms = statistics.median(raw_ms)
    print(
        f"read after write: {len(raw_ms)} searches p50 "
        f"{read_after_write_ms:.3f} ms max {max(raw_ms):.3f} ms, "
        f"{len(raw_violations)} boxed more than the overlay holds"
    )

    # ---- compaction: fold the overlay into generation 1 --------------
    live_engine = TableAnswerEngine(
        overlay_bundle.graph, indexes=overlay_bundle
    )
    warm(live_engine, queries, k)
    overlay_words = overlay_bundle.store.overlay_words
    materialized_before = MappedPostingStore.words_materialized
    started = time.perf_counter()
    outcome = compact_indexes(overlay_bundle, index_path)
    compact_seconds = time.perf_counter() - started
    materialized_by_compaction = (
        MappedPostingStore.words_materialized - materialized_before
    )
    overlay_after = overlay_bundle.store.overlay_postings
    boxed_before = overlay_bundle.store.query_paths_boxed
    warm(live_engine, queries, k)
    boxed_after_compaction = (
        overlay_bundle.store.query_paths_boxed - boxed_before
    )
    print(
        f"compaction: {outcome['bytes'] >> 20} MB re-mapped as generation "
        f"{outcome['generation']} in {compact_seconds:.2f}s, "
        f"{outcome['words_copied']} words copied, "
        f"{outcome['words_rebuilt']} rebuilt "
        f"({materialized_by_compaction} materialized), overlay "
        f"{overlay_postings} -> {overlay_after} postings, "
        f"{boxed_after_compaction} paths boxed by the next searches"
    )

    # ---- parity: heap twin with the identical mutation sequence ------
    apply_plan(indexes, plan)
    oracle_engine = TableAnswerEngine(indexes.graph, indexes=indexes)
    divergences = parity_divergences(
        "live-remapped", oracle_engine, live_engine, queries, k
    )
    reloaded = load_indexes(index_path)
    reload_generation = reloaded.store.generation
    cold_engine = TableAnswerEngine(reloaded.graph, indexes=reloaded)
    divergences += parity_divergences(
        "cold-reload", oracle_engine, cold_engine, queries, k
    )
    for num_shards in SHARD_COUNTS:
        service = ShardedSearchService(reloaded, num_shards=num_shards)
        try:
            divergences += parity_divergences(
                f"sharded-{num_shards}", oracle_engine, service, queries, k
            )
        finally:
            service.close()
    total_thawed = (
        MappedPostingStore.backed_stores_thawed - thawed_before
        + overlay_thawed
        + thaw_count
    )
    print(
        f"parity: {len(queries)} queries x {len(ALGORITHMS)} algorithms "
        f"on live + cold reload (generation {reload_generation}) + shards "
        f"{list(SHARD_COUNTS)}: {len(divergences)} divergences"
    )

    rss_budget_kb = max(int(RSS_FRACTION * thaw_rss_delta), RSS_FLOOR_KB)
    acceptance = {
        "speedup_met": speedup >= profile["speedup"],
        "no_thaw_met": overlay_thawed == 0 and total_thawed == thaw_count,
        "rss_bounded_met": overlay_rss_delta <= rss_budget_kb,
        "read_after_write_boxes_delta_met": not raw_violations,
        "compacted_met": (
            outcome["generation"] == 1
            and overlay_after == 0
            and reload_generation == 1
        ),
        "compaction_keeps_query_columns_met": boxed_after_compaction == 0,
        "compaction_copies_clean_words_met": (
            materialized_by_compaction == 0
            and outcome["words_rebuilt"] == overlay_words
        ),
        "bit_identical_met": not divergences,
    }
    report = {
        "bench": "BENCH_10",
        "profile": profile_name,
        "k": k,
        "num_entities": num_entities,
        "build_seconds": build_seconds,
        "queries": [" ".join(query) for query in queries],
        "update": {
            "mutations": len(entity_ms),
            "p50_ms": p50_ms,
            "p95_ms": p95_ms,
            "edge_mutations": RELATIONSHIP_MUTATIONS,
            "edge_p50_ms": edge_p50_ms,
            "overlay_postings": overlay_postings,
            "thaw_first_mutation_ms": thaw_seconds * 1000.0,
            "speedup_vs_thaw": speedup,
            "required_speedup": profile["speedup"],
            "read_after_write_ms": read_after_write_ms,
            "read_after_write_max_ms": max(raw_ms),
            "read_after_write_violations": raw_violations,
        },
        "rss": {
            "overlay_delta_kb": overlay_rss_delta,
            "thaw_delta_kb": thaw_rss_delta,
            "budget_kb": rss_budget_kb,
        },
        "compaction": {
            "seconds": compact_seconds,
            "bytes": outcome["bytes"],
            "generation": outcome["generation"],
            "words_copied": outcome["words_copied"],
            "words_rebuilt": outcome["words_rebuilt"],
            "words_materialized": materialized_by_compaction,
            "overlay_words_before": overlay_words,
            "overlay_postings_before": overlay_postings,
            "overlay_postings_after": overlay_after,
            "paths_boxed_after": boxed_after_compaction,
        },
        "parity": {
            "algorithms": list(ALGORITHMS),
            "shard_counts": list(SHARD_COUNTS),
            "reload_generation": reload_generation,
        },
        "divergences": divergences,
        "acceptance": acceptance,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"wrote {out_path}")

    failures = [name for name, ok in acceptance.items() if not ok]
    if failures:
        print(f"FAIL: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(
        "all gates passed: overlay mutations O(delta), compacted "
        "generation bit-identical to the mutated heap twin"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="smoke"
    )
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument("--out", default="BENCH_10.json")
    parser.add_argument(
        "--keep-dir", default=None,
        help="directory for the index files (default: a fresh tempdir)",
    )
    args = parser.parse_args(argv)
    return run(args.profile, args.k, args.out, keep_dir=args.keep_dir)


if __name__ == "__main__":
    sys.exit(main())

"""Workload base class and the three single-caller search workloads
(``cold_heavy``, ``cold_light``, ``sharded_heavy``).

A workload has these stages.  ``prepare`` (untimed) generates inputs and
oracle answers.  ``setup`` (timed, repeated) builds and saves what the
workload serves from; ``open`` (timed, repeated) opens it and answers a
first query.  ``run_pass`` replays the workload's op list once, timing
each op by the wall clock and checking its answer.  ``trace_pass``
replays it with every op split into the public calls it is made of,
each under a span.

A run measures whole passes until ``--seconds`` have gone by.  ``qps``
is the median over passes of ok ops per second of op time; ``p50_ms``
and ``p95_ms`` are taken over the read latencies of all passes pooled.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.index.builder import build_indexes
from repro.index.mmapstore import MappedPostingStore
from repro.index.serialize import save_sharded_indexes
from repro.index.shards import partition_indexes
from repro.search.context import EnumerationContext
from repro.search.engine import TableAnswerEngine
from repro.search.plan import execute_plan, plan_search
from repro.search.sharding import ShardedSearchService

import inputs
from measure import Clock, median, ms, percentile, timed, us
from spans import Tracer

HEIGHT = 3
#: Answers asked of the single-caller workloads / of the served ones.
K_COLD = 100
K_SERVE = 10
MAX_ROWS = 10
ALGORITHMS = ("pattern_enum", "linear_topk")
NUM_SHARDS = 2

#: ``SearchStats`` counters summed over a traced pass, by layer metric.
STAT_COUNTERS = {
    "search.expand.subtrees_enumerated": "subtrees_enumerated",
    "search.expand.patterns_checked": "patterns_checked",
    "search.expand.roots_expanded": "roots_expanded",
    "search.pruning.roots_skipped": "roots_skipped",
    "search.pruning.prefixes_skipped": "prefixes_skipped",
    "search.pruning.pairs_skipped": "pairs_skipped",
}


@dataclass
class PassResult:
    #: Wall seconds of every op of the pass, by op kind, in op order.
    #: ``"read"`` ops feed the latency percentiles.
    ops: Dict[str, List[float]]
    failed: int
    #: Seconds the pass took; the sum of its ops unless given (a
    #: concurrent pass overlaps its ops).  Like the ops', at the
    #: reference speed (``measure.Clock``).
    wall: float = 0.0

    def __post_init__(self) -> None:
        if not self.wall:
            self.wall = sum(sum(times) for times in self.ops.values())

    @property
    def attempted(self) -> int:
        return sum(len(times) for times in self.ops.values())


class Workload:
    name = ""
    #: Times ``open``/``close`` is cycled per ``setup``.
    open_cycles = 2
    #: The clock of the passes, where they run one thing at a time.
    clock: Optional[Clock] = None

    def __init__(
        self, profile: inputs.Profile, seed: int, workdir: Path,
        src_dir: Path, scale: int = 0,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.workdir = workdir
        self.src_dir = src_dir
        self.scale = scale
        #: Input digests, checked against ``pins.json`` by the runner.
        self.pins: Dict[str, str] = {}
        #: Layer numbers the last ``setup``/``open`` took, by metric
        #: name, plus ``index_mb``.
        self.setup_parts: Dict[str, float] = {}
        self._thawed_at_start = MappedPostingStore.backed_stores_thawed

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """Build and save the index the workload serves from."""
        raise NotImplementedError

    def open(self) -> None:
        """Open what ``setup`` produced and answer one query."""
        raise NotImplementedError

    def close(self) -> None:
        """Undo ``open``; safe to call when nothing is open."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def measure(self, seconds: float) -> List[PassResult]:
        """Whole passes until ``seconds`` have gone by."""
        passes: List[PassResult] = []
        self.clock = Clock()
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            passes.append(self.run_pass())
        return passes

    def verify(self) -> Tuple[int, int]:
        """Checks left for after the passes: ``(attempted, failed)``."""
        return 0, 0

    def summarize(self, passes: Sequence[PassResult]) -> Dict[str, float]:
        """``qps``, ``p50_ms`` and ``p95_ms`` of a run's passes (plus
        anything worth printing beside them, by layer metric name)."""
        reads = [t for p in passes for t in p.ops["read"]]
        walls = [p.wall for p in passes]
        speed = (
            {"harness.speed_factor": median(self.clock.factors)}
            if self.clock else {})
        return {
            **speed,
            "qps": median(
                [(p.attempted - p.failed) / p.wall for p in passes]),
            "p50_ms": ms(median(reads)),
            "p95_ms": ms(percentile(reads, 0.95)),
            "read_samples": len(reads),
            "passes": len(passes),
            "harness.pass_spread_pct": (
                100.0 * (max(walls) - min(walls)) / median(walls)),
        }

    def trace_pass(
        self, tracer: Tracer, seconds: float
    ) -> Tuple[Dict[str, float], int]:
        """One traced pass; returns layer metrics by name and the
        number of failed ops."""
        raise NotImplementedError

    def thawed(self) -> int:
        """Mapped stores copied to the heap since the workload began —
        the delta overlay exists so that this stays zero."""
        return MappedPostingStore.backed_stores_thawed - self._thawed_at_start

    def builder_metrics(self, indexes, build_s: float) -> None:
        postings = indexes.num_entries
        self.setup_parts.update({
            "index.builder.build_s": build_s,
            "index.builder.postings": postings,
            "index.builder.unique_paths": indexes.num_unique_paths,
            "index.builder.patterns": indexes.num_patterns,
            "index.builder.postings_per_s": postings / build_s,
        })


def stat_counts(stats) -> Dict[str, int]:
    return {name: getattr(stats, name) for name in STAT_COUNTERS.values()}


def entries_materialized(result) -> int:
    """Path entries ``result.tables`` builds: every kept subtree is
    materialized before ``max_rows`` cuts the table."""
    return len(result.query) * sum(len(a.subtrees) for a in result.answers)


def validity_checks(tracer: Tracer) -> Dict[str, float]:
    """Whether the stage times may be read as shares of the op: how far
    the stage spans of a staged op are, summed, from the same op run
    whole (``gap``), and how much slower the staged form ran (``overhead``:
    recording spans, and calling the stages one by one).  Both are
    medians over ops, pair by pair: whole seconds of a pass can run slow,
    and sums would measure that."""
    stages: Dict[int, float] = {}
    staged_ids = {
        span["id"] for span in tracer.spans if span["name"] == "op.staged"}
    for span in tracer.spans:
        if span["parent"] in staged_ids:
            stages[span["parent"]] = (
                stages.get(span["parent"], 0.0) + span["t1"] - span["t0"])
    parts = [stages[span_id] for span_id in sorted(staged_ids)]
    staged = tracer.durations("op.staged")
    whole = tracer.durations("op.untraced")
    return {
        "harness.trace_gap_pct": 100.0 * abs(
            median([p / w for p, w in zip(parts, whole)]) - 1.0),
        "harness.trace_overhead_pct": 100.0 * median(
            [(s - w) / w for s, w in zip(staged, whole)]),
    }


class SearchOps(Workload):
    """Closed loop, one caller: for every query of one group x both
    top-k algorithms, ``search`` then render ten rows per table."""

    #: ``inputs.Profile`` attribute holding the group's subtree range.
    group = ""
    min_keywords = 1
    # A heap index answers its first query only once.
    open_cycles = 1
    #: Most ``harness.trace_gap_pct`` may read before the traced run
    #: fails, where the profile gates it (None = reported only).
    gap_limit_pct: Optional[float] = None
    #: Spans whose counts carry the ``SearchStats`` of an execution.
    execute_spans = tuple(f"search.{algorithm}" for algorithm in ALGORITHMS)

    def prepare(self) -> None:
        self.graph = inputs.search_graph(self.profile)
        self.pins["graph.search"] = inputs.graph_digest(self.graph)
        self.oracle_indexes = build_indexes(self.graph, d=HEIGHT)
        oracle = TableAnswerEngine(self.graph, indexes=self.oracle_indexes)
        pool = inputs.query_pool(
            self.oracle_indexes, self.profile.pool_families)
        self.pins["queries.pool"] = inputs.digest(pool)
        members = inputs.select_group(
            oracle, pool, getattr(self.profile, self.group), K_COLD,
            self.min_keywords,
        )
        if not members:
            raise RuntimeError(f"query group {self.group!r} is empty")
        self.pins[f"queries.{self.group}"] = inputs.digest(
            [query for query, _ in members]
        )
        self.first_query = members[0][0]
        self.ops = [
            (query, algorithm, expected)
            for query, expected in members
            for algorithm in ALGORITHMS
        ]
        random.Random(self.seed).shuffle(self.ops)
        self.engine = None

    # The four members below are what ``sharded_heavy`` replaces.

    def setup(self) -> None:
        build_s, self.indexes = timed(build_indexes, self.graph, d=HEIGHT)
        self.builder_metrics(self.indexes, build_s)
        self.setup_parts["index_mb"] = self.indexes.store.nbytes() / 1e6

    def open(self) -> None:
        self.engine = TableAnswerEngine(self.graph, indexes=self.indexes)
        self.op(self.first_query, ALGORITHMS[0])

    def close(self) -> None:
        self.engine = None

    def op(self, query: str, algorithm: str):
        result = self.engine.search(query, k=K_COLD, algorithm=algorithm)
        result.tables(self.engine.indexes.graph, max_rows=MAX_ROWS)
        return result

    def run_pass(self) -> PassResult:
        reads, failed = [], 0
        for query, algorithm, expected in self.ops:
            result = self.clock.time(reads, self.op, query, algorithm)
            failed += inputs.fingerprint(result) != expected
        self.clock.flush()
        return PassResult({"read": reads}, failed)

    # ------------------------------------------------------------- tracing

    def staged_op(self, tracer: Tracer, request: int, query, algorithm):
        """The op as the public calls it is made of."""
        indexes = self.engine.indexes
        with tracer.span("search.plan", request):
            plan = plan_search(indexes, query, k=K_COLD, algorithm=algorithm)
        with tracer.span("search.context", request) as counts:
            context = EnumerationContext(indexes, plan.resolved_query())
            counts["candidate_roots"] = len(context.candidate_roots)
            context.roots_by_type(indexes.graph)
        with tracer.span("search.bounds", request):
            context.query_bounds(plan.scoring)
        with tracer.span(f"search.{algorithm}", request) as counts:
            result = execute_plan(indexes, plan, context=context)
            counts.update(stat_counts(result.stats))
            counts["answers"] = result.num_answers
        with tracer.span("search.result", request) as counts:
            result.tables(indexes.graph, max_rows=MAX_ROWS)
            counts["entries_materialized"] = entries_materialized(result)
        return result

    def trace_pass(self, tracer, seconds):
        cache = self.engine.indexes.resolution_cache
        hits_before, misses_before = cache.hits, cache.misses
        failed = 0
        for request, (query, algorithm, expected) in enumerate(self.ops):
            # Whichever form runs second finds the caches warm; take
            # turns so that neither median is favoured.
            for staged in (False, True) if request % 2 else (True, False):
                if staged:
                    with tracer.span("op.staged", request):
                        result = self.staged_op(
                            tracer, request, query, algorithm)
                else:
                    with tracer.span("op.untraced", request):
                        self.op(query, algorithm)
            failed += inputs.fingerprint(result) != expected
        metrics = self.layer_metrics(tracer)
        gap = metrics["harness.trace_gap_pct"]
        if (self.profile.gap_gated and self.gap_limit_pct is not None
                and gap > self.gap_limit_pct):
            print(f"FAILED: stage spans are {gap:.1f} % away from the whole "
                  f"op (limit {self.gap_limit_pct} %)")
            failed += 1
        hits = cache.hits - hits_before
        lookups = hits + cache.misses - misses_before
        metrics["search.plan.resolution_hit_rate"] = hits / max(1, lookups)
        return metrics, failed

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        """Median self time per op of each stage, the summed work
        counters, and the two validity checks."""
        self_times = tracer.self_times()

        def stage(name: str) -> float:
            return median(self_times.get(name, []))

        def total(counter: str) -> float:
            return sum(
                tracer.count_total(name, counter)
                for name in self.execute_spans
            )

        metrics = {
            "search.plan.plan_us": us(stage("search.plan")),
            "search.context.build_us": us(stage("search.context")),
            "search.context.candidate_roots": tracer.count_total(
                "search.context", "candidate_roots"),
            "search.bounds.build_us": us(stage("search.bounds")),
            "search.result.render_ms": ms(stage("search.result")),
            "search.result.entries_materialized": tracer.count_total(
                "search.result", "entries_materialized"),
        }
        for algorithm in ALGORITHMS:
            metrics[f"search.{algorithm}.busy_ms"] = ms(
                stage(f"search.{algorithm}"))
        for name, counter in STAT_COUNTERS.items():
            metrics[name] = total(counter)
        metrics["search.pruning.enumerated_per_answer"] = (
            metrics["search.expand.subtrees_enumerated"]
            / max(1, total("answers"))
        )
        metrics.update(validity_checks(tracer))
        return metrics


class ColdHeavy(SearchOps):
    name = "cold_heavy"
    group = "heavy"
    gap_limit_pct = 5.0


class ColdLight(SearchOps):
    name = "cold_light"
    group = "light"
    min_keywords = 2
    gap_limit_pct = 10.0

    def trace_pass(self, tracer, seconds):
        metrics, failed = super().trace_pass(tracer, seconds)
        # The Section 2.3 baseline, on the one group where it is cheap
        # enough to run: its own requests, after the staged ops.
        indexes = self.engine.indexes
        queries = sorted({query for query, _, _ in self.ops})
        for offset, query in enumerate(queries):
            plan = plan_search(indexes, query, k=K_COLD, algorithm="baseline")
            with tracer.span("search.baseline", len(self.ops) + offset):
                execute_plan(indexes, plan)
        metrics["search.baseline.busy_ms"] = ms(
            median(tracer.durations("search.baseline")))
        return metrics, failed


class ShardedHeavy(SearchOps):
    """The ``cold_heavy`` op list through a two-shard scatter-gather
    service loaded from a sharded v3 file (result cache off, so every
    op crosses the pipes)."""

    name = "sharded_heavy"
    group = "heavy"
    open_cycles = 2
    # Enumeration happens in the workers; its counters come back in the
    # merged stats of the scatter-gather call.
    execute_spans = ("search.sharding",)

    def setup(self) -> None:
        build_s, indexes = timed(build_indexes, self.graph, d=HEIGHT)
        self.builder_metrics(indexes, build_s)
        partition_s, sharded = timed(partition_indexes, indexes, NUM_SHARDS)
        self.index_path = self.workdir / "sharded.idx"
        save_s, nbytes = timed(
            save_sharded_indexes, sharded, self.index_path)
        self.setup_parts.update({
            "index_mb": nbytes / 1e6,
            "index.shards.partition_s": partition_s,
            "index.serialize.save_s": save_s,
            "index.serialize.bytes_per_posting": nbytes / indexes.num_entries,
        })

    def open(self) -> None:
        load_s, self.engine = timed(
            ShardedSearchService.from_file, self.index_path,
            num_shards=NUM_SHARDS, max_cached_results=0,
        )
        # The worker pool is forked by the first shardable query.
        first_s, _ = timed(self.op, self.first_query, ALGORITHMS[0])
        again_s, _ = timed(self.op, self.first_query, ALGORITHMS[0])
        self.setup_parts.update({
            "index.serialize.load_ms": ms(load_s),
            "search.sharding.pool_start_s": max(0.0, first_s - again_s),
        })

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.engine = None

    def staged_op(self, tracer: Tracer, request: int, query, algorithm):
        service = self.engine
        with tracer.span("search.plan", request):
            plan = service.plan(query, k=K_COLD, algorithm=algorithm)
        with tracer.span("search.sharding", request) as counts:
            result = service.search(plan=plan)
            counts["shards_total"] = result.stats.shards_total
            counts["shards_skipped"] = result.stats.shards_skipped
            counts["failovers"] = result.stats.shard_failovers
            counts["answers"] = result.num_answers
            counts.update(stat_counts(result.stats))
        with tracer.span("search.result", request) as counts:
            result.tables(service.indexes.graph, max_rows=MAX_ROWS)
            counts["entries_materialized"] = entries_materialized(result)
        return result

    def trace_pass(self, tracer, seconds):
        metrics, failed = super().trace_pass(tracer, seconds)
        # The same plans on the unsharded heap index, as their own
        # requests: what scatter-gather is overhead on top of.
        heap = self.oracle_indexes
        for offset, (query, algorithm, _) in enumerate(self.ops):
            plan = plan_search(heap, query, k=K_COLD, algorithm=algorithm)
            with tracer.span("search.inline", len(self.ops) + offset):
                execute_plan(heap, plan)
        sharded = tracer.durations("search.sharding")
        inline = tracer.durations("search.inline")
        metrics["search.sharding.overhead_ms"] = ms(
            median([s - i for s, i in zip(sharded, inline)]))
        metrics["search.sharding.shards_skipped_ratio"] = (
            tracer.count_total("search.sharding", "shards_skipped")
            / max(1, tracer.count_total("search.sharding", "shards_total"))
        )
        metrics["search.sharding.failovers"] = tracer.count_total(
            "search.sharding", "failovers")
        return metrics, failed

"""``update_mix``: writes beside reads on the mapped v3 store — cold
opens, ``add_entity`` into the delta overlay, read-after-write through
the service, and compaction."""

from __future__ import annotations

import itertools
import random
import shutil
import time
from typing import Dict, List, Sequence, Tuple

from repro.datasets.queries import WorkloadConfig, generate_workload
from repro.index.builder import build_indexes
from repro.index.incremental import add_entity
from repro.index.mmapstore import MappedPostingStore
from repro.index.serialize import save_indexes
from repro.kg.pagerank import pagerank
from repro.search.engine import TableAnswerEngine
from repro.search.service import SearchService

import inputs
from measure import median, ms, percentile, timed, us
from spans import Tracer
from workloads import HEIGHT, K_SERVE, PassResult, Workload

#: One pass, on a fresh copy of the saved file: cold-open cycles, then
#: ``profile.bursts`` bursts — four writes, a writer tick, four reads —
#: with a compaction after the middle burst and after the last.  The
#: seed draws what is written and what is read.
COLD_OPENS_PER_PASS = 5
WRITES_PER_BURST = 4
READS_PER_BURST = 4
WRITE_TYPE = "delta_type"


class UpdateMix(Workload):
    name = "update_mix"

    def prepare(self) -> None:
        # The graph set-up builds from stays pristine: writes go to the
        # copy the service loads from the file, and to the twin's copy.
        self.graph = inputs.update_graph(self.profile, self.scale)
        # The oracle is a heap twin: the same graph, given every write
        # as a plain node (with the PageRank floor ``add_entity`` gives
        # it) and indexed from scratch at each point answers are checked
        # at.  A heap index absorbs a write in O(index), so replaying
        # them one by one would take longer than the workload.
        self.twin_graph = inputs.update_graph(self.profile, self.scale)
        self.twin_ranks = list(pagerank(self.twin_graph))
        twin = self.build_twin()
        generated = generate_workload(twin.indexes, WorkloadConfig(
            queries_per_size=6, min_keywords=1, max_keywords=4,
            seed=inputs.POOL_SEED,
        ))
        self.queries = [
            query for query in dict.fromkeys(" ".join(q) for q in generated)
            if inputs.subtree_bound(twin.indexes, query) < inputs.SUBTREE_CAP
        ]
        vocabulary = sorted(twin.indexes.store.words())
        rng = random.Random(self.seed)
        bursts = self.profile.bursts
        texts = inputs.write_stream(rng, vocabulary, bursts * WRITES_PER_BURST)
        # Reads go round the queries in an order the seed draws, so that
        # every run reads the same mix and the seed decides what follows
        # which write.
        reads = itertools.cycle(rng.sample(self.queries, len(self.queries)))
        #: ``(texts written, queries read)`` per burst.
        self.bursts = [
            (texts[b * WRITES_PER_BURST:(b + 1) * WRITES_PER_BURST],
             [next(reads) for _ in range(READS_PER_BURST)])
            for b in range(bursts)
        ]
        if not self.scale:  # --scale asks for another graph than the pinned
            self.pins.update({
                "graph.update": inputs.graph_digest(self.graph),
                "queries.update": inputs.digest(self.queries),
            })
            if self.seed == inputs.DEFAULT_SEED:
                self.pins["writes"] = inputs.digest(self.bursts)
        #: What a cold open of the saved file must answer.
        self.opened_fingerprint = self.twin_answers(twin)[self.queries[0]]
        #: Bursts after which the pass compacts, each with the answer
        #: every query must then have: the twin's, given the writes so far.
        self.checkpoints: Dict[int, Dict[str, inputs.Fingerprint]] = {}
        done = 0
        for point in (bursts // 2, bursts):
            for burst_texts, _ in self.bursts[done:point]:
                for text in burst_texts:
                    self.twin_graph.add_node(WRITE_TYPE, text)
                    self.twin_ranks.append(0.15 / self.twin_graph.num_nodes)
            done = point
            self.checkpoints[point] = self.twin_answers(self.build_twin())
        self.service = None

    def build_twin(self) -> TableAnswerEngine:
        return TableAnswerEngine(self.twin_graph, indexes=build_indexes(
            self.twin_graph, d=HEIGHT, pagerank_scores=self.twin_ranks))

    def twin_answers(self, twin) -> Dict[str, inputs.Fingerprint]:
        return {
            query: inputs.fingerprint(
                inputs.oracle_search(twin, query, K_SERVE))
            for query in self.queries
        }

    def setup(self) -> None:
        build_s, indexes = timed(build_indexes, self.graph, d=HEIGHT)
        self.builder_metrics(indexes, build_s)
        self.index_path = self.workdir / "update.idx"
        save_s, nbytes = timed(save_indexes, indexes, self.index_path)
        self.setup_parts.update({
            "index_mb": nbytes / 1e6,
            "index.serialize.save_s": save_s,
            "index.serialize.bytes_per_posting": nbytes / indexes.num_entries,
        })

    def open(self) -> None:
        load_s, self.service = timed(SearchService.from_file, self.index_path)
        self.service.search(self.queries[0], k=K_SERVE)
        self.setup_parts["index.serialize.load_ms"] = ms(load_s)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        self.service = None

    # ------------------------------------------------------------ measuring

    def cold_open(self, path):
        service = SearchService.from_file(path)
        try:
            return service.search(self.queries[0], k=K_SERVE)
        finally:
            service.close()

    def divergent(self, service, expected) -> int:
        """Queries ``service`` answers unlike the twin."""
        return sum(
            inputs.fingerprint(service.search(query, k=K_SERVE)) != answer
            for query, answer in expected.items()
        )

    def run_pass(self) -> PassResult:
        return self._pass(None)

    def _pass(self, tracer) -> PassResult:
        """One pass; with a tracer, every op is also recorded as a span
        (the op itself is the same call either way).  Leaves the service
        it wrote to open."""
        ops: Dict[str, List[float]] = {}

        def run(kind: str, function, *args, **kwargs):
            sink = ops.setdefault(kind, [])
            if tracer is None:
                return self.clock.time(sink, function, *args, **kwargs)
            # The traced run is for proportions: raw readings.
            started = time.perf_counter()
            result = function(*args, **kwargs)
            ended = time.perf_counter()
            sink.append(ended - started)
            tracer.record(
                f"update.{kind}", sum(map(len, ops.values())), started, ended)
            return result

        # Every pass starts from the file set-up saved.
        self.close()
        live_path = self.workdir / "live.idx"
        shutil.copyfile(self.index_path, live_path)
        failed = sum(
            inputs.fingerprint(run("cold_open", self.cold_open, live_path))
            != self.opened_fingerprint
            for _ in range(COLD_OPENS_PER_PASS))
        self.service = service = SearchService.from_file(live_path)
        for number, (texts, queries) in enumerate(self.bursts, 1):
            for text in texts:
                run("write", add_entity, service.indexes, WRITE_TYPE, text)
            run("invalidate", service.invalidate)
            burst = [
                (query, run("read", service.search, query, k=K_SERVE))
                for query in queries
            ]
            expected = self.checkpoints.get(number)
            if expected is None:
                continue
            # The overlay holds every write since the last compaction...
            failed += sum(
                inputs.fingerprint(result) != expected[query]
                for query, result in burst)
            store = service.indexes.store
            self.last_overlay = (store.overlay_words, store.overlay_postings)
            self.last_compact_bytes = run("compact", service.compact)["bytes"]
            # ...and now the file does: checked on a mapping of its own,
            # because these searches would warm the live service.
            checked = SearchService.from_file(live_path)
            try:
                failed += self.divergent(checked, expected)
            finally:
                checked.close()
        if tracer is None:
            self.clock.flush()
        return PassResult(ops, failed)

    def verify(self) -> Tuple[int, int]:
        """The live service, re-mapped by the last compaction."""
        expected = self.checkpoints[len(self.bursts)]
        return len(expected), self.divergent(self.service, expected)

    def summarize(self, passes: Sequence[PassResult]) -> Dict[str, float]:
        summary = super().summarize(passes)
        summary.update(write_side_metrics(passes))
        summary["cold_open_ms"] = ms(median(
            [t for p in passes for t in p.ops["cold_open"]]))
        return summary

    # -------------------------------------------------------------- tracing

    def trace_pass(self, tracer: Tracer, seconds: float):
        materialized = MappedPostingStore.words_materialized
        outcome = self._pass(tracer)
        metrics = write_side_metrics([outcome])
        metrics.update({
            "index.delta.overlay_words": self.last_overlay[0],
            "index.delta.overlay_postings": self.last_overlay[1],
            "index.serialize.compact_bytes": self.last_compact_bytes,
        })

        # First touch: one query twice on a fresh mapping (result cache
        # off, so the second run differs only by what the first mapped);
        # then the re-snapshot a version bump forces.
        service = SearchService.from_file(
            self.index_path, max_cached_results=0)
        try:
            query = self.queries[0]
            with tracer.span("index.mmapstore.first", 1 << 20):
                service.search(query, k=K_SERVE)
            with tracer.span("index.mmapstore.second", 1 << 20):
                service.search(query, k=K_SERVE)
            add_entity(service.indexes, WRITE_TYPE, self.bursts[0][0][0])
            metrics["search.service.resnapshot_ms"] = ms(
                timed(service.snapshot)[0])
        finally:
            service.close()
        first = tracer.durations("index.mmapstore.first")[0]
        second = tracer.durations("index.mmapstore.second")[0]
        metrics["index.mmapstore.first_touch_ms"] = ms(first - second)
        metrics["index.mmapstore.words_materialized"] = (
            MappedPostingStore.words_materialized - materialized)

        # A repeated plan on the live service.
        live = self.service
        query = self.queries[0]
        live.search(query, k=K_SERVE)
        hits = [timed(live.search, query, k=K_SERVE)[0] for _ in range(50)]
        metrics["search.service.hit_us"] = us(median(hits))
        stats = live.stats
        metrics["search.service.result_hit_rate"] = stats.result_hit_rate()
        metrics["search.service.context_hit_rate"] = stats.context_hit_rate()
        metrics["search.plan.resolution_hit_rate"] = (
            stats.resolution_hit_rate())
        metrics["search.service.candidate_hit_rate"] = (
            stats.candidate_hits / max(1, stats.searches))
        return metrics, outcome.failed


def write_side_metrics(passes: Sequence[PassResult]) -> Dict[str, float]:
    """The write-side layer numbers of some passes, pooled."""

    def of(kind: str, every: int = 1) -> List[float]:
        return [t for p in passes for t in p.ops[kind][::every]]

    return {
        "index.incremental.add_entity_p50_ms": ms(median(of("write"))),
        "index.incremental.add_entity_p95_ms": ms(
            percentile(of("write"), 0.95)),
        # The first read of each burst follows the writer tick.
        "index.delta.read_after_write_ms": ms(
            median(of("read", READS_PER_BURST))),
        "index.serialize.compact_s": median(of("compact")),
        "search.service.invalidate_us": us(median(of("invalidate"))),
    }

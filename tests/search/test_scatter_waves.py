"""The split at pinned core counts: the merge against fakes and real
slices, the send/collect pipe shape, the same differential contract at
every width, and fault injection between a split's sends and its
collects.

``tests/search/test_sharding.py`` holds the contract (bit-identity,
the merge, robustness) at whatever width the box has; this module pins
the width — through :func:`repro.search.sharding.usable_cores`, the one
helper a split reads the cores from — so CI and the 2-core bench box
assert the same things.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from types import SimpleNamespace

import pytest

from repro.core.errors import SearchError
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import build_indexes
from repro.index.shards import ShardedIndexes
from repro.search import sharding
from repro.search.context import EnumerationContext
from repro.search.plan import plan_search
from repro.search.result import (
    PatternAnswer,
    SearchStats,
    pattern_from_labels,
)
from repro.search.sharding import (
    SHARDABLE_ALGORITHMS,
    ShardedSearchService,
    merge_shard_runs,
    search_shard,
)
from repro.serve.pool import ForkWorkerPool
from tests.search.test_sharding import (  # noqa: F401 - fixtures + contract
    SHARD_COUNTS,
    TestBitIdentity as _BitIdentity,
    TestBoundSkipping as _BoundSkipping,
    fingerprint,
    idle_split_width,
    plain_service,
    wiki_queries,
)

CORE_COUNTS = (1, 2, 64)


def patch_cores(monkeypatch, cores: int) -> None:
    monkeypatch.setattr(sharding, "usable_cores", lambda: cores)


# --------------------------------------------------------------- fakes


def fake_answer(shard_id: int, rank: int, score: float) -> PatternAnswer:
    key = (shard_id, rank)
    return PatternAnswer(
        pattern_key=key,
        pattern=pattern_from_labels(((key, True),)),
        score=score,
        num_subtrees=1,
    )


def merge_fakes(scores, k=1):
    """The merge over slices that answer ``scores[slice]``."""
    runs = [
        (
            [
                fake_answer(shard_id, rank, score)
                for rank, score in enumerate(per_slice)
            ],
            SearchStats(algorithm="pattern_enum", subtrees_enumerated=10),
        )
        for shard_id, per_slice in enumerate(scores)
    ]
    plan = SimpleNamespace(k=k, d=3, algorithm="pattern_enum", words=("w",))
    return merge_shard_runs(plan, runs)


class TestWaveLoopAgainstFakes:
    def test_replies_merge_in_dispatch_order(self):
        # Equal scores: the canonical tie key decides, not arrival.
        for scores in ([[0.5], [0.5]], [[0.5], [0.5], []]):
            result = merge_fakes(scores, k=1)
            assert [a.pattern_key for a in result.answers] == [(0, 0)]
            assert result.stats.shards_total == len(scores)
            assert result.stats.subtrees_enumerated == 10 * len(scores)
        reversed_arrival = merge_fakes([[], [0.5], [0.5]], k=1)
        assert [a.pattern_key for a in reversed_arrival.answers] == [(1, 0)]


@pytest.fixture(scope="module")
def small_bundle():
    graph = generate_wiki_graph(
        WikiConfig(
            num_entities=120,
            num_types=8,
            num_attrs=12,
            vocabulary_size=60,
            seed=5,
        )
    )
    return build_indexes(graph, d=3)


class TestWaveLoopInProcess:
    """Real slices run in-process and merged, at every width from 1 to
    K."""

    @pytest.mark.parametrize("num_shards", (2, 4, 7))
    def test_answers_identical_across_widths(
        self, wiki_indexes, plain_service, wiki_queries, num_shards
    ):
        for algorithm in sorted(SHARDABLE_ALGORITHMS):
            for query in wiki_queries[:-1]:
                plan = plan_search(
                    wiki_indexes, query, k=2, algorithm=algorithm
                )
                reference = plain_service.search(plan=plan)
                context = EnumerationContext(
                    wiki_indexes, plan.resolved_query()
                )
                total = sum(context.subtree_counts().values())
                for width in range(1, num_shards + 1):
                    sharded = ShardedIndexes(wiki_indexes, width, width)
                    runs = [
                        search_shard(shard, plan) for shard in sharded.shards
                    ]
                    merged = merge_shard_runs(
                        plan,
                        [(run.answers, run.stats) for run in runs],
                        len(context.candidate_roots),
                    )
                    stats = merged.stats
                    assert fingerprint(merged) == fingerprint(reference)
                    assert stats.shards_total == width
                    assert len(stats.shard_subtrees) == width
                    assert sum(stats.shard_subtrees) == total


# ------------------------------------------- the contract at every width


@pytest.fixture(scope="module", params=CORE_COUNTS)
def cores(request):
    with pytest.MonkeyPatch.context() as patch:
        patch_cores(patch, request.param)
        yield request.param


@pytest.fixture(scope="module")
def sharded_services(wiki_indexes, cores):
    """What ``test_sharding.py``'s fixture builds, on a box with
    ``cores`` cores; result cache off so every query executes."""
    services = {
        num_shards: ShardedSearchService(
            wiki_indexes, num_shards=num_shards, max_cached_results=0
        )
        for num_shards in SHARD_COUNTS
    }
    yield services
    for service in services.values():
        service.close()


class TestBitIdentityAtEveryWidth(_BitIdentity):
    pass


class TestBoundSkippingAtEveryWidth(_BoundSkipping):
    def test_waves_are_core_wide(self, sharded_services, wiki_queries, cores):
        """A split is at most as wide as the cores, K and the query's
        root types allow, and sends every slice at once."""
        for num_shards, service in sharded_services.items():
            for query in wiki_queries:
                stats = service.search(query, k=1).stats
                width = stats.shards_total
                assert width == idle_split_width(service, query, k=1)
                assert width <= min(num_shards, cores)
                assert len(stats.shard_busy_ms) == width
                assert len(stats.shard_subtrees) == width
                assert stats.shards_skipped == 0
            assert service._pool.free_slots() == num_shards

    def test_counters_are_a_function_of_the_query(
        self, sharded_services, wiki_queries
    ):
        service = sharded_services[7]
        for query in wiki_queries:
            first = service.search(query, k=1).stats
            again = service.search(query, k=1).stats
            assert not again.from_result_cache
            for name in (
                "shards_total", "shard_subtrees", "shards_skipped",
                "subtrees_enumerated", "patterns_checked", "roots_expanded",
            ):
                assert getattr(first, name) == getattr(again, name), name


# ------------------------------------------------- send/collect + faults


def two_shard_query(bundle):
    """A query whose candidate roots span at least two root types, so
    a 2-way split fills both slices."""
    for word in sorted(bundle.store.words()):
        plan = plan_search(bundle, word, k=5)
        context = EnumerationContext(bundle, plan.resolved_query())
        if len(context.roots_by_type(bundle.graph)) >= 2:
            return word
    raise AssertionError("no query reaches two root types")


def spy_pool(service, monkeypatch, before_send=None, before_collect=None):
    """Record the pool's send/collect calls; the hooks run first and may
    replace the request sent by returning a value."""
    pool = service._pool
    events = []
    real_send, real_collect = pool.send, pool.collect

    def send(slot, request):
        events.append(("send", slot))
        if before_send is not None:
            replaced = before_send(slot, request)
            if replaced is not None:
                return real_send(slot, replaced)
        return real_send(slot, request)

    def collect(slot, tag, deadline=None):
        events.append(("collect", slot))
        if before_collect is not None:
            before_collect(slot)
        return real_collect(slot, tag, deadline)

    monkeypatch.setattr(pool, "send", send)
    monkeypatch.setattr(pool, "collect", collect)
    return events


class TestSendCollect:
    @pytest.mark.parametrize("cores", CORE_COUNTS)
    def test_every_send_of_a_wave_precedes_its_first_collect(
        self, small_bundle, monkeypatch, cores
    ):
        patch_cores(monkeypatch, cores)
        vocab = sorted(small_bundle.store.words())
        with ShardedSearchService(
            small_bundle, num_shards=4, max_cached_results=0
        ) as service:
            service.search(vocab[0], k=5)  # builds the pool
            events = spy_pool(service, monkeypatch)
            split = 0
            for query in vocab[:6]:
                del events[:]
                stats = service.search(query, k=50).stats
                width = max(1, stats.shards_total)
                split += stats.shards_total > 0
                sent = [slot for kind, slot in events if kind == "send"]
                assert len(sent) == width == len(set(sent))
                assert events == (
                    [("send", slot) for slot in sent]
                    + [("collect", slot) for slot in sent]
                )
            assert (split > 0) == (cores >= 2)

    def test_execute_is_send_then_collect(self, small_bundle):
        plan = plan_search(small_bundle, two_shard_query(small_bundle), k=5)
        pool = ForkWorkerPool(small_bundle, 2)
        try:
            direct = pool.execute(plan)
            tag = pool.send(0, (plan, None))
            rows, stats = pool.collect(0, tag)
            assert rows == direct[0]
            assert stats.subtrees_enumerated == direct[1].subtrees_enumerated
        finally:
            pool.close()


class TestFaultsInsideAWave:
    @pytest.fixture()
    def service(self, small_bundle, monkeypatch):
        patch_cores(monkeypatch, 2)
        with ShardedSearchService(
            small_bundle, num_shards=2, max_cached_results=0
        ) as service:
            yield service

    @pytest.fixture()
    def query(self, small_bundle):
        return two_shard_query(small_bundle)

    @pytest.mark.parametrize("victims", [(0,), (1,), (0, 1)])
    def test_kill_between_send_and_collect(
        self, service, query, monkeypatch, victims
    ):
        healthy = service.search(query, k=5)
        assert healthy.stats.shards_total == 2
        pool = service._pool
        pids = [worker.process.pid for worker in pool._workers]
        armed, pending = set(victims), list(victims)

        def freeze(slot, _request):
            # Stopped, a victim takes its request but cannot answer
            # before the kill lands: it dies between send and collect.
            if slot in armed:
                armed.discard(slot)
                os.kill(pids[slot], signal.SIGSTOP)

        def kill(_slot):
            while pending:
                pool.kill_worker(pending.pop())

        events = spy_pool(
            service, monkeypatch, before_send=freeze, before_collect=kill
        )
        real_respawn = pool.respawn

        def respawn(slot):
            events.append(("respawn", slot))
            real_respawn(slot)

        monkeypatch.setattr(pool, "respawn", respawn)
        wounded = service.search(query, k=5)
        assert fingerprint(wounded) == fingerprint(healthy)
        assert wounded.stats.shard_failovers == len(victims)
        assert wounded.stats.shards_total == 2
        assert len(wounded.stats.shard_busy_ms) == 2
        # Both sends went out before the kill; both slices were gathered
        # (the survivor's reply consumed, not left in its pipe); the
        # respawns wait until every reply is in.
        assert [kind for kind, _ in events] == [
            "send", "send", "collect", "collect",
        ] + ["respawn"] * len(victims)
        assert service.stats.worker_failovers == len(victims)
        # Respawned, and nothing stale in any pipe.
        for slot, worker in enumerate(pool._workers):
            assert worker.process.is_alive()
            assert (worker.process.pid != pids[slot]) == (slot in victims)
            assert not worker.conn.poll(0)
        assert pool.free_slots() == 2
        after = service.search(query, k=5)
        assert after.stats.shard_failovers == 0
        assert fingerprint(after) == fingerprint(healthy)

    @pytest.mark.parametrize("position", (0, -1))
    def test_error_reply_raises_and_the_pool_recovers(
        self, service, query, monkeypatch, position
    ):
        service.search(query, k=5)  # builds the pool
        broken = []

        def corrupt(slot, request):
            if broken and slot == broken[0]:
                broken.pop()
                plan, part = request
                return dataclasses.replace(plan, algorithm="no-such"), part
            return None

        events = spy_pool(service, monkeypatch, before_send=corrupt)
        healthy = service.search(query, k=5)
        assert healthy.stats.shards_total == 2
        # Both workers are free between queries, and are leased again in
        # the order they were released: the next split sends in the
        # same slot order.
        sent = [slot for kind, slot in events if kind == "send"]
        broken.append(sent[position])
        del events[:]
        with pytest.raises(SearchError, match="failed executing the plan"):
            service.search(query, k=5)
        # Gathered in send order: when the first slice is the broken
        # one, the other slice's reply to the failed query is still in
        # its pipe (or on its way) ...
        collected = [slot for kind, slot in events if kind == "collect"]
        assert collected[0] == sent[0]
        assert len(collected) == (1 if position == 0 else 2)
        # ... and the next query discards it by tag.
        after = service.search(query, k=5)
        assert fingerprint(after) == fingerprint(healthy)
        assert after.stats.shard_failovers == 0
        assert service.stats.worker_failovers == 0
        for worker in service._pool._workers:
            assert not worker.conn.poll(0)
        assert service._pool.free_slots() == 2

    def test_wedged_workers_cost_one_timeout(
        self, small_bundle, monkeypatch
    ):
        patch_cores(monkeypatch, 64)
        vocab = sorted(small_bundle.store.words())
        timeout = 1.5  # three of them would be 4.5 s; one is the claim
        with ShardedSearchService(
            small_bundle, num_shards=3, max_cached_results=0,
            worker_timeout=timeout,
        ) as service:
            query = next(
                word for word in vocab
                if service.search(word, k=5).stats.shards_total == 3
            )
            healthy = service.search(query, k=5)
            pool = service._pool

            def swallow(slot, request):
                # The worker never hears of the query: alive, silent.
                pool._tag += 1
                return pool._tag

            monkeypatch.setattr(pool, "send", swallow)
            started = time.monotonic()
            wedged = service.search(query, k=5)
            elapsed = time.monotonic() - started
            assert fingerprint(wedged) == fingerprint(healthy)
            assert wedged.stats.shard_failovers == 3
            assert wedged.stats.shards_total == 3
            assert timeout <= elapsed < 2 * timeout

"""The scatter in waves: the merge loop against fakes, the send/collect
pipe shape, the same differential contract at every wave width, and
fault injection between a wave's sends and its collects.

``tests/search/test_sharding.py`` holds the contract (bit-identity,
bound skipping, robustness) at whatever width the box has; this module
pins the width — through :func:`repro.search.sharding.usable_cores`, the
one helper the scatter reads it from — so CI and the 2-core bench box
assert the same things.
"""

from __future__ import annotations

import dataclasses
import math
import os
import signal
import time
from types import SimpleNamespace

import pytest

from repro.core.errors import SearchError
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import build_indexes
from repro.index.shards import partition_indexes
from repro.search import sharding
from repro.search.context import EnumerationContext
from repro.search.plan import plan_search
from repro.search.result import (
    PatternAnswer,
    SearchStats,
    pattern_from_labels,
)
from repro.search.service import SearchService
from repro.search.sharding import (
    SHARDABLE_ALGORITHMS,
    ShardedSearchService,
    execute_sharded_plan,
    search_shard,
    shard_upper_bounds,
)
from tests.search.test_sharding import (  # noqa: F401 - fixtures + contract
    SHARD_COUNTS,
    TestBitIdentity as _BitIdentity,
    TestBoundSkipping as _BoundSkipping,
    fingerprint,
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


def run_fake(uppers, scores, width, k=1):
    """The merge loop over shards that answer ``scores[shard]``; returns
    the result and the waves ``run_shards`` was called with."""
    waves = []

    def run_shards(shard_ids):
        waves.append(list(shard_ids))
        replies = []
        for shard_id in shard_ids:
            stats = SearchStats(
                algorithm="pattern_enum",
                elapsed_seconds=(shard_id + 1) / 1000.0,
                subtrees_enumerated=10,
            )
            answers = [
                fake_answer(shard_id, rank, score)
                for rank, score in enumerate(scores[shard_id])
            ]
            replies.append((answers, stats))
        return replies

    plan = SimpleNamespace(
        k=k, d=3, algorithm="pattern_enum", words=("w",)
    )
    result = execute_sharded_plan(
        plan,
        SimpleNamespace(num_shards=len(uppers)),
        uppers,
        run_shards,
        width,
    )
    return result, waves


class TestWaveLoopAgainstFakes:
    #: Shard 1's bound survives shard 0's answer; shards 2 and 3 are
    #: disproved once shard 1's 0.7 is merged; shard 4 is empty.
    UPPERS = [0.9, 0.8, 0.5, 0.3, 0.0]
    SCORES = [[0.4], [0.7], [0.45], [0.1], []]

    @pytest.mark.parametrize(
        "width, waves, skipped",
        [
            (1, [[0], [1]], 3),
            (2, [[0, 1]], 3),
            (3, [[0, 1, 2]], 2),
            (5, [[0, 1, 2, 3]], 1),
            (64, [[0, 1, 2, 3]], 1),
        ],
    )
    def test_waves_and_skips(self, width, waves, skipped):
        result, seen = run_fake(self.UPPERS, self.SCORES, width)
        stats = result.stats
        assert seen == waves
        assert stats.shard_waves == len(waves)
        assert stats.shard_dispatch_order == tuple(sum(waves, []))
        assert stats.shards_skipped == skipped
        assert len(stats.shard_dispatch_order) + skipped == len(self.UPPERS)
        # One busy figure per dispatched shard, in dispatch order.
        assert stats.shard_busy_ms == pytest.approx(
            [shard_id + 1 for shard_id in stats.shard_dispatch_order]
        )
        assert stats.subtrees_enumerated == 10 * len(
            stats.shard_dispatch_order
        )
        # Whatever was dispatched, the answer is the global best.
        assert [a.pattern_key for a in result.answers] == [(1, 0)]

    def test_width_one_is_the_serial_visit(self):
        # Every shard admitted (k is never reached): one call per shard,
        # best bound first, shard id breaking the tie.
        uppers = [0.2, 0.9, 0.2, 0.5]
        result, seen = run_fake(
            uppers, [[0.1], [0.1], [0.1], [0.1]], width=1, k=10
        )
        assert seen == [[1], [3], [0], [2]]
        assert result.stats.shard_waves == 4
        assert result.stats.shards_skipped == 0

    def test_later_wave_skipped_iff_merged_waves_disprove_it(self):
        # Width 2 over four shards: the second wave is looked at only
        # after both replies of the first are merged.
        uppers = [0.9, 0.8, 0.6, 0.5]
        # k=2: the first wave leaves k-th = 0.45, which admits shards 2
        # and 3 into the second wave together.  Shard 2's 0.58 would
        # have disproved shard 3 (the serial visit skips it); dispatched
        # anyway, shard 3 only offers a score the queue rejects.
        scores = [[0.7], [0.45], [0.58], [0.2]]
        result, seen = run_fake(uppers, scores, width=2, k=2)
        assert seen == [[0, 1], [2, 3]]
        assert result.stats.shards_skipped == 0
        assert [a.score for a in result.answers] == [0.7, 0.58]
        result, seen = run_fake(uppers, scores, width=1, k=2)
        assert seen == [[0], [1], [2]]
        assert result.stats.shards_skipped == 1
        assert [a.score for a in result.answers] == [0.7, 0.58]
        # k-th = 0.65 after the first wave disproves both trailing bounds.
        result, seen = run_fake(
            uppers, [[0.7], [0.65], [0.58], [0.2]], width=2, k=2
        )
        assert seen == [[0, 1]]
        assert result.stats.shards_skipped == 2
        assert [a.score for a in result.answers] == [0.7, 0.65]
        # Equality is admitted (docs/pruning.md).
        result, seen = run_fake(
            uppers, [[0.7], [0.6], [0.1], [0.1]], width=2, k=2
        )
        assert seen == [[0, 1], [2]]
        assert result.stats.shards_skipped == 1

    def test_replies_merge_in_dispatch_order(self):
        # Equal scores: the canonical tie key decides, not arrival.
        result, _ = run_fake([0.9, 0.9], [[0.5], [0.5]], width=2, k=1)
        assert [a.pattern_key for a in result.answers] == [(0, 0)]


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
    """Real shards run in-process through the merge loop at widths 1, 2
    and K, with each shard's bound hand-tightened to its best score."""

    @pytest.mark.parametrize("num_shards", (2, 4, 7))
    def test_answers_identical_across_widths(
        self, wiki_indexes, plain_service, wiki_queries, num_shards
    ):
        sharded = partition_indexes(wiki_indexes, num_shards)
        for algorithm in sorted(SHARDABLE_ALGORITHMS):
            for query in wiki_queries[:-1]:
                plan = plan_search(
                    wiki_indexes, query, k=2, algorithm=algorithm
                )
                reference = plain_service.search(plan=plan)
                local = [
                    search_shard(shard, plan) for shard in sharded.shards
                ]
                context = EnumerationContext(
                    wiki_indexes, plan.resolved_query()
                )
                loose = shard_upper_bounds(sharded, context, plan.scoring)
                tight = [
                    max((a.score for a in result.answers), default=0.0)
                    for result in local
                ]
                assert all(t <= u for t, u in zip(tight, loose))
                serial = None
                for uppers in (loose, tight):
                    for width in (1, 2, num_shards):
                        calls = []

                        def run_shards(shard_ids):
                            calls.append(list(shard_ids))
                            return [
                                (local[s].answers, local[s].stats)
                                for s in shard_ids
                            ]

                        merged = execute_sharded_plan(
                            plan, sharded, uppers, run_shards, width
                        )
                        stats = merged.stats
                        assert fingerprint(merged) == fingerprint(reference)
                        assert (
                            len(stats.shard_dispatch_order)
                            + stats.shards_skipped
                            == num_shards
                        )
                        assert stats.shard_dispatch_order == tuple(
                            sum(calls, [])
                        )
                        assert stats.shard_waves == len(calls) == math.ceil(
                            len(stats.shard_dispatch_order) / width
                        )
                        if width == 1:
                            serial = stats.shard_dispatch_order
                            assert calls == [[s] for s in serial]
                        else:
                            # A wider wave dispatches the serial visit
                            # and possibly more, never less.
                            assert (
                                stats.shard_dispatch_order[: len(serial)]
                                == serial
                            )


# ------------------------------------------- the contract at every width


@pytest.fixture(scope="module", params=CORE_COUNTS)
def cores(request):
    with pytest.MonkeyPatch.context() as patch:
        patch_cores(patch, request.param)
        yield request.param


@pytest.fixture(scope="module")
def sharded_services(wiki_indexes, cores):
    """What ``test_sharding.py``'s fixture builds, on a box with
    ``cores`` cores; result cache off so every query scatters."""
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
        for num_shards, service in sharded_services.items():
            width = min(num_shards, cores)
            for query in wiki_queries:
                stats = service.search(query, k=1).stats
                dispatched = len(stats.shard_dispatch_order)
                assert stats.shard_waves == math.ceil(dispatched / width)
                assert len(stats.shard_busy_ms) == dispatched
                assert dispatched + stats.shards_skipped == num_shards

    def test_counters_are_a_function_of_the_query(
        self, sharded_services, wiki_queries
    ):
        service = sharded_services[7]
        for query in wiki_queries:
            first = service.search(query, k=1).stats
            again = service.search(query, k=1).stats
            assert not again.from_result_cache
            for name in (
                "shard_dispatch_order", "shards_skipped", "shard_waves",
                "subtrees_enumerated", "patterns_checked", "roots_expanded",
            ):
                assert getattr(first, name) == getattr(again, name), name


# ------------------------------------------------- send/collect + faults


def two_shard_query(bundle):
    """A query both shards of a 2-way partition hold candidates for."""
    sharded = partition_indexes(bundle, 2)
    vocab = sorted(bundle.store.words())
    for word in vocab:
        plan = plan_search(bundle, word, k=5)
        context = EnumerationContext(bundle, plan.resolved_query())
        if all(u > 0 for u in shard_upper_bounds(
            sharded, context, plan.scoring
        )):
            return word
    raise AssertionError("no query reaches both shards")


def spy_pool(service, monkeypatch, before_send=None, before_collect=None):
    """Record the pool's send/collect calls; the hooks run first and may
    replace the call's outcome by returning a value."""
    pool = service._pool
    events = []
    real_send, real_collect = pool.send, pool.collect

    def send(shard_id, plan):
        events.append(("send", shard_id))
        if before_send is not None:
            replaced = before_send(shard_id, plan)
            if replaced is not None:
                return real_send(shard_id, replaced)
        return real_send(shard_id, plan)

    def collect(shard_id, tag, deadline=None):
        events.append(("collect", shard_id))
        if before_collect is not None:
            before_collect(shard_id)
        return real_collect(shard_id, tag, deadline)

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
            for query in vocab[:6]:
                del events[:]
                stats = service.search(query, k=50).stats
                order = list(stats.shard_dispatch_order)
                width = min(4, cores)
                expected = []
                for start in range(0, len(order), width):
                    wave = order[start:start + width]
                    expected += [("send", s) for s in wave]
                    expected += [("collect", s) for s in wave]
                assert events == expected
                assert stats.shard_waves == math.ceil(len(order) / width)

    def test_execute_is_send_then_collect(self, small_bundle):
        sharded = partition_indexes(small_bundle, 2)
        plan = plan_search(small_bundle, two_shard_query(small_bundle), k=5)
        pool = sharding.ShardWorkerPool(sharded)
        try:
            direct = pool.execute(0, plan)
            tag = pool.send(0, plan)
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
        assert sorted(healthy.stats.shard_dispatch_order) == [0, 1]
        assert healthy.stats.shard_waves == 1
        pool = service._pool
        pids = [worker.process.pid for worker in pool._workers]
        armed, pending = set(victims), list(victims)

        def freeze(shard_id, _plan):
            # Stopped, a victim takes its plan but cannot answer before
            # the kill lands: it dies between send and collect.
            if shard_id in armed:
                armed.discard(shard_id)
                os.kill(pids[shard_id], signal.SIGSTOP)

        def kill(_shard_id):
            while pending:
                pool.kill_worker(pending.pop())

        events = spy_pool(
            service, monkeypatch, before_send=freeze, before_collect=kill
        )
        real_respawn = pool.respawn

        def respawn(shard_id):
            events.append(("respawn", shard_id))
            real_respawn(shard_id)

        monkeypatch.setattr(pool, "respawn", respawn)
        wounded = service.search(query, k=5)
        assert fingerprint(wounded) == fingerprint(healthy)
        assert wounded.stats.shard_failovers == len(victims)
        assert wounded.stats.shard_dispatch_order == (
            healthy.stats.shard_dispatch_order
        )
        assert len(wounded.stats.shard_busy_ms) == 2
        # Both sends went out before the kill; both shards were gathered
        # (the survivor's reply consumed, not left in its pipe); the
        # respawns wait until every reply is in.
        assert [kind for kind, _ in events] == [
            "send", "send", "collect", "collect",
        ] + ["respawn"] * len(victims)
        assert service.stats.worker_failovers == len(victims)
        # Respawned, and nothing stale in any pipe.
        for shard_id, worker in enumerate(pool._workers):
            assert worker.process.is_alive()
            assert (worker.process.pid != pids[shard_id]) == (
                shard_id in victims
            )
            assert not worker.conn.poll(0)
        after = service.search(query, k=5)
        assert after.stats.shard_failovers == 0
        assert fingerprint(after) == fingerprint(healthy)

    @pytest.mark.parametrize("position", (0, -1))
    def test_error_reply_raises_and_the_pool_recovers(
        self, service, query, monkeypatch, position
    ):
        healthy = service.search(query, k=5)
        broken = healthy.stats.shard_dispatch_order[position]
        armed = [True]

        def corrupt(shard_id, plan):
            if shard_id == broken and armed[0]:
                armed[0] = False
                return dataclasses.replace(plan, algorithm="no-such")
            return None

        events = spy_pool(service, monkeypatch, before_send=corrupt)
        with pytest.raises(SearchError, match="failed executing the plan"):
            service.search(query, k=5)
        # Gathered in dispatch order: when the first shard is the broken
        # one, the other shard's reply to the failed query is still in
        # its pipe (or on its way) ...
        collected = [shard for kind, shard in events if kind == "collect"]
        assert collected[0] == healthy.stats.shard_dispatch_order[0]
        assert len(collected) == (1 if position == 0 else 2)
        # ... and the next query discards it by tag.
        after = service.search(query, k=5)
        assert fingerprint(after) == fingerprint(healthy)
        assert after.stats.shard_failovers == 0
        assert service.stats.worker_failovers == 0
        for worker in service._pool._workers:
            assert not worker.conn.poll(0)

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
                if len(service.search(word, k=5).stats.shard_dispatch_order)
                == 3
            )
            healthy = service.search(query, k=5)
            pool = service._pool

            def swallow(shard_id, plan):
                # The worker never hears of the query: alive, silent.
                pool._tag += 1
                return pool._tag

            monkeypatch.setattr(pool, "send", swallow)
            started = time.monotonic()
            wedged = service.search(query, k=5)
            elapsed = time.monotonic() - started
            assert fingerprint(wedged) == fingerprint(healthy)
            assert wedged.stats.shard_failovers == 3
            assert wedged.stats.shard_waves == 1
            assert timeout <= elapsed < 2 * timeout


class TestShardUppersAreBounded:
    def test_lru_capped_like_the_context_tier(self, small_bundle):
        vocab = sorted(small_bundle.store.words())
        queries = vocab[:6]
        with ShardedSearchService(
            small_bundle, num_shards=4, max_cached_results=0,
            max_cached_contexts=2,
        ) as service:
            first = {
                query: service.search(query, k=3) for query in queries
            }
            assert len(service._shard_uppers) <= 2
            assert len(service._contexts) <= 2
            # The first queries' bounds were evicted; recomputed, they
            # drive the same dispatch to the same answers.
            for query in queries:
                again = service.search(query, k=3)
                assert fingerprint(again) == fingerprint(first[query])
                assert (
                    again.stats.shard_dispatch_order
                    == first[query].stats.shard_dispatch_order
                )
                assert len(service._shard_uppers) <= 2
            plain = SearchService(small_bundle)
            for query in queries:
                assert fingerprint(first[query]) == fingerprint(
                    plain.search(query, k=3)
                )

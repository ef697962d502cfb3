"""Sharded scatter–gather top-k serving with bound-driven shard skipping.

:class:`ShardedSearchService` extends the single-store
:class:`~repro.search.service.SearchService` with the fork-based scale-out
path ``docs/serving.md`` promised: the posting store is partitioned into K
pattern-disjoint shards (:mod:`repro.index.shards`), each owned by one
long-lived forked worker process that pre-warms its shard's query and
bound columns at pool start.  A query's canonical
:class:`~repro.search.plan.QueryPlan` is scattered to the workers over
``multiprocessing`` pipes, the per-shard top-k lists are gathered, and the
coordinator merges them under a single global
:class:`~repro.core.topk.TopKQueue`/:class:`~repro.core.topk.TopKThreshold`
with canonical tie keys — answers are **bit-identical** to the unsharded
engine (the differential tests in ``tests/search/test_sharding.py``
enforce this for all shardable algorithms at several K).

The perf win on any core count is *bound-driven shard skipping*: before a
shard is dispatched, its precomputed score upper bound (the same
``SAFETY * sum(root_mass)`` form LETopK's type-skip uses, summed over the
shard's slice of the candidate roots) is checked against the running k-th
score.  Shards are visited best-bound-first, so the global threshold
tightens as fast as possible and trailing shards whose bound falls below
it are never sent the query at all — their postings are never scanned by
anyone.  ``SearchStats`` records ``shards_total`` / ``shards_skipped`` /
``shard_dispatch_order``; ``benchmarks/smoke_sharding.py`` turns the
counters into a postings-not-scanned work-reduction figure (BENCH_5).

Exactness is inherited from the partition (pattern containment: a whole
pattern, with every root that contributes to its score, lives in exactly
one shard — see :mod:`repro.index.shards`) plus two facts: a pattern in
the global top-k is necessarily in its own shard's local top-k (the shard
run faces a subset of the competitors), and a skipped shard only holds
patterns with score ``<= bound < k-th`` which therefore cannot be
retained (bound equality is always admitted, matching ``docs/pruning.md``).

Three plans bypass the shards and execute inline on the coordinator,
exactly as the plain service would run them: the ``baseline`` (walks the
live graph, not the store), sampled LETopK (its RNG stream is drawn over
the *global* candidate ordering — per-shard streams would diverge), and
that is all; ``pattern_enum``, exact ``linear_topk``, and ``linear_full``
all shard.  Kept subtrees cross the pipe as their ``(path_id, sim)``
pairs (:func:`~repro.search.result.portable_answers`) and the
coordinator re-binds them, as ``ComboRef`` combos, to its own copy of
the shard store the worker was forked from — value-equal to the
unsharded combos, with no :class:`~repro.index.entry.PathEntry` built
on either side of the pipe.

Worker death (crash, OOM-kill) is detected by poll timeout / liveness
checks on the pipe; the coordinator re-executes the lost shard inline
from its own copy of the shard bundle, respawns the worker, and counts a
``shard_failover`` — one query degrades to local execution of one shard,
nothing is lost.
"""

from __future__ import annotations

import os
import threading
import time
from itertools import repeat
from typing import Dict, List, Optional, Tuple

from repro.core.errors import SearchError
from repro.core.topk import TopKQueue, TopKThreshold
from repro.index.builder import PathIndexes
from repro.index.shards import ShardedIndexes, partition_indexes
from repro.scoring.function import PAPER_DEFAULT, ScoringFunction
from repro.search.bounds import SAFETY
from repro.search.plan import QueryPlan, execute_plan
from repro.search.result import (
    PatternAnswer,
    SearchResult,
    SearchStats,
    Stopwatch,
    bind_answers,
    canonical_pattern_key,
    order_answers,
    portable_answers,
)
from repro.search.service import SearchService

DEFAULT_NUM_SHARDS = 4

#: Algorithms whose per-shard runs merge exactly (store-reading, no
#: cross-shard state).  ``baseline`` walks the live graph instead of the
#: store, so sharding the store cannot split its work.
SHARDABLE_ALGORITHMS = frozenset(
    {"pattern_enum", "linear_topk", "linear_full"}
)

#: Counters that sum meaningfully across per-shard runs.
_ADDITIVE_COUNTERS = (
    "roots_expanded",
    "patterns_checked",
    "empty_patterns",
    "nonempty_patterns",
    "subtrees_enumerated",
    "tree_check_rejections",
    "sampled_types",
    "rescored_patterns",
    "roots_skipped",
    "prefixes_skipped",
    "pairs_skipped",
)


def _sampling_active(plan: QueryPlan) -> bool:
    """Whether this plan's LETopK sampling can actually trigger."""
    if plan.algorithm != "linear_topk":
        return False
    params = dict(plan.params)
    return (
        params.get("sampling_threshold", float("inf")) != float("inf")
        and params.get("sampling_rate", 1.0) < 1.0
    )


def plan_shardable(plan: QueryPlan) -> bool:
    """Whether scatter–gather reproduces this plan bit-identically.

    Sampled LETopK is excluded even though the algorithm shards: its
    sampling decisions are pre-drawn from one seeded RNG stream over the
    globally-ordered candidate types, so K per-shard streams would make
    different keep/drop choices than the single run.
    """
    return plan.algorithm in SHARDABLE_ALGORITHMS and not _sampling_active(
        plan
    )


def execute_shard_plan(
    shard: PathIndexes, plan: QueryPlan
) -> Tuple[list, SearchStats]:
    """Run a plan on one shard bundle, returning *portable* answers.

    The worker-side (and inline-failover) execution step.  Answers are
    flattened to plain picklable tuples
    ``(score, pattern_key, num_subtrees, combos, estimated_score)``
    (:func:`~repro.search.result.portable_answers`): pattern ids are
    global (the shards share the base interner), and kept subtrees go
    as their ``(path_id, sim)`` pairs because a ``ComboRef`` holds a
    store reference that must not cross the pipe.  The ids are the
    shard store's own; the receiver binds them to its copy of that
    store.  ``allow_stale=True`` because the shard store keeps
    its own version counter, intentionally different from the base
    version the plan was resolved against (the coordinator already
    version-checked the plan against the serving snapshot).
    """
    result = execute_plan(shard, plan, allow_stale=True)
    return portable_answers(result.answers), result.stats


def shard_upper_bounds(
    sharded: ShardedIndexes, context, scoring
) -> List[float]:
    """Per-shard admissible score upper bounds for one resolved query.

    The shard bound is LETopK's type bound lifted one level: an
    admissible (under all four aggregators) cap on any pattern score
    confined to the shard's slice of the candidate roots —
    ``SAFETY * sum(root_mass(r))``, computed from the *global*
    :class:`~repro.search.bounds.QueryBounds` (identical values to the
    unsharded run, since a root's postings travel to its shard whole).
    ``inf`` per non-empty shard when the scoring function is outside the
    bounded class — every shard is then dispatched, sharding stays
    exact, nothing skips.
    """
    parts = sharded.partition_roots(context.candidate_roots)
    bounds = context.query_bounds(scoring)
    if bounds is None:
        return [float("inf") if part else 0.0 for part in parts]
    return [
        SAFETY * sum(bounds.root_mass(root) for root in part)
        for part in parts
    ]


def execute_sharded_plan(
    plan: QueryPlan,
    sharded: ShardedIndexes,
    uppers: List[float],
    run_shard,
    candidate_roots: int = 0,
) -> SearchResult:
    """The scatter–gather merge loop, parameterized over shard execution.

    ``run_shard(shard_id)`` returns the shard's ranked
    :class:`~repro.search.result.PatternAnswer` list and its stats —
    bound from a worker's reply or from inline failover
    (:class:`ShardedSearchService`), or straight from an in-process
    run (the fork-pool workers of :mod:`repro.serve.pool` run their
    inherited partition through this same function, so the two
    execution spines cannot drift).  Shards are visited
    best-bound-first and skipped once the running k-th score disproves
    their upper bound; answers merge under a single global
    :class:`~repro.core.topk.TopKQueue` with canonical tie keys —
    bit-identical to the unsharded engine.
    """
    watch = Stopwatch()
    queue: TopKQueue[PatternAnswer] = TopKQueue(plan.k)
    threshold = TopKThreshold(queue)
    stats = SearchStats(
        algorithm=plan.algorithm,
        candidate_roots=candidate_roots,
    )
    stats.shards_total = sharded.num_shards
    # Best-bound-first: the strongest shard fills the queue and
    # tightens the global threshold before weaker shards are
    # considered, maximizing skips.  Shard id breaks bound ties
    # so the dispatch order is deterministic.
    order = sorted(
        range(sharded.num_shards), key=lambda s: (-uppers[s], s)
    )
    dispatched: List[int] = []
    for shard_id in order:
        upper = uppers[shard_id]
        # upper == 0.0 means no candidate root lives there; a
        # bound below the running k-th score cannot change the
        # queue (equality always admitted — docs/pruning.md).
        if upper <= 0.0 or not threshold.admits(upper):
            stats.shards_skipped += 1
            continue
        dispatched.append(shard_id)
        shard_answers, shard_stats = run_shard(shard_id)
        for name in _ADDITIVE_COUNTERS:
            setattr(
                stats,
                name,
                getattr(stats, name) + getattr(shard_stats, name),
            )
        for answer in shard_answers:
            queue.push(
                answer.score,
                answer,
                tie_key=canonical_pattern_key(answer.pattern),
            )
    stats.shard_dispatch_order = tuple(dispatched)
    threshold.write_stats(stats)
    answers = order_answers([answer for _, answer in queue.ranked()])
    stats.elapsed_seconds = watch.elapsed()
    return SearchResult(
        query=plan.words,
        k=plan.k,
        d=plan.d,
        answers=answers,
        stats=stats,
    )


def _shard_worker_main(shard: PathIndexes, conn) -> None:
    """One worker process: pre-warm, handshake, then serve plans forever.

    Protocol (all tuples):  receives ``("execute", tag, plan)`` and
    answers ``("ok", tag, (portable_answers, stats))`` or
    ``("error", tag, message)``; ``("stop",)`` exits cleanly;
    ``("exit",)`` hard-kills the process mid-protocol (the fault-injection
    hook the robustness tests use).  The tag is echoed so the coordinator
    can discard a stale response left in the pipe by a timed-out query.
    """
    try:
        shard.store.warm_query_caches()
        conn.send(("ready",))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "exit":
                os._exit(1)
            if kind == "execute":
                _, tag, plan = message
                try:
                    payload = execute_shard_plan(shard, plan)
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    conn.send(("error", tag, f"{type(exc).__name__}: {exc}"))
                else:
                    conn.send(("ok", tag, payload))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # coordinator went away; nothing to report to
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass


class ShardWorkerError(SearchError):
    """A shard worker died or stopped responding mid-query."""


class _Worker:
    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn


class ShardWorkerPool:
    """K long-lived forked workers, one per shard, spoken to over pipes.

    Fork-only by design: the shard bundles are inherited through the
    forked address space (nothing index-sized is pickled), exactly like
    the plain service's batch fork pool.  Startup blocks until every
    worker has warmed its shard's query/bound columns and sent its
    ``("ready",)`` handshake, so the first query never pays the one-time
    column builds.
    """

    def __init__(
        self, sharded: ShardedIndexes, timeout: float = 30.0
    ) -> None:
        import multiprocessing

        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-fork platform
            raise SearchError(
                f"sharded serving requires the fork start method: {exc}"
            ) from exc
        self.sharded = sharded
        self.timeout = timeout
        self._tag = 0
        self._workers: List[Optional[_Worker]] = [None] * sharded.num_shards
        self.closed = False
        try:
            for shard_id in range(sharded.num_shards):
                self._workers[shard_id] = self._spawn(shard_id)
            for shard_id in range(sharded.num_shards):
                self._await_ready(shard_id)
        except BaseException:
            self.close()
            raise

    # ----------------------------------------------------------- lifecycle

    def _spawn(self, shard_id: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(self.sharded.shards[shard_id], child_conn),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _await_ready(self, shard_id: int) -> None:
        worker = self._workers[shard_id]
        message = self._recv(worker, self.timeout, shard_id)
        if message != ("ready",):
            raise ShardWorkerError(
                f"shard worker {shard_id} sent {message!r} instead of the "
                "ready handshake"
            )

    def respawn(self, shard_id: int) -> None:
        """Replace a dead (or wedged) worker with a fresh one."""
        self._discard(shard_id)
        self._workers[shard_id] = self._spawn(shard_id)
        self._await_ready(shard_id)

    def _discard(self, shard_id: int) -> None:
        worker = self._workers[shard_id]
        if worker is None:
            return
        self._workers[shard_id] = None
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - stuck in syscall
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def kill_worker(self, shard_id: int) -> None:
        """Hard-kill one worker (SIGKILL) — the fault-injection hook."""
        worker = self._workers[shard_id]
        if worker is not None and worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def close(self) -> None:
        """Stop every worker; idempotent."""
        if self.closed:
            return
        self.closed = True
        for worker in self._workers:
            if worker is None:
                continue
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for shard_id in range(len(self._workers)):
            self._discard(shard_id)

    # ----------------------------------------------------------- execution

    def execute(self, shard_id: int, plan: QueryPlan):
        """Run ``plan`` on one shard's worker; raises
        :class:`ShardWorkerError` when the worker is dead or silent past
        the pool timeout (the coordinator then fails over inline)."""
        worker = self._workers[shard_id]
        if worker is None or not worker.process.is_alive():
            raise ShardWorkerError(f"shard worker {shard_id} is not alive")
        self._tag += 1
        tag = self._tag
        try:
            worker.conn.send(("execute", tag, plan))
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerError(
                f"shard worker {shard_id} pipe is broken: {exc}"
            ) from exc
        while True:
            message = self._recv(worker, self.timeout, shard_id)
            if message[0] == "ok" and message[1] == tag:
                return message[2]
            if message[0] == "error" and message[1] == tag:
                raise SearchError(
                    f"shard {shard_id} failed executing the plan: "
                    f"{message[2]}"
                )
            # A stale response from a query that timed out earlier:
            # discard and keep waiting for our tag.

    def _recv(self, worker: _Worker, timeout: float, shard_id: int):
        """One message from a worker, with liveness-aware waiting."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                if worker.conn.poll(0.05):
                    return worker.conn.recv()
            except (EOFError, OSError) as exc:
                raise ShardWorkerError(
                    f"shard worker {shard_id} hung up: {exc}"
                ) from exc
            if not worker.process.is_alive():
                raise ShardWorkerError(
                    f"shard worker {shard_id} died (exit code "
                    f"{worker.process.exitcode})"
                )
            if time.monotonic() >= deadline:
                raise ShardWorkerError(
                    f"shard worker {shard_id} did not answer within "
                    f"{timeout:g}s"
                )


class ShardedSearchService(SearchService):
    """Scatter–gather serving over a partitioned store (module docstring).

    Drop-in for :class:`~repro.search.service.SearchService` — same
    caches, same snapshot protocol, bit-identical answers — with
    shardable plans executed by the worker pool instead of inline.  The
    pool is built lazily on the first shardable query and rebuilt
    whenever the store version moves (the shards are as version-pinned
    as the snapshot they were cut from).  Call :meth:`close` (or use as
    a context manager) to reap the workers.
    """

    def __init__(
        self,
        indexes: PathIndexes,
        num_shards: int = DEFAULT_NUM_SHARDS,
        scoring: ScoringFunction = PAPER_DEFAULT,
        worker_timeout: float = 30.0,
        sharded: Optional[ShardedIndexes] = None,
        **kwargs,
    ) -> None:
        super().__init__(indexes, scoring=scoring, **kwargs)
        if num_shards < 1:
            raise SearchError(f"num_shards must be >= 1, got {num_shards}")
        if sharded is not None:
            if sharded.base is not indexes:
                raise SearchError(
                    "preloaded ShardedIndexes must wrap the same live "
                    "bundle the service serves"
                )
            if sharded.num_shards != num_shards:
                raise SearchError(
                    f"preloaded partition has {sharded.num_shards} shards, "
                    f"service asked for {num_shards}"
                )
        self.num_shards = num_shards
        self.worker_timeout = worker_timeout
        self.stats.execution_backend = "sharded"
        self.stats.execution_workers = num_shards
        self._preloaded = sharded
        self._sharded: Optional[ShardedIndexes] = None
        self._pool: Optional[ShardWorkerPool] = None
        #: Serializes scatter–gather *and* pool lifecycle: the pipes are
        #: plain duplex connections, not multiplexed channels, so one
        #: in-flight query per pool.  Non-shardable plans never take it.
        self._scatter_lock = threading.Lock()
        #: (words, scoring) -> (store_version, per-shard uppers): the
        #: precomputed per-shard score upper bounds per resolved keyword
        #: set, shared across k / algorithm / repeats.
        self._shard_uppers: Dict[Tuple, Tuple[int, List[float]]] = {}

    # ----------------------------------------------------------- lifecycle

    @classmethod
    def from_file(
        cls, path, num_shards: Optional[int] = None, **kwargs
    ) -> "ShardedSearchService":
        """Serve a persisted bundle, honoring a stored partition.

        A file written by
        :func:`~repro.index.serialize.save_sharded_indexes` restores its
        shards directly (no repartition) when ``num_shards`` is absent or
        agrees; asking for a different K — or loading a plain index
        file — partitions from the base on first use.
        """
        from pathlib import Path

        from repro.core.errors import PathIndexError
        from repro.index.serialize import load_indexes, load_sharded_indexes

        try:
            sharded = load_sharded_indexes(path)
        except PathIndexError:
            sharded = None
        if sharded is None:
            service = cls(
                load_indexes(path),
                num_shards=num_shards or DEFAULT_NUM_SHARDS,
                **kwargs,
            )
        elif num_shards is not None and num_shards != sharded.num_shards:
            service = cls(sharded.base, num_shards=num_shards, **kwargs)
        else:
            service = cls(
                sharded.base,
                num_shards=sharded.num_shards,
                sharded=sharded,
                **kwargs,
            )
        service.index_path = Path(path)
        return service

    def close(self) -> None:
        """Reap the worker pool (the service remains usable; the next
        shardable query builds a fresh pool)."""
        with self._scatter_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None
            self._sharded = None

    def __enter__(self) -> "ShardedSearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _compact_shards(self) -> int:
        """Compactions write the service's partition into the file, so a
        restart re-maps the shards for free and the live pool adopts the
        fresh mapped partition without a re-partition."""
        return self.num_shards

    def _adopt_compaction(self, outcome: dict) -> None:
        """Adopt the compaction's fresh mapped partition: its
        ``store_version`` is the post-re-map live version, so the next
        shardable query's pool rebuild forks workers holding re-mapped
        shard extents — never heap copies."""
        if outcome["sharded"] is not None:
            self._preloaded = outcome["sharded"]

    def _ensure_pool(
        self, snap: PathIndexes
    ) -> Tuple[ShardedIndexes, ShardWorkerPool]:
        """The partition + pool for the serving version (caller holds
        :attr:`_scatter_lock`); rebuilt when the store moved."""
        version = snap.store.version
        if (
            self._pool is not None
            and not self._pool.closed
            and self._sharded is not None
            and self._sharded.store_version == version
        ):
            return self._sharded, self._pool
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        sharded = self._preloaded
        if sharded is None or sharded.store_version != version:
            sharded = partition_indexes(snap, self.num_shards)
        self._sharded = sharded
        self._shard_uppers.clear()
        self._pool = ShardWorkerPool(sharded, timeout=self.worker_timeout)
        self.stats.bump(pool_rebuilds=1)
        return sharded, self._pool

    # ----------------------------------------------------------- execution

    def _execute_forked(self, snap, pending, processes):
        raise SearchError(
            "search_many(processes=N) is disabled on ShardedSearchService: "
            "forked batch children would share the shard workers' pipes; "
            "the shard worker pool is the parallel path (threads= remains "
            "available for batch overlap)"
        )

    def _execute_on(self, snap: PathIndexes, plan: QueryPlan) -> SearchResult:
        if not plan_shardable(plan):
            return super()._execute_on(snap, plan)
        context = self._context_for(snap, plan)
        failovers = [0]
        with self._scatter_lock:
            sharded, pool = self._ensure_pool(snap)
            uppers = self._shard_bounds(snap, plan, context, sharded)

            def run_shard(shard_id: int):
                shard = sharded.shards[shard_id]
                try:
                    rows, shard_stats = pool.execute(shard_id, plan)
                except ShardWorkerError:
                    failovers[0] += 1
                    pool.respawn(shard_id)
                    rows, shard_stats = execute_shard_plan(shard, plan)
                # The worker was forked from this very shard bundle, so
                # its path ids are this store's.
                answers = bind_answers(rows, snap, repeat(shard.store))
                return answers, shard_stats

            result = execute_sharded_plan(
                plan,
                sharded,
                uppers,
                run_shard,
                candidate_roots=len(context.candidate_roots),
            )
        if failovers[0]:
            result.stats.shard_failovers = failovers[0]
            self.stats.bump(worker_failovers=failovers[0])
        self._remember_candidates(plan, context)
        return result

    def _shard_bounds(
        self,
        snap: PathIndexes,
        plan: QueryPlan,
        context,
        sharded: ShardedIndexes,
    ) -> List[float]:
        """:func:`shard_upper_bounds`, cached per (words, scoring) under
        the serving version; caller holds :attr:`_scatter_lock`."""
        key = (plan.words, plan.scoring)
        version = snap.store.version
        slot = self._shard_uppers.get(key)
        if slot is not None and slot[0] == version:
            return slot[1]
        uppers = shard_upper_bounds(sharded, context, plan.scoring)
        self._shard_uppers[key] = (version, uppers)
        return uppers

    def __repr__(self) -> str:
        pool = "up" if self._pool is not None and not self._pool.closed else "down"
        return (
            f"ShardedSearchService(num_shards={self.num_shards}, "
            f"pool={pool}, {super().__repr__()[len('SearchService('):]}"
        )

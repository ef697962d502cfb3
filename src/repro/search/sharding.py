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

Dispatch runs in **core-wide waves**.  Before a shard is dispatched, its
precomputed score upper bound (the same ``SAFETY * sum(root_mass)`` form
LETopK's type-skip uses, summed over the shard's slice of the candidate
roots) is checked against the running k-th score.  Shards are walked
best-bound-first; the next ``width`` shards the threshold still admits
form a wave, the wave's workers compute concurrently (``width`` =
``min(num_shards, usable cores)`` — more shards in flight than cores buys
no time and gives up skips), their replies merge into the global queue in
dispatch order, and only then is the next shard looked at — so trailing
shards whose bound falls below the threshold the merged waves built are
never sent the query at all, and their postings are never scanned by
anyone.  ``SearchStats`` records ``shards_total`` / ``shards_skipped`` /
``shard_dispatch_order`` / ``shard_waves`` / ``shard_busy_ms``;
``benchmarks/smoke_sharding.py`` turns the counters into a
postings-not-scanned work-reduction figure (BENCH_5).

Exactness is inherited from the partition (pattern containment: a whole
pattern, with every root that contributes to its score, lives in exactly
one shard — see :mod:`repro.index.shards`) plus two facts: a pattern in
the global top-k is necessarily in its own shard's local top-k (the shard
run faces a subset of the competitors), and a skipped shard only holds
patterns with score ``<= bound < k-th`` which therefore cannot be
retained (bound equality is always admitted, matching ``docs/pruning.md``).
Waves apply the second fact less often, never differently: a shard is
skipped only against a queue built from *fully merged* earlier waves, and
a shard dispatched that a narrower wave would have skipped only offers
true global scores the queue rejects.

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

Worker death (crash, OOM-kill) is detected by liveness checks at
:meth:`ShardWorkerPool.send` and by hang-up / the wave's one deadline at
:meth:`ShardWorkerPool.collect`; the coordinator re-executes the lost
shard (only) inline from its own copy of the shard bundle while the
wave's live workers keep computing, respawns the worker once the query's
last wave is in, and counts a ``shard_failover`` — one query degrades to
local execution of one shard, nothing is lost.  A respawn that itself fails leaves the slot
empty for the next query to fail over and retry; it is counted
(``ServiceStats.respawn_failures``), never raised.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from itertools import repeat
from typing import List, Optional, Tuple

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


def usable_cores() -> int:
    """Cores this process may run on — the one place the scatter reads
    its wave width from (tests patch it; nothing configures it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def execute_sharded_plan(
    plan: QueryPlan,
    sharded: ShardedIndexes,
    uppers: List[float],
    run_shards,
    width: int,
    candidate_roots: int = 0,
) -> SearchResult:
    """The scatter–gather merge loop, parameterized over shard execution.

    ``run_shards(shard_ids)`` executes one wave and returns, aligned
    with ``shard_ids``, each shard's ranked
    :class:`~repro.search.result.PatternAnswer` list and its stats —
    bound from the workers' replies or from inline failover
    (:class:`ShardedSearchService`, ``width`` = cores), or straight
    from in-process runs (the fork-pool workers of
    :mod:`repro.serve.pool` run their inherited partition through this
    same function at ``width`` 1, so the two execution spines cannot
    drift).  Shards are walked best-bound-first; the next ``width``
    shards the running k-th score still admits form a wave, the wave's
    replies merge in dispatch order under a single global
    :class:`~repro.core.topk.TopKQueue` with canonical tie keys, and
    only then is the next shard's bound checked — bit-identical to the
    unsharded engine at every width, and for a given width every
    counter is a function of the query alone.
    """
    watch = Stopwatch()
    queue: TopKQueue[PatternAnswer] = TopKQueue(plan.k)
    threshold = TopKThreshold(queue)
    stats = SearchStats(
        algorithm=plan.algorithm,
        candidate_roots=candidate_roots,
    )
    stats.shards_total = sharded.num_shards
    # Best-bound-first: the strongest shards fill the queue and
    # tighten the global threshold before weaker shards are
    # considered, maximizing skips.  Shard id breaks bound ties
    # so the dispatch order is deterministic.
    order = iter(
        sorted(range(sharded.num_shards), key=lambda s: (-uppers[s], s))
    )
    dispatched: List[int] = []
    busy_ms: List[float] = []
    while True:
        wave: List[int] = []
        for shard_id in order:  # resumes where the last wave stopped
            upper = uppers[shard_id]
            # upper == 0.0 means no candidate root lives there; a
            # bound below the running k-th score cannot change the
            # queue (equality always admitted — docs/pruning.md).
            if upper <= 0.0 or not threshold.admits(upper):
                stats.shards_skipped += 1
                continue
            wave.append(shard_id)
            if len(wave) == width:
                break
        if not wave:
            break
        stats.shard_waves += 1
        dispatched.extend(wave)
        # Strict waves: every reply is merged, in dispatch order,
        # before the next bound is checked.
        for shard_answers, shard_stats in run_shards(wave):
            busy_ms.append(shard_stats.elapsed_seconds * 1000.0)
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
    stats.shard_busy_ms = tuple(busy_ms)
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

    A query is :meth:`send` to each shard of a wave, then each reply is
    :meth:`collect`-ed; the workers compute in between.  The pipes are
    plain duplex connections with one tag counter, so one *query* in
    flight per pool (the caller serializes queries), any number of its
    shards.
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
        message = self._recv(
            worker, time.monotonic() + self.timeout, shard_id
        )
        if message != ("ready",):
            raise ShardWorkerError(
                f"shard worker {shard_id} sent {message!r} instead of the "
                "ready handshake"
            )

    def respawn(self, shard_id: int) -> None:
        """Replace a dead (or wedged) worker with a fresh one.

        Raises :class:`ShardWorkerError` when the fork fails or the new
        worker dies warming; the slot is then left empty, so the next
        :meth:`send` to it raises and the caller fails over again.
        """
        self._discard(shard_id)
        try:
            self._workers[shard_id] = self._spawn(shard_id)
            self._await_ready(shard_id)
        except (ShardWorkerError, OSError) as exc:
            self._discard(shard_id)
            raise ShardWorkerError(
                f"shard worker {shard_id} could not be respawned: {exc}"
            ) from exc

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

    def send(self, shard_id: int, plan: QueryPlan) -> int:
        """Hand ``plan`` to one shard's worker and return the tag its
        reply will carry; raises :class:`ShardWorkerError` when the
        worker is dead or its pipe is broken."""
        worker = self._workers[shard_id]
        if worker is None or not worker.process.is_alive():
            raise ShardWorkerError(f"shard worker {shard_id} is not alive")
        self._tag += 1
        try:
            worker.conn.send(("execute", self._tag, plan))
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerError(
                f"shard worker {shard_id} pipe is broken: {exc}"
            ) from exc
        return self._tag

    def collect(
        self, shard_id: int, tag: int, deadline: Optional[float] = None
    ):
        """The reply to the :meth:`send` that returned ``tag``; raises
        :class:`ShardWorkerError` when the worker died, hung up, or is
        still silent at ``deadline`` (``time.monotonic()`` based; the
        pool timeout from now when absent) — the coordinator then fails
        that shard over inline.  A wave passes every shard the same
        deadline, so K wedged workers cost one timeout, not K."""
        worker = self._workers[shard_id]
        if worker is None:
            raise ShardWorkerError(f"shard worker {shard_id} is not alive")
        if deadline is None:
            deadline = time.monotonic() + self.timeout
        while True:
            message = self._recv(worker, deadline, shard_id)
            if message[0] == "ok" and message[1] == tag:
                return message[2]
            if message[0] == "error" and message[1] == tag:
                raise SearchError(
                    f"shard {shard_id} failed executing the plan: "
                    f"{message[2]}"
                )
            # A stale response — from a query that timed out, or from a
            # wave another shard's error cut short: discard and keep
            # waiting for our tag.

    def execute(self, shard_id: int, plan: QueryPlan):
        """:meth:`send` and :meth:`collect` back to back."""
        return self.collect(shard_id, self.send(shard_id, plan))

    def _recv(self, worker: _Worker, deadline: float, shard_id: int):
        """One message from a worker, with liveness-aware waiting."""
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
                    f"shard worker {shard_id} did not answer by the "
                    f"{self.timeout:g}s deadline"
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
        #: *query* in flight per pool — its wave of shards runs
        #: concurrently inside it.  Non-shardable plans never take it.
        self._scatter_lock = threading.Lock()
        #: (words, scoring) -> (store_version, per-shard uppers): the
        #: precomputed per-shard score upper bounds per resolved keyword
        #: set, shared across k / algorithm / repeats; LRU-capped at
        #: ``max_cached_contexts`` like the context tier beside it.
        self._shard_uppers: "OrderedDict[Tuple, Tuple[int, List[float]]]" = (
            OrderedDict()
        )

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
        lost: List[int] = []
        with self._scatter_lock:
            sharded, pool = self._ensure_pool(snap)
            uppers = self._shard_bounds(snap, plan, context, sharded)

            def gather(shard_id: int, tag: Optional[int], deadline: float):
                shard = sharded.shards[shard_id]
                payload = None
                if tag is not None:
                    try:
                        payload = pool.collect(shard_id, tag, deadline)
                    except ShardWorkerError:
                        pass
                if payload is None:
                    # Lost at send or at collect: answer from our own
                    # copy of the shard.  The query must not depend on
                    # the respawn working, nor wait for it.
                    lost.append(shard_id)
                    payload = execute_shard_plan(shard, plan)
                rows, shard_stats = payload
                # The worker was forked from this very shard bundle, so
                # its path ids are this store's.
                answers = bind_answers(rows, snap, repeat(shard.store))
                return answers, shard_stats

            def run_shards(shard_ids: List[int]):
                # Every send goes out before the first collect (inline
                # failover included), so the wave's live workers compute
                # side by side; one deadline covers the whole wave.
                deadline = time.monotonic() + self.worker_timeout
                tags: List[Optional[int]] = []
                for shard_id in shard_ids:
                    try:
                        tags.append(pool.send(shard_id, plan))
                    except ShardWorkerError:
                        tags.append(None)
                return [
                    gather(shard_id, tag, deadline)
                    for shard_id, tag in zip(shard_ids, tags)
                ]

            try:
                result = execute_sharded_plan(
                    plan,
                    sharded,
                    uppers,
                    run_shards,
                    width=min(self.num_shards, usable_cores()),
                    candidate_roots=len(context.candidate_roots),
                )
            finally:
                # After the last wave: a fork-and-warm never eats a
                # wave's deadline or delays a live worker's reply.
                for shard_id in lost:
                    try:
                        pool.respawn(shard_id)
                    except ShardWorkerError:
                        self.stats.bump(respawn_failures=1)
        if lost:
            result.stats.shard_failovers = len(lost)
            self.stats.bump(worker_failovers=len(lost))
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
            self._shard_uppers.move_to_end(key)
            return slot[1]
        uppers = shard_upper_bounds(sharded, context, plan.scoring)
        self._shard_uppers[key] = (version, uppers)
        self._shard_uppers.move_to_end(key)
        while len(self._shard_uppers) > self.max_cached_contexts:
            self._shard_uppers.popitem(last=False)
        return uppers

    def __repr__(self) -> str:
        pool = "up" if self._pool is not None and not self._pool.closed else "down"
        return (
            f"ShardedSearchService(num_shards={self.num_shards}, "
            f"pool={pool}, {super().__repr__()[len('SearchService('):]}"
        )

"""Fork-pool execution backend: the one pool-backed service.

The asyncio dispatch loop (:mod:`repro.serve.http`) bridges request
execution to a ``ThreadPoolExecutor``, which the GIL caps at ~1×
single-thread throughput for the pure-Python top-k loops.  This module
adds the multi-core path ``docs/serving.md`` describes:
:class:`PooledSearchService` is a drop-in
:class:`~repro.search.service.SearchService` whose cache-miss
executions cross to N long-lived **fork workers** instead of running
inline.  A batch runs on the same workers: ``search_many(threads=N)``
keeps N of them busy.

Division of labor — the parent keeps every piece of dispatch state:

* admission, deadlines, and in-flight coalescing stay on the asyncio
  loop (a worker never sees a shed or expired request);
* the result LRU, fragment tier, and term-resolution tier stay in the
  parent — only result-cache **misses** cross a pipe, and the completed
  result populates the parent caches so coalesced followers and repeat
  requests are served without touching the pool;
* workers are pure executors: they inherit the serving snapshot through
  the forked address space (``MappedPostingStore`` pages are shared
  copy-free — nothing index-sized is pickled, heap columns are
  copy-on-write) and answer canonical
  :class:`~repro.search.plan.QueryPlan` objects over tagged duplex
  pipes with the portable ``(score, pattern_key, num_subtrees,
  (path_id, sim)-pair combos, estimated_score)`` rows of
  :func:`~repro.search.result.portable_answers`; the parent re-binds
  the pairs to its own snapshot's store, so ``include_rows=True`` works
  across the pipe without an entry being built on either side.  Nothing
  is warmed in the parent before the fork: each worker boxes the paths
  of the words it is asked about (``docs/serving.md`` has the
  measurement).

The workers are a :class:`~repro.search.workers.WorkerPool` behind a
free-slot lease; the fork, the pipe protocol, death detection, respawn
and the failover rule live in :mod:`repro.search.workers`.
Invalidation: a pool is tagged with the store version it was forked
at, and a mismatch at execution time forks a fresh pool from the new
snapshot — workers can never serve a stale one.  Failover: a dead
worker's request (crash, OOM-kill, SIGKILL fault injection) is answered
**inline** in the parent first, bit-identically, and counted in
``ServiceStats.worker_failovers``; the slot is respawned afterwards (a
failed respawn: ``respawn_failures``).

Splitting (``num_shards = K >= 2``, ``--shards K``): a shardable plan
leases one worker, blocking, then takes further workers only if they
are free right now, up to :func:`~repro.search.sharding.split_width`.
Holding two or more, it sends each one slice of the query's root types
and merges the replies (:mod:`repro.search.sharding`); holding one, it
runs the plan whole there.  A split therefore never waits for a worker
another request holds, and concurrent requests never queue behind one
another's split.
"""

from __future__ import annotations

import queue
import threading
from typing import List, Optional

from repro.core.errors import SearchError
from repro.index.builder import PathIndexes
from repro.index.shards import Shard, ShardedIndexes
from repro.scoring.function import PAPER_DEFAULT, ScoringFunction
from repro.search import sharding
from repro.search.plan import QueryPlan, execute_plan
from repro.search.result import (
    SearchResult,
    Stopwatch,
    bind_answers,
    portable_answers,
)
from repro.search.service import SearchService
from repro.search.workers import WorkerError, WorkerPool

DEFAULT_POOL_PROCESSES = 2


def _execute_portable(bundle: PathIndexes, request):
    """Worker-side (and inline-failover) execution: ``(plan, part)`` in,
    ``(portable answers, stats)`` out, path ids the inherited
    snapshot's.  ``part`` is None for the whole plan, else the
    ``(slice, width)`` of a split."""
    plan, part = request
    if part is None:
        result = execute_plan(bundle, plan)
        return portable_answers(result.answers), result.stats
    shard_id, width = part
    return sharding.execute_shard_plan(
        Shard(ShardedIndexes(bundle, width, width), shard_id), plan
    )


class ForkWorkerPool(WorkerPool):
    """N interchangeable :class:`~repro.search.workers.WorkerPool`
    workers behind a free-slot lease.

    Every worker can execute every request, and N requests execute
    concurrently — a request leases the worker slots it runs on for its
    duration, so each duplex pipe still has exactly one user at a time.
    """

    def __init__(
        self, bundle: PathIndexes, num_workers: int, timeout: float = 60.0
    ) -> None:
        if num_workers < 1:
            raise SearchError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        self.store_version = bundle.store.version
        self._free: "queue.Queue[int]" = queue.Queue()
        super().__init__(
            [bundle] * num_workers, _execute_portable, "pool", timeout
        )
        for slot in range(num_workers):
            self._free.put(slot)

    def lease(self) -> int:
        """A free worker slot, the caller's until :meth:`release`;
        raises :class:`~repro.search.workers.WorkerError` when none
        frees up within the pool timeout."""
        try:
            return self._free.get(timeout=self.timeout)
        except queue.Empty:
            raise WorkerError(
                f"no free pool worker within {self.timeout:g}s"
            ) from None

    def lease_free(self) -> Optional[int]:
        """A slot that is free right now, or None; never waits."""
        try:
            return self._free.get_nowait()
        except queue.Empty:
            return None

    def release(self, slot: int) -> None:
        self._free.put(slot)

    def execute(self, plan: QueryPlan):
        """Run ``plan`` whole on any free worker; raises
        :class:`~repro.search.workers.WorkerError` when the leased
        slot's worker is dead, hangs up mid-request, or stays silent
        past the pool timeout (the caller then fails over inline)."""
        slot = self.lease()
        try:
            return self.collect(slot, self.send(slot, (plan, None)))
        finally:
            self.release(slot)

    def free_slots(self) -> int:
        return self._free.qsize()


class PooledSearchService(SearchService):
    """Drop-in service whose executions run on a fork-worker pool.

    Same caches, same snapshot protocol, bit-identical answers as
    :class:`~repro.search.service.SearchService` — with cache-miss
    executions crossing to :class:`ForkWorkerPool` workers.  Pass
    ``num_shards=K`` (K >= 2) to split a shardable plan over up to K
    free workers (module docstring).

    The pool is built lazily by the first execution that needs it and
    rebuilt whenever the store version moves: the service's
    version-guard protocol, one level up, so workers can never serve a
    stale snapshot.  Call :meth:`close` (or use as a context manager)
    to reap the workers.

    Only the ``baseline`` algorithm routes inline: it walks the live
    graph, which a forked worker froze at pool-build time.  Every
    store-reading plan — including sampled LETopK, whose single seeded
    RNG stream runs whole inside one worker — crosses the pipe.
    """

    def __init__(
        self,
        indexes: PathIndexes,
        processes: int = DEFAULT_POOL_PROCESSES,
        num_shards: int = 0,
        scoring: ScoringFunction = PAPER_DEFAULT,
        worker_timeout: float = 60.0,
        **kwargs,
    ) -> None:
        if processes < 1:
            raise SearchError(f"processes must be >= 1, got {processes}")
        if num_shards < 0:
            raise SearchError(f"num_shards must be >= 0, got {num_shards}")
        super().__init__(indexes, scoring=scoring, **kwargs)
        self.processes = processes
        self.num_shards = num_shards
        self.worker_timeout = worker_timeout
        self._pool: Optional[ForkWorkerPool] = None
        #: Guards pool lifecycle (build, rebuild, close) only —
        #: executions run outside it, N at a time.
        self._pool_lock = threading.Lock()
        self.stats.execution_backend = (
            "fork-pool+sharded" if num_shards else "fork-pool"
        )
        self.stats.execution_workers = processes

    # ----------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Reap the worker pool (the service stays usable; the next
        execution that needs one forks a fresh pool)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.close()

    def _pool_for(self, snap: PathIndexes) -> ForkWorkerPool:
        """The pool for the serving version (caller holds
        :attr:`_pool_lock`); forked afresh when the store moved."""
        pool = self._pool
        if pool is None or pool.store_version != snap.store.version:
            # Unpublished before it is closed: ``_pool`` is only ever
            # None or an open pool, also to the lock-free readers below.
            self._pool = None
            if pool is not None:
                pool.close()
            self._pool = ForkWorkerPool(
                snap, self.processes, timeout=self.worker_timeout
            )
            self.stats.bump(pool_rebuilds=1)
        return self._pool

    # ----------------------------------------------------------- execution

    def _execute_on(self, snap: PathIndexes, plan: QueryPlan) -> SearchResult:
        if plan.algorithm == "baseline":
            return super()._execute_on(snap, plan)
        with self._pool_lock:
            pool = self._pool_for(snap)
        watch = Stopwatch()
        try:
            slots = [pool.lease()]
        except WorkerError:
            # Every worker stayed busy past the pool timeout: none is
            # lost, and the request still gets its answer.
            self.stats.bump(worker_failovers=1)
            return super()._execute_on(snap, plan)
        lost: List[int] = []
        try:
            context = None
            if self.num_shards >= 2 and sharding.plan_shardable(plan):
                context = self._context_for(snap, plan)
                wanted = sharding.split_width(self.num_shards, context)
                while len(slots) < wanted:
                    slot = pool.lease_free()
                    if slot is None:
                        break
                    slots.append(slot)
            width = len(slots)
            requests = (
                [(plan, None)] if width == 1
                else [(plan, (i, width)) for i in range(width)]
            )
            replies = pool.execute_on(slots, requests, lost)
        finally:
            # Healed with the slots still leased, so that no other
            # request is handed the hole.
            self._heal(pool, lost)
            for slot in slots:
                pool.release(slot)
        # The workers were forked from this snapshot, so their path ids
        # are its store's.
        runs = [(bind_answers(rows, snap), stats) for rows, stats in replies]
        if width == 1:
            ((answers, stats),) = runs
            result = SearchResult(
                query=plan.words, k=plan.k, d=plan.d,
                answers=answers, stats=stats,
            )
        else:
            result = sharding.merge_shard_runs(
                plan, runs, len(context.candidate_roots)
            )
            result.stats.elapsed_seconds = watch.elapsed()
        result.stats.shard_failovers = len(lost)
        if context is not None:
            self._remember_candidates(plan, context)
        return result

    def _heal(self, pool: WorkerPool, lost: List[int]) -> None:
        """Second half of the failover rule
        (:meth:`~repro.search.workers.WorkerPool.execute_on`): count and
        respawn the workers whose requests were answered inline.  A
        respawn that itself fails leaves the slot empty for the next
        request to fail over and retry; it is counted, never raised."""
        self.stats.bump(worker_failovers=len(lost))
        for slot in lost:
            try:
                pool.respawn(slot)
            except WorkerError:
                self.stats.bump(respawn_failures=1)

    # ----------------------------------------------------------- reporting

    def worker_snapshot(self) -> List[dict]:
        """Per-worker pool gauges (empty before the first pooled
        execution — the pool is lazy)."""
        pool = self._pool
        return [] if pool is None else pool.worker_snapshot()

    def kill_worker(self, slot: int) -> None:
        """Fault-injection passthrough (tests, BENCH_9)."""
        if self._pool is not None:
            self._pool.kill_worker(slot)

    def arm_exit(self, slot: int) -> None:
        """Fault-injection passthrough: deterministic mid-request death."""
        if self._pool is not None:
            self._pool.arm_exit(slot)

    def pool_info(self) -> dict:
        pool = self._pool
        return {
            "backend": self.stats.execution_backend,
            "processes": self.processes,
            "num_shards": self.num_shards,
            "built": pool is not None,
            "free_slots": pool.free_slots() if pool is not None else 0,
            "store_version": (
                pool.store_version if pool is not None else None
            ),
        }

    def __repr__(self) -> str:
        pool = "down" if self._pool is None else "up"
        return (
            f"{type(self).__name__}("
            f"workers={self.stats.execution_workers}, "
            f"num_shards={self.num_shards}, pool={pool}, "
            f"{super().__repr__()[len('SearchService('):]}"
        )


class ShardedSearchService(PooledSearchService):
    """``PooledSearchService(processes=K, num_shards=K)``: one worker
    per slice of the widest split ``--shards K`` allows."""

    def __init__(
        self, indexes: PathIndexes,
        num_shards: int = sharding.DEFAULT_NUM_SHARDS, **kwargs,
    ) -> None:
        super().__init__(
            indexes, processes=num_shards, num_shards=num_shards, **kwargs
        )

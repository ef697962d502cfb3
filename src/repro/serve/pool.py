"""Fork-pool execution backend for the HTTP serving tier.

The asyncio dispatch loop (:mod:`repro.serve.http`) bridges request
execution to a ``ThreadPoolExecutor``, which the GIL caps at ~1×
single-thread throughput for the pure-Python top-k loops.  This module
adds the multi-core path ``docs/serving.md`` flags as the next capacity
unlock: :class:`PooledSearchService` is a drop-in
:class:`~repro.search.service.SearchService` whose cache-miss
executions cross to N long-lived **fork workers** instead of running
inline.

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
  across the pipe without an entry being built on either side.

The workers are a :class:`~repro.search.workers.WorkerPool` behind a
free-slot lease; the fork, the pipe protocol, death detection and
respawn live in :mod:`repro.search.workers`, with the two rules this
service shares with the sharded one.  Invalidation: a pool is tagged
with the store version it was forked at, and a mismatch at execution
time forks a fresh pool from the new snapshot — workers can never serve
a stale one.  Failover: a dead worker's request (crash, OOM-kill,
SIGKILL fault injection) is answered **inline** in the parent first,
bit-identically, and counted in ``ServiceStats.worker_failovers``; the
slot is respawned afterwards (a failed respawn: ``respawn_failures``).

Composing with ``--shards``: the chosen composition is **parent
dispatch → fork worker → inline scatter over the inherited snapshot**.
Each worker sees its snapshot as K shards
(:class:`~repro.index.shards.ShardedIndexes` — per-query root-type
slices of the one store, nothing copied; the partition's width, read in
the parent before the fork, is the map's shard count on both sides)
and runs the bound-driven best-bound-first
merge loop
(:func:`~repro.search.sharding.execute_sharded_plan` — literally the
same function the sharded service's coordinator runs) in-process, so
shard skip counters flow unchanged.  The coordinator runs that loop in
core-wide waves over its shard workers; a pool worker is one process on
one core, so it passes wave width 1 and visits its shards one after
another, keeping every threshold skip.  The alternative — nested
per-worker shard pools — would put N×K processes on the box,
oversubscribing every core for *intra*-request parallelism when the
HTTP tier's scarce resource is *inter*-request throughput; one process
per concurrent request parallelizes the stream without oversubscription
and keeps the failure domain one pipe wide.  See ``docs/serving.md``.
"""

from __future__ import annotations

import queue
from typing import List, Optional

from repro.core.errors import SearchError
from repro.index.builder import PathIndexes
from repro.index.shards import ShardedIndexes
from repro.scoring.function import PAPER_DEFAULT, ScoringFunction
from repro.search.context import EnumerationContext
from repro.search.plan import QueryPlan, execute_plan
from repro.search.result import SearchResult, bind_answers, portable_answers
from repro.search.sharding import (
    execute_sharded_plan,
    plan_shardable,
    search_shard,
    shard_upper_bounds,
)
from repro.search.workers import PoolBackedService, WorkerError, WorkerPool

DEFAULT_POOL_PROCESSES = 2

#: The one worker error class, under the name this module used to define.
PoolWorkerError = WorkerError


def _execute_portable(
    bundle: PathIndexes, sharded: Optional[ShardedIndexes], plan: QueryPlan
):
    """Worker-side execution: a plan in, ``(portable answers, stats)``
    out, path ids the inherited snapshot's.

    Plain pools (and non-shardable plans on sharded pools) run the whole
    plan against the inherited snapshot.  Sharded pools run the inline
    scatter–gather merge loop over its shards — the same
    :func:`execute_sharded_plan` the sharded coordinator uses, so the
    two spines produce bit-identical answers by construction.
    """
    if sharded is None or not plan_shardable(plan):
        result = execute_plan(bundle, plan)
    else:
        context = EnumerationContext(bundle, plan.resolved_query())
        shards = sharded.shards
        subtrees: List[int] = []

        def run_shards(shard_ids: List[int]):
            runs = []
            for shard_id in shard_ids:
                run = search_shard(shards[shard_id], plan, context)
                subtrees.extend(run.stats.shard_subtrees)
                runs.append((run.answers, run.stats))
            return runs

        # Width 1: this worker is one process on one core, and its
        # siblings are busy with other requests.  The query's types
        # are still split over ``sharded.width`` shards — the map the
        # shard coordinator would use — visited one after another.
        result = execute_sharded_plan(
            plan,
            sharded,
            shard_upper_bounds(sharded, context, plan.scoring),
            run_shards,
            width=1,
            candidate_roots=len(context.candidate_roots),
        )
        result.stats.shard_subtrees = tuple(subtrees)
    return portable_answers(result.answers), result.stats


class ForkWorkerPool(WorkerPool):
    """N interchangeable :class:`~repro.search.workers.WorkerPool`
    workers behind a free-slot lease.

    Unlike :class:`~repro.search.sharding.ShardWorkerPool` (one worker
    *per shard*, one in-flight *query* per pool, its shards sent in
    concurrent waves), every worker here can execute every plan, and N
    requests execute concurrently — one executor thread leases one
    worker slot for the duration of a request, so each duplex pipe
    still has exactly one user at a time.  The caller warms the snapshot
    once in the parent before the fork, not N times in the children.
    """

    def __init__(
        self,
        bundle: PathIndexes,
        num_workers: int,
        sharded: Optional[ShardedIndexes] = None,
        timeout: float = 60.0,
    ) -> None:
        if num_workers < 1:
            raise SearchError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        self.store_version = bundle.store.version
        self._free: "queue.Queue[int]" = queue.Queue()
        super().__init__(
            [(bundle, sharded)] * num_workers,
            lambda state, plan: _execute_portable(*state, plan),
            "pool",
            timeout,
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

    def release(self, slot: int) -> None:
        self._free.put(slot)

    def execute(self, plan: QueryPlan):
        """Run ``plan`` on any free worker; raises
        :class:`~repro.search.workers.WorkerError` when the leased
        slot's worker is dead, hangs up mid-request, or stays silent
        past the pool timeout (the caller then fails over inline)."""
        slot = self.lease()
        try:
            return self.collect(slot, self.send(slot, plan))
        finally:
            self.release(slot)

    def free_slots(self) -> int:
        return self._free.qsize()


class PooledSearchService(PoolBackedService):
    """Drop-in service whose executions run on a fork-worker pool.

    Same caches, same snapshot protocol, bit-identical answers as
    :class:`~repro.search.service.SearchService` — with cache-miss
    executions crossing to :class:`ForkWorkerPool` workers.  Pool
    lifecycle and the failover rule are
    :class:`~repro.search.workers.PoolBackedService`'s.  Pass
    ``num_shards=K`` to compose with sharding: workers then run the
    inline scatter–gather merge loop over the inherited snapshot's K
    shards (module docstring).

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
        super().__init__(
            indexes, num_shards, worker_timeout, scoring=scoring, **kwargs
        )
        self.processes = processes
        self.stats.execution_backend = (
            "fork-pool+sharded" if self.num_shards else "fork-pool"
        )
        self.stats.execution_workers = processes

    def _start_pool(
        self, snap: PathIndexes, sharded: Optional[ShardedIndexes]
    ) -> ForkWorkerPool:
        # Warm in the parent, once, before the fork: every worker
        # inherits the boxed query columns and the bound columns
        # copy-on-write (a mapped store's bound columns stay lazy
        # per queried word; warming never thaws it).  The query
        # memo outlives the version bump that forced this rebuild,
        # so only the paths written since the last one are boxed.
        snap.store.warm_query_caches()
        self._mirror_store_counters()
        return ForkWorkerPool(
            snap, self.processes, sharded=sharded, timeout=self.worker_timeout
        )

    # ----------------------------------------------------------- execution

    def _execute_on(self, snap: PathIndexes, plan: QueryPlan) -> SearchResult:
        if plan.algorithm == "baseline":
            return super()._execute_on(snap, plan)
        # The lock guards pool lifecycle only — executions run outside
        # it, N at a time, each owning one worker slot.
        with self._pool_lock:
            _sharded, pool = self._ensure_pool(snap)
        try:
            slot = pool.lease()
        except WorkerError:
            # Every worker stayed busy past the pool timeout: none is
            # lost, and the request still gets its answer.
            self.stats.bump(worker_failovers=1)
            return super()._execute_on(snap, plan)
        lost: List[int] = []
        try:
            ((rows, stats),) = pool.execute_on([slot], plan, lost)
        finally:
            # Healed with the slot still leased, so that no other
            # request is handed the hole.
            self._heal(pool, lost)
            pool.release(slot)
        # The workers were forked from this snapshot, so their path ids
        # are its store's.
        return SearchResult(
            query=plan.words,
            k=plan.k,
            d=plan.d,
            answers=bind_answers(rows, snap),
            stats=stats,
        )

    # ----------------------------------------------------------- reporting

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

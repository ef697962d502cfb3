"""The one fork-worker mechanism, and the service lifecycle built on it.

A worker is *inherited state plus* ``run(state, plan)``: the parent forks
one long-lived process per entry of ``states``, the child keeps its entry
through the forked address space (nothing index-sized is pickled; mapped
pages are shared, heap columns are copy-on-write) and answers canonical
:class:`~repro.search.plan.QueryPlan` objects over one duplex pipe.
:class:`WorkerPool` is the only code in ``src/`` that forks such a
worker, speaks the pipe protocol (:func:`_worker_main`), detects a dead
or silent one, respawns and reaps.  The two backends differ only in how
a slot is *addressed*: :class:`~repro.search.sharding.ShardWorkerPool`
by shard id, :class:`~repro.serve.pool.ForkWorkerPool` by leasing any
free one.  Both kinds inherit the serving snapshot — a shard worker with
its shard id beside it (:class:`~repro.index.shards.Shard`), which is
all a shard is.  :class:`PoolBackedService` is the same consolidation
one level up, for the two services over those pools.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.errors import SearchError
from repro.index.builder import PathIndexes
from repro.index.shards import ShardedIndexes, partition_indexes
from repro.search.plan import QueryPlan
from repro.search.service import SearchService


class WorkerError(SearchError):
    """A pool worker died, hung up, stayed silent past its deadline, or
    could not be (re)started."""


def _worker_main(state, run: Callable, warm: Optional[Callable], conn) -> None:
    """One worker process: warm, handshake, then serve plans until told
    to stop.

    Protocol (all tuples): receives ``("execute", tag, plan)`` and
    answers ``("ok", tag, run(state, plan))`` or ``("error", tag,
    message)``; ``("stop",)`` exits cleanly; ``("exit",)`` hard-kills
    immediately and ``("arm_exit",)`` arms a hard kill *after the next
    plan is received but before it is answered* — the deterministic
    mid-request death hook the fault-injection tests use.  The tag is
    echoed so a stale response left in the pipe — by a request that
    timed out, or by a wave another worker's error cut short — is
    discarded, never mismatched.  ``warm(state)`` runs here, in the
    child, so K workers warm K states side by side; a pool whose workers
    share one state warms it once in the parent before the fork and
    passes none.
    """
    die_on_next = False
    try:
        if warm is not None:
            warm(state)
        conn.send(("ready",))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "exit":
                os._exit(1)
            if kind == "arm_exit":
                die_on_next = True
            elif kind == "execute":
                _, tag, plan = message
                if die_on_next:
                    os._exit(1)
                try:
                    payload = run(state, plan)
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    conn.send(("error", tag, f"{type(exc).__name__}: {exc}"))
                else:
                    conn.send(("ok", tag, payload))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away; nothing to report to
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass


class _Worker:
    __slots__ = ("process", "conn", "busy")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.busy = False


class WorkerPool:
    """``len(states)`` long-lived forked workers, spoken to over pipes.

    Fork-only by design (module docstring).  Startup blocks until every
    worker has sent its ``("ready",)`` handshake, so the first plan never
    pays a one-time warm.  A plan is :meth:`send` to a slot, then its
    reply is :meth:`collect`-ed; the worker computes in between.  The
    pipes are not multiplexed: one request in flight per *slot*, which
    the subclasses' addressing guarantees.
    """

    def __init__(
        self,
        states: Sequence,
        run: Callable,
        name: str,
        timeout: float,
        warm: Optional[Callable] = None,
    ) -> None:
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-fork platform
            raise SearchError(
                f"{name} workers require the fork start method: {exc}"
            ) from exc
        self._states = list(states)
        self._run = run
        self._warm = warm
        self._name = name
        self.timeout = timeout
        self.closed = False
        self._tag = 0
        self._tag_lock = threading.Lock()
        #: Excludes :meth:`respawn` and :meth:`close`: a request that
        #: lost its worker on a pool a version bump is closing under it
        #: must not fork a worker nobody will reap.
        self._lifecycle_lock = threading.Lock()
        self._workers: List[Optional[_Worker]] = [None] * len(self._states)
        #: Per-slot lifetime counters; they outlive the worker records,
        #: so a respawn (or an empty slot) never resets them.
        self._executed = [0] * len(self._states)
        self._respawns = [0] * len(self._states)
        try:
            for slot in range(len(self._states)):
                self._workers[slot] = self._spawn(slot)
            for slot in range(len(self._states)):
                self._await_ready(slot)
        except BaseException:
            self.close()
            raise

    # ----------------------------------------------------------- lifecycle

    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._states[slot], self._run, self._warm, child_conn),
            daemon=True,
            name=f"repro-{self._name}-{slot}",
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _await_ready(self, slot: int) -> None:
        message = self._recv(
            self._workers[slot], time.monotonic() + self.timeout, slot
        )
        if message != ("ready",):
            raise WorkerError(
                f"{self._name} worker {slot} sent {message!r} instead of "
                "the ready handshake"
            )

    def respawn(self, slot: int) -> None:
        """Replace a dead (or wedged) worker with a fresh one.

        Raises :class:`WorkerError` when the fork fails or the new
        worker dies before ``ready``; the slot is then left empty, so
        the next :meth:`send` to it raises and the caller fails over
        again.  A closed pool respawns nothing.
        """
        with self._lifecycle_lock:
            if self.closed:
                return
            self._discard(slot)
            try:
                self._workers[slot] = self._spawn(slot)
                self._await_ready(slot)
            except (WorkerError, OSError) as exc:
                self._discard(slot)
                raise WorkerError(
                    f"{self._name} worker {slot} could not be respawned: "
                    f"{exc}"
                ) from exc
            self._respawns[slot] += 1

    def _discard(self, slot: int) -> None:
        worker = self._workers[slot]
        if worker is None:
            return
        self._workers[slot] = None
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

    def kill_worker(self, slot: int) -> None:
        """Hard-kill one worker (SIGKILL) — the fault-injection hook."""
        worker = self._workers[slot]
        if worker is not None and worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def arm_exit(self, slot: int) -> None:
        """Arm a deterministic mid-request death: the worker will
        ``os._exit(1)`` after receiving its next plan, before answering
        — so the killing request itself exercises inline failover."""
        worker = self._workers[slot]
        if worker is not None and worker.process.is_alive():
            worker.conn.send(("arm_exit",))

    def close(self) -> None:
        """Stop every worker; idempotent."""
        with self._lifecycle_lock:
            if self.closed:
                return
            self.closed = True
            for worker in self._workers:
                if worker is None:
                    continue
                try:
                    worker.conn.send(("stop",))
                except OSError:
                    pass
            for slot in range(len(self._workers)):
                self._discard(slot)

    # ----------------------------------------------------------- execution

    def send(self, slot: int, plan: QueryPlan) -> int:
        """Hand ``plan`` to one slot's worker and return the tag its
        reply will carry; raises :class:`WorkerError` when the worker is
        dead or its pipe is broken."""
        worker = self._workers[slot]
        if worker is None or not worker.process.is_alive():
            raise WorkerError(f"{self._name} worker {slot} is not alive")
        with self._tag_lock:  # lease-pool slots send concurrently
            self._tag += 1
            tag = self._tag
        try:
            worker.conn.send(("execute", tag, plan))
        except OSError as exc:
            raise WorkerError(
                f"{self._name} worker {slot} pipe is broken: {exc}"
            ) from exc
        worker.busy = True
        return tag

    def collect(self, slot: int, tag: int, deadline: Optional[float] = None):
        """The reply to the :meth:`send` that returned ``tag``; raises
        :class:`WorkerError` when the worker died, hung up, or is still
        silent at ``deadline`` (``time.monotonic()`` based; the pool
        timeout from now when absent) — the caller then fails that slot
        over inline.  A wave passes every slot the same deadline, so K
        wedged workers cost one timeout, not K."""
        worker = self._workers[slot]
        if worker is None:
            raise WorkerError(f"{self._name} worker {slot} is not alive")
        if deadline is None:
            deadline = time.monotonic() + self.timeout
        try:
            while True:
                message = self._recv(worker, deadline, slot)
                if message[0] == "ok" and message[1] == tag:
                    self._executed[slot] += 1
                    return message[2]
                if message[0] == "error" and message[1] == tag:
                    raise SearchError(
                        f"{self._name} worker {slot} failed executing the "
                        f"plan: {message[2]}"
                    )
                # A stale response (see _worker_main): discard and keep
                # waiting for our tag.
        finally:
            worker.busy = False

    def execute_on(
        self, slots: Sequence[int], plan: QueryPlan, lost: List[int]
    ) -> list:
        """``plan``'s reply from each of ``slots``, computed side by
        side: every :meth:`send` goes out before the first
        :meth:`collect`, and one deadline covers them all.

        First half of the failover rule
        (:class:`PoolBackedService`): a slot whose worker is lost — at
        ``send`` or at ``collect`` — is answered here, inline, by the
        same ``run`` on the parent's own copy of that worker's state,
        while the live workers keep computing, and is appended to
        ``lost`` for the caller to respawn once it has its answer.
        """
        deadline = time.monotonic() + self.timeout
        tags: List[Optional[int]] = []
        for slot in slots:
            try:
                tags.append(self.send(slot, plan))
            except WorkerError:
                tags.append(None)
        replies = []
        for slot, tag in zip(slots, tags):
            if tag is not None:
                try:
                    replies.append(self.collect(slot, tag, deadline))
                    continue
                except WorkerError:
                    pass
            lost.append(slot)
            replies.append(self._run(self._states[slot], plan))
        return replies

    def _recv(self, worker: _Worker, deadline: float, slot: int):
        """One message from a worker, with liveness-aware waiting."""
        while True:
            try:
                if worker.conn.poll(0.05):
                    return worker.conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerError(
                    f"{self._name} worker {slot} hung up: {exc}"
                ) from exc
            if not worker.process.is_alive():
                raise WorkerError(
                    f"{self._name} worker {slot} died (exit code "
                    f"{worker.process.exitcode})"
                )
            if time.monotonic() >= deadline:
                raise WorkerError(
                    f"{self._name} worker {slot} did not answer by the "
                    f"{self.timeout:g}s deadline"
                )

    # ----------------------------------------------------------- reporting

    def worker_snapshot(self) -> List[dict]:
        """Per-slot gauges for ``/metrics``: alive and busy flags,
        lifetime executed and respawn counts."""
        return [
            {
                "worker": slot,
                "alive": worker is not None and worker.process.is_alive(),
                "busy": worker is not None and worker.busy,
                "executed": self._executed[slot],
                "respawns": self._respawns[slot],
            }
            for slot, worker in enumerate(self._workers)
        ]

    def alive_workers(self) -> int:
        return sum(row["alive"] for row in self.worker_snapshot())


class PoolBackedService(SearchService):
    """What :class:`~repro.search.sharding.ShardedSearchService` and
    :class:`~repro.serve.pool.PooledSearchService` share.

    The pool — over the snapshot seen as ``num_shards`` shards when K is
    non-zero — is built lazily by the first execution that needs it and
    rebuilt whenever the store version moves: the service's
    version-guard protocol, one level up, so workers can never serve a
    stale snapshot.  A rebuild is a fork: a shard is a root-type slice
    of the snapshot (:mod:`repro.index.shards`), so there is nothing to
    re-partition.  Call :meth:`close` (or use as a context manager) to
    reap the workers.

    A subclass supplies :meth:`_start_pool` and its ``_execute_on``,
    under one **failover rule**: a request whose worker is lost — dead
    at ``send``; dead, hung up or silent at ``collect`` — is answered
    inline, by the parent, from its own copy of what the worker
    inherited (:meth:`WorkerPool.execute_on`); only with the answer in
    hand (a scatter: after its last wave) does :meth:`_heal` respawn the
    worker.  The answer therefore never depends on the respawn working,
    nor waits for it.
    """

    def __init__(
        self,
        indexes: PathIndexes,
        num_shards: int,
        worker_timeout: float,
        **kwargs,
    ) -> None:
        super().__init__(indexes, **kwargs)
        self.num_shards = num_shards
        self.worker_timeout = worker_timeout
        #: The shards the live pool was forked over (None: no pool, or
        #: an unsharded one).
        self._sharded: Optional[ShardedIndexes] = None
        self._pool: Optional[WorkerPool] = None
        #: Guards pool lifecycle (build, rebuild, close).
        self._pool_lock = threading.Lock()

    # ----------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Reap the worker pool (the service stays usable; the next
        execution that needs one forks a fresh pool)."""
        with self._pool_lock:
            pool, self._pool, self._sharded = self._pool, None, None
            if pool is not None:
                pool.close()

    def _ensure_pool(
        self, snap: PathIndexes
    ) -> Tuple[Optional[ShardedIndexes], WorkerPool]:
        """The shards + pool for the serving version (caller holds
        :attr:`_pool_lock`); rebuilt when the store moved."""
        pool = self._pool
        if pool is None or pool.store_version != snap.store.version:
            # Unpublished before it is closed: ``_pool`` is only ever
            # None or an open pool, also to the lock-free readers below.
            self._pool = None
            if pool is not None:
                pool.close()
            sharded = (
                partition_indexes(snap, self.num_shards)
                if self.num_shards
                else None
            )
            self._pool = self._start_pool(snap, sharded)
            self._sharded = sharded
            self.stats.bump(pool_rebuilds=1)
        return self._sharded, self._pool

    def _start_pool(self, snap, sharded) -> WorkerPool:
        """Fork the subclass's pool over ``snap`` / its shards; the
        pool carries the ``store_version`` it was forked at."""
        raise NotImplementedError

    # ----------------------------------------------------------- execution

    def _execute_forked(self, snap, pending, processes):
        raise SearchError(
            f"search_many(processes=N) is disabled on "
            f"{type(self).__name__}: forked batch children would share "
            "the pool workers' pipes; the standing worker pool is already "
            "the parallel path (use threads= for batch overlap)"
        )

    def _heal(self, pool: WorkerPool, lost: List[int]) -> None:
        """Second half of the failover rule (class docstring): count
        and respawn the workers whose requests were answered inline.  A
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

    def __repr__(self) -> str:
        pool = "down" if self._pool is None else "up"
        return (
            f"{type(self).__name__}("
            f"workers={self.stats.execution_workers}, "
            f"num_shards={self.num_shards}, pool={pool}, "
            f"{super().__repr__()[len('SearchService('):]}"
        )

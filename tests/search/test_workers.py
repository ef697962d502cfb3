"""The one fork-worker mechanism, driven with a toy ``run`` (no index).

:class:`~repro.search.workers.WorkerPool` is everything under the fork
pool's lease: fork + ready handshake, tagged
request/response, liveness- and deadline-aware waiting, SIGKILL
detection, respawn, inline failover, close.  These tests pin that
protocol on its own, so a fault in it fails here and not three layers up
in a serving test — and pin that it stays the *only* such mechanism.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.errors import SearchError
from repro.search import workers
from repro.search.workers import WorkerError, WorkerPool

TIMEOUT = 5.0


def toy_run(state, plan):
    """A worker's whole job: plans are plain tuples here."""
    kind = plan[0]
    if kind == "boom":
        raise ValueError("no such plan")
    if kind == "sleep":
        time.sleep(plan[1])
    return (state, os.getpid(), plan)


@pytest.fixture()
def pool():
    pool = WorkerPool(["a", "b", "c"], toy_run, "toy", TIMEOUT)
    yield pool
    pool.close()


def pids(pool):
    return [worker.process.pid for worker in pool._workers]


def die_before_ready(monkeypatch, dies):
    """Forked workers whose state ``dies(state)`` accepts raise before
    their ready handshake."""
    real_main = workers._worker_main

    def worker_main(state, run, conn):
        if dies(state):
            raise RuntimeError("cannot start")
        real_main(state, run, conn)

    monkeypatch.setattr(workers, "_worker_main", worker_main)


def reap(pool, slot):
    """A self-exited worker's pipe closes a moment before the process
    can be waited for; liveness counts are asserted after that moment."""
    pool._workers[slot].process.join(timeout=TIMEOUT)


class TestHandshake:
    def test_every_worker_is_ready_and_holds_its_own_state(self, pool):
        assert pool.alive_workers() == 3
        replies = [
            pool.collect(slot, pool.send(slot, ("echo",)))
            for slot in range(3)
        ]
        assert [state for state, _pid, _plan in replies] == ["a", "b", "c"]
        assert [pid for _state, pid, _plan in replies] == pids(pool)
        assert os.getpid() not in pids(pool)

    def test_a_warm_that_raises_fails_the_pool_and_leaves_no_child(
        self, capfd, monkeypatch
    ):
        die_before_ready(monkeypatch, lambda state: state == "bad")
        with pytest.raises(WorkerError):
            WorkerPool(["ok", "bad"], toy_run, "toy", TIMEOUT)
        assert multiprocessing.active_children() == []
        capfd.readouterr()  # the child's traceback

    def test_worker_error_is_a_search_error(self):
        assert issubclass(WorkerError, SearchError)


class TestTags:
    def test_reply_carries_the_tag_and_a_stale_one_is_discarded(self, pool):
        stale = pool.send(0, ("echo", "abandoned"))
        fresh = pool.send(0, ("echo", "wanted"))
        assert fresh > stale
        _state, _pid, plan = pool.collect(0, fresh)
        assert plan == ("echo", "wanted")
        assert not pool._workers[0].conn.poll(0)  # nothing left behind

    def test_concurrent_slots_never_share_a_tag(self, pool):
        # The lease pool sends from one thread per slot; a lost update
        # on the tag counter would hand two requests the same tag.
        rounds, tags, wrong = 150, [[], [], []], []

        def drive(slot):
            for i in range(rounds):
                tag = pool.send(slot, ("echo", slot, i))
                tags[slot].append(tag)
                if pool.collect(slot, tag)[2] != ("echo", slot, i):
                    wrong.append((slot, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=drive, args=(slot,))
                for slot in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len({tag for per_slot in tags for tag in per_slot}) == (
            3 * rounds
        )

    def test_error_reply_is_a_search_error_and_the_pool_lives_on(self, pool):
        with pytest.raises(SearchError, match="failed executing the plan"):
            pool.collect(1, pool.send(1, ("boom",)))
        with pytest.raises(SearchError, match="ValueError: no such plan"):
            pool.collect(1, pool.send(1, ("boom",)))
        assert pool.collect(1, pool.send(1, ("echo",)))[0] == "b"
        assert pool.alive_workers() == 3
        rows = pool.worker_snapshot()
        assert [row["executed"] for row in rows] == [0, 1, 0]
        assert not any(row["busy"] for row in rows)


class TestDeath:
    def test_sigkill_before_send(self, pool):
        pool.kill_worker(2)
        with pytest.raises(WorkerError, match="not alive"):
            pool.send(2, ("echo",))
        assert pool.alive_workers() == 2

    def test_sigkill_between_send_and_collect(self, pool):
        os.kill(pids(pool)[0], signal.SIGSTOP)  # takes the plan, no reply
        tag = pool.send(0, ("echo",))
        pool.kill_worker(0)
        with pytest.raises(WorkerError):
            pool.collect(0, tag)
        assert not pool.worker_snapshot()[0]["busy"]

    def test_armed_exit_dies_on_the_next_plan(self, pool):
        pool.arm_exit(1)
        assert pool.alive_workers() == 3  # armed, not dead
        with pytest.raises(WorkerError):
            pool.collect(1, pool.send(1, ("echo",)))
        reap(pool, 1)
        assert pool.alive_workers() == 2

    def test_one_deadline_over_three_silent_workers_costs_one_timeout(self):
        timeout = 1.0
        pool = WorkerPool(["a", "b", "c"], toy_run, "toy", timeout)
        try:
            started = time.monotonic()
            deadline = started + timeout
            tags = [pool.send(slot, ("sleep", 30)) for slot in range(3)]
            for slot, tag in enumerate(tags):
                with pytest.raises(WorkerError, match="deadline"):
                    pool.collect(slot, tag, deadline)
            assert timeout <= time.monotonic() - started < 2 * timeout
        finally:
            pool.close()


class TestExecuteOn:
    def test_all_sends_precede_the_first_collect(self, pool, monkeypatch):
        events = []
        real_send, real_collect = pool.send, pool.collect

        def send(slot, plan):
            events.append(("send", slot))
            return real_send(slot, plan)

        def collect(slot, tag, deadline=None):
            events.append(("collect", slot))
            return real_collect(slot, tag, deadline)

        monkeypatch.setattr(pool, "send", send)
        monkeypatch.setattr(pool, "collect", collect)
        lost = []
        replies = pool.execute_on([2, 0], [("echo", 2), ("echo", 0)], lost)
        assert [state for state, _pid, _plan in replies] == ["c", "a"]
        assert [plan for _state, _pid, plan in replies] == [
            ("echo", 2), ("echo", 0),
        ]
        assert lost == []
        assert events == [
            ("send", 2), ("send", 0), ("collect", 2), ("collect", 0),
        ]

    def test_a_lost_worker_is_answered_inline_and_reported(self, pool):
        pool.kill_worker(0)  # lost at send
        pool.arm_exit(2)  # lost at collect
        lost = []
        requests = [("echo", slot) for slot in range(3)]
        replies = pool.execute_on([0, 1, 2], requests, lost)
        assert [state for state, _pid, _plan in replies] == ["a", "b", "c"]
        assert [plan for _state, _pid, plan in replies] == requests
        here = os.getpid()
        assert [pid == here for _state, pid, _plan in replies] == [
            True, False, True,
        ]
        assert lost == [0, 2]
        # Nothing was respawned on the way: that is the caller's move,
        # once it has its answer.
        reap(pool, 2)
        assert pool.alive_workers() == 1

    def test_an_error_reply_is_not_a_lost_worker(self, pool):
        lost = []
        with pytest.raises(SearchError, match="failed executing the plan"):
            pool.execute_on([0, 1], [("boom",), ("boom",)], lost)
        assert lost == []
        # Worker 1's reply to the failed call is discarded by tag.
        assert pool.execute_on([1], [("echo", 2)], lost)[0][2] == ("echo", 2)


class TestRespawn:
    def test_respawn_replaces_the_worker_and_keeps_the_counters(self, pool):
        pool.collect(0, pool.send(0, ("echo",)))
        before = pids(pool)[0]
        pool.kill_worker(0)
        pool.respawn(0)
        assert pids(pool)[0] != before
        assert pool.collect(0, pool.send(0, ("echo",)))[0] == "a"
        row = pool.worker_snapshot()[0]
        assert (row["alive"], row["executed"], row["respawns"]) == (
            True, 2, 1,
        )

    def test_failed_respawn_leaves_the_slot_empty_and_the_next_heals_it(
        self, pool, monkeypatch
    ):
        real_spawn = pool._spawn
        failures = [1]

        def flaky_spawn(slot):
            if failures[0]:
                failures[0] -= 1
                raise OSError("fork: resource temporarily unavailable")
            return real_spawn(slot)

        monkeypatch.setattr(pool, "_spawn", flaky_spawn)
        pool.kill_worker(1)
        with pytest.raises(WorkerError, match="could not be respawned"):
            pool.respawn(1)
        assert pool._workers[1] is None
        assert pool.worker_snapshot()[1] == {
            "worker": 1, "alive": False, "busy": False,
            "executed": 0, "respawns": 0,
        }
        with pytest.raises(WorkerError, match="not alive"):
            pool.send(1, ("echo",))
        with pytest.raises(WorkerError, match="not alive"):
            pool.collect(1, 1)
        pool.respawn(1)
        assert pool.collect(1, pool.send(1, ("echo",)))[0] == "b"
        assert pool.worker_snapshot()[1]["respawns"] == 1

    def test_a_worker_dying_before_ready_is_a_failed_respawn(
        self, capfd, monkeypatch
    ):
        armed = []
        die_before_ready(monkeypatch, lambda _state: bool(armed))
        pool = WorkerPool(["a"], toy_run, "toy", TIMEOUT)
        try:
            armed.append(True)  # inherited by the next fork only
            with pytest.raises(WorkerError, match="could not be respawned"):
                pool.respawn(0)
            assert pool._workers[0] is None
            assert multiprocessing.active_children() == []
        finally:
            pool.close()
        capfd.readouterr()  # the child's traceback


class TestClose:
    def test_close_is_idempotent_and_reaps_every_worker(self, pool):
        processes = [worker.process for worker in pool._workers]
        pool.close()
        pool.close()
        assert pool.closed
        assert pool.alive_workers() == 0
        assert not any(process.is_alive() for process in processes)
        assert multiprocessing.active_children() == []

    def test_a_closed_pool_respawns_nothing(self, pool):
        pool.close()
        pool.respawn(0)
        assert pool._workers[0] is None
        assert multiprocessing.active_children() == []


class TestOneMechanism:
    """A second hand-rolled pool cannot grow back unnoticed: the calls a
    fork worker protocol is made of occur in ``search/workers.py`` only."""

    SOURCES = sorted(Path(repro.__file__).parent.rglob("*.py"))

    def files_containing(self, needle):
        root = Path(repro.__file__).parent
        return [
            str(path.relative_to(root))
            for path in self.SOURCES
            if needle in path.read_text()
        ]

    @pytest.mark.parametrize(
        "needle", [".Pipe(", "conn.poll(", "os._exit(", ".Process("]
    )
    def test_worker_protocol_calls_live_in_one_module(self, needle):
        assert self.files_containing(needle) == ["search/workers.py"]

    @pytest.mark.parametrize(
        "needle",
        ["multiprocessing.Pool", ".Pool(", "ProcessPoolExecutor"],
    )
    def test_no_stdlib_process_pool(self, needle):
        # Batch parallelism runs on the same fork workers as serving.
        assert self.files_containing(needle) == []

    def test_fork_context_is_taken_in_one_place(self):
        # The long-lived workers; nothing else forks.
        assert self.files_containing('get_context("fork")') == [
            "search/workers.py",
        ]

    def test_one_worker_main_one_record_one_error_class(self):
        source = "".join(path.read_text() for path in self.SOURCES)
        assert re.findall(r"^def (_\w*worker_main)\(", source, re.M) == [
            "_worker_main"
        ]
        assert re.findall(r"^class (_\w*Worker)\b", source, re.M) == [
            "_Worker"
        ]
        assert re.findall(r"^class (\w*WorkerError)\(", source, re.M) == [
            "WorkerError"
        ]

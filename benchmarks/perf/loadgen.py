"""The benchmark's own HTTP load generator and server lifecycle.

One process, ``CONNECTIONS`` keep-alive connections (one thread each —
the box has two cores and the server needs them).  Two loops:

* **closed** — each connection sends its next request when the previous
  reply arrives; measures throughput (a slow server is offered less);
* **open** — request *i* is due at ``start + i / rate`` whatever the
  server does; latency runs from the *due* time, so a stall is charged
  to every request it delays, and the generator's own lateness is
  reported next to it.

The server is ``python -m repro.cli serve --http`` in its own process
group; :meth:`ServerProcess.stop` ends the whole group on every path.
"""

from __future__ import annotations

import http.client
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

CONNECTIONS = 2
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0

_READY = re.compile(r"serving .* on http://([\d.]+):(\d+) ")

#: ``(method, path)``.
Request = Tuple[str, str]

INVALIDATE: Request = ("POST", "/admin/invalidate")


def search_request(query: str, k: int, max_rows: int) -> Request:
    params = {"q": query, "k": k, "include_rows": 1, "max_rows": max_rows}
    return ("GET", "/search?" + urlencode(params))


@dataclass
class Observation:
    index: int
    status: int  # 0 = transport error
    #: ``perf_counter`` readings: when the request was due (open loop)
    #: or sent (closed loop), when it was sent, when its reply was read.
    due: float
    sent: float
    done: float
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """How long after its due time the generator sent the request."""
        return self.sent - self.due


class ServerProcess:
    """``repro serve --http`` as a subprocess of the harness."""

    def __init__(self, index_path: Path, processes: int, src_dir: Path) -> None:
        self.index_path = index_path
        self.processes = processes
        self.src_dir = src_dir
        self.host = ""
        self.port = 0
        self._process: Optional[subprocess.Popen] = None
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None

    def start(self) -> None:
        """Spawn the server and block until it reports its address."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src_dir)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self._process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                str(self.index_path), "--http", "127.0.0.1:0",
                "--processes", str(self.processes),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(
            target=self._pump, args=(self._process.stdout,), daemon=True
        )
        self._reader.start()
        deadline = time.monotonic() + READY_TIMEOUT_S
        seen: List[str] = []
        try:
            while True:
                remaining = deadline - time.monotonic()
                try:
                    line = self._lines.get(timeout=max(0.0, remaining))
                except queue.Empty:
                    line = None
                if line is None:
                    raise RuntimeError(
                        "server did not become ready; output:\n"
                        + "".join(seen)
                    )
                seen.append(line)
                match = _READY.search(line)
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
                    return
        except BaseException:
            self.stop()
            raise

    def _pump(self, stream) -> None:
        # Keeps draining after readiness so the server never blocks on
        # a full pipe; None marks end of output.
        for line in stream:
            self._lines.put(line)
        self._lines.put(None)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL the whole group — pool
        workers included — and reap."""
        process = self._process
        if process is None:
            return
        self._process = None
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass  # the group is already gone
            process.wait()
            if self._reader is not None:
                self._reader.join(timeout=5)
            process.stdout.close()

    def connect(self) -> "Connection":
        return Connection(self.host, self.port)


class Connection:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, host: str, port: int) -> None:
        self._host, self._port = host, port
        self._conn = http.client.HTTPConnection(
            host, port, timeout=REQUEST_TIMEOUT_S
        )

    def send(self, request: Request) -> Tuple[int, bytes]:
        method, path = request
        try:
            self._conn.request(method, path)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=REQUEST_TIMEOUT_S
            )
            return 0, b""

    def close(self) -> None:
        self._conn.close()


def _run_threads(server: ServerProcess, body: Callable[[int, Connection], None]) -> None:
    errors: List[BaseException] = []

    def guarded(slot: int) -> None:
        connection = server.connect()
        try:
            body(slot, connection)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=guarded, args=(slot,))
        for slot in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(
    server: ServerProcess, stream: Sequence[Request], span: range,
) -> List[Observation]:
    """Send the requests ``stream[i]`` for ``i`` in ``span``, each
    connection taking the next one when its reply arrives."""
    ticket = iter(span)
    lock = threading.Lock()
    observations: List[Observation] = []

    def body(_slot: int, connection: Connection) -> None:
        mine = []
        while True:
            with lock:
                index = next(ticket, None)
            if index is None:
                break
            sent = time.perf_counter()
            status, payload = connection.send(stream[index])
            mine.append(Observation(
                index, status, sent, sent, time.perf_counter(), payload))
        with lock:
            observations.extend(mine)

    _run_threads(server, body)
    return observations


def open_loop(
    server: ServerProcess, stream: Sequence[Request], span: range,
    rate: float,
) -> List[Observation]:
    """Send the requests of ``span`` on schedule: the ``n``-th is due
    ``n / rate`` seconds after the start, on connection
    ``n % CONNECTIONS``."""
    lock = threading.Lock()
    observations: List[Observation] = []
    started = time.perf_counter() + 0.05  # let both threads reach the loop

    def body(slot: int, connection: Connection) -> None:
        mine = []
        for n in range(slot, len(span), CONNECTIONS):
            due = started + n / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, payload = connection.send(stream[span[n]])
            mine.append(Observation(
                span[n], status, due, sent, time.perf_counter(), payload))
        with lock:
            observations.extend(mine)

    _run_threads(server, body)
    return observations

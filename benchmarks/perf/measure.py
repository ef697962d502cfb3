"""Measuring helpers shared by every workload: the clock, percentiles,
the process-tree RSS reading, and the :class:`Metric` record the command
prints.

Every time the benchmark reports is a wall-clock ``perf_counter``
reading, as a caller of the program sees it: waiting (fsync, page
faults, pipes, locks, queues) is part of it.  Noise is handled by
measuring more work and reporting medians, never by correcting a
reading (``README.md``, *Noise rule*).
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str


def ms(seconds: float) -> float:
    return seconds * 1e3


def us(seconds: float) -> float:
    return seconds * 1e6


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation: a reported latency is
    one that was observed)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = round(fraction * (len(ordered) - 1))
    return ordered[min(len(ordered) - 1, max(0, rank))]


def timed(function, *args, **kwargs):
    """``(wall seconds, result)`` of one call."""
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - started, result


# ------------------------------------------------------------ process tree


def _descendants(root: int) -> List[int]:
    """Live descendants of ``root``, from one scan of ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited between listing and reading
        # Field 4 (ppid) follows the parenthesised command name, which
        # may itself contain spaces or parentheses.
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found, frontier = [], [root]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass  # exited
    return 0


def tree_peak_rss_mb() -> float:
    """Sum of the peak resident sets (``VmHWM``) of this process and
    every live descendant — read while workers and servers are still
    up, so a pool's copies count against the workload that forked them."""
    pids = [os.getpid()] + _descendants(os.getpid())
    return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0


# ------------------------------------------------------------ machine speed

CALIBRATION_LOOPS = 60_000
#: Seconds :func:`calibrate` takes at the speed every time is reported
#: at: the fast state of the 2.1 GHz Xeon VMs this benchmark was defined
#: on.  It only fixes the unit: on another machine every time shifts by
#: one constant factor, which cancels between two commits.
CALIBRATION_REFERENCE_S = 0.0044
#: Timed work between two calibrations; the speed states last seconds.
CALIBRATE_EVERY_S = 0.25


def calibrate() -> float:
    """Wall seconds one run of a fixed loop takes right now (dict stores
    and small-int arithmetic, like the interpreter work the program is
    made of).  The better of two: the loop is there to read the
    machine's speed, not to catch its interruptions."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        total, table = 0, {}
        for i in range(CALIBRATION_LOOPS):
            table[i & 4095] = total
            total += i * 3 % 7
        best = min(best, time.perf_counter() - started)
    return best


class Clock:
    """Wall-clock stopwatch whose readings are reported at the reference
    machine speed.

    The shared VMs this runs on flip, every few seconds to minutes,
    between two speeds about 1.27x apart, each vCPU on its own; a run
    can fall wholly inside either, so no median inside the run removes
    it.  The clock therefore runs :func:`calibrate` before and after
    every ``CALIBRATE_EVERY_S`` of work and multiplies the wall time of
    each call in between by ``reference / measured`` loop time.
    Waiting is part of every reading; the program cannot move the loop,
    so a speed-up or a regression shows in full.
    """

    def __init__(self) -> None:
        self._before = calibrate()
        self._calibrated_at = time.perf_counter()
        #: ``(list, index)`` of every reading not yet rescaled.
        self._pending: List = []
        #: Every factor applied so far.
        self.factors: List[float] = []

    def time(self, sink: List[float], function, *args, **kwargs):
        """Run ``function``; its seconds are appended to ``sink`` (and
        rescaled in place by the next calibration).  Returns the
        function's result."""
        started = time.perf_counter()
        result = function(*args, **kwargs)
        ended = time.perf_counter()
        sink.append(ended - started)
        self._pending.append((sink, len(sink) - 1))
        if ended - self._calibrated_at >= CALIBRATE_EVERY_S:
            self.flush()
        return result

    def flush(self) -> None:
        """Calibrate, and rescale the readings taken since the last time."""
        after = calibrate()
        factor = CALIBRATION_REFERENCE_S / ((self._before + after) / 2.0)
        for sink, index in self._pending:
            sink[index] *= factor
        self.factors.append(factor)
        self._pending = []
        self._before = after
        self._calibrated_at = time.perf_counter()

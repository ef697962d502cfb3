"""Serving metrics: latency quantiles, QPS windows, Prometheus text.

The HTTP tier's observability surface.  Everything here is updated from
both the event-loop thread and the executor's worker threads, so each
recorder owns a lock; updates are O(1) and reads (one ``/metrics`` scrape
or bench probe at a time) sort a bounded sample window at most.

Rendering follows the Prometheus text exposition format (the same
surface muBench-style microservice benches scrape), producing families
like::

    # TYPE repro_http_requests_total counter
    repro_http_requests_total{endpoint="/search",status="200"} 41
    repro_http_request_latency_seconds{quantile="0.99"} 0.0021
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: SearchStats counters the server aggregates across requests — the
#: pruning and split work counters ``/metrics`` re-exports.
SEARCH_COUNTERS = (
    "candidate_roots",
    "roots_expanded",
    "patterns_checked",
    "subtrees_enumerated",
    "roots_skipped",
    "prefixes_skipped",
    "pairs_skipped",
    "shards_total",
    "shards_skipped",
    "shard_failovers",
)


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1,
        max(0, round(fraction * (len(sorted_values) - 1))),
    )
    return sorted_values[rank]


class LatencyRecorder:
    """Cumulative count/sum plus quantiles over a bounded sample window.

    The window (default 4096 most-recent samples) bounds memory and keeps
    quantiles responsive to the current load phase rather than the whole
    process lifetime; count and sum are exact and monotone.
    """

    def __init__(self, window: int = 4096) -> None:
        self._lock = threading.Lock()
        self._samples: deque = deque(maxlen=window)
        self.count = 0
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)
            self.count += 1
            self.total_seconds += seconds

    def quantiles(
        self, fractions: Tuple[float, ...] = (0.5, 0.95, 0.99)
    ) -> Dict[float, float]:
        with self._lock:
            window = sorted(self._samples)
        return {q: percentile(window, q) for q in fractions}

    def snapshot(self) -> Dict[str, float]:
        quantiles = self.quantiles()
        return {
            "count": self.count,
            "sum_seconds": self.total_seconds,
            "p50_seconds": quantiles[0.5],
            "p95_seconds": quantiles[0.95],
            "p99_seconds": quantiles[0.99],
        }


class RateWindow:
    """Completions-per-second over a sliding window (the QPS gauge)."""

    def __init__(self, window_seconds: float = 10.0) -> None:
        self._lock = threading.Lock()
        self.window_seconds = window_seconds
        self._ticks: deque = deque()

    def tick(self, now: Optional[float] = None) -> None:
        now = time.monotonic() if now is None else now
        with self._lock:
            self._ticks.append(now)
            self._trim(now)

    def rate(self, now: Optional[float] = None) -> float:
        now = time.monotonic() if now is None else now
        with self._lock:
            self._trim(now)
            if not self._ticks:
                return 0.0
            span = max(now - self._ticks[0], 1e-9)
            return len(self._ticks) / span

    def _trim(self, now: float) -> None:
        cutoff = now - self.window_seconds
        while self._ticks and self._ticks[0] < cutoff:
            self._ticks.popleft()


class ServerMetrics:
    """Every counter the HTTP tier maintains beyond ``ServiceStats``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started = time.monotonic()
        #: (endpoint, status) -> count, for every response written; a
        #: request that could not be framed counts under ``malformed``.
        self.requests_total: Dict[Tuple[str, str], int] = defaultdict(int)
        self.requests_shed = 0
        self.requests_coalesced = 0
        self.requests_expired = 0
        #: Rendering of miss bodies (``HttpSearchServer._render_result``).
        self.render_seconds = 0.0
        self.rendered_rows = 0
        #: Admitted-and-answered (2xx /search) latencies only, so shed
        #: fast-failures cannot flatter the quantiles.
        self.latency = LatencyRecorder()
        self.qps = RateWindow()
        #: Aggregated SearchStats work counters (SEARCH_COUNTERS).
        self.search_counters: Dict[str, int] = defaultdict(int)

    def observe_response(self, endpoint: str, status: int) -> None:
        with self._lock:
            self.requests_total[(endpoint, str(status))] += 1
        self.qps.tick()

    def inc(self, counter: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + delta)

    def observe_render(self, seconds: float, rows: int) -> None:
        with self._lock:
            self.render_seconds += seconds
            self.rendered_rows += rows

    def absorb_search_stats(self, stats) -> None:
        with self._lock:
            for name in SEARCH_COUNTERS:
                self.search_counters[name] += getattr(stats, name, 0)

    def totals(self) -> Tuple[Dict[Tuple[str, str], int], Dict[str, int]]:
        """Copies of ``requests_total`` and ``search_counters``, taken
        together under the lock (what one ``/metrics`` scrape reads)."""
        with self._lock:
            return dict(self.requests_total), dict(self.search_counters)

    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started


@dataclass
class MetricFamily:
    """One Prometheus family: name, type, help, labeled samples."""

    name: str
    mtype: str
    help: str
    samples: List[Tuple[Mapping[str, str], float]] = field(
        default_factory=list
    )

    def add(self, labels: Mapping[str, str], value: float) -> "MetricFamily":
        self.samples.append((labels, value))
        return self


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(families: Iterable[MetricFamily]) -> str:
    """The ``/metrics`` payload: text exposition format, one family per
    ``# TYPE`` block, labels sorted for deterministic output."""
    lines: List[str] = []
    for family in families:
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.mtype}")
        for labels, value in family.samples:
            if labels:
                rendered = ",".join(
                    f'{name}="{_escape_label(str(labels[name]))}"'
                    for name in sorted(labels)
                )
                lines.append(
                    f"{family.name}{{{rendered}}} {_format_value(value)}"
                )
            else:
                lines.append(f"{family.name} {_format_value(value)}")
    return "\n".join(lines) + "\n"

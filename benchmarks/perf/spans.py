"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's side, around calls into the
program's public functions; nothing inside ``repro`` is instrumented.
They stay in a list until the run ends and are then written as one JSON
object per line: ``{id, parent, request, name, t0, t1, counts}``.  A
layer's time is its spans' *self* time — duration minus the part
covered by child spans.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        # Open-span stack of the (single) thread using :meth:`span`;
        # multi-threaded callers use :meth:`record` with explicit times.
        self._stack: List[int] = []

    def record(
        self,
        name: str,
        request: int,
        t0: float,
        t1: float,
        parent: Optional[int] = None,
        **counts,
    ) -> int:
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({
                "id": span_id, "parent": parent, "request": request,
                "name": name, "t0": t0, "t1": t1, "counts": counts,
            })
        return span_id

    @contextmanager
    def span(self, name: str, request: int, **counts) -> Iterator[dict]:
        """Time the body as a child of the innermost open span.  The
        yielded dict is the span's ``counts``; fill it inside the body."""
        parent = self._stack[-1] if self._stack else None
        span_id = self.record(name, request, 0.0, 0.0, parent, **counts)
        self._stack.append(span_id)
        span = self.spans[span_id]
        span["t0"] = time.perf_counter()
        try:
            yield span["counts"]
        finally:
            span["t1"] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------- reading

    def self_times(self) -> Dict[str, List[float]]:
        """Span name -> self time (seconds) of each span of that name."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["t1"] - span["t0"]
        times: Dict[str, List[float]] = defaultdict(list)
        for span in self.spans:
            duration = span["t1"] - span["t0"]
            times[span["name"]].append(duration - covered[span["id"]])
        return times

    def durations(self, name: str) -> List[float]:
        return [s["t1"] - s["t0"] for s in self.spans if s["name"] == name]

    def count_total(self, name: str, count: str) -> float:
        return sum(
            s["counts"].get(count, 0) for s in self.spans if s["name"] == name
        )

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")

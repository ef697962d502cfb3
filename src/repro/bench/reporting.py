"""Result tables for the experiment harness.

Each experiment produces an :class:`ExperimentResult` — an id tying it to
the paper's figure/table, column headers, data rows, and free-form notes —
renderable as fixed-width text (console) or markdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass
class ExperimentResult:
    """One reproduced figure/table."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        self.rows.append([_fmt(cell) for cell in cells])

    def note(self, text: str) -> None:
        self.notes.append(text)

    def format(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

        out = [f"== {self.experiment_id}: {self.title} =="]
        out.append(line(self.headers))
        out.append(line(["-" * w for w in widths]))
        out.extend(line(row) for row in self.rows)
        for note in self.notes:
            out.append(f"   note: {note}")
        return "\n".join(out)

    def to_markdown(self) -> str:
        out = [f"### {self.experiment_id}: {self.title}", ""]
        out.append("| " + " | ".join(self.headers) + " |")
        out.append("| " + " | ".join("---" for _ in self.headers) + " |")
        for row in self.rows:
            out.append("| " + " | ".join(row) + " |")
        for note in self.notes:
            out.append(f"\n*{note}*")
        return "\n".join(out)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the paper reports min / geo-average / max times)."""
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def summarize_ms(seconds: Sequence[float]) -> str:
    """'min/geo/max' milliseconds string for a group of query times."""
    if not seconds:
        return "-"
    ms = [s * 1000 for s in seconds]
    return f"{min(ms):.1f}/{geometric_mean(ms):.1f}/{max(ms):.1f}"


def decade_group(count: int) -> int:
    """The paper's grouping: "group 10^k contains queries with 10^(k-1) to
    10^k - 1 answers"; counts of 0 map to group 1."""
    if count <= 0:
        return 1
    group = 10
    while count >= group:
        group *= 10
    return group

"""Rendering a tree pattern and its subtrees as a table answer (§2.2.2).

Each valid subtree becomes a row.  For each keyword path
``v1 e1 v2 ... vl`` the paper creates ``l`` columns named ``tau(v1)``,
``tau(v1) alpha(e1) tau(v2)``, ..., deduplicating columns when an edge
appears in more than one root-to-leaf path.  We key columns by their
*pattern prefix* — the typed path from the root down to the column's node —
which realizes that dedup rule uniformly across rows.

Corner case the paper glosses over: two keyword paths can share a pattern
prefix while binding different nodes in some row (the pattern cannot see
where paths diverge).  Such cells hold multiple values; we render them
joined with `` | `` and flag the column as ``multivalued``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.pattern import TreePattern
from repro.core.subtree import ValidSubtree
from repro.core.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.kg.graph import KnowledgeGraph


@dataclass
class TableColumn:
    """One column of a table answer.

    ``header`` is the short display name (the attribute name for non-root
    columns, mirroring Figure 3's "Genre"/"Revenue" headers).
    ``qualified_name`` is the paper's unambiguous
    ``tau(v_{i-1}) alpha(e_i) tau(v_i)`` naming.  ``prefix`` is the interned
    pattern-prefix key (tuple of alternating type/attr ids).
    """

    header: str
    qualified_name: str
    prefix: Tuple[int, ...]
    depth: int
    multivalued: bool = False


@dataclass
class TableAnswer:
    """A tree pattern rendered as a table: columns plus one row per subtree."""

    pattern: TreePattern
    columns: List[TableColumn]
    rows: List[List[str]] = field(default_factory=list)
    score: float = 0.0
    #: Rows the answer has in all, when the renderer was asked for the
    #: first few only (``None``: every row is in ``rows``).
    total_rows: Optional[int] = None

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def headers(self) -> List[str]:
        return [column.header for column in self.columns]

    def _rows_beyond(self, shown: int) -> int:
        """Rows of the answer a rendering of ``shown`` rows leaves out."""
        return max(len(self.rows), self.total_rows or 0) - shown

    def to_dicts(self) -> List[Dict[str, str]]:
        """Rows as header -> value dicts (headers deduplicated upstream)."""
        return [dict(zip(self.headers(), row)) for row in self.rows]

    def to_ascii(self, max_rows: int = 20) -> str:
        """Fixed-width text rendering (used by examples and the harness)."""
        headers = self.headers()
        shown = self.rows[:max_rows]
        widths = [len(h) for h in headers]
        for row in shown:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        def fmt(cells: Sequence[str]) -> str:
            return " | ".join(c.ljust(w) for c, w in zip(cells, widths))
        lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
        lines.extend(fmt(row) for row in shown)
        hidden = self._rows_beyond(len(shown))
        if hidden > 0:
            lines.append(f"... ({hidden} more rows)")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """RFC-4180 CSV with a header row (for spreadsheet export)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.headers())
        writer.writerows(self.rows)
        return buffer.getvalue()

    def to_json_records(self) -> str:
        """JSON array of header->value objects."""
        import json

        return json.dumps(self.to_dicts(), indent=2)

    def to_markdown(self, max_rows: int = 20) -> str:
        """GitHub-flavored markdown rendering."""
        headers = self.headers()
        lines = [
            "| " + " | ".join(headers) + " |",
            "| " + " | ".join("---" for _ in headers) + " |",
        ]
        shown = self.rows[:max_rows]
        for row in shown:
            lines.append("| " + " | ".join(row) + " |")
        hidden = self._rows_beyond(len(shown))
        if hidden > 0:
            lines.append(f"| ... {hidden} more rows | "
                         + " | ".join("" for _ in headers[1:]) + " |")
        return "\n".join(lines)


def _column_plan(
    pattern: TreePattern, graph: "KnowledgeGraph"
) -> Tuple[List[TableColumn], List[List[int]]]:
    """Derive the deduplicated column list for a tree pattern.

    Walks every path pattern depth by depth; a column is created the first
    time a pattern prefix is seen.  Edge-matched terminals contribute a
    column for the matched edge's target value.  Also returns, per keyword
    path, the column index of every node position on it: all rows of the
    pattern share it, so no row looks a prefix up again.
    """
    columns: List[TableColumn] = []
    seen: Dict[Tuple[int, ...], int] = {}
    slots: List[List[int]] = []
    for path in pattern.paths:
        labels = path.labels
        path_slots: List[int] = []
        # Node positions: prefix lengths 1, 3, 5, ... in labels; for
        # edge-matched paths the terminal target is prefix length
        # len(labels) + 1 conceptually -- we key it by the full labels
        # tuple which uniquely identifies that edge column.
        for depth, plen in enumerate(range(1, len(labels) + 1, 2)):
            prefix = labels[:plen]
            index = seen.get(prefix)
            if index is None:
                index = seen[prefix] = len(columns)
                type_name = graph.type_name(labels[plen - 1])
                if depth == 0:
                    header = type_name
                    qualified = type_name
                else:
                    attr_name = graph.attr_name(labels[plen - 2])
                    prev_type = graph.type_name(labels[plen - 3])
                    header = type_name if type_name else attr_name
                    qualified = f"{prev_type}.{attr_name}.{type_name}"
                columns.append(
                    TableColumn(
                        header=header,
                        qualified_name=qualified,
                        prefix=prefix,
                        depth=depth,
                    )
                )
            path_slots.append(index)
        if path.ends_at_edge:
            prefix = labels  # full labels end with the matched attr
            index = seen.get(prefix)
            if index is None:
                index = seen[prefix] = len(columns)
                attr_name = graph.attr_name(labels[-1])
                prev_type = graph.type_name(labels[-2])
                columns.append(
                    TableColumn(
                        header=attr_name,
                        qualified_name=f"{prev_type}.{attr_name}",
                        prefix=prefix,
                        depth=len(labels) // 2,
                    )
                )
            path_slots.append(index)
        slots.append(path_slots)
    # Disambiguate duplicate headers ("Company" appearing twice) by falling
    # back to qualified names for the duplicates.
    counts: Dict[str, int] = {}
    for column in columns:
        counts[column.header] = counts.get(column.header, 0) + 1
    for column in columns:
        if counts[column.header] > 1:
            column.header = column.qualified_name
    return columns, slots


def compose_rows(
    pattern: TreePattern,
    rows: Iterable[Sequence[Sequence[NodeId]]],
    graph: "KnowledgeGraph",
    score: float = 0.0,
    total_rows: Optional[int] = None,
) -> TableAnswer:
    """Build the :class:`TableAnswer` for ``pattern`` from node chains.

    The one row composer.  Each of ``rows`` is a valid subtree of
    ``pattern`` in its barest form: per keyword path, in pattern order,
    the node ids from the root down (an edge match's target included) —
    what the store's path columns hold, so rows render without a subtree
    object in between.  Rows appear in input order; ``total_rows`` is
    recorded when the caller passes only the first few.
    """
    columns, slots = _column_plan(pattern, graph)
    node_text = graph.node_text
    answer = TableAnswer(
        pattern=pattern, columns=columns, score=score, total_rows=total_rows
    )
    for chains in rows:
        cells: List[List[str]] = [[] for _ in columns]
        for nodes, path_slots in zip(chains, slots):
            for node, column_index in zip(nodes, path_slots):
                value = node_text(node)
                values = cells[column_index]
                if value not in values:
                    values.append(value)
        row = []
        for column, values in zip(columns, cells):
            if len(values) > 1:
                column.multivalued = True
            row.append(" | ".join(values))
        answer.rows.append(row)
    return answer


def compose_table(
    pattern: TreePattern,
    subtrees: Sequence[ValidSubtree],
    graph: "KnowledgeGraph",
    score: float = 0.0,
) -> TableAnswer:
    """Build the :class:`TableAnswer` for ``pattern`` from its subtrees.

    Every subtree must have pattern equal to ``pattern`` (callers obtain
    them grouped from the search algorithms); rows appear in input order.
    """
    return compose_rows(
        pattern,
        ([path.nodes for path in subtree.paths] for subtree in subtrees),
        graph,
        score=score,
    )

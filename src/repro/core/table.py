"""Rendering a tree pattern and its subtrees as a table answer (§2.2.2).

Each valid subtree becomes a row.  For each keyword path
``v1 e1 v2 ... vl`` the paper creates ``l`` columns named ``tau(v1)``,
``tau(v1) alpha(e1) tau(v2)``, ..., deduplicating columns when an edge
appears in more than one root-to-leaf path.  We key columns by their
*pattern prefix* — the typed path from the root down to the column's node —
which realizes that dedup rule uniformly across rows.  A path pattern
alone fixes its columns, so they are worked out once per pattern and
graph and merged per table.

Corner case the paper glosses over: two keyword paths can share a pattern
prefix while binding different nodes in some row (the pattern cannot see
where paths diverge).  Such cells hold multiple values; we render them
joined with `` | `` and flag the column as ``multivalued``.
"""

from __future__ import annotations

import weakref
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

from repro.core.pattern import PathPattern, TreePattern
from repro.core.subtree import ValidSubtree
from repro.core.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.kg.graph import KnowledgeGraph

#: What a path pattern contributes to every table it appears in, per node
#: position: ``(header, qualified name, pattern prefix, depth)``.
ColumnSpec = Tuple[str, str, Tuple[int, ...], int]
#: One graph's column specs, by path-pattern labels.
PathSpecs = Dict[Tuple[int, ...], Tuple[ColumnSpec, ...]]


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


#: Column specs ``(header, qualified, prefix, depth)`` of every path
#: pattern rendered so far, per graph, keyed by the pattern's labels
#: (their parity says whether it ends at an edge).  Filled on first
#: render, never warmed; one entry per distinct path pattern, so it needs
#: no cap.  Keyed weakly by the graph rather than held on it: the graph
#: is pickled into index files, which must not change with what was
#: rendered.  Type and attribute ids are append-only, so an entry stays
#: right as the graph grows; snapshots share their bundle's graph and so
#: its specs, and forked workers inherit them.
_PATH_SPECS: "weakref.WeakKeyDictionary[KnowledgeGraph, PathSpecs]" = (
    weakref.WeakKeyDictionary()
)


def path_specs_memo(graph: "KnowledgeGraph") -> PathSpecs:
    """``graph``'s column specs by path-pattern labels (made empty on
    first use)."""
    memo = _PATH_SPECS.get(graph)
    if memo is None:
        memo = _PATH_SPECS.setdefault(graph, {})
    return memo


def _path_specs(
    path: PathPattern, graph: "KnowledgeGraph"
) -> Tuple[ColumnSpec, ...]:
    """One column spec per node position of ``path``, root first.

    Node positions are prefix lengths 1, 3, 5, ... of the labels; an
    edge-matched path adds its terminal target, keyed by the full labels
    (they end with the matched attribute, so they name that edge's
    column uniquely).
    """
    labels = path.labels
    specs: List[ColumnSpec] = []
    for depth, plen in enumerate(range(1, len(labels) + 1, 2)):
        type_name = graph.type_name(labels[plen - 1])
        if depth == 0:
            header = qualified = type_name
        else:
            attr_name = graph.attr_name(labels[plen - 2])
            prev_type = graph.type_name(labels[plen - 3])
            header = type_name if type_name else attr_name
            qualified = f"{prev_type}.{attr_name}.{type_name}"
        specs.append((header, qualified, labels[:plen], depth))
    if path.ends_at_edge:
        attr_name = graph.attr_name(labels[-1])
        prev_type = graph.type_name(labels[-2])
        specs.append(
            (attr_name, f"{prev_type}.{attr_name}", labels, len(labels) // 2)
        )
    return tuple(specs)


def _typed_path(prefix: Tuple[int, ...], graph: "KnowledgeGraph") -> str:
    """The column's full typed path from the root: ``T1.a1.T2.a2...``."""
    return ".".join(
        graph.attr_name(label) if i % 2 else graph.type_name(label)
        for i, label in enumerate(prefix)
    )


def _disambiguate_headers(
    columns: Sequence[TableColumn], graph: "KnowledgeGraph"
) -> None:
    """Make the headers unique.  Where short names collide, the columns
    take their qualified ``tau(v_{i-1}) alpha(e_i) tau(v_i)`` names; where
    those still collide (the same last hop under different ancestors),
    the full typed path from the root, which the prefix makes unique."""
    for fallback in (
        lambda column: column.qualified_name,
        lambda column: _typed_path(column.prefix, graph),
    ):
        counts: Dict[str, int] = {}
        for column in columns:
            counts[column.header] = counts.get(column.header, 0) + 1
        if len(counts) == len(columns):
            return
        for column in columns:
            if counts[column.header] > 1:
                column.header = fallback(column)


def _table_plan(
    pattern: TreePattern, graph: "KnowledgeGraph"
) -> Tuple[List[TableColumn], List[List[int]]]:
    """The deduplicated columns of a tree pattern, and what feeds them.

    Merges the paths' column specs by pattern prefix: a column is created
    the first time its prefix is seen.  A row's nodes, laid end to end in
    path order, have fixed positions under the pattern, so the second
    list holds, per column, the positions of every node feeding it.
    """
    memo = path_specs_memo(graph)
    columns: List[TableColumn] = []
    sources: List[List[int]] = []
    seen: Dict[Tuple[int, ...], int] = {}
    headers = set()
    position = 0
    for path in pattern.paths:
        path_specs = memo.get(path.labels)
        if path_specs is None:
            path_specs = memo[path.labels] = _path_specs(path, graph)
        for header, qualified, prefix, depth in path_specs:
            index = seen.get(prefix)
            if index is None:
                seen[prefix] = len(columns)
                columns.append(TableColumn(header, qualified, prefix, depth))
                sources.append([position])
                headers.add(header)
            else:
                sources[index].append(position)
            position += 1
    if len(headers) < len(columns):
        _disambiguate_headers(columns, graph)
    return columns, sources


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

    A column fed by one node takes its text; one fed by several (paths
    sharing a prefix) holds each distinct text once, and is flagged
    ``multivalued`` when some row binds it to more than one.
    """
    columns, sources = _table_plan(pattern, graph)
    node_text = graph.node_text
    firsts = [column_sources[0] for column_sources in sources]
    # Every path of a subtree starts at its root, so only deeper columns
    # fed by several paths can differ between them.
    shared = [
        (index, column_sources)
        for index, column_sources in enumerate(sources)
        if len(column_sources) > 1 and columns[index].depth
    ]
    answer = TableAnswer(
        pattern=pattern, columns=columns, score=score, total_rows=total_rows
    )
    for chains in rows:
        nodes = [node for path_nodes in chains for node in path_nodes]
        row = [node_text(nodes[position]) for position in firsts]
        for index, column_sources in shared:
            head = nodes[column_sources[0]]
            for position in column_sources:
                if nodes[position] != head:
                    break
            else:
                continue
            values: List[str] = []
            for position in column_sources:
                value = node_text(nodes[position])
                if value not in values:
                    values.append(value)
            if len(values) > 1:
                columns[index].multivalued = True
                row[index] = " | ".join(values)
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

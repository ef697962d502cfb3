"""Rendering a tree pattern and its subtrees as a table answer (§2.2.2).

Each valid subtree becomes a row.  For each keyword path
``v1 e1 v2 ... vl`` the paper creates ``l`` columns named ``tau(v1)``,
``tau(v1) alpha(e1) tau(v2)``, ..., deduplicating columns when an edge
appears in more than one root-to-leaf path.  We key columns by their
*pattern prefix* — the typed path from the root down to the column's node —
which realizes that dedup rule uniformly across rows.  A path pattern
alone fixes its column specs and a tree pattern alone fixes its table's
columns, so both are worked out once per pattern and graph: a tree
pattern's *plan* (its deduplicated, header-disambiguated columns and the
row positions that feed each) is shared by every table of that pattern,
and rendering a table only builds its rows.

Corner case the paper glosses over: two keyword paths can share a pattern
prefix while binding different nodes in some row (the pattern cannot see
where paths diverge).  Such cells hold multiple values; we render them
joined with `` | `` and flag the column as ``multivalued``.  The flag
is copied on write: plan columns are immutable, and a table that finds
such a cell swaps a flagged copy into its own column list, so no table
sees another's flag.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True, slots=True)
class TableColumn:
    """One column of a table answer.

    ``header`` is the short display name (the attribute name for non-root
    columns, mirroring Figure 3's "Genre"/"Revenue" headers).
    ``qualified_name`` is the paper's unambiguous
    ``tau(v_{i-1}) alpha(e_i) tau(v_i)`` naming.  ``prefix`` is the interned
    pattern-prefix key (tuple of alternating type/attr ids).  Immutable:
    every table of a tree pattern shares its plan's columns.
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


#: A tree pattern's table less its rows: the columns; per column, the row
#: position of its first node; and ``(column, positions)`` for each column
#: below the root that several paths feed.
TablePlan = Tuple[
    Tuple[TableColumn, ...],
    Tuple[int, ...],
    Tuple[Tuple[int, Tuple[int, ...]], ...],
]
#: One graph's table plans, by the tree pattern's path labels.
TablePlans = Dict[Tuple[Tuple[int, ...], ...], TablePlan]
#: What a path pattern contributes to every table it appears in: one
#: column per node position, under its short header.
PathSpecs = Dict[Tuple[int, ...], Tuple[TableColumn, ...]]


#: Column specs (the columns under their short headers) of every path
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


#: The most tree patterns whose plans one graph keeps; past it the oldest
#: plan goes.  Unlike path patterns, tree patterns are combinations, so
#: their number has no natural cap (a benchmark pass over wiki-800 renders
#: 1 734 light and 4 606 heavy ones).
MAX_TABLE_PLANS = 8192

#: Table plans of the tree patterns rendered so far, per graph, keyed by
#: the patterns' path labels.  Under the rules of ``_PATH_SPECS``: keyed
#: weakly by the graph, filled on first render, shared by snapshots,
#: inherited by forked workers, right as the graph grows.  No lock: the
#: dict's insertion order is its age, and a thread that finds it past
#: the bound evicts the oldest entries itself.
_TABLE_PLANS: "weakref.WeakKeyDictionary[KnowledgeGraph, TablePlans]" = (
    weakref.WeakKeyDictionary()
)


def table_plans_memo(graph: "KnowledgeGraph") -> TablePlans:
    """``graph``'s table plans by tree-pattern labels (made empty on
    first use)."""
    memo = _TABLE_PLANS.get(graph)
    if memo is None:
        memo = _TABLE_PLANS.setdefault(graph, {})
    return memo


def _path_specs(
    path: PathPattern, graph: "KnowledgeGraph"
) -> Tuple[TableColumn, ...]:
    """One column per node position of ``path``, root first.

    Node positions are prefix lengths 1, 3, 5, ... of the labels; an
    edge-matched path adds its terminal target, keyed by the full labels
    (they end with the matched attribute, so they name that edge's
    column uniquely).
    """
    labels = path.labels
    specs: List[TableColumn] = []
    for depth, plen in enumerate(range(1, len(labels) + 1, 2)):
        type_name = graph.type_name(labels[plen - 1])
        if depth == 0:
            header = qualified = type_name
        else:
            attr_name = graph.attr_name(labels[plen - 2])
            prev_type = graph.type_name(labels[plen - 3])
            header = type_name if type_name else attr_name
            qualified = f"{prev_type}.{attr_name}.{type_name}"
        specs.append(TableColumn(header, qualified, labels[:plen], depth))
    if path.ends_at_edge:
        attr_name = graph.attr_name(labels[-1])
        prev_type = graph.type_name(labels[-2])
        specs.append(TableColumn(
            attr_name, f"{prev_type}.{attr_name}", labels, len(labels) // 2
        ))
    return tuple(specs)


def _typed_path(prefix: Tuple[int, ...], graph: "KnowledgeGraph") -> str:
    """The column's full typed path from the root: ``T1.a1.T2.a2...``."""
    return ".".join(
        graph.attr_name(label) if i % 2 else graph.type_name(label)
        for i, label in enumerate(prefix)
    )


def _disambiguate_headers(
    columns: List[TableColumn], graph: "KnowledgeGraph"
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
        for index, column in enumerate(columns):
            if counts[column.header] > 1:
                columns[index] = replace(column, header=fallback(column))


def _table_plan(pattern: TreePattern, graph: "KnowledgeGraph") -> TablePlan:
    """The deduplicated columns of a tree pattern, and what feeds them.

    Merges the paths' column specs by pattern prefix: a column is created
    the first time its prefix is seen.  A row's nodes, laid end to end in
    path order, have fixed positions under the pattern, so each column
    takes the position of its first node, and a column below the root
    fed by several paths all of its positions (every path of a subtree
    starts at its root, so only deeper columns can differ between paths).
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
        for column in path_specs:
            index = seen.get(column.prefix)
            if index is None:
                seen[column.prefix] = len(columns)
                columns.append(column)
                sources.append([position])
                headers.add(column.header)
            else:
                sources[index].append(position)
            position += 1
    if len(headers) < len(columns):
        _disambiguate_headers(columns, graph)
    return (
        tuple(columns),
        tuple(column_sources[0] for column_sources in sources),
        tuple(
            (index, tuple(column_sources))
            for index, column_sources in enumerate(sources)
            if len(column_sources) > 1 and columns[index].depth
        ),
    )


def table_plan(pattern: TreePattern, graph: "KnowledgeGraph") -> TablePlan:
    """``pattern``'s plan over ``graph``, worked out on its first render."""
    memo = table_plans_memo(graph)
    key = tuple([path.labels for path in pattern.paths])
    plan = memo.get(key)
    if plan is None:
        plan = memo.setdefault(key, _table_plan(pattern, graph))
        while len(memo) > MAX_TABLE_PLANS:
            try:
                memo.pop(next(iter(memo)), None)
            except RuntimeError:  # another thread changed it meanwhile
                pass
    return plan


def compose_rows(
    pattern: TreePattern,
    rows: Iterable[Sequence[NodeId]],
    graph: "KnowledgeGraph",
    score: float = 0.0,
    total_rows: Optional[int] = None,
) -> TableAnswer:
    """Build the :class:`TableAnswer` for ``pattern`` from node rows.

    The one row composer.  Each of ``rows`` is a valid subtree of
    ``pattern`` in its barest form: its keyword paths end to end, in
    pattern order, each as the node ids from the root down (an edge
    match's target included) — what the store's node column holds
    (:meth:`~repro.index.store.PostingStore.row_nodes`), so rows render
    with no subtree object or per-path tuple in between.  Rows appear in
    input order; ``total_rows`` is recorded when the caller passes only
    the first few.

    A column fed by one node takes its text; one fed by several (paths
    sharing a prefix) holds each distinct text once, and is flagged
    ``multivalued`` when some row binds it to more than one — in this
    table's column list only, where a flagged copy replaces the plan's
    shared column.
    """
    plan_columns, firsts, shared = table_plan(pattern, graph)
    node_text = graph.node_text
    columns = list(plan_columns)
    answer = TableAnswer(
        pattern=pattern, columns=columns, score=score, total_rows=total_rows
    )
    table_rows = answer.rows
    for nodes in rows:
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
                column = columns[index]
                if not column.multivalued:
                    columns[index] = replace(column, multivalued=True)
                row[index] = " | ".join(values)
        table_rows.append(row)
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
        (
            [node for path in subtree.paths for node in path.nodes]
            for subtree in subtrees
        ),
        graph,
        score=score,
    )

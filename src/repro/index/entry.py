"""The path entry: the materialized view of one stored path posting.

One entry materializes one root-to-keyword path (Section 3): the node chain
from the root, the attribute ids of its edges, whether the keyword matched
the final edge rather than the final node, and the precomputed score terms
(PageRank of the matched node and keyword similarity; the path size is the
length of the node chain).

Since the columnar-store refactor, entries are *flyweights*: the physical
path columns live once in :class:`~repro.index.store.PostingStore`, the
search loops read ``(path_id, sim)`` pairs, and a ``PathEntry`` is
reconstructed only when a caller asks for entries.  Being a ``NamedTuple``, equality and hashing are by
value, so reconstructed entries behave exactly like the originals in sets,
dict keys, and comparisons.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from repro.core.subtree import MatchPath, ValidSubtree
from repro.core.types import AttrId, NodeId
from repro.scoring.components import PathComponents


class PathEntry(NamedTuple):
    """A materialized path posting.

    ``nodes`` includes, for edge matches, the matched edge's target as its
    last element (the unified representation of
    :class:`repro.core.subtree.MatchPath`).
    """

    nodes: Tuple[NodeId, ...]
    attrs: Tuple[AttrId, ...]
    matched_on_edge: bool
    pr: float
    sim: float

    @property
    def root(self) -> NodeId:
        return self.nodes[0]

    @property
    def size(self) -> int:
        """|T(w)| — number of nodes on the path."""
        return len(self.nodes)

    def physical_key(
        self,
    ) -> Tuple[Tuple[NodeId, ...], Tuple[AttrId, ...], bool]:
        """The path-interning identity: everything except the score terms.

        Two postings with equal physical keys share one stored path in the
        columnar store (they may still carry different ``sim`` terms for
        different keywords).
        """
        return (self.nodes, self.attrs, self.matched_on_edge)

    def components(self) -> PathComponents:
        return PathComponents(size=len(self.nodes), pr=self.pr, sim=self.sim)

    def to_match_path(self) -> MatchPath:
        return MatchPath(
            nodes=self.nodes,
            attrs=self.attrs,
            matched_on_edge=self.matched_on_edge,
        )


def chains_form_tree(
    chains: Sequence[Tuple[Tuple[NodeId, ...], Tuple[AttrId, ...]]],
) -> bool:
    """Tree-validity check for root-joined paths given as bare
    ``(nodes, attrs)`` chains — the store's path columns, or entries.

    Equivalent to :func:`repro.core.subtree.combine_paths` returning
    non-None, but avoids allocating :class:`MatchPath`/:class:`ValidSubtree`
    objects: a combination is a tree iff no node acquires two distinct
    parent edges and no edge re-enters the root.
    """
    root = chains[0][0][0]
    parent: Dict[NodeId, Tuple[NodeId, AttrId]] = {}
    for nodes, attrs in chains:
        if nodes[0] != root:
            return False
        for i, attr in enumerate(attrs):
            child = nodes[i + 1]
            if child == root:
                return False
            edge = (nodes[i], attr)
            existing = parent.get(child)
            if existing is None:
                parent[child] = edge
            elif existing != edge:
                return False
    return True


def entries_form_tree(entries: Sequence[PathEntry]) -> bool:
    """:func:`chains_form_tree` over a root-joined entry combination."""
    return chains_form_tree([(entry.nodes, entry.attrs) for entry in entries])


def subtree_from_entries(
    entries: Sequence[PathEntry],
) -> Optional[ValidSubtree]:
    """Materialize a :class:`ValidSubtree` from a valid entry combination.

    Returns ``None`` when the combination is not a tree (mirrors
    :func:`entries_form_tree`).
    """
    if not entries or not entries_form_tree(entries):
        return None
    return ValidSubtree(tuple(entry.to_match_path() for entry in entries))


def combination_score_terms(
    entries: Sequence[PathEntry],
) -> Tuple[int, float, float]:
    """Summed (size, pr, sim) across a subtree's entries (Equations 4-6)."""
    size = 0
    pr = 0.0
    sim = 0.0
    for entry in entries:
        size += len(entry.nodes)
        pr += entry.pr
        sim += entry.sim
    return size, pr, sim

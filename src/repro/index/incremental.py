"""Incremental index maintenance: grow the graph without a full rebuild.

The paper treats index construction as offline (Figure 6: minutes to hours)
and says nothing about updates, but a deployed knowledge base grows.  This
module adds entities and relationships to an existing
:class:`~repro.index.builder.PathIndexes` bundle in time proportional to
the *new* paths only:

* a new node contributes its singleton paths immediately;
* a new edge ``u -a-> v`` contributes exactly the bounded simple paths that
  traverse it — enumerated as (reverse simple paths ending at ``u``) x
  (forward simple paths starting at ``v``), node-disjoint, total length
  <= d.  Every such path gets its node-match and edge-match postings in
  both indexes, exactly as Algorithm 1 would have produced.

Caveat (documented, asserted in tests): **PageRank staleness**.  Stored
score terms keep the importance scores computed at build time; new nodes
get the teleport floor ``(1-a)/|V|``.  Scores therefore drift from a
from-scratch rebuild as the graph grows — call
:func:`repro.index.builder.build_indexes` to refresh when exactness
matters.  Structure (which patterns exist, which subtrees match) is always
identical to a rebuild, which the equivalence tests verify.

Concurrency: both update functions hold the store's mutation lock for
the whole update, so a concurrent :meth:`PathIndexes.snapshot
<repro.index.builder.PathIndexes.snapshot>` (what
:class:`~repro.search.service.SearchService` serves from) observes
either none or all of an update, never a half-applied one.  Readers on
existing snapshots are unaffected — see ``docs/serving.md``.  Updates
themselves are single-writer: run them from one thread.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import PathIndexError
from repro.core.types import AttrId, NodeId
from repro.index.builder import PathIndexes
from repro.index.path_enum import (
    interleaved_labels,
    iter_paths_from,
    iter_reverse_paths_to,
)


def add_entity(
    indexes: PathIndexes,
    type_name: str,
    text: str,
    is_entity: bool = True,
    pagerank: Optional[float] = None,
) -> NodeId:
    """Add a node to the graph and index its singleton paths.

    Returns the new node id.  ``pagerank`` defaults to the teleport floor
    ``0.15 / |V|`` (the rank of an unreferenced node).
    """
    graph = indexes.graph
    # One lock span for the whole update — graph, PageRank vector,
    # lexicon, store — so a concurrent snapshot observes none or all of
    # it (the none-or-all contract in the module docstring).
    with indexes.store.lock:
        node = graph.add_node(type_name, text, is_entity)
        if pagerank is None:
            pagerank = 0.15 / graph.num_nodes
        indexes.pagerank_scores.append(pagerank)
        word_sims = indexes.lexicon.register_node(node)

        if word_sims:
            labels = (graph.node_type(node),)
            pid = indexes.interner.intern(labels, ends_at_edge=False)
            path_id = indexes.store.add_path(
                (node,), (), False, pid, pagerank
            )
            for word, sim in word_sims:
                indexes.store.add_posting(word, path_id, sim)
            indexes.store.finalize()
    return node


def add_relationship(
    indexes: PathIndexes,
    source: NodeId,
    attr_name: str,
    target: NodeId,
) -> int:
    """Add edge ``source -attr-> target`` and index every new path.

    Returns the number of new path postings inserted.  Both endpoints must
    already exist (add them with :func:`add_entity` first).
    """
    graph = indexes.graph
    n = graph.num_nodes
    if not (0 <= source < n and 0 <= target < n):
        raise PathIndexError(
            f"edge endpoints ({source}, {target}) must be existing nodes"
        )
    d = indexes.d
    lexicon = indexes.lexicon
    ranks = indexes.pagerank_scores
    interner = indexes.interner
    store = indexes.store
    added = 0

    # All new bounded simple paths traverse the new edge exactly once and
    # decompose uniquely as prefix(root..source) + edge + suffix(target..).
    # The whole update — graph edge, lexicon, path enumeration, postings,
    # finalize — applies under one lock span: a concurrent snapshot sees
    # the index before or after this edge, never partway through.  (The
    # baseline's online graph walks are outside this protection; see the
    # baseline caveat in docs/serving.md.)
    with store.lock:
        attr = graph.intern_attr(attr_name)
        indexes.lexicon.register_attrs()
        graph.add_edge_typed(source, attr, target)
        prefixes = (
            list(iter_reverse_paths_to(graph, source, d - 1))
            if d >= 2 else []
        )
        suffixes = (
            list(iter_paths_from(graph, target, d - 1)) if d >= 2 else []
        )
        for prefix_nodes, prefix_attrs in prefixes:
            prefix_set = set(prefix_nodes)
            for suffix_nodes, suffix_attrs in suffixes:
                if len(prefix_nodes) + len(suffix_nodes) > d:
                    continue
                if prefix_set & set(suffix_nodes):
                    continue  # would repeat a node: not a simple path
                nodes = prefix_nodes + suffix_nodes
                attrs = prefix_attrs + (attr,) + suffix_attrs
                labels = interleaved_labels(graph, nodes, attrs)
                endpoint = nodes[-1]
                node_word_sims = lexicon.node_matches(endpoint)
                if node_word_sims:
                    pid = interner.intern(labels, ends_at_edge=False)
                    pr = ranks[endpoint]
                    path_id = store.add_path(nodes, attrs, False, pid, pr)
                    for word, sim in node_word_sims:
                        store.add_posting(word, path_id, sim)
                        added += 1
                attr_word_sims = lexicon.attr_matches(attrs[-1])
                if attr_word_sims:
                    pid = interner.intern(labels[:-1], ends_at_edge=True)
                    pr = ranks[nodes[-2]]
                    path_id = store.add_path(nodes, attrs, True, pid, pr)
                    for word, sim in attr_word_sims:
                        store.add_posting(word, path_id, sim)
                        added += 1
        if added:
            store.finalize()
    return added

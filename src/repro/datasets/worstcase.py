"""Adversarial graphs from the paper's complexity discussions.

* :func:`pattern_enum_adversarial_graph` — the Section 4.1 worst case for
  PATTERNENUM: two roots of the same type fan out to disjoint keyword sets,
  so all p^2 (p^m in general) combined tree patterns are empty.  The
  paper's PETopK burns Theta(p^m) set intersections; this one still
  counts the Theta(p^m) empty combinations, but walks from the type's
  candidate roots, of which there are none, so it intersects nothing.
  LETopK sees zero candidate roots and finishes immediately.  Used by
  tests and the ablation bench.

* :func:`star_graph` — a root with f children sharing one keyword; gives a
  controllable number of valid subtrees (f per extra keyword occurrence)
  for sampling experiments.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.errors import GraphError
from repro.kg.graph import KnowledgeGraph

WORD_LEFT = "leftword"
WORD_RIGHT = "rightword"


def pattern_enum_adversarial_graph(p: int) -> Tuple[KnowledgeGraph, str]:
    """The Section 4.1 graph: returns (graph, two-keyword query).

    Structure: roots ``r1``, ``r2`` share type ``C``.  ``r1`` points to
    ``p`` children of *distinct* types C1..Cp through distinct attributes
    A1..Ap, each child's text containing ``leftword``; ``r2`` points to
    another ``p`` children of types C(p+1)..C(2p) through attributes
    A(p+1)..A(2p), each containing ``rightword``.  Every combination
    (C Ai Ci, C Aj Cj) is a syntactically plausible tree pattern, and every
    single one is empty.
    """
    if p < 1:
        raise GraphError(f"p must be >= 1, got {p}")
    graph = KnowledgeGraph()
    r1 = graph.add_node("C", "rootone")
    r2 = graph.add_node("C", "roottwo")
    for i in range(p):
        child = graph.add_node(f"C{i + 1}", f"{WORD_LEFT} item{i + 1}")
        graph.add_edge(r1, f"A{i + 1}", child)
    for i in range(p, 2 * p):
        child = graph.add_node(f"C{i + 1}", f"{WORD_RIGHT} item{i + 1}")
        graph.add_edge(r2, f"A{i + 1}", child)
    return graph, f"{WORD_LEFT} {WORD_RIGHT}"


def star_graph(
    fanout: int, shared_word: str = "leaf", root_word: str = "hub"
) -> Tuple[KnowledgeGraph, str]:
    """A hub with ``fanout`` same-typed children all containing one word.

    The query ``"hub leaf"`` has exactly one tree pattern with ``fanout``
    valid subtrees — a controllable subtree count for sampling tests.
    """
    if fanout < 1:
        raise GraphError(f"fanout must be >= 1, got {fanout}")
    graph = KnowledgeGraph()
    root = graph.add_node("Hub", root_word)
    for i in range(fanout):
        child = graph.add_node("Leaf", f"{shared_word} number{i + 1}")
        graph.add_edge(root, "Link", child)
    return graph, f"{root_word} {shared_word}"


def diamond_graph() -> Tuple[KnowledgeGraph, str]:
    """Two same-typed paths converging on one node (tree-check exercise).

    Both query words match only the shared leaf, and the root reaches that
    leaf through two same-typed intermediates.  A combination assigning the
    two keywords paths through *different* intermediates gives the leaf two
    parents — not a tree — and must be rejected, while the combinations
    through a single intermediate are valid subtrees.
    """
    graph = KnowledgeGraph()
    root = graph.add_node("Root", "origin")
    mid_a = graph.add_node("Mid", "alpha")
    mid_b = graph.add_node("Mid", "beta")
    leaf = graph.add_node("Leaf", "prize trophy")
    graph.add_edge(root, "Via", mid_a)
    graph.add_edge(root, "Via", mid_b)
    graph.add_edge(mid_a, "Holds", leaf)
    graph.add_edge(mid_b, "Holds", leaf)
    return graph, "prize trophy"

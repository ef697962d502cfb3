"""Property tests: the path indexes are sound and complete.

Soundness: every stored entry is a real simple path of the graph whose
endpoint (or final attribute) contains the indexed word, with correct
precomputed score terms.  Completeness: every bounded simple path from any
root to any keyword occurrence appears in both indexes.

The columnar-store tests additionally compare the deduplicated
:class:`~repro.index.store.PostingStore` against a naive dict-of-lists
reference build of Algorithm 1: both must yield the exact same posting
*multiset* and the same ``|Paths(w, r)|`` counts, while the store keys
each physical path exactly once.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.index.builder import build_indexes
from repro.index.path_enum import interleaved_labels, iter_paths_from
from repro.kg.graph import KnowledgeGraph

WORDS = ["ruby", "topaz", "opal"]
TYPES = ["TA", "TB"]
ATTRS = ["ra", "rb"]


@st.composite
def graphs(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=6))
    graph = KnowledgeGraph()
    for _ in range(num_nodes):
        node_type = draw(st.sampled_from(TYPES))
        text = " ".join(
            draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=2,
                          unique=True))
        )
        graph.add_node(node_type, text)
    possible = [
        (u, v, a)
        for u in range(num_nodes)
        for v in range(num_nodes)
        if u != v
        for a in ATTRS
    ]
    for u, v, a in draw(
        st.lists(st.sampled_from(possible), max_size=10, unique=True)
    ) if possible else []:
        graph.add_edge(u, a, v)
    return graph


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs(), st.integers(min_value=1, max_value=3))
def test_soundness(graph, d):
    """Every entry is a real path matching its word, with correct terms."""
    indexes = build_indexes(graph, d=d)
    lexicon = indexes.lexicon
    for word, pid, entry in indexes.root_first.iter_entries():
        # Path is a real chain of edges.
        for i, attr in enumerate(entry.attrs):
            assert graph.has_edge(entry.nodes[i], attr, entry.nodes[i + 1])
        # Simple and bounded.
        assert len(set(entry.nodes)) == len(entry.nodes)
        assert len(entry.nodes) <= d
        # The word occurs where claimed, with the lexicon's similarity.
        if entry.matched_on_edge:
            assert lexicon.attr_sim(entry.attrs[-1], word) == entry.sim
            assert entry.pr == indexes.pagerank_scores[entry.nodes[-2]]
        else:
            assert lexicon.node_sim(entry.nodes[-1], word) == entry.sim
            assert entry.pr == indexes.pagerank_scores[entry.nodes[-1]]
        # The interned pattern matches the path's labels.
        pattern = indexes.interner.pattern(pid)
        full = interleaved_labels(graph, entry.nodes, entry.attrs)
        if entry.matched_on_edge:
            assert pattern.labels == full[:-1]
            assert pattern.ends_at_edge
        else:
            assert pattern.labels == full
            assert not pattern.ends_at_edge


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs(), st.integers(min_value=1, max_value=3))
def test_completeness(graph, d):
    """Every bounded path to a keyword occurrence is indexed (both ways)."""
    indexes = build_indexes(graph, d=d)
    lexicon = indexes.lexicon
    expected = set()  # (word, nodes, attrs, matched_on_edge)
    for root in graph.nodes():
        for nodes, attrs in iter_paths_from(graph, root, d):
            for word, _sim in lexicon.node_matches(nodes[-1]):
                expected.add((word, nodes, attrs, False))
            if attrs:
                for word, _sim in lexicon.attr_matches(attrs[-1]):
                    expected.add((word, nodes, attrs, True))
    stored_rf = {
        (word, entry.nodes, entry.attrs, entry.matched_on_edge)
        for word, _pid, entry in indexes.root_first.iter_entries()
    }
    stored_pf = {
        (word, entry.nodes, entry.attrs, entry.matched_on_edge)
        for word, _pid, entry in indexes.pattern_first.iter_entries()
    }
    assert stored_rf == expected
    assert stored_pf == expected


@settings(max_examples=20, deadline=None)
@given(graphs())
def test_path_counts_consistent(graph):
    """|Paths(w, r)| equals the number of stored (w, r) entries."""
    indexes = build_indexes(graph, d=3)
    root_first = indexes.root_first
    for word in list(root_first.words()):
        for root in list(root_first.roots(word)):
            assert root_first.path_count(word, root) == sum(
                1 for _ in root_first.paths(word, root)
            )


def naive_reference_build(graph, d, lexicon, pagerank_scores, interner):
    """Algorithm 1 as a plain dict-of-lists build — no store, no dedup.

    Returns (posting multiset, path-count dict, physical path set) where a
    posting is the full (word, pid, nodes, attrs, matched_on_edge, pr, sim)
    tuple, path counts are per (word, root), and the physical set holds
    distinct (nodes, attrs, matched_on_edge) triples.
    """
    postings = Counter()
    path_counts = Counter()
    physical = set()
    for root in graph.nodes():
        for nodes, attrs in iter_paths_from(graph, root, d):
            labels = interleaved_labels(graph, nodes, attrs)
            endpoint = nodes[-1]
            node_word_sims = lexicon.node_matches(endpoint)
            if node_word_sims:
                pid = interner.intern(labels, ends_at_edge=False)
                pr = pagerank_scores[endpoint]
                physical.add((nodes, attrs, False))
                for word, sim in node_word_sims:
                    postings[(word, pid, nodes, attrs, False, pr, sim)] += 1
                    path_counts[(word, root)] += 1
            if attrs:
                attr_word_sims = lexicon.attr_matches(attrs[-1])
                if attr_word_sims:
                    pid = interner.intern(labels[:-1], ends_at_edge=True)
                    pr = pagerank_scores[nodes[-2]]
                    physical.add((nodes, attrs, True))
                    for word, sim in attr_word_sims:
                        postings[
                            (word, pid, nodes, attrs, True, pr, sim)
                        ] += 1
                        path_counts[(word, root)] += 1
    return postings, path_counts, physical


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs(), st.integers(min_value=1, max_value=3))
def test_store_matches_naive_reference(graph, d):
    """The columnar store equals a naive dict-of-lists build exactly.

    Same posting multiset through both index views, same |Paths(w, r)|
    counts, and exactly one interned path per distinct physical path.
    """
    indexes = build_indexes(graph, d=d)
    reference, ref_counts, physical = naive_reference_build(
        graph, d, indexes.lexicon, indexes.pagerank_scores, indexes.interner
    )

    def observed(index) -> Counter:
        multiset = Counter()
        for word, pid, entry in index.iter_entries():
            multiset[
                (
                    word,
                    pid,
                    entry.nodes,
                    entry.attrs,
                    entry.matched_on_edge,
                    entry.pr,
                    entry.sim,
                )
            ] += 1
        return multiset

    assert observed(indexes.root_first) == reference
    assert observed(indexes.pattern_first) == reference

    # |Paths(w, r)| counts match the reference for every probed pair —
    # including pairs the reference never saw (count 0).
    root_first = indexes.root_first
    for word in list(root_first.words()):
        for root in list(root_first.roots(word)):
            assert root_first.path_count(word, root) == ref_counts[
                (word, root)
            ]
    for (word, root), count in ref_counts.items():
        assert root_first.path_count(word, root) == count

    # Deduplication: exactly one stored path per physical path, and the
    # posting/path accounting lines up.
    store = indexes.store
    assert store.num_paths == len(physical)
    assert store.num_postings() == sum(reference.values())
    for path_id in range(store.num_paths):
        key = (
            store.path_nodes(path_id),
            store.path_attrs(path_id),
            store.path_matched_on_edge(path_id),
        )
        assert key in physical


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs(), st.integers(min_value=1, max_value=3))
def test_store_native_variants_agree(graph, d):
    """form_tree/score_terms on ids agree with the PathEntry versions."""
    from itertools import product

    from repro.index.entry import combination_score_terms, entries_form_tree

    indexes = build_indexes(graph, d=d)
    store = indexes.store
    root_first = indexes.root_first
    words = sorted(root_first.words())[:2]
    if len(words) < 2:
        return
    maps = [root_first.roots(word) for word in words]
    shared = set(maps[0]) & set(maps[1])
    for root in sorted(shared):
        lists = [root_first.pattern_map(word, root) for word in words]
        for by_pattern in product(*(sorted(m) for m in lists)):
            leaves = [m[pid] for m, pid in zip(lists, by_pattern)]
            id_columns = [[pair[0] for pair in leaf] for leaf in leaves]
            sim_columns = [[pair[1] for pair in leaf] for leaf in leaves]
            plists = [
                root_first.paths_with_pattern(word, root, pid)
                for word, pid in zip(words, by_pattern)
            ]
            for combo_idx in product(*(range(len(p)) for p in plists)):
                path_ids = [
                    column[i] for column, i in zip(id_columns, combo_idx)
                ]
                sims = [
                    column[i] for column, i in zip(sim_columns, combo_idx)
                ]
                entries = [plist[i] for plist, i in zip(plists, combo_idx)]
                assert store.form_tree(path_ids) == entries_form_tree(
                    entries
                )
                assert store.score_terms(
                    path_ids, sims
                ) == combination_score_terms(entries)

"""Rows render from the store's path columns, only the rows asked for.

The contract is differential: ``PatternAnswer.to_table(graph, n)`` must
equal, cell for cell and ``multivalued`` flag for flag, the route it
replaced — materialize every kept subtree into ``ValidSubtree`` objects,
cut to ``n``, compose — on every path that serves rows: heap, mapped
(overlay and compacted), sharded, pooled, pooled x sharded and the batch
fork.  That route is frozen below so the renderer is never its own
oracle; a second oracle, which states the header rule itself, checks
random graphs.  On top sit the count contracts (no entry materialized,
at most ``n`` combos read), the column-spec memo (bounded, lazy, shared
by snapshots, outside the saved graph), the tree check hand-built
combos keep and kept combos skip, and the portable form kept subtrees
take across a worker pipe.
"""

from __future__ import annotations

import ast
import pickle
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.pattern import PathPattern, TreePattern
from repro.core.subtree import MatchPath
from repro.core.table import path_specs_memo
from repro.datasets.example import EXAMPLE_NORMALIZER, example_graph_with_nodes
from repro.datasets.imdb import ImdbConfig, generate_imdb_graph
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import build_indexes
from repro.index.entry import PathEntry
from repro.index.incremental import add_entity
from repro.index.interner import PatternInterner
from repro.index.mmapstore import MappedPostingStore
from repro.index.serialize import load_indexes, save_indexes
from repro.index.shards import ShardedIndexes
from repro.index.store import PostingStore
from repro.kg.graph import KnowledgeGraph
from repro.kg.pagerank import uniform_scores
from repro.search.engine import TableAnswerEngine
from repro.search.result import ComboRef, KeptCombo, PatternAnswer
from repro.search.service import SearchService
from repro.search.sharding import ShardedSearchService, execute_shard_plan
from repro.serve.pool import PooledSearchService, _execute_portable

ALGORITHMS = ("pattern_enum", "linear_topk", "linear_full", "baseline")
LIMITS = (None, 0, 1, 10)

EXAMPLE_QUERIES = (
    "database software company revenue",  # Figure 3; "revenue" is an edge
    "software company",
    "database",  # one keyword
)
#: Over the session's seeded wiki graph: one keyword with edge-matched
#: terminals, one keyword on nodes, two and three keywords, and the one
#: two-keyword query of this graph with a multi-valued cell.
WIKI_QUERIES = (
    "parar",
    "cosob",
    "tedeb ceciti",
    "curela lemacu",
    "curela susogo parar",
    "domasa funita roroca",
)


# ------------------------------------------------------- the frozen route


def frozen_compose(pattern, subtrees, graph):
    """``compose_table`` as it was before rows rendered from path
    columns: ``(columns, rows)`` with columns as ``(header, qualified
    name, prefix, depth, multivalued)`` tuples."""
    columns, seen = [], {}
    for path in pattern.paths:
        labels = path.labels
        for depth, plen in enumerate(range(1, len(labels) + 1, 2)):
            prefix = labels[:plen]
            if prefix in seen:
                continue
            seen[prefix] = len(columns)
            type_name = graph.type_name(labels[plen - 1])
            if depth == 0:
                header = qualified = type_name
            else:
                attr_name = graph.attr_name(labels[plen - 2])
                prev_type = graph.type_name(labels[plen - 3])
                header = type_name if type_name else attr_name
                qualified = f"{prev_type}.{attr_name}.{type_name}"
            columns.append([header, qualified, prefix, depth, False])
        if path.ends_at_edge and labels not in seen:
            seen[labels] = len(columns)
            attr_name = graph.attr_name(labels[-1])
            prev_type = graph.type_name(labels[-2])
            columns.append(
                [attr_name, f"{prev_type}.{attr_name}", labels,
                 len(labels) // 2, False]
            )
    counts = {}
    for column in columns:
        counts[column[0]] = counts.get(column[0], 0) + 1
    for column in columns:
        if counts[column[0]] > 1:
            column[0] = column[1]
    rows = []
    for subtree in subtrees:
        cells = [[] for _ in columns]
        for path, path_pattern in zip(subtree.paths, pattern.paths):
            labels = path_pattern.labels
            for depth, node in enumerate(path.nodes):
                if path.matched_on_edge and depth == len(path.nodes) - 1:
                    prefix = labels
                else:
                    prefix = labels[: 2 * depth + 1]
                value = graph.node_text(node)
                if value not in cells[seen[prefix]]:
                    cells[seen[prefix]].append(value)
        for column, values in zip(columns, cells):
            if len(values) > 1:
                column[4] = True
        rows.append([" | ".join(values) for values in cells])
    return [tuple(column) for column in columns], rows


def assert_renders_like_frozen(result, graph):
    """Every answer, every limit; returns the tables rendered whole."""
    whole = []
    for answer in result.answers:
        trees = answer.materialize()
        for limit in LIMITS:
            table = answer.to_table(graph, limit)
            columns, rows = frozen_compose(
                answer.pattern,
                trees if limit is None else trees[:limit],
                graph,
            )
            assert table.rows == rows
            assert [
                (c.header, c.qualified_name, c.prefix, c.depth, c.multivalued)
                for c in table.columns
            ] == columns
            assert table.score == answer.score
            assert table.total_rows == len(answer.subtrees)
        whole.append(answer.to_table(graph))
    return whole


def column_names(prefix, graph):
    """A column's candidate headers, in the order the header rule tries
    them: short name, qualified name, full typed path from the root."""
    names = [
        graph.attr_name(label) if i % 2 else graph.type_name(label)
        for i, label in enumerate(prefix)
    ]
    if len(prefix) % 2 == 0:  # an edge match's target: named by the edge
        short, qualified = names[-1], ".".join(names[-2:])
    elif len(prefix) == 1:
        short = qualified = names[0]
    else:
        short, qualified = names[-1] or names[-2], ".".join(names[-3:])
    return short, qualified, ".".join(names)


def oracle_compose(pattern, subtrees, graph):
    """Composition from materialized subtrees, stating the header rule:
    every column starts at its short name; each round, the columns whose
    name another column also has move on to their next name; there are
    three names.  Returns ``(columns, rows)`` like
    :func:`frozen_compose`."""
    prefixes = []
    for path in pattern.paths:
        labels = path.labels
        ends = [2 * depth + 1 for depth in range((len(labels) + 1) // 2)]
        for prefix in [labels[:end] for end in ends] + (
            [labels] if path.ends_at_edge else []
        ):
            if prefix not in prefixes:
                prefixes.append(prefix)
    names = [column_names(prefix, graph) for prefix in prefixes]
    level = [0] * len(prefixes)
    for _round in range(2):
        current = [name[at] for name, at in zip(names, level)]
        level = [
            at + (current.count(header) > 1)
            for at, header in zip(level, current)
        ]
    cells_of = []
    for subtree in subtrees:
        cells = {prefix: [] for prefix in prefixes}
        for path, path_pattern in zip(subtree.paths, pattern.paths):
            labels = path_pattern.labels
            for depth, node in enumerate(path.nodes):
                last = depth == len(path.nodes) - 1
                prefix = (
                    labels if path.matched_on_edge and last
                    else labels[: 2 * depth + 1]
                )
                if graph.node_text(node) not in cells[prefix]:
                    cells[prefix].append(graph.node_text(node))
        cells_of.append(cells)
    columns = [
        (
            name[at], name[1], prefix, len(prefix) // 2,
            any(len(cells[prefix]) > 1 for cells in cells_of),
        )
        for name, at, prefix in zip(names, level, prefixes)
    ]
    rows = [
        [" | ".join(cells[prefix]) for prefix in prefixes]
        for cells in cells_of
    ]
    return columns, rows


def combos(result):
    return [list(answer.subtrees) for answer in result.answers]


def fingerprint(result):
    return (
        result.scores(),
        result.pattern_keys(),
        [answer.num_subtrees for answer in result.answers],
        combos(result),
    )


def searches(queries):
    return [
        (query, algorithm) for query in queries for algorithm in ALGORITHMS
    ]


# ------------------------------------------------------------ the backends


def example_bundle():
    graph, _nodes = example_graph_with_nodes()
    return build_indexes(
        graph,
        d=3,
        normalizer=EXAMPLE_NORMALIZER,
        pagerank_scores=uniform_scores(graph),
    )


@pytest.fixture(scope="module")
def example_heap():
    return example_bundle()


@pytest.fixture(scope="module")
def example_oracle(example_heap):
    engine = TableAnswerEngine(example_heap.graph, indexes=example_heap)
    return {
        (query, algorithm): engine.search(query, k=5, algorithm=algorithm)
        for query, algorithm in searches(EXAMPLE_QUERIES)
    }


@pytest.fixture(scope="module")
def wiki_oracle(wiki_indexes):
    engine = TableAnswerEngine(wiki_indexes.graph, indexes=wiki_indexes)
    return {
        (query, algorithm): engine.search(query, k=10, algorithm=algorithm)
        for query, algorithm in searches(WIKI_QUERIES)
    }


def check_service(service, oracle, k):
    """The service's answers carry the oracle's combos and render like
    the frozen route, for every search the oracle holds."""
    graph = service.indexes.graph
    for (query, algorithm), expected in oracle.items():
        result = service.search(query, k=k, algorithm=algorithm)
        assert combos(result) == combos(expected), (query, algorithm)
        assert_renders_like_frozen(result, graph)


class TestDifferentialRenderer:
    def test_heap_example(self, example_oracle, example_heap):
        tables = []
        for result in example_oracle.values():
            assert result.num_answers
            tables += assert_renders_like_frozen(result, example_heap.graph)
        assert any(
            path.ends_at_edge
            for table in tables
            for path in table.pattern.paths
        )

    def test_heap_wiki(self, wiki_oracle, wiki_indexes):
        tables = []
        for result in wiki_oracle.values():
            assert result.num_answers
            tables += assert_renders_like_frozen(result, wiki_indexes.graph)
        # What the query list was chosen to cover.
        assert any(
            path.ends_at_edge
            for table in tables
            for path in table.pattern.paths
        )
        assert any(
            column.multivalued for table in tables for column in table.columns
        )
        assert any(table.num_rows > 10 for table in tables)

    def test_shared_prefix_cell_holds_both_values(self):
        graph = KnowledgeGraph()
        root = graph.add_node("R", "root")
        graph.add_edge(root, "Via", graph.add_node("M", "leftword common"))
        graph.add_edge(root, "Via", graph.add_node("M", "rightword common"))
        indexes = build_indexes(graph, d=2)
        engine = TableAnswerEngine(graph, indexes=indexes)
        for algorithm in ALGORITHMS:
            result = engine.search(
                "leftword rightword", k=5, algorithm=algorithm
            )
            (table,) = assert_renders_like_frozen(result, graph)
            assert [c.multivalued for c in table.columns] == [False, True]
            assert table.rows == [
                ["root", "leftword common | rightword common"]
            ]

    def test_mapped_overlay_and_compacted(self, example_oracle, tmp_path):
        path = tmp_path / "example.idx"
        save_indexes(example_bundle(), path)
        thawed = MappedPostingStore.backed_stores_thawed
        with SearchService.from_file(path) as service:
            assert isinstance(service.indexes.store, MappedPostingStore)
            check_service(service, example_oracle, k=5)
            # Overlay: rows of paths written after the file was mapped.
            twin = example_bundle()
            for indexes in (service.indexes, twin):
                add_entity(indexes, "company", "database software revenue")
            assert service.indexes.store.overlay_postings
            engine = TableAnswerEngine(twin.graph, indexes=twin)
            after = {
                key: engine.search(key[0], k=5, algorithm=key[1])
                for key in example_oracle
            }
            assert any(
                combos(after[key]) != combos(example_oracle[key])
                for key in after
            )
            check_service(service, after, k=5)
            service.compact()
            assert not service.indexes.store.overlay_postings
            check_service(service, after, k=5)
        assert MappedPostingStore.backed_stores_thawed == thawed

    def test_mapped_wiki(self, wiki_oracle, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path)
        with SearchService.from_file(path) as service:
            check_service(service, wiki_oracle, k=10)

    @pytest.mark.parametrize("num_shards", (2, 4))
    def test_sharded(self, wiki_oracle, wiki_indexes, num_shards):
        with ShardedSearchService(
            wiki_indexes, num_shards=num_shards
        ) as service:
            check_service(service, wiki_oracle, k=10)

    @pytest.mark.parametrize("num_shards", (0, 2))
    def test_pooled(self, wiki_oracle, wiki_indexes, num_shards):
        with PooledSearchService(
            wiki_indexes, processes=2, num_shards=num_shards
        ) as service:
            check_service(service, wiki_oracle, k=10)
            # Sampled LETopK does not shard: under --shards its rows
            # come back with the snapshot store's ids, not a shard's.
            sampled = dict(
                algorithm="linear_topk", sampling_threshold=1.0,
                sampling_rate=0.5, seed=11,
            )
            plain = SearchService(wiki_indexes)
            for query in WIKI_QUERIES:
                result = service.search(query, k=10, **sampled)
                expected = plain.search(query, k=10, **sampled)
                assert combos(result) == combos(expected)
                assert_renders_like_frozen(result, wiki_indexes.graph)

    def test_batch_fork(self, wiki_oracle, wiki_indexes):
        # Batch parallelism, as `repro batch --processes 2 [--shards 2]`
        # runs it: two threads keep a two-worker pool busy.
        plain = SearchService(wiki_indexes)
        for num_shards in (0, 2):
            with PooledSearchService(
                wiki_indexes, processes=2, num_shards=num_shards
            ) as service:
                for algorithm in ALGORITHMS:
                    batch = dict(k=10, algorithm=algorithm)
                    results = service.search_many(
                        list(WIKI_QUERIES), threads=2, **batch
                    )
                    inline = plain.search_many(list(WIKI_QUERIES), **batch)
                    assert list(map(fingerprint, results)) == list(
                        map(fingerprint, inline)
                    )
                    for query, result in zip(WIKI_QUERIES, results):
                        assert combos(result) == combos(
                            wiki_oracle[query, algorithm]
                        )
                        assert_renders_like_frozen(
                            result, wiki_indexes.graph
                        )


@st.composite
def random_bundle_and_query(draw):
    """A small seeded wiki- or imdb-like graph, indexed, and a query of
    one to three of its words.  Few types and attributes, so the same
    last hop under different ancestors (the third header rule) and
    prefixes shared by several paths (multi-valued cells) turn up."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        graph = generate_wiki_graph(WikiConfig(
            num_entities=draw(st.integers(min_value=20, max_value=60)),
            num_types=draw(st.integers(min_value=2, max_value=5)),
            num_attrs=draw(st.integers(min_value=2, max_value=6)),
            vocabulary_size=draw(st.integers(min_value=12, max_value=30)),
            seed=seed,
        ))
    else:
        graph = generate_imdb_graph(ImdbConfig(
            num_movies=draw(st.integers(min_value=4, max_value=12)),
            num_people=draw(st.integers(min_value=4, max_value=12)),
            num_companies=2, num_countries=2, num_years=3,
            vocabulary_size=draw(st.integers(min_value=12, max_value=30)),
            seed=seed,
        ))
    d = draw(st.integers(min_value=2, max_value=3))
    indexes = build_indexes(graph, d=d)
    words = sorted(indexes.store.words())
    query = draw(st.lists(
        st.sampled_from(words), min_size=1, max_size=3, unique=True
    ))
    return indexes, " ".join(query)


def assert_renders_like_oracle(indexes, query):
    """Every answer of every algorithm, every limit, against
    :func:`oracle_compose`; returns the tables rendered whole."""
    graph = indexes.graph
    engine = TableAnswerEngine(graph, indexes=indexes)
    whole = []
    for algorithm in ALGORITHMS:
        result = engine.search(query, k=10, algorithm=algorithm)
        for answer in result.answers:
            trees = answer.materialize()
            for limit in (None, 0, 1, 3):
                table = answer.to_table(graph, limit)
                columns, rows = oracle_compose(
                    answer.pattern,
                    trees if limit is None else trees[:limit],
                    graph,
                )
                assert table.rows == rows
                assert [
                    (c.header, c.qualified_name, c.prefix, c.depth,
                     c.multivalued)
                    for c in table.columns
                ] == columns
                assert table.score == answer.score
                assert table.total_rows == len(answer.subtrees)
                headers = table.headers()
                assert len(set(headers)) == len(headers)
                assert all(
                    len(record) == len(headers)
                    for record in table.to_dicts()
                )
            whole.append(table)
    assert len(path_specs_memo(graph)) <= len(indexes.interner)
    return whole


class TestRandomGraphs:
    """``to_table`` against composition from ``materialize()``, with the
    header rule stated by the oracle."""

    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(random_bundle_and_query())
    def test_renders_like_materialized(self, bundle_and_query):
        assert_renders_like_oracle(*bundle_and_query)

    def test_a_fixed_graph_reaches_every_rule(self):
        graph = generate_wiki_graph(WikiConfig(
            num_entities=40, num_types=3, num_attrs=4, vocabulary_size=20,
            seed=0,
        ))
        indexes = build_indexes(graph, d=3)
        tables = assert_renders_like_oracle(indexes, "reponu tapizu")
        assert any(c.multivalued for t in tables for c in t.columns)
        named = [
            (column.header, column_names(column.prefix, graph))
            for table in tables for column in table.columns
        ]
        assert any(
            header == qualified != short
            for header, (short, qualified, _typed) in named
        )
        assert any(
            header == typed != qualified
            for header, (_short, qualified, typed) in named
        )


#: The benchmark's search graph (wiki-800, d=3) and a query one of
#: whose tables has two columns ``Vigopo.Risira deloma.Tapanu`` under
#: different ancestors.
WIKI_800 = WikiConfig(
    num_entities=800, num_types=24, num_attrs=36, vocabulary_size=240,
    seed=23,
)
COLLIDING_QUERY = "basoma salutu moguru loviza gecuva"


class TestHeaderCollisions:
    def test_same_last_hop_under_different_ancestors(self):
        graph = generate_wiki_graph(WIKI_800)
        indexes = build_indexes(graph, d=3)
        engine = TableAnswerEngine(graph, indexes=indexes)
        result = engine.search(COLLIDING_QUERY, k=20, algorithm="linear_topk")
        tables = result.tables(graph, max_rows=3)
        for table in tables:
            headers = table.headers()
            assert len(set(headers)) == len(headers)
            assert all(len(d) == table.num_columns for d in table.to_dicts())
        (table,) = [
            table for table in tables
            if {(3, 20, 7, 19, 8), (3, 2, 7, 19, 8)}
            <= {column.prefix for column in table.columns}
        ]
        by_prefix = {column.prefix: column for column in table.columns}
        for prefix, header in (
            ((3, 20, 7, 19, 8),
             "Pivope.Gomule tegobe.Vigopo.Risira deloma.Tapanu"),
            ((3, 2, 7, 19, 8), "Pivope.Gufuze.Vigopo.Risira deloma.Tapanu"),
        ):
            column = by_prefix[prefix]
            assert column.qualified_name == "Vigopo.Risira deloma.Tapanu"
            assert column.header == header
        assert table.to_csv().splitlines()[0].count(",") == (
            table.num_columns - 1
        )


class TestColumnSpecsMemo:
    """Column specs are computed once per path pattern and graph, on
    first render, and live beside the graph, not in it."""

    def test_bounded_by_the_interned_patterns(self, wiki_oracle, wiki_indexes):
        for result in wiki_oracle.values():
            result.tables(wiki_indexes.graph)
        memo = path_specs_memo(wiki_indexes.graph)
        assert 0 < len(memo) <= len(wiki_indexes.interner)
        for labels in memo:
            assert PathPattern(labels, len(labels) % 2 == 0) in (
                wiki_indexes.interner
            )

    def test_empty_after_open_and_shared_with_snapshots(self, tmp_path):
        path = tmp_path / "example.idx"
        save_indexes(example_bundle(), path)
        opened = load_indexes(path)
        snapshot = opened.snapshot()
        assert path_specs_memo(opened.graph) is path_specs_memo(snapshot.graph)
        assert not path_specs_memo(opened.graph)
        engine = TableAnswerEngine(snapshot.graph, indexes=snapshot)
        engine.search(EXAMPLE_QUERIES[0], k=5).tables(snapshot.graph)
        assert path_specs_memo(opened.graph)

    def test_a_new_type_takes_the_grown_graphs_names(self):
        indexes = example_bundle()
        engine = TableAnswerEngine(indexes.graph, indexes=indexes)
        engine.search("database", k=10).tables(indexes.graph)
        add_entity(indexes, "Brandnew", "database")
        new_type = indexes.graph.type_id("Brandnew")
        result = engine.search("database", k=10)
        (table,) = [
            table for table in result.tables(indexes.graph)
            if table.pattern.root_type == new_type
        ]
        assert table.headers() == ["Brandnew"]
        assert table.rows == [["database"]]

    def test_saved_bytes_do_not_depend_on_rendering(self, tmp_path):
        indexes = example_bundle()
        engine = TableAnswerEngine(indexes.graph, indexes=indexes)
        results = [engine.search(query, k=5) for query in EXAMPLE_QUERIES]
        before, after = tmp_path / "before.idx", tmp_path / "after.idx"
        save_indexes(indexes, before)
        for result in results:
            result.tables(indexes.graph)
        assert path_specs_memo(indexes.graph)
        save_indexes(indexes, after)
        assert before.read_bytes() == after.read_bytes()


# ------------------------------------------------------------------ counts


class CountingList(list):
    """A subtree list that counts the combos handed out."""

    reads = 0

    def __iter__(self):
        for combo in super().__iter__():
            self.reads += 1
            yield combo


class TestNothingIsMaterialized:
    def served(self, wiki_indexes):
        yield SearchService(wiki_indexes)
        yield ShardedSearchService(wiki_indexes, num_shards=2)
        yield PooledSearchService(wiki_indexes, processes=2)
        yield PooledSearchService(wiki_indexes, processes=2, num_shards=2)

    def test_tables_build_no_entry(self, wiki_indexes):
        graph = wiki_indexes.graph
        for service in self.served(wiki_indexes):
            with service:
                for query in WIKI_QUERIES:
                    result = service.search(query, k=10)
                    store_before = wiki_indexes.store.entries_materialized
                    total_before = PostingStore.total_entries_materialized
                    tables = result.tables(graph, max_rows=10)
                    assert any(table.rows for table in tables)
                    assert (
                        wiki_indexes.store.entries_materialized
                        == store_before
                    )
                    # Shard stores count only here.
                    assert (
                        PostingStore.total_entries_materialized
                        == total_before
                    )

    def test_limited_tables_keep_the_more_rows_trailer(
        self, example_oracle, example_heap
    ):
        result = example_oracle[EXAMPLE_QUERIES[0], "pattern_enum"]
        graph = example_heap.graph
        answer = result.answers[0]
        assert len(answer.subtrees) == 2
        limited, whole = answer.to_table(graph, 1), answer.to_table(graph)
        assert limited.num_rows == 1 and whole.num_rows == 2
        # Rows cut upstream or by the printer: the same text.
        assert limited.to_ascii(1) == whole.to_ascii(1)
        assert limited.to_markdown(1) == whole.to_markdown(1)
        assert limited.to_ascii(1).endswith("... (1 more rows)")
        assert "more rows" not in whole.to_ascii(2)
        digest = result.format(graph, max_tables=1, max_rows=1)
        assert digest.endswith(whole.to_ascii(1))

    @pytest.mark.parametrize("limit", (0, 1, 3, 10))
    def test_only_the_rows_asked_for_are_read(
        self, wiki_oracle, wiki_indexes, limit
    ):
        answer = max(
            wiki_oracle["parar", "pattern_enum"].answers,
            key=lambda a: len(a.subtrees),
        )
        assert len(answer.subtrees) > 10
        counted = CountingList(answer.subtrees)
        limited = PatternAnswer(
            answer.pattern_key, answer.pattern, answer.score,
            answer.num_subtrees, counted,
        )
        table = limited.to_table(wiki_indexes.graph, max_rows=limit)
        assert table.num_rows == limit
        assert counted.reads == limit
        assert table.total_rows == len(answer.subtrees)


# -------------------------------------------------------------- tree check


class TestNonTreeCombosAreSkipped:
    """The enumerators never keep a non-tree combination; a hand-built
    one is dropped by ``to_table`` exactly as by ``materialize``."""

    ROW = ["root", "left", "shared", "right", "other"]

    @pytest.fixture()
    def diamond(self):
        graph = KnowledgeGraph()
        root = graph.add_node("R", "root")
        left = graph.add_node("A", "left")
        right = graph.add_node("B", "right")
        shared = graph.add_node("C", "shared")
        other = graph.add_node("C", "other")
        for parent, attr, child in (
            (root, "a", left), (root, "b", right), (left, "x", shared),
            (right, "y", shared), (right, "y", other),
        ):
            graph.add_edge(parent, attr, child)
        a, b, x, y = (graph.attr_id(name) for name in "abxy")
        via_left = ((root, left, shared), (a, x))
        via_right = ((root, right, shared), (b, y))  # a second parent
        to_other = ((root, right, other), (b, y))
        pattern = TreePattern(tuple(
            MatchPath(nodes, attrs, False).pattern(graph)
            for nodes, attrs in (via_left, to_other)
        ))
        return graph, pattern, (via_left, via_right, to_other)

    def check(self, graph, answer):
        for limit in (None, 1, 2):
            table = answer.to_table(graph, limit)
            assert table.rows == [self.ROW]
            assert table.total_rows == 3
        assert answer.to_table(graph, 0).rows == []
        trees = answer.materialize()
        assert len(trees) == 1
        assert frozen_compose(answer.pattern, trees, graph)[1] == [self.ROW]

    def test_entry_combos(self, diamond):
        graph, pattern, chains = diamond
        via_left, via_right, to_other = (
            PathEntry(nodes, attrs, False, 0.5, 1.0) for nodes, attrs in chains
        )
        subtrees = [(via_left, via_right), (via_left, to_other), ()]
        self.check(graph, PatternAnswer((), pattern, 1.0, 3, subtrees))

    def test_combo_refs(self, diamond):
        graph, pattern, chains = diamond
        store = PostingStore(PatternInterner())
        via_left, via_right, to_other = (
            (store.add_path(nodes, attrs, False, 0, 0.5), 1.0)
            for nodes, attrs in chains
        )
        subtrees = [
            ComboRef(store, (via_left, via_right)),
            ComboRef(store, (via_left, to_other)),
            ComboRef(store, ()),
        ]
        self.check(graph, PatternAnswer((), pattern, 1.0, 3, subtrees))


SRC = Path(repro.__file__).parent

#: Where a kept combo may be built: only in ``bind_combos``, which wraps
#: kept pair tuples ...
KEPT_COMBO_SITES = ["search/result.py:bind_combos"]

#: ... called where the enumerators build their answers from the pairs
#: their join kernel kept, and where a worker's kept combos are re-bound.
BIND_COMBO_SITES = [
    "search/individual.py:individual_topk",
    "search/linear_enum.py:linear_enum",
    "search/linear_enum.py:linear_enum_search",
    "search/linear_topk.py:linear_topk_search",
    "search/pattern_enum.py:pattern_enum_search",
    "search/result.py:bind_answers",
]


def constructions(name):
    """``file:qualname`` of every function under ``src/repro`` whose own
    body (nested functions apart) calls ``name(...)``."""
    found = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
            )):
                visit(child, path, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == name
            ):
                found.append(f"{path}:{'.'.join(scope)}")
            visit(child, path, scope)

    for source in sorted(SRC.rglob("*.py")):
        path = source.relative_to(SRC).as_posix()
        visit(ast.parse(source.read_text()), path, [])
    return sorted(found)


class TestKeptCombos:
    """What the enumerators keep passed ``form_tree`` and renders from
    the node column alone; only hand-built combos are checked again."""

    def test_built_only_where_enumerators_keep_subtrees(self):
        assert constructions("ComboRef") == []
        assert constructions("KeptCombo") == KEPT_COMBO_SITES
        assert constructions("bind_combos") == BIND_COMBO_SITES

    def test_rows_read_no_attribute_chain(
        self, wiki_oracle, wiki_indexes, monkeypatch
    ):
        store = wiki_indexes.store

        def refuse(self, path_id):
            raise AssertionError("a kept combo was tree-checked again")

        monkeypatch.setattr(type(store), "path_attrs", refuse)
        rendered = 0
        for result in wiki_oracle.values():
            for answer in result.answers:
                kept = [
                    combo for combo in answer.subtrees
                    if isinstance(combo, KeptCombo)
                ]
                assert len(kept) in (0, len(answer.subtrees))
                if kept:
                    rendered += answer.to_table(wiki_indexes.graph).num_rows
        assert rendered
        # A plain ComboRef still reads them, for the check.
        answer = wiki_oracle[WIKI_QUERIES[-1], "pattern_enum"].answers[0]
        plain = PatternAnswer(
            answer.pattern_key, answer.pattern, answer.score,
            answer.num_subtrees,
            [ComboRef(store, combo.pairs) for combo in answer.subtrees],
        )
        with pytest.raises(AssertionError, match="tree-checked again"):
            plain.to_table(wiki_indexes.graph)


# ------------------------------------------------------------ the pipe form


def assert_same_combos(result, expected):
    """Combo by combo: equal as values, bound to a store on both sides
    (the baseline's self-contained entry tuples aside)."""
    assert result.pattern_keys() == expected.pattern_keys()
    for answer, reference in zip(result.answers, expected.answers):
        assert len(answer.subtrees) == len(reference.subtrees)
        for combo, ref in zip(answer.subtrees, reference.subtrees):
            assert isinstance(combo, ComboRef)
            assert combo == ref and tuple(combo) == tuple(ref)


class TestPipeRoundTrip:
    QUERY = "curela lemacu"

    def test_shard_worker_failover_and_engine_agree(
        self, wiki_indexes, monkeypatch
    ):
        from tests.search.test_sharding import kill_the_next_lease

        expected = SearchService(wiki_indexes).search(self.QUERY, k=10)
        with ShardedSearchService(
            wiki_indexes, num_shards=2, max_cached_results=0
        ) as service:
            remote = service.search(self.QUERY, k=10)
            assert remote.stats.shard_failovers == 0
            assert_same_combos(remote, expected)
            # The victim is the slot the next query leases first.
            kill_the_next_lease(service._pool, monkeypatch)
            inline = service.search(self.QUERY, k=10)
            assert inline.stats.shard_failovers >= 1
            assert_same_combos(inline, expected)
            # Same form from both: pairs bound to the snapshot the
            # workers were forked from.
            snapshot_store = service.snapshot().store
            for result in (remote, inline):
                for answer in result.answers:
                    assert {
                        combo._store for combo in answer.subtrees
                    } <= {snapshot_store}
            for ours, theirs in zip(remote.answers, inline.answers):
                assert [c.pairs for c in ours.subtrees] == [
                    c.pairs for c in theirs.subtrees
                ]

    @pytest.mark.parametrize("num_shards", (0, 2))
    def test_pool_worker_failover_and_engine_agree(
        self, wiki_indexes, num_shards
    ):
        expected = SearchService(wiki_indexes).search(self.QUERY, k=10)
        with PooledSearchService(
            wiki_indexes, processes=1, num_shards=num_shards,
            max_cached_results=0,
        ) as service:
            remote = service.search(self.QUERY, k=10)
            assert service.stats.worker_failovers == 0
            assert_same_combos(remote, expected)
            service.kill_worker(0)
            inline = service.search(self.QUERY, k=10)
            assert service.stats.worker_failovers == 1
            assert_same_combos(inline, expected)
            respawned = service.search(self.QUERY, k=10)
            assert service.stats.worker_failovers == 1
            assert_same_combos(respawned, expected)

    def test_replies_never_pickle_a_store(self, wiki_indexes, monkeypatch):
        def refuse(self):
            raise AssertionError("a store was about to cross a pipe")

        monkeypatch.setattr(PostingStore, "__getstate__", refuse)
        snap = wiki_indexes.snapshot()
        sharded = ShardedIndexes(snap, 2, 2)
        service = SearchService(wiki_indexes)
        for algorithm in ("pattern_enum", "linear_topk", "linear_full"):
            plan = service.plan(self.QUERY, k=10, algorithm=algorithm)
            replies = [
                execute_shard_plan(shard, plan) for shard in sharded.shards
            ]
            replies.append(_execute_portable(snap, (plan, (0, 2))))
            replies.append(_execute_portable(snap, (plan, (1, 2))))
            replies.append(_execute_portable(snap, (plan, None)))
            for reply in replies:
                assert any(row[3] for row in reply[0])
                assert pickle.loads(pickle.dumps(reply))[0] == reply[0]
            # A split's slice reply is its shard's, verbatim, and each
            # answer of the whole run is the verbatim reply row of one
            # slice, path ids the snapshot's like all the rest.
            assert [reply[0] for reply in replies[2:4]] == [
                reply[0] for reply in replies[:2]
            ]
            shard_rows = [row for reply in replies[:2] for row in reply[0]]
            assert replies[-1][0] and all(
                row in shard_rows for row in replies[-1][0]
            )
        # The guard itself: a bound combo would have dragged the store.
        with pytest.raises(AssertionError, match="cross a pipe"):
            pickle.dumps(service.search(self.QUERY, k=10))

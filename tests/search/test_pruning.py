"""Bound-driven pruning: differential tests and admissibility proofs.

The contract of ``docs/pruning.md``: with ``prune=True`` every algorithm
returns **bit-identical answers** to its unpruned self (and therefore to
the entry-based reference oracle, which ``test_id_enumeration`` pins the
unpruned walk against) — only the work counters differ.  This suite
checks that equivalence on fixtures and on hypothesis-generated graphs,
the admissibility of the bounds themselves, the staleness guard on the
store's aggregate bound columns, and the :class:`TopKThreshold`
trajectory plumbing.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.index.builder import build_indexes
from repro.scoring.aggregate import AGGREGATORS
from repro.scoring.function import PAPER_DEFAULT, ScoringFunction
from repro.search.context import EnumerationContext
from repro.search.individual import individual_topk
from repro.search.linear_enum import linear_enum
from repro.search.linear_topk import linear_topk_search
from repro.search.mixed import mixed_search
from repro.search.pattern_enum import pattern_enum_search

# Reuse the randomized-graph strategy that already exercises the
# enumeration layer.
from tests.search.test_id_enumeration import random_graph_and_query

SEARCHES = {
    "pattern_enum": (pattern_enum_search, {}),
    "linear": (linear_topk_search, {}),
    "linear_topk_sampled": (
        linear_topk_search,
        {"sampling_threshold": 0, "sampling_rate": 0.5, "seed": 11},
    ),
}


def assert_same_answers(pruned, unpruned):
    """Answers bit-equal: scores, keys, row counts, subtrees, estimates."""
    assert pruned.query == unpruned.query
    assert pruned.num_answers == unpruned.num_answers
    for ours, theirs in zip(pruned.answers, unpruned.answers):
        assert ours.pattern_key == theirs.pattern_key
        assert ours.score == theirs.score  # bit-equal, not approx
        assert ours.num_subtrees == theirs.num_subtrees
        assert ours.estimated_score == theirs.estimated_score
        assert list(ours.subtrees) == list(theirs.subtrees)


def run_search_pair(indexes, query, name, k=10, **kwargs):
    search, extra = SEARCHES[name]
    params = {**extra, **kwargs}
    assert_same_answers(
        search(indexes, query, k=k, prune=True, **params),
        search(indexes, query, k=k, prune=False, **params),
    )


class TestPrunedEqualsUnpruned:
    @pytest.mark.parametrize("name", sorted(SEARCHES))
    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_example(self, example_indexes, example_query, name, k):
        run_search_pair(example_indexes, example_query, name, k=k)

    @pytest.mark.parametrize("name", sorted(SEARCHES))
    def test_example_no_subtrees(self, example_indexes, example_query, name):
        run_search_pair(
            example_indexes, example_query, name, keep_subtrees=False
        )

    @pytest.mark.parametrize("name", sorted(SEARCHES))
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_wiki_workload(self, wiki_indexes, name, k):
        from repro.datasets.queries import WorkloadConfig, generate_workload

        queries = generate_workload(
            wiki_indexes,
            WorkloadConfig(queries_per_size=2, max_keywords=4, seed=17),
        )
        assert queries
        for query in queries:
            run_search_pair(wiki_indexes, query, name, k=k)

    @pytest.mark.parametrize(
        "aggregator", sorted(set(AGGREGATORS) - {"sum"})
    )
    def test_non_default_aggregators(
        self, example_indexes, example_query, aggregator
    ):
        scoring = ScoringFunction(aggregator=aggregator)
        for name in ("pattern_enum", "linear"):
            run_search_pair(
                example_indexes, example_query, name, scoring=scoring
            )

    def test_individual_wiki(self, wiki_indexes):
        from repro.datasets.queries import WorkloadConfig, generate_workload

        queries = generate_workload(
            wiki_indexes,
            WorkloadConfig(queries_per_size=2, max_keywords=3, seed=17),
        )
        for query in queries:
            for k in (1, 5, 20):
                pruned = individual_topk(wiki_indexes, query, k=k, prune=True)
                unpruned = individual_topk(
                    wiki_indexes, query, k=k, prune=False
                )
                assert pruned.scores() == unpruned.scores()
                assert [
                    (key, tuple(combo.pairs))
                    for _s, key, combo in pruned.ranked
                ] == [
                    (key, tuple(combo.pairs))
                    for _s, key, combo in unpruned.ranked
                ]

    @pytest.mark.parametrize(
        "scoring",
        [
            # Negative/zero exponents flip the bound's extreme picks and
            # the sorted-sim run direction (regression: a z3 < 0 scoring
            # once made the descending-sim run-break inadmissible and
            # individual_topk dropped true top-k answers).
            ScoringFunction(z3=-1.0),
            ScoringFunction(z1=1.0, z2=-1.0, z3=-1.0),
            ScoringFunction(z1=0.0, z2=0.0, z3=-1.0),
        ],
        ids=["neg-sim", "all-flipped", "sim-only-neg"],
    )
    def test_sign_flipped_scorings(self, wiki_indexes, scoring):
        from repro.datasets.queries import WorkloadConfig, generate_workload

        queries = generate_workload(
            wiki_indexes,
            WorkloadConfig(queries_per_size=1, max_keywords=3, seed=17),
        )
        for query in queries:
            for k in (2, 10):
                run_search_pair(
                    wiki_indexes, query, "pattern_enum", k=k, scoring=scoring
                )
                run_search_pair(
                    wiki_indexes, query, "linear", k=k, scoring=scoring
                )
                pruned = individual_topk(
                    wiki_indexes, query, k=k, scoring=scoring, prune=True
                )
                unpruned = individual_topk(
                    wiki_indexes, query, k=k, scoring=scoring, prune=False
                )
                assert pruned.scores() == unpruned.scores()

    def test_mixed_search(self, example_indexes, example_query):
        pruned = mixed_search(example_indexes, example_query, k=5, prune=True)
        unpruned = mixed_search(
            example_indexes, example_query, k=5, prune=False
        )
        assert pruned.kinds() == unpruned.kinds()
        assert [a.raw_score for a in pruned.answers] == [
            a.raw_score for a in unpruned.answers
        ]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(random_graph_and_query(), st.integers(min_value=1, max_value=3))
def test_differential_on_random_graphs(graph_and_query, d):
    """Pruned == unpruned on arbitrary cyclic typed digraphs."""
    graph, query = graph_and_query
    indexes = build_indexes(graph, d=d)
    for name in sorted(SEARCHES):
        for k in (1, 2, 15):
            run_search_pair(indexes, query, name, k=k)
    pruned = individual_topk(indexes, query, k=5, prune=True)
    unpruned = individual_topk(indexes, query, k=5, prune=False)
    assert pruned.scores() == unpruned.scores()


# ------------------------------------------------------------- admissibility


class TestAdmissibility:
    """The bounds must dominate every exact value they claim to cover."""

    def _bounds(self, indexes, query, scoring=PAPER_DEFAULT):
        context = EnumerationContext(indexes, query)
        return context, context.query_bounds(scoring)

    def test_pattern_bounds_dominate_exact_scores(self, wiki_indexes):
        from repro.datasets.queries import WorkloadConfig, generate_workload

        queries = generate_workload(
            wiki_indexes,
            WorkloadConfig(queries_per_size=2, max_keywords=3, seed=17),
        )
        checked = 0
        for query in queries:
            context, bounds = self._bounds(wiki_indexes, query)
            enumeration = linear_enum(
                wiki_indexes, query, keep_subtrees=False, context=context
            )
            for key, aggregate in enumeration.aggregates.items():
                exact = aggregate.value()
                assert bounds.full_pattern_upper(key) >= exact
                assert bounds.full_pattern_upper(key, max_roots=4) >= exact
                for i, pid in enumerate(key):
                    assert bounds.pid_upper(i, pid) >= exact
                checked += 1
        assert checked > 0

    def test_root_terms_dominate_subtree_scores(self, example_indexes):
        context, bounds = self._bounds(example_indexes, "software company")
        result = individual_topk(
            example_indexes, "software company", k=1000, prune=False
        )
        assert result.ranked
        for score, _key, combo in result.ranked:
            root = combo.entries()[0].nodes[0]
            term = bounds.root_term(root)
            assert term is not None
            count, combo_upper = term
            assert count >= 1
            assert combo_upper >= score

    def test_prefix_upper_dominates_completions(self, example_indexes):
        query = "software company"
        context, bounds = self._bounds(example_indexes, query)
        enumeration = linear_enum(
            example_indexes, query, keep_subtrees=False, context=context
        )
        roots = context.candidate_roots
        for key, aggregate in enumeration.aggregates.items():
            exact = aggregate.value()
            for depth in range(len(key) + 1):
                assert (
                    bounds.prefix_upper(key, depth, roots) >= exact
                ), (key, depth)
                assert (
                    bounds.pattern_upper_at_roots(key, depth, roots) >= exact
                ), (key, depth)

    def test_context_bound_api(self, example_indexes):
        context = EnumerationContext(example_indexes, "software company")
        enumeration = linear_enum(
            example_indexes, "software company", keep_subtrees=False,
            context=context,
        )
        best = max(a.value() for a in enumeration.aggregates.values())
        total = sum(
            context.root_upper_bound(root, PAPER_DEFAULT)
            for root in context.candidate_roots
        )
        assert total >= best
        assert (
            context.prefix_upper_bound(
                (), context.candidate_roots, PAPER_DEFAULT
            )
            >= best
        )

    def test_unsupported_scoring_returns_none(self, example_indexes):
        context = EnumerationContext(example_indexes, "software")
        scoring = ScoringFunction(extra_weights=(1.0,))
        assert context.query_bounds(scoring) is None
        assert context.root_upper_bound(0, scoring) == math.inf


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(random_graph_and_query(), st.integers(min_value=1, max_value=2))
def test_admissibility_on_random_graphs(graph_and_query, d):
    """Every pattern's bound dominates its exact score on random graphs."""
    graph, query = graph_and_query
    indexes = build_indexes(graph, d=d)
    context = EnumerationContext(indexes, query)
    bounds = context.query_bounds(PAPER_DEFAULT)
    assert bounds is not None
    enumeration = linear_enum(
        indexes, query, keep_subtrees=False, context=context
    )
    for key, aggregate in enumeration.aggregates.items():
        exact = aggregate.value()
        assert bounds.full_pattern_upper(key) >= exact
        for i, pid in enumerate(key):
            assert bounds.pid_upper(i, pid) >= exact


# ----------------------------------------------------- counters & trajectory


class TestCountersAndTrajectory:
    @pytest.fixture(scope="class")
    def heavy_query(self, wiki_indexes):
        """A wiki query heavy enough for the adaptive gate to engage."""
        from repro.datasets.queries import WorkloadConfig, generate_workload
        from repro.search.linear_enum import count_answers

        queries = generate_workload(
            wiki_indexes,
            WorkloadConfig(queries_per_size=3, max_keywords=3, seed=17),
        )
        query = max(
            queries,
            key=lambda q: count_answers(wiki_indexes, q)[1],
        )
        patterns, subtrees = count_answers(wiki_indexes, query)
        assert subtrees >= 512, "fixture too small for pruning tests"
        return query

    def test_pattern_enum_prunes_and_records_trajectory(
        self, wiki_indexes, heavy_query
    ):
        result = pattern_enum_search(
            wiki_indexes, heavy_query, k=2, keep_subtrees=False
        )
        stats = result.stats
        assert stats.prefixes_skipped > 0
        assert stats.threshold_first is not None
        assert stats.threshold_last >= stats.threshold_first
        assert "prefixes-skipped" in stats.format()

    def test_linear_topk_prunes(self, wiki_indexes, heavy_query):
        result = linear_topk_search(
            wiki_indexes, heavy_query, k=2, keep_subtrees=False
        )
        stats = result.stats
        assert stats.prefixes_skipped > 0 or stats.roots_skipped > 0
        assert stats.threshold_first is not None

    def test_individual_prunes_pairs(self, wiki_indexes, heavy_query):
        result = individual_topk(wiki_indexes, heavy_query, k=2)
        stats = result.stats
        assert stats.roots_skipped + stats.pairs_skipped > 0

    def test_prune_false_leaves_counters_zero(
        self, example_indexes, example_query
    ):
        result = pattern_enum_search(
            example_indexes, example_query, k=5, prune=False
        )
        stats = result.stats
        assert stats.roots_skipped == 0
        assert stats.prefixes_skipped == 0
        assert stats.pairs_skipped == 0
        assert stats.threshold_first is None


# ------------------------------------------------- bound-column invalidation


class TestBoundColumnStaleness:
    """Satellite: ``append_path`` bumps the version and invalidates the
    aggregate/bound columns, like the query-acceleration columns."""

    def _tiny_indexes(self):
        from repro.kg.graph import KnowledgeGraph

        graph = KnowledgeGraph()
        a = graph.add_node("T0", "apple")
        b = graph.add_node("T1", "berry")
        graph.add_edge(a, "rel", b)
        return build_indexes(graph, d=2)

    def test_append_path_bumps_version_and_invalidates(self):
        indexes = self._tiny_indexes()
        store = indexes.store
        before_columns = store.bound_columns()
        assert store.bound_columns() is before_columns  # cached
        version = store.version
        path_id = store.append_path((0, 1), (0,), False, 0, 0.125)
        assert store.version > version
        store.add_posting("zzz", path_id, 0.5)
        after_columns = store.bound_columns()
        assert after_columns is not before_columns
        root_bounds, _pattern_bounds = after_columns
        assert "zzz" in root_bounds

    def test_release_query_columns_keeps_bound_columns(self):
        """The bounds live in the per-word views, not in the query
        memo: releasing the memo leaves their content as it was."""
        indexes = self._tiny_indexes()
        store = indexes.store

        def content(columns):
            return [
                {word: by_key for word, by_key in column.items()}
                for column in columns
            ]

        first = content(store.bound_columns())
        assert first[0] and all(first[0].values()) and all(first[1].values())
        store.release_query_columns()
        assert content(store.bound_columns()) == first

    def test_incremental_update_refreshes_bounds(self):
        """End to end: mutating through the incremental maintainer means
        a later pruned search sees the new posting."""
        from repro.index.incremental import add_entity, add_relationship
        from repro.kg.graph import KnowledgeGraph

        graph = KnowledgeGraph()
        a = graph.add_node("T0", "apple")
        b = graph.add_node("T1", "berry")
        graph.add_edge(a, "rel", b)
        indexes = build_indexes(graph, d=2)
        before = pattern_enum_search(indexes, "cedar", k=5)
        assert before.num_answers == 0
        assert indexes.store.bound_columns() is indexes.store.bound_columns()
        c = add_entity(indexes, "T1", "cedar")
        add_relationship(indexes, a, "link", c)
        after = pattern_enum_search(indexes, "cedar", k=5)
        assert after.num_answers > 0


# ------------------------------------------------------------ TopKThreshold


class TestTopKThreshold:
    def test_admits_everything_until_full(self):
        from repro.core.topk import TopKQueue, TopKThreshold

        queue: TopKQueue = TopKQueue(2)
        gate = TopKThreshold(queue)
        assert not gate.is_active
        assert gate.admits(-1.0)
        assert gate.first_threshold is None
        queue.push(5.0, "a")
        assert gate.admits(0.0)  # still not full
        queue.push(3.0, "b")
        assert gate.is_active
        assert not gate.admits(2.9)
        assert gate.admits(3.0)  # ties admitted
        assert gate.admits(10.0)

    def test_trajectory_records_first_and_last(self):
        from repro.core.topk import TopKQueue, TopKThreshold
        from repro.search.result import SearchStats

        queue: TopKQueue = TopKQueue(1)
        gate = TopKThreshold(queue)
        queue.push(1.0, "a")
        gate.admits(0.5)
        queue.push(4.0, "b")
        gate.admits(0.5)
        stats = SearchStats(algorithm="x")
        gate.write_stats(stats)
        assert stats.threshold_first == 1.0
        assert stats.threshold_last == 4.0
        assert "kth=1->4" in stats.format()

    def test_write_stats_without_fill(self):
        from repro.core.topk import TopKQueue, TopKThreshold
        from repro.search.result import SearchStats

        gate = TopKThreshold(TopKQueue(3))
        stats = SearchStats(algorithm="x")
        gate.write_stats(stats)
        assert stats.threshold_first is None
        assert stats.threshold_last is None

"""LINEARENUM-TOPK (Algorithm 4): type partitioning and sampling."""

import math

import pytest

from repro.core.errors import SearchError
from repro.datasets.worstcase import star_graph
from repro.index.builder import build_indexes
from repro.search.linear_topk import linear_topk_search
from repro.search.pattern_enum import pattern_enum_search


class TestExactMode:
    def test_matches_pattern_enum(self, example_indexes, example_query):
        """Theorem 4 correctness: no sampling -> exact top-k."""
        linear = linear_topk_search(example_indexes, example_query, k=5)
        pattern = pattern_enum_search(example_indexes, example_query, k=5)
        assert [round(s, 9) for s in linear.scores()] == [
            round(s, 9) for s in pattern.scores()
        ]
        assert linear.pattern_keys() == pattern.pattern_keys()

    def test_subtrees_returned(self, example_indexes, example_query):
        result = linear_topk_search(example_indexes, example_query, k=1)
        assert result.answers[0].num_subtrees == 2
        assert len(result.answers[0].subtrees) == 2

    def test_no_sampling_flags(self, example_indexes, example_query):
        result = linear_topk_search(example_indexes, example_query, k=5)
        assert result.stats.sampled_types == 0
        assert result.stats.rescored_patterns == 0
        for answer in result.answers:
            assert answer.estimated_score is None

    def test_parameter_validation(self, example_indexes, example_query):
        with pytest.raises(SearchError):
            linear_topk_search(
                example_indexes, example_query, sampling_rate=0.0
            )
        with pytest.raises(SearchError):
            linear_topk_search(
                example_indexes, example_query, sampling_rate=1.2
            )
        with pytest.raises(SearchError):
            linear_topk_search(
                example_indexes, example_query, sampling_threshold=-1
            )


class TestTieAtTheCut:
    """Two patterns of one root type score exactly alike at rank k: the
    per-type pre-selection must leave the choice to the queue's
    canonical tie key, as the full ranking does."""

    QUERY = "mizoza dudoc fetibi mucufa ricili lulugo"

    @pytest.fixture(scope="class")
    def indexes(self):
        from repro.datasets.wiki import WikiConfig, generate_wiki_graph

        graph = generate_wiki_graph(WikiConfig(
            num_entities=120, num_types=8, num_attrs=12,
            vocabulary_size=60, seed=5,
        ))
        return build_indexes(graph, d=3)

    @pytest.mark.parametrize("prune", [True, False])
    def test_rank_k_pattern_matches_full_enumeration(self, indexes, prune):
        from repro.search.linear_enum import linear_enum_search
        from repro.search.reference import reference_linear_topk_search

        full = linear_enum_search(
            indexes, self.QUERY, k=100, keep_subtrees=False
        )
        assert len(full.answers) == 100
        assert full.scores()[98] > full.scores()[99]  # rank 100 stands alone
        top = linear_topk_search(
            indexes, self.QUERY, k=100, keep_subtrees=False, prune=prune
        )
        assert top.scores() == full.scores()
        assert top.pattern_keys() == full.pattern_keys()
        reference = reference_linear_topk_search(
            indexes, self.QUERY, k=100, keep_subtrees=False
        )
        assert reference.pattern_keys() == full.pattern_keys()


class TestSampling:
    @pytest.fixture(scope="class")
    def star_indexes(self):
        graph, query = star_graph(fanout=40)
        return build_indexes(graph, d=2), query

    def test_rate_one_with_zero_threshold_is_exact(self, star_indexes):
        indexes, query = star_indexes
        result = linear_topk_search(
            indexes, query, k=5, sampling_threshold=0, sampling_rate=1.0
        )
        assert result.num_answers == 1
        assert result.answers[0].num_subtrees == 40

    def test_sampling_reduces_expanded_roots(self, star_indexes):
        indexes, query = star_indexes
        exact = linear_topk_search(indexes, query, k=5)
        sampled = linear_topk_search(
            indexes,
            query,
            k=5,
            sampling_threshold=0,
            sampling_rate=0.3,
            seed=11,
        )
        assert sampled.stats.roots_expanded < exact.stats.roots_expanded
        assert sampled.stats.sampled_types >= 1

    def test_sampled_topk_rescored_exactly(self, star_indexes):
        """Estimated selection, exact final scores (Algorithm 4 line 11)."""
        indexes, query = star_indexes
        exact = linear_topk_search(indexes, query, k=1)
        sampled = linear_topk_search(
            indexes,
            query,
            k=1,
            sampling_threshold=0,
            sampling_rate=0.5,
            seed=3,
        )
        assert sampled.num_answers == 1
        answer = sampled.answers[0]
        # The star has one pattern; sampling can't miss it at this rate and
        # the exact re-scoring must recover the true score and row count.
        assert answer.score == pytest.approx(exact.answers[0].score)
        assert answer.num_subtrees == 40
        assert answer.estimated_score is not None
        assert sampled.stats.rescored_patterns >= 1

    def test_threshold_disables_sampling_for_small_types(self, star_indexes):
        indexes, query = star_indexes
        result = linear_topk_search(
            indexes,
            query,
            k=5,
            sampling_threshold=10_000,  # more subtrees than exist
            sampling_rate=0.1,
            seed=0,
        )
        assert result.stats.sampled_types == 0
        assert result.answers[0].num_subtrees == 40

    def test_seed_reproducibility(self, star_indexes):
        indexes, query = star_indexes
        kwargs = dict(
            k=3, sampling_threshold=0, sampling_rate=0.4, seed=42
        )
        first = linear_topk_search(indexes, query, **kwargs)
        second = linear_topk_search(indexes, query, **kwargs)
        assert first.scores() == second.scores()
        assert first.stats.roots_expanded == second.stats.roots_expanded


class TestPrecisionOnFixture:
    def test_moderate_sampling_keeps_high_precision(self, wiki_indexes):
        """On the wiki fixture, rho=0.5 recovers most of the exact top-10."""
        from repro.datasets.queries import WorkloadConfig, generate_workload

        queries = generate_workload(
            wiki_indexes, WorkloadConfig(queries_per_size=2, max_keywords=3)
        )
        checked = 0
        total_precision = 0.0
        for query in queries:
            exact = linear_topk_search(wiki_indexes, query, k=10)
            if exact.num_answers < 3:
                continue
            sampled = linear_topk_search(
                wiki_indexes,
                query,
                k=10,
                sampling_threshold=0,
                sampling_rate=0.5,
                seed=1,
            )
            exact_keys = set(exact.pattern_keys())
            sampled_keys = set(sampled.pattern_keys())
            total_precision += len(exact_keys & sampled_keys) / len(exact_keys)
            checked += 1
        assert checked > 0
        assert total_precision / checked >= 0.5

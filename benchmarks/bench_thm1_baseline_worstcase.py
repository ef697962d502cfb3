"""Ablation: the Section 4.1 adversarial graph and Theorem 1's reduction.

* PETopK pays Theta(p^2) empty-pattern checks on the adversarial graph
  while LETopK terminates immediately (zero candidate roots) — the
  theoretical separation of Section 4.1, measured.
* The Theorem 1 reduction instance demonstrates COUNTPAT's output scale:
  counting patterns on the reduction of a 2^layers-path DAG touches N^2
  patterns.
"""

import pytest

from repro.datasets.worstcase import pattern_enum_adversarial_graph
from repro.index.builder import build_indexes
from repro.search.linear_topk import linear_topk_search
from repro.search.pattern_enum import pattern_enum_search
from repro.theory.reduction import build_reduction_instance, count_tree_patterns


@pytest.fixture(scope="module", params=[20, 40])
def adversarial(request):
    graph, query = pattern_enum_adversarial_graph(request.param)
    return build_indexes(graph, d=2), query, request.param


def test_pattern_enum_quadratic(benchmark, adversarial):
    indexes, query, p = adversarial
    result = benchmark(
        pattern_enum_search, indexes, query, k=10, keep_subtrees=False
    )
    assert result.num_answers == 0
    assert result.stats.patterns_checked == p * p
    benchmark.extra_info["p"] = p
    benchmark.extra_info["patterns_checked"] = result.stats.patterns_checked


def test_linear_enum_immediate(benchmark, adversarial):
    indexes, query, p = adversarial
    result = benchmark(
        linear_topk_search, indexes, query, k=10, keep_subtrees=False
    )
    assert result.num_answers == 0
    assert result.stats.candidate_roots == 0
    benchmark.extra_info["p"] = p


def test_reduction_countpat(benchmark):
    """COUNTPAT on the reduction of a 2-way layered DAG (N = 4, N^2 = 16)."""
    digraph = {0: [1, 2], 1: [3, 4], 2: [3, 4], 3: [5], 4: [5], 5: []}
    kg, query, d = build_reduction_instance(digraph, 0, 5)
    count = benchmark(count_tree_patterns, kg, query, d)
    assert count == 16

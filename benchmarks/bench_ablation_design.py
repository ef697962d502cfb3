"""Ablation benches for three design choices of this implementation.

* **Aggregator choice** (§2.2.3: sum vs avg vs max vs count) — same engine,
  different pattern scoring; the bench records how much the top-k sets
  diverge (sum/count favour many-row patterns, avg/max favour strong
  individual rows).
* **Tree-validity checking** — the per-combination check
  (`entries_form_tree`) is this implementation's corrective to the paper's
  pseudo-code; its cost is measured against a no-check enumeration of the
  same products.
* **Prefix-intersection DFS in PATTERNENUM** — measured indirectly: the
  adversarial worst case in `bench_thm1_baseline_worstcase.py` bounds the
  empty-pattern regime; this bench times the dense regime where the
  optimization matters least (sanity that it does not regress).
"""

from itertools import product

import pytest

from repro.index.entry import entries_form_tree
from repro.scoring.function import ScoringFunction
from repro.search.pattern_enum import pattern_enum_search

AGGREGATORS = ("sum", "avg", "max", "count")


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_aggregator_choice(benchmark, wiki_indexes, wiki_light_query, aggregator):
    scoring = ScoringFunction(aggregator=aggregator)
    result = benchmark(
        pattern_enum_search,
        wiki_indexes,
        wiki_light_query,
        k=10,
        scoring=scoring,
        keep_subtrees=False,
    )
    # Record ranking divergence against the paper's default (sum).
    baseline = pattern_enum_search(
        wiki_indexes, wiki_light_query, k=10, keep_subtrees=False
    )
    overlap = len(
        set(result.pattern_keys()) & set(baseline.pattern_keys())
    )
    benchmark.extra_info["topk_overlap_with_sum"] = overlap
    benchmark.extra_info["answers"] = result.num_answers


def _gather_root_products(indexes, query, limit=200):
    """Entry combinations for the first candidate roots of a query."""
    words = indexes.resolve_query(query)
    root_maps = [indexes.root_first.roots(word) for word in words]
    shared = set(root_maps[0])
    for root_map in root_maps[1:]:
        shared &= set(root_map)
    combos = []
    for root in sorted(shared):
        entry_lists = [
            list(indexes.root_first.paths(w, root)) for w in words
        ]
        for combo in product(*entry_lists):
            combos.append(combo)
            if len(combos) >= limit:
                return combos
    return combos


def test_tree_validity_check_cost(benchmark, wiki_indexes, wiki_light_query):
    """The incremental cost of checking each combination is a tree."""
    combos = _gather_root_products(wiki_indexes, wiki_light_query)
    if not combos:
        pytest.skip("query yields no combinations")

    def run_checks():
        return sum(1 for combo in combos if entries_form_tree(combo))

    valid = benchmark(run_checks)
    benchmark.extra_info["combos"] = len(combos)
    benchmark.extra_info["valid"] = valid
    assert 0 <= valid <= len(combos)


def test_enumeration_without_check(benchmark, wiki_indexes, wiki_light_query):
    """Reference cost: touching the same combinations with no check."""
    combos = _gather_root_products(wiki_indexes, wiki_light_query)
    if not combos:
        pytest.skip("query yields no combinations")

    def run_no_checks():
        total = 0
        for combo in combos:
            total += len(combo)
        return total

    total = benchmark(run_no_checks)
    assert total >= len(combos)

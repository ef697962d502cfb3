"""Shared fixtures for the pytest-benchmark suite.

One bench module per paper figure/table.  Scales are kept below the
harness defaults so that ``pytest benchmarks/ --benchmark-only`` finishes
in minutes; the full sweeps that regenerate every row live in
``repro.bench.experiments`` and run via ``python -m repro.bench.run_all``.
"""

from __future__ import annotations

import pytest

from repro.datasets.imdb import ImdbConfig, generate_imdb_graph
from repro.datasets.queries import WorkloadConfig, generate_workload
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import build_indexes

BENCH_WIKI = WikiConfig(
    num_entities=800,
    num_types=24,
    num_attrs=36,
    vocabulary_size=240,
    seed=23,
)
BENCH_IMDB = ImdbConfig(num_movies=300, num_people=400, seed=23)


@pytest.fixture(scope="session")
def wiki_graph():
    return generate_wiki_graph(BENCH_WIKI)


@pytest.fixture(scope="session")
def wiki_indexes(wiki_graph):
    return build_indexes(wiki_graph, d=3)


@pytest.fixture(scope="session")
def imdb_indexes():
    return build_indexes(generate_imdb_graph(BENCH_IMDB), d=3)


@pytest.fixture(scope="session")
def wiki_queries(wiki_indexes):
    return generate_workload(
        wiki_indexes,
        WorkloadConfig(queries_per_size=2, min_keywords=1, max_keywords=6, seed=23),
    )


@pytest.fixture(scope="session")
def imdb_queries(imdb_indexes):
    return generate_workload(
        imdb_indexes,
        WorkloadConfig(queries_per_size=2, min_keywords=1, max_keywords=6, seed=23),
    )


from repro.bench.harness import pick_query_by_subtrees  # noqa: E402


@pytest.fixture(scope="session")
def wiki_light_query(wiki_indexes, wiki_queries):
    """A query with a modest answer set (tens of subtrees)."""
    return pick_query_by_subtrees(wiki_indexes, wiki_queries, 5, 500)


@pytest.fixture(scope="session")
def wiki_heavy_query(wiki_indexes, wiki_queries):
    """The workload's heaviest query (most valid subtrees)."""
    from repro.search.linear_enum import count_answers

    return max(
        wiki_queries,
        key=lambda query: count_answers(wiki_indexes, query)[1],
    )

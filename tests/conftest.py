"""Shared fixtures: the paper's example and small synthetic datasets.

Index construction is the expensive step, so graph+index bundles are
session-scoped; tests must not mutate them.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.datasets.example import (
    EXAMPLE_NORMALIZER,
    EXAMPLE_QUERY,
    example_graph_with_nodes,
)
from repro.datasets.imdb import ImdbConfig, generate_imdb_graph
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.index.builder import build_indexes
from repro.kg.pagerank import uniform_scores

#: Keep synthetic fixtures small: the functional tests need structure, not
#: scale (benchmarks own the larger configurations).
WIKI_TEST_CONFIG = WikiConfig(
    num_entities=400, num_types=12, num_attrs=20, vocabulary_size=120, seed=7
)
IMDB_TEST_CONFIG = ImdbConfig(
    num_movies=120, num_people=150, num_companies=12, seed=7
)


@pytest.fixture(scope="module", autouse=True)
def no_leaked_worker_processes(request):
    """Every worker process a test module starts, it reaps: a pool left
    running (a missing ``close()``, a respawn racing a close) fails the
    module that leaked it instead of slowing or wedging a later one."""
    yield
    leaked = multiprocessing.active_children()
    for process in leaked:  # do not let one leak fail every later module
        process.kill()
        process.join(timeout=5.0)
    assert not leaked, (
        f"{request.module.__name__} left child processes running: "
        f"{[process.name for process in leaked]}"
    )


@pytest.fixture(scope="session")
def example_bundle():
    """(graph, name->node map, indexes) for the Figure 1 example.

    Built with the paper-exact normalizer (no stopwords) and uniform node
    importance so Example 2.4's numbers hold verbatim.
    """
    graph, nodes = example_graph_with_nodes()
    indexes = build_indexes(
        graph,
        d=3,
        normalizer=EXAMPLE_NORMALIZER,
        pagerank_scores=uniform_scores(graph),
    )
    return graph, nodes, indexes


@pytest.fixture(scope="session")
def example_indexes(example_bundle):
    return example_bundle[2]


@pytest.fixture(scope="session")
def example_query():
    return EXAMPLE_QUERY


@pytest.fixture(scope="session")
def wiki_indexes():
    """Small wiki-like graph indexed at d=3 (default scoring pipeline)."""
    graph = generate_wiki_graph(WIKI_TEST_CONFIG)
    return build_indexes(graph, d=3)


@pytest.fixture(scope="session")
def imdb_indexes():
    """Small IMDB-like graph indexed at d=3."""
    graph = generate_imdb_graph(IMDB_TEST_CONFIG)
    return build_indexes(graph, d=3)

"""Pinned counters and answers for the enumeration kernels.

Thirty queries over the shared wiki fixture, each run through PETopK,
LETopK, LINEARENUM and the individual-subtree ranker, pruned and
unpruned.  Every :class:`~repro.search.result.SearchStats` counter but
the elapsed time, every answer's score and pattern key, and every
returned table's rows must equal ``kernel_pins.json`` — pins written
by an earlier, independent implementation of the same loops.  A change
to how a kernel walks, scores or keeps subtrees that moves any of them
fails here.

Regenerate (only on purpose, when a counter's meaning changes) with::

    PYTHONPATH=src python tests/search/test_kernel_pins.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.datasets.queries import WorkloadConfig, generate_workload
from repro.search.context import EnumerationContext
from repro.search.individual import individual_topk
from repro.search.linear_enum import linear_enum_search
from repro.search.linear_topk import linear_topk_search
from repro.search.pattern_enum import pattern_enum_search

PINS = Path(__file__).with_name("kernel_pins.json")

#: Small enough that the bounds prune on most queries.
K = 3

#: (label, runner, prune): ``None`` for LINEARENUM, which never prunes.
RUNS = (
    ("pattern_enum", pattern_enum_search, True),
    ("pattern_enum", pattern_enum_search, False),
    ("linear_topk", linear_topk_search, True),
    ("linear_topk", linear_topk_search, False),
    ("linear_full", linear_enum_search, None),
    ("individual_topk", individual_topk, True),
    ("individual_topk", individual_topk, False),
)


def pin_queries(indexes):
    """Ten distinct answerable queries of each of one, two and three
    keywords."""
    config = WorkloadConfig(
        queries_per_size=20,
        min_keywords=1,
        max_keywords=3,
        answerable_fraction=1.0,
        seed=36,
    )
    chosen = {}
    for query in generate_workload(indexes, config):
        same_size = [q for q in chosen if len(q.split()) == len(query)]
        if len(same_size) < 10:
            chosen.setdefault(" ".join(query))
    return list(chosen)


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def run_pins(indexes, query):
    """``{run label: pinned record}`` for one query; one context shared
    by every run, as the engine's multi-algorithm drivers share it."""
    context = EnumerationContext(indexes, query)
    graph = indexes.graph
    record = {}
    for name, runner, prune in RUNS:
        params = {} if prune is None else {"prune": prune}
        result = runner(indexes, query, k=K, context=context, **params)
        stats = dataclasses.asdict(result.stats)
        del stats["elapsed_seconds"]
        if name == "individual_topk":
            answers = [
                [repr(score), list(key), [list(pair) for pair in combo.pairs]]
                for score, key, combo in result.ranked
            ]
        else:
            answers = [
                [
                    repr(answer.score),
                    list(answer.pattern_key),
                    answer.num_subtrees,
                    digest(answer.to_table(graph, max_rows=None).rows),
                ]
                for answer in result.answers
            ]
        label = name if prune is None else f"{name}/prune={prune}"
        record[label] = {
            "stats": {
                key: repr(value) if isinstance(value, float) else value
                for key, value in stats.items()
            },
            "answers": answers,
        }
    return record


def compute_pins(indexes):
    queries = pin_queries(indexes)
    return {"k": K, "queries": {q: run_pins(indexes, q) for q in queries}}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_pins_cover_thirty_queries_and_prune(pins, wiki_indexes):
    assert list(pins["queries"]) == pin_queries(wiki_indexes)
    assert len(pins["queries"]) == 30
    pruned = [
        record[label]["stats"]
        for record in pins["queries"].values()
        for label in record
        if label.endswith("prune=True")
    ]
    # The pins exercise the bound-driven paths, not only the plain loops.
    assert any(stats["prefixes_skipped"] for stats in pruned)
    assert any(stats["pairs_skipped"] for stats in pruned)
    assert any(stats["roots_skipped"] for stats in pruned)


@pytest.mark.parametrize("index", range(30))
def test_counters_and_answers_repeat_exactly(index, pins, wiki_indexes):
    query = list(pins["queries"])[index]
    assert pins["k"] == K
    computed = json.loads(json.dumps(run_pins(wiki_indexes, query)))
    assert computed == pins["queries"][query]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from conftest import WIKI_TEST_CONFIG

    from repro.datasets.wiki import generate_wiki_graph
    from repro.index.builder import build_indexes

    bundle = build_indexes(generate_wiki_graph(WIKI_TEST_CONFIG), d=3)
    computed = compute_pins(bundle)
    lines = ",\n".join(  # one query a line
        f"  {json.dumps(query)}: {json.dumps(record)}"
        for query, record in computed["queries"].items()
    )
    PINS.write_text(
        f'{{"k": {computed["k"]}, "queries": {{\n{lines}\n}}}}\n'
    )
    print(f"wrote {PINS}")

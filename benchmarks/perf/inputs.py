"""The benchmark's inputs: fixed datasets, fixed query groups, the
seeded Zipf and write streams, the oracle, and the sha256 pins that keep
all of them from drifting silently.

The graphs and the query pool are *fixed* (a constant family of
``generate_workload`` seeds): the contract's ten seeded runs of one
commit must agree within a metric's bound, so what a query group holds
cannot change with ``--seed``.  What ``--seed`` draws is the traffic:
the order of the search op lists, the Zipf request stream, the texts
written and the queries read beside them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.datasets.queries import WorkloadConfig, generate_workload
from repro.datasets.wiki import (
    WikiConfig,
    generate_wiki_graph,
    scaled_wiki_config,
)
from repro.search.context import EnumerationContext
from repro.search.engine import TableAnswerEngine

#: A query as a user types it: keywords separated by spaces.
Query = str
Fingerprint = Tuple[tuple, tuple, tuple]

PINS_PATH = Path(__file__).with_name("pins.json")

#: Family seed of the fixed query pool (not ``--seed``; see module doc).
POOL_SEED = 17
#: The ``--seed`` whose Zipf and write streams are pinned too.
DEFAULT_SEED = 17
#: Queries with this many valid subtrees or more are left out of every
#: group: one 45k-subtree query takes seconds and alone sets the tail.
SUBTREE_CAP = 10_000

ZIPF_ALPHA = 0.9


@dataclass(frozen=True)
class Profile:
    """Sizes of one configuration of the benchmark.  ``full`` is the
    benchmark; ``tiny`` runs the same code in about a second per
    workload for the self-check, and its numbers mean nothing."""

    name: str
    #: The search/serving graph ("wiki-800" in the full profile).
    wiki: WikiConfig
    #: Entity count of the update workload's graph ("wiki-5k").
    update_entities: int
    #: ``generate_workload`` families drawn into the query pool.
    pool_families: int
    #: Inclusive valid-subtree ranges of the query groups.
    heavy: Tuple[int, int]
    light: Tuple[int, int]
    served: Tuple[int, int]
    #: ``http_zipf``: requests between two writer ticks (the last one of
    #: each window is the tick).
    window: int
    #: ``update_mix``: bursts of four writes and four reads per pass.
    bursts: int
    #: Times set-up is repeated in a run (its median is ``setup_s``).
    setup_repeats: int
    #: Whether the traced run fails when its stage spans do not add up to
    #: the whole op (``harness.trace_gap_pct``).
    gap_gated: bool


PROFILES = {
    "full": Profile(
        name="full",
        wiki=WikiConfig(
            num_entities=800, num_types=24, num_attrs=36,
            vocabulary_size=240, seed=23,
        ),
        update_entities=5000,
        pool_families=6,
        heavy=(1000, SUBTREE_CAP - 1),
        light=(1, 99),
        served=(1, SUBTREE_CAP - 1),
        window=250,
        bursts=20,
        setup_repeats=3,
        gap_gated=True,
    ),
    "tiny": Profile(
        name="tiny",
        wiki=WikiConfig(
            num_entities=120, num_types=8, num_attrs=12,
            vocabulary_size=60, seed=5,
        ),
        update_entities=300,
        pool_families=1,
        heavy=(20, 399),
        light=(1, 19),
        served=(1, 399),
        window=40,
        bursts=4,
        setup_repeats=1,
        # One light query, ops of a fraction of a millisecond: the
        # medians are not measurements.
        gap_gated=False,
    ),
}


def search_graph(profile: Profile):
    return generate_wiki_graph(profile.wiki)


def update_graph(profile: Profile, entities: int = 0):
    return generate_wiki_graph(
        scaled_wiki_config(entities or profile.update_entities)
    )


# ------------------------------------------------------------------ digests


def digest(value) -> str:
    """sha256 of a JSON-able value (lists and tuples hash alike)."""
    encoded = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def graph_digest(graph) -> str:
    """sha256 over the node list (type, text) and the edge list."""
    hasher = hashlib.sha256()
    for node in graph.nodes():
        hasher.update(
            f"n{graph.node_type(node)}|{graph.node_text(node)}\n".encode()
        )
    for edge in graph.edges():
        hasher.update(
            f"e{edge.source}|{edge.attr}|{edge.target}\n".encode()
        )
    return hasher.hexdigest()


def check_pins(profile: Profile, observed: Dict[str, str]) -> List[str]:
    """Pin mismatches, as messages (empty = inputs are the pinned ones)."""
    pins = json.loads(PINS_PATH.read_text())[profile.name]
    return [
        f"input pin {profile.name}/{key}: pinned {pins.get(key)}, "
        f"generated {actual}"
        for key, actual in observed.items() if pins.get(key) != actual
    ]


# ------------------------------------------------------------------ queries


def query_pool(indexes, families: int) -> List[Query]:
    """The fixed query pool, deduplicated in generation order."""
    rng = random.Random(POOL_SEED)
    pool: Dict[Query, None] = {}
    for _ in range(families):
        config = WorkloadConfig(
            queries_per_size=8, min_keywords=1, max_keywords=6,
            seed=rng.randrange(1 << 30),
        )
        for words in generate_workload(indexes, config):
            pool[" ".join(words)] = None
    return list(pool)


def subtree_bound(indexes, query: Query) -> int:
    """Upper bound on the query's valid subtrees: path combinations per
    candidate root, before the tree check.  Costs one root-map
    intersection, where the exact count costs a full enumeration."""
    context = EnumerationContext(indexes, query)
    total = 0
    for root in context.candidate_roots:
        combos = 1
        for word_index in range(len(context.words)):
            combos *= context.path_count(word_index, root)
        total += combos
    return total


def fingerprint(result) -> Fingerprint:
    """What must be bit-identical on every serving path."""
    return (
        tuple(result.scores()),
        tuple(tuple(key) for key in result.pattern_keys()),
        tuple(answer.num_subtrees for answer in result.answers),
    )


def oracle_search(engine: TableAnswerEngine, query: Query, k: int):
    """The untimed reference: full enumeration on a cold heap engine."""
    return engine.search(
        query, k=k, algorithm="linear_full", keep_subtrees=False
    )


def select_group(
    engine: TableAnswerEngine,
    queries: Sequence[Query],
    subtrees: Tuple[int, int],
    k: int,
    min_keywords: int = 1,
) -> List[Tuple[Query, Fingerprint]]:
    """Queries whose exact valid-subtree count lies in ``subtrees``,
    each with its oracle fingerprint at ``k``.

    The count is the oracle's own ``subtrees_enumerated``, so grouping
    costs nothing beyond the oracle run.  Queries whose bound reaches
    twice the range's upper end are dropped unenumerated (the heaviest
    would cost seconds each).
    """
    low, high = subtrees
    group = []
    for query in queries:
        if len(query.split()) < min_keywords:
            continue
        bound = subtree_bound(engine.indexes, query)
        if bound < low or bound >= 2 * (high + 1):
            continue
        result = oracle_search(engine, query, k)
        if low <= result.stats.subtrees_enumerated <= high:
            group.append((query, fingerprint(result)))
    return group


# ------------------------------------------------------------------ streams


def zipf_stream(rng: random.Random, pool_size: int, count: int) -> List[int]:
    """``count`` pool indexes, popularity ``1 / (rank + 1) ** alpha``
    with rank = position in the pool."""
    weights = [1.0 / (rank + 1) ** ZIPF_ALPHA for rank in range(pool_size)]
    return rng.choices(range(pool_size), weights=weights, k=count)


def write_stream(
    rng: random.Random, vocabulary: Sequence[str], count: int
) -> List[str]:
    """Texts of the entities the update workload adds: existing words,
    so every write lands in a posting list queries read."""
    return [rng.choice(vocabulary) for _ in range(count)]

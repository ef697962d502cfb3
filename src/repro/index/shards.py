"""Shards of one index bundle: per-query root-type slices of the one store.

Scatter–gather serving (:mod:`repro.search.sharding`) splits a query's
work over the workers that run at once.  A shard is not a second store.
It is **the set of the query's root types the shard map puts in it**:
shard *i* of a bundle is the bundle itself, read through a query
context narrowed to those types
(:meth:`~repro.search.context.EnumerationContext.restricted_to`).  One
invariant makes the gathered per-shard top-k lists merge
**bit-identically** into the unsharded answer:

    **pattern containment** — every tree pattern's entire root set lives
    in exactly one shard.

A path pattern's first label is its root's *type* (see
:func:`repro.index.path_enum.interleaved_labels`), so two roots can only
ever share a pattern when they share a type.  Any map from root types
to shards therefore keeps patterns whole — a type is the finest unit
that does.  Splitting by raw root id instead would split a pattern's
roots across shards and break both exact merging (pattern scores
aggregate subtree scores *across* roots, in ascending-root float order)
and bound-driven shard skipping (a skipped shard would silently drop
its root contributions from patterns retained elsewhere).
``docs/sharding.md`` walks through the argument.

The paper's algorithms are already organised by root type — PATTERNENUM
loops over ``Patterns_C(w)`` per type ``C``, LINEARENUM-TOPK partitions
the candidate roots by type and sizes each type's work as its subtree
count ``N_R = sum_r prod_i |Paths(w_i, r)|`` (§4.2.1) — so a shard run
is the unmodified algorithm over fewer types: it reads the same leaves,
in the same order, with the same float operations as the unsharded run
does for those types, and computes *exact global* scores for its
patterns.  That is what makes the coordinator's merge a pure top-k
union.

Which types go together is chosen per query, from that same ``N_R``
(:meth:`ShardedIndexes.assign`): longest-processing-time-first over as
many shards as run at once, so a wave — which costs its slowest shard —
is as even as the query's types allow.  The map is a pure function of
the snapshot and the query, so the coordinator and every worker derive
the same one from their own contexts; nothing about it crosses a pipe
or a file.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, NamedTuple

from repro.core.errors import PathIndexError
from repro.core.types import TypeId
from repro.index.builder import PathIndexes


@dataclass(frozen=True)
class ShardedIndexes:
    """One index bundle seen as ``num_shards`` pattern-disjoint shards.

    ``base`` is the bundle (live or snapshot) every shard reads.
    ``width`` is how many shards run at once — ``min(num_shards, usable
    cores)``, read when the bundle is partitioned — and the number of
    shards a query's types are spread over (:meth:`assign`).  Shards at
    or beyond ``width``, and shards a query has too few types to fill,
    are empty for it: they answer with no candidates and are skipped.
    """

    base: PathIndexes
    num_shards: int
    width: int

    @property
    def shards(self) -> List["Shard"]:
        return [Shard(self, shard_id) for shard_id in range(self.num_shards)]

    def assign(self, context) -> Dict[TypeId, int]:
        """The query's shard map: each candidate root type → its shard.

        LPT over the per-type subtree counts ``N_R``
        (:meth:`~repro.search.context.EnumerationContext.subtree_counts`):
        types in ``(-N_R, type id)`` order, each onto the least-loaded
        of the first ``width`` shards, lowest shard id on ties.  The
        one place the map is computed; a pure function of
        ``(snapshot, query)``, so a fresh context on the same snapshot
        gives the same map.
        """
        counts = context.subtree_counts()
        loads = [(0, shard_id) for shard_id in range(self.width)]
        shard_map: Dict[TypeId, int] = {}
        for root_type in sorted(counts, key=lambda t: (-counts[t], t)):
            load, shard_id = loads[0]
            shard_map[root_type] = shard_id
            heapq.heapreplace(loads, (load + counts[root_type], shard_id))
        return shard_map


class Shard(NamedTuple):
    """One shard: what a shard worker inherits and
    :func:`repro.search.sharding.search_shard` runs a plan on."""

    sharded: ShardedIndexes
    shard_id: int


def partition_indexes(
    indexes: PathIndexes, num_shards: int
) -> ShardedIndexes:
    """``indexes`` as ``num_shards`` shards: O(1), nothing is copied.

    The usable cores are read here, once per partition; the coordinator
    and the workers forked from it keep the width this call saw.
    """
    if num_shards < 1:
        raise PathIndexError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    # Imported here: the search layer imports this module.
    from repro.search import sharding

    return ShardedIndexes(
        base=indexes,
        num_shards=num_shards,
        width=min(num_shards, sharding.usable_cores()),
    )

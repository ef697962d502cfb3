"""Shards of one index bundle: root-type slices of the one store.

Scatter–gather serving (:mod:`repro.search.sharding`) splits a query's
work K ways so a pool of forked workers can each search a fraction of
the candidate roots.  A shard is not a second store.  It is **the set
of root types that hash to it**: shard *i* of a bundle is the bundle
itself, read through a query context narrowed to those types
(:meth:`~repro.search.context.EnumerationContext.restricted_to`).  One
invariant makes the gathered per-shard top-k lists merge
**bit-identically** into the unsharded answer:

    **pattern containment** — every tree pattern's entire root set lives
    in exactly one shard.

A path pattern's first label is its root's *type* (see
:func:`repro.index.path_enum.interleaved_labels`), so two roots can only
ever share a pattern when they share a type.  Roots are therefore
assigned to shards by a stable hash of their type id — the finest
root-id partition that keeps patterns whole.  Hashing raw root ids
instead would split a pattern's roots across shards and break both exact
merging (pattern scores aggregate subtree scores *across* roots, in
ascending-root float order) and bound-driven shard skipping (a skipped
shard would silently drop its root contributions from patterns retained
elsewhere).  ``docs/sharding.md`` walks through the argument.

The paper's algorithms are already organised by root type — PATTERNENUM
loops over ``Patterns_C(w)`` per type ``C``, LINEARENUM-TOPK partitions
the candidate roots by type (§4.2.1) — so a shard run is the unmodified
algorithm over fewer types: it reads the same leaves, in the same order,
with the same float operations as the unsharded run does for those
types, and computes *exact global* scores for its patterns.  That is
what makes the coordinator's merge a pure top-k union.

The hash is deliberately not Python's ``hash()`` (salted per process):
workers and coordinator must agree on the assignment across process
boundaries and releases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence

from repro.core.errors import PathIndexError
from repro.core.types import NodeId, TypeId
from repro.index.builder import PathIndexes

_MASK64 = (1 << 64) - 1


def shard_of_type(type_id: TypeId, num_shards: int) -> int:
    """Stable shard assignment for one root type.

    SplitMix64's finalizer: deterministic across processes and platforms
    (unlike the salted builtin ``hash``), and avalanching, so consecutive
    type ids spread evenly over small shard counts.
    """
    x = (int(type_id) + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x % num_shards


@dataclass
class ShardedIndexes:
    """One index bundle seen as ``num_shards`` pattern-disjoint shards.

    ``base`` is the bundle (live or snapshot) every shard reads; the
    type→shard assignment — :func:`shard_of_type`, remembered per type —
    is the whole partition.  Shards may be empty when the graph has
    fewer populated types than shards; an empty shard answers every
    query with no candidates.
    """

    base: PathIndexes
    num_shards: int
    _type_shards: Dict[TypeId, int] = field(default_factory=dict)

    @property
    def shards(self) -> List["Shard"]:
        return [Shard(self, shard_id) for shard_id in range(self.num_shards)]

    def shard_of_type(self, type_id: TypeId) -> int:
        """The shard owning root type ``type_id``."""
        shard = self._type_shards.get(type_id)
        if shard is None:
            shard = self._type_shards[type_id] = shard_of_type(
                type_id, self.num_shards
            )
        return shard

    def shard_of_root(self, root: NodeId) -> int:
        """The shard owning ``root`` (via its type)."""
        return self.shard_of_type(self.base.graph.node_type(root))

    def partition_roots(
        self, roots: Sequence[NodeId]
    ) -> List[List[NodeId]]:
        """Split a (sorted) root list into per-shard lists, order kept."""
        parts: List[List[NodeId]] = [[] for _ in range(self.num_shards)]
        for root in roots:
            parts[self.shard_of_root(root)].append(root)
        return parts


class Shard(NamedTuple):
    """One shard: what a shard worker inherits and
    :func:`repro.search.sharding.search_shard` runs a plan on."""

    sharded: ShardedIndexes
    shard_id: int

    def owns_type(self, type_id: TypeId) -> bool:
        return self.sharded.shard_of_type(type_id) == self.shard_id


def partition_indexes(
    indexes: PathIndexes, num_shards: int
) -> ShardedIndexes:
    """``indexes`` as ``num_shards`` shards: O(1), nothing is copied."""
    if num_shards < 1:
        raise PathIndexError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    return ShardedIndexes(base=indexes, num_shards=num_shards)

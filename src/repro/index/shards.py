"""A split needs nothing from an index ahead of its query.

A query's root types are divided into slices per query
(:meth:`~repro.search.context.EnumerationContext.slice_map`) and every
slice reads the one store (``docs/sharding.md``), so
:func:`partition_indexes` only checks its count and hands the bundle
back.  It is kept for ``benchmarks/perf``, which calls it.
"""

from __future__ import annotations

from repro.core.errors import PathIndexError
from repro.index.builder import PathIndexes


def partition_indexes(indexes: PathIndexes, num_shards: int) -> PathIndexes:
    """``indexes`` itself, once ``num_shards >= 1`` is checked."""
    if num_shards < 1:
        raise PathIndexError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    return indexes

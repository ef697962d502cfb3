"""Base ⊕ tail: how a store over a mapped base takes writes in O(delta).

A :class:`~repro.index.store.PostingStore` is an immutable base (the
columns of a v3 file, served as zero-copy ``memoryview`` casts; empty for
a heap build) plus whatever has been written since on the heap.  Nothing
of the base is ever copied wholesale to apply a write:

* a **path column** becomes a :class:`ChainColumn` on the first
  ``append_path`` — the mapped base stays untouched (pinned snapshots
  keep reading it) and appends go to a heap ``array`` tail;
* a **posting column** is per-word: the first ``add_posting`` to a word
  whose column is still a mapped slice heap-copies that one word
  (copy-on-write), every other word keeps its slice;
* a word's **leaf rows** are re-derived on the heap by the next
  ``finalize()`` for exactly the words written to; the other words keep
  decoding the base's rows (see ``docs/index-format.md``).

Compaction (:func:`repro.index.serialize.compact_indexes`) folds base ⊕
heap into a fresh v3 file and re-maps, after which every column is a
plain mapped view again.
"""

from __future__ import annotations

from array import array


class ChainColumn:
    """A flat column as immutable base ⊕ growable heap tail.

    Supports exactly the operations :class:`~repro.index.store.
    PostingStore` performs on its path columns: integer and contiguous
    slice subscripts, iteration, ``len``, ``append``/``extend``,
    ``tobytes`` (base + tail in one pair of memcpys — serialization and
    the explicit thaw path), plus ``typecode``/``itemsize`` for byte
    accounting.  The base is never written; readers holding it (pinned
    snapshot leaves, the v3 reader) observe no change.
    """

    __slots__ = ("_base", "_tail", "_base_len", "typecode")

    def __init__(self, base, typecode: str) -> None:
        self._base = base
        self._tail = array(typecode)
        self._base_len = len(base)
        self.typecode = typecode

    @property
    def itemsize(self) -> int:
        return self._tail.itemsize

    def append(self, value) -> None:
        self._tail.append(value)

    def extend(self, values) -> None:
        self._tail.extend(values)

    def __len__(self) -> int:
        return self._base_len + len(self._tail)

    def __getitem__(self, index):
        base_len = self._base_len
        if isinstance(index, slice):
            start, stop, step = index.indices(base_len + len(self._tail))
            if step != 1:  # pragma: no cover - store slices are contiguous
                return [self[i] for i in range(start, stop, step)]
            if stop <= base_len:
                return list(self._base[start:stop])
            if start >= base_len:
                return list(self._tail[start - base_len:stop - base_len])
            return list(self._base[start:base_len]) + list(
                self._tail[:stop - base_len]
            )
        if index < 0:
            index += base_len + len(self._tail)
        if 0 <= index < base_len:
            return self._base[index]
        return self._tail[index - base_len]

    def __iter__(self):
        yield from self._base
        yield from self._tail

    def tobytes(self) -> bytes:
        return self._base.tobytes() + self._tail.tobytes()

    def __repr__(self) -> str:
        return (
            f"ChainColumn({self.typecode!r}, base={self._base_len}, "
            f"tail={len(self._tail)})"
        )

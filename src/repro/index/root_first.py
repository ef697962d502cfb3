"""The root-first path index (Figure 4(b) / Figure 5(b)).

For each word ``w``, paths are grouped by *root first, then pattern*.
Access methods follow the paper:

* ``Roots(w)`` — all roots reaching a node/edge containing ``w``;
* ``Patterns(w, r)`` — patterns through which root ``r`` reaches ``w``;
* ``Paths(w, r)`` — all such paths from ``r`` (any pattern);
* ``Paths(w, r, P)`` — restricted to one pattern.

``Paths(w, r)`` counts are precomputed: Algorithm 4 (line 4) needs
``N_R = sum_r prod_i |Paths(w_i, r)|`` *without* enumerating the paths.

Since the columnar-store refactor this class is a stateless *facade*:
postings live in one shared :class:`~repro.index.store.PostingStore`
(also behind :class:`~repro.index.pattern_first.PatternFirstIndex`), and
each accessor reads the store's current root view — over a
:class:`~repro.index.store.StoreSnapshot`, the pinned generation's; no
view is cached or copied here.  The leaves are the *same*
``(path_id, sim)`` pair tuples (:data:`~repro.index.store.Leaf`) as the
pattern-first view's, and count probes (``path_count``,
``num_entries``) read the store's columns without materializing a
single :class:`~repro.index.entry.PathEntry`.  ``roots`` and
``pattern_map`` hand leaves out as they are, for the search loops;
``paths``, ``paths_with_pattern`` and ``iter_entries`` materialize
entries into new lists.  A miss on a mapping accessor is a read-only
empty mapping, never a shared mutable object.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.core.types import NodeId, PatternId
from repro.index.entry import PathEntry
from repro.index.interner import PatternInterner
from repro.index.store import EMPTY_MAP, Leaf, PostingStore


class RootFirstIndex:
    """word -> root -> pattern -> postings with paper-named accessors."""

    def __init__(
        self,
        interner: PatternInterner,
        store: Optional[PostingStore] = None,
    ) -> None:
        """Create a view over ``store`` (or a private store when omitted).

        Pass the same store to :class:`~repro.index.pattern_first.\
PatternFirstIndex` to share every posting between the two indexes.
        """
        self.interner = interner
        self.store = store if store is not None else PostingStore(interner)

    # -------------------------------------------------------------- building

    def add(self, word: str, pid: PatternId, entry: PathEntry) -> None:
        """Insert one posting (interning its path) into the backing store.

        When the store is shared with a pattern-first view, add through
        the store (or through exactly one view) — the posting is visible
        to both sides.
        """
        self.store.add_entry(word, pid, entry)

    # ------------------------------------------------------------- accessors

    def words(self) -> Iterable[str]:
        return self.store.words()

    def has_word(self, word: str) -> bool:
        return self.store.has_word(word)

    def roots(
        self, word: str
    ) -> Mapping[NodeId, Mapping[PatternId, Leaf]]:
        """Roots(w) as a root -> (pattern -> leaf) mapping."""
        return self.store.root_view().get(word, EMPTY_MAP)

    def patterns(self, word: str, root: NodeId) -> Sequence[PatternId]:
        """Patterns(w, r)."""
        return list(self.pattern_map(word, root).keys())

    def pattern_map(
        self, word: str, root: NodeId
    ) -> Mapping[PatternId, Leaf]:
        """Pattern -> leaf mapping for one (word, root) pair."""
        return self.store.root_view().get(word, EMPTY_MAP).get(root, EMPTY_MAP)

    def paths(self, word: str, root: NodeId) -> Iterator[PathEntry]:
        """Paths(w, r): every path from ``r`` to ``w`` (any pattern).

        Implemented, as the paper notes, "by enumerating P and accessing
        Paths(w, r, P) for each P".  Always returns an iterator.
        """
        by_pattern = self.pattern_map(word, root)
        make = self.store.make_entry
        return (
            make(path_id, sim)
            for leaf in by_pattern.values()
            for path_id, sim in leaf
        )

    def paths_with_pattern(
        self, word: str, root: NodeId, pid: PatternId
    ) -> Sequence[PathEntry]:
        """Paths(w, r, P), materialized into a new list."""
        try:
            leaf = self.store.root_view()[word][root][pid]
        except KeyError:
            leaf = ()
        return self.store.leaf_entries(leaf)

    def path_count(self, word: str, root: NodeId) -> int:
        """|Paths(w, r)| in O(1) from the store's precomputed counts."""
        return self.store.root_counts(word).get(root, 0)

    # ------------------------------------------------------------------ size

    def num_entries(self, word: Optional[str] = None) -> int:
        """Total stored postings (optionally for one word) — O(1)."""
        return self.store.num_postings(word)

    def iter_entries(self) -> Iterable[Tuple[str, PatternId, PathEntry]]:
        make = self.store.make_entry
        for word, by_root in self.store.root_view().items():
            for by_pattern in by_root.values():
                for pid, leaf in by_pattern.items():
                    for path_id, sim in leaf:
                        yield word, pid, make(path_id, sim)

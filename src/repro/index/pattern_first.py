"""The pattern-first path index (Figure 4(a) / Figure 5(a)).

For each word ``w``, paths ending at a node/edge containing ``w`` are
grouped by *pattern first, then root*.  Access methods follow the paper:

* ``Patterns(w)`` — all patterns reaching ``w`` from some root;
* ``Roots(w, P)`` — roots reaching ``w`` through pattern ``P``;
* ``Paths(w, P, r)`` — the matching paths themselves.

PATTERNENUM (Algorithm 2) additionally needs patterns grouped by their root
*type* (line 3, ``Patterns_C(w)``); the store derives that grouping per
word, on the word's first touch, from its pattern view
(:meth:`~repro.index.store.PostingStore.root_type_view`).

Since the columnar-store refactor this class is a stateless *facade*:
postings live in one shared :class:`~repro.index.store.PostingStore`
(also behind :class:`~repro.index.root_first.RootFirstIndex`), and each
accessor reads the store's current view dicts, decoded word by word on
first touch — over a :class:`~repro.index.store.StoreSnapshot`, the
pinned generation's.  Nothing here caches or copies a view, so no
generation outlives the store and snapshots that hold it.  A leaf is a
tuple of ``(path_id, sim)`` pairs (:data:`~repro.index.store.Leaf`, the
same object the root-first view holds); ``roots`` hands leaves out as
they are, for the search loops, while ``paths`` and ``iter_entries``
materialize :class:`~repro.index.entry.PathEntry` tuples.  No accessor
returns a shared mutable object: entry lists are new on every call, the
root-type grouping holds tuples, and a miss elsewhere is ``()`` or a
read-only empty mapping.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Set, Tuple

from repro.core.types import NodeId, PatternId, TypeId
from repro.index.entry import PathEntry
from repro.index.interner import PatternInterner
from repro.index.store import EMPTY_MAP, Leaf, PostingStore


class PatternFirstIndex:
    """word -> pattern -> root -> postings with paper-named accessors."""

    def __init__(
        self,
        interner: PatternInterner,
        store: Optional[PostingStore] = None,
    ) -> None:
        """Create a view over ``store`` (or a private store when omitted).

        Pass the same store to :class:`~repro.index.root_first.\
RootFirstIndex` to share every posting between the two indexes.
        """
        self.interner = interner
        self.store = store if store is not None else PostingStore(interner)

    # -------------------------------------------------------------- building

    def add(self, word: str, pid: PatternId, entry: PathEntry) -> None:
        """Insert one posting (interning its path) into the backing store.

        When the store is shared with a root-first view, add through the
        store (or through exactly one view) — the posting is visible to
        both sides.
        """
        self.store.add_entry(word, pid, entry)

    # ------------------------------------------------------------- accessors

    def words(self) -> Iterable[str]:
        return self.store.words()

    def has_word(self, word: str) -> bool:
        return self.store.has_word(word)

    def patterns(self, word: str) -> Sequence[PatternId]:
        """Patterns(w): all path patterns reaching ``w``."""
        return list(self.store.pattern_view().get(word, EMPTY_MAP).keys())

    def roots(self, word: str, pid: PatternId) -> Mapping[NodeId, Leaf]:
        """Roots(w, P) as a root -> leaf mapping (keys are the roots).

        Returning the mapping rather than a key list lets callers intersect
        root sets and fetch paths without a second lookup.
        """
        try:  # a C-level dict hit once the word has been touched
            return self.store.pattern_view()[word].get(pid, EMPTY_MAP)
        except KeyError:
            return EMPTY_MAP

    def paths(
        self, word: str, pid: PatternId, root: NodeId
    ) -> Sequence[PathEntry]:
        """Paths(w, P, r), materialized into a new list."""
        try:
            leaf = self.store.pattern_view()[word][pid][root]
        except KeyError:
            leaf = ()
        return self.store.leaf_entries(leaf)

    def patterns_rooted_at(
        self, word: str, root_type: TypeId
    ) -> Sequence[PatternId]:
        """Patterns_C(w): patterns whose root has type ``root_type``."""
        try:
            return self.store.root_type_view()[word].get(root_type, ())
        except KeyError:
            return ()

    def root_types(self, word: str) -> Set[TypeId]:
        """All root types among ``word``'s patterns."""
        return set(self.store.root_type_view().get(word, EMPTY_MAP).keys())

    # ------------------------------------------------------------------ size

    def num_entries(self, word: Optional[str] = None) -> int:
        """Total stored postings (optionally for one word): S_i of Thm 3/4.

        O(1) per word — read from the store's posting columns.
        """
        return self.store.num_postings(word)

    def iter_entries(self) -> Iterable[Tuple[str, PatternId, PathEntry]]:
        """Every (word, pattern, entry) triple — used by stats/tests."""
        make = self.store.make_entry
        for word, by_pattern in self.store.pattern_view().items():
            for pid, by_root in by_pattern.items():
                for leaf in by_root.values():
                    for path_id, sim in leaf:
                        yield word, pid, make(path_id, sim)

"""The pattern-first path index (Figure 4(a) / Figure 5(a)).

For each word ``w``, paths ending at a node/edge containing ``w`` are
grouped by *pattern first, then root*.  Access methods follow the paper:

* ``Patterns(w)`` — all patterns reaching ``w`` from some root;
* ``Roots(w, P)`` — roots reaching ``w`` through pattern ``P``;
* ``Paths(w, P, r)`` — the matching paths themselves.

PATTERNENUM (Algorithm 2) additionally needs patterns grouped by their root
*type* (line 3, ``Patterns_C(w)``); that grouping is derived per word, on
the word's first touch, from the store's pattern view.

Since the columnar-store refactor this class is a thin *view*: postings
live in one shared :class:`~repro.index.store.PostingStore` (also behind
:class:`~repro.index.root_first.RootFirstIndex`), and the nested dicts
here are the store's own, decoded word by word on first touch.  A leaf
is a tuple of ``(path_id, sim)`` pairs (:data:`~repro.index.store.Leaf`,
the same object the root-first view holds); ``roots`` hands leaves out
as they are, for the search loops, while ``paths`` and ``iter_entries``
materialize :class:`~repro.index.entry.PathEntry` tuples.  No accessor
returns a shared mutable object: entry lists are new on every call, the
root-type grouping holds tuples, and a miss elsewhere is ``()`` or a
read-only empty mapping.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.types import NodeId, PatternId, TypeId
from repro.index.entry import PathEntry
from repro.index.interner import PatternInterner
from repro.index.store import EMPTY_MAP, LazyWordDict, Leaf, PostingStore


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
        self._data: Dict[str, Dict[PatternId, Mapping[NodeId, Leaf]]] = {}
        self._by_root_type: Dict[str, Dict[TypeId, Tuple[PatternId, ...]]] = {}
        self._built_version = -1

    # -------------------------------------------------------------- building

    def add(self, word: str, pid: PatternId, entry: PathEntry) -> None:
        """Insert one posting (interning its path) into the backing store.

        When the store is shared with a root-first view, add through the
        store (or through exactly one view) — the posting is visible to
        both sides.
        """
        self.store.add_entry(word, pid, entry)

    def finalize(self) -> None:
        """(Re)build the nested view dicts from the store's grouping.

        Sorting (patterns by id, roots ascending, paths lexicographically)
        matches the paper's "sort and store paths sequentially in memory"
        and makes every downstream iteration order deterministic.  Cheap
        when nothing changed; safe to call repeatedly.
        """
        store = self.store
        if self._built_version == store.version:
            return
        data = store.pattern_view()  # shared with the store, not copied
        pattern = self.interner.pattern

        def grouping(word: str) -> Dict[TypeId, Tuple[PatternId, ...]]:
            by_root_type: Dict[TypeId, List[PatternId]] = {}
            for pid in data[word]:
                by_root_type.setdefault(
                    pattern(pid).root_type, []
                ).append(pid)
            return {
                root_type: tuple(pids)
                for root_type, pids in by_root_type.items()
            }

        self._data = data
        # Lazy like the view it groups, over that view's own vocabulary:
        # grouping every word here would decode the whole index.
        self._by_root_type = LazyWordDict(data.vocab, grouping)
        self._built_version = store.version

    def _ensure(self) -> None:
        if self._built_version != self.store.version:
            self.finalize()

    # ------------------------------------------------------------- accessors

    def words(self) -> Iterable[str]:
        return self.store.words()

    def has_word(self, word: str) -> bool:
        return self.store.has_word(word)

    def patterns(self, word: str) -> Sequence[PatternId]:
        """Patterns(w): all path patterns reaching ``w``."""
        self._ensure()
        return list(self._data.get(word, EMPTY_MAP).keys())

    def roots(self, word: str, pid: PatternId) -> Mapping[NodeId, Leaf]:
        """Roots(w, P) as a root -> leaf mapping (keys are the roots).

        Returning the mapping rather than a key list lets callers intersect
        root sets and fetch paths without a second lookup.
        """
        self._ensure()
        try:  # a C-level dict hit once the word has been touched
            return self._data[word].get(pid, EMPTY_MAP)
        except KeyError:
            return EMPTY_MAP

    def paths(
        self, word: str, pid: PatternId, root: NodeId
    ) -> Sequence[PathEntry]:
        """Paths(w, P, r), materialized into a new list."""
        self._ensure()
        try:
            leaf = self._data[word][pid][root]
        except KeyError:
            leaf = ()
        return self.store.leaf_entries(leaf)

    def patterns_rooted_at(
        self, word: str, root_type: TypeId
    ) -> Sequence[PatternId]:
        """Patterns_C(w): patterns whose root has type ``root_type``."""
        self._ensure()
        try:
            return self._by_root_type[word].get(root_type, ())
        except KeyError:
            return ()

    def root_types(self, word: str) -> Set[TypeId]:
        """All root types among ``word``'s patterns."""
        self._ensure()
        return set(self._by_root_type.get(word, EMPTY_MAP).keys())

    # ------------------------------------------------------------------ size

    def num_entries(self, word: Optional[str] = None) -> int:
        """Total stored postings (optionally for one word): S_i of Thm 3/4.

        O(1) per word — read from the store's posting columns.
        """
        return self.store.num_postings(word)

    def iter_entries(self) -> Iterable[Tuple[str, PatternId, PathEntry]]:
        """Every (word, pattern, entry) triple — used by stats/tests."""
        self._ensure()
        make = self.store.make_entry
        for word, by_pattern in self._data.items():
            for pid, by_root in by_pattern.items():
                for leaf in by_root.values():
                    for path_id, sim in leaf:
                        yield word, pid, make(path_id, sim)

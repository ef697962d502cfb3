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
here hold only shared :class:`~repro.index.store.PostingList` flyweights,
rebuilt lazily whenever the store has grown.
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
from repro.index.store import LazyWordDict, PostingList, PostingStore

_EMPTY_DICT: Dict = {}
_EMPTY_LIST: List = []


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
        self._data: Dict[str, Dict[PatternId, Mapping[NodeId, PostingList]]] = {}
        self._by_root_type: Dict[str, Dict[TypeId, List[PatternId]]] = {}
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

        def grouping(word: str) -> Dict[TypeId, List[PatternId]]:
            by_root_type: Dict[TypeId, List[PatternId]] = {}
            for pid in data[word]:
                by_root_type.setdefault(
                    pattern(pid).root_type, []
                ).append(pid)
            return by_root_type

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
        return list(self._data.get(word, _EMPTY_DICT).keys())

    def roots(self, word: str, pid: PatternId) -> Mapping[NodeId, PostingList]:
        """Roots(w, P) as a root -> entries mapping (keys are the roots).

        Returning the mapping rather than a key list lets callers intersect
        root sets and fetch paths without a second lookup.
        """
        self._ensure()
        try:  # a C-level dict hit once the word has been touched
            return self._data[word].get(pid, _EMPTY_DICT)
        except KeyError:
            return _EMPTY_DICT

    def paths(
        self, word: str, pid: PatternId, root: NodeId
    ) -> Sequence[PathEntry]:
        """Paths(w, P, r)."""
        self._ensure()
        return (
            self._data.get(word, _EMPTY_DICT)
            .get(pid, _EMPTY_DICT)
            .get(root, _EMPTY_LIST)
        )

    def patterns_rooted_at(
        self, word: str, root_type: TypeId
    ) -> Sequence[PatternId]:
        """Patterns_C(w): patterns whose root has type ``root_type``."""
        self._ensure()
        try:
            return self._by_root_type[word].get(root_type, _EMPTY_LIST)
        except KeyError:
            return _EMPTY_LIST

    def root_types(self, word: str) -> Set[TypeId]:
        """All root types among ``word``'s patterns."""
        self._ensure()
        return set(self._by_root_type.get(word, _EMPTY_DICT).keys())

    # ------------------------------------------------------------------ size

    def num_entries(self, word: Optional[str] = None) -> int:
        """Total stored postings (optionally for one word): S_i of Thm 3/4.

        O(1) per word — read from the store's posting columns.
        """
        return self.store.num_postings(word)

    def iter_entries(self) -> Iterable[Tuple[str, PatternId, PathEntry]]:
        """Every (word, pattern, entry) triple — used by stats/tests."""
        self._ensure()
        for word, by_pattern in self._data.items():
            for pid, by_root in by_pattern.items():
                for postings in by_root.values():
                    for entry in postings:
                        yield word, pid, entry

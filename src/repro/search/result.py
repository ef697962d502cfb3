"""Search result containers and instrumentation counters.

Every algorithm returns a :class:`SearchResult`: the ranked tree-pattern
answers plus a :class:`SearchStats` block whose counters back the paper's
performance discussions (empty patterns wasted by PATTERNENUM, roots
expanded by LINEARENUM, subtrees enumerated, ...).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.pattern import PathPattern, TreePattern
from repro.core.subtree import ValidSubtree
from repro.core.table import TableAnswer, compose_rows
from repro.core.types import AttrId, NodeId, PatternId
from repro.index.entry import (
    PathEntry,
    chains_form_tree,
    subtree_from_entries,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.index.builder import PathIndexes
    from repro.index.interner import PatternInterner
    from repro.index.store import PostingStore

#: A valid subtree in its compact index form: one entry per query keyword.
#: Since the id-based enumeration refactor the search algorithms retain
#: :class:`ComboRef` objects (path ids + sims, entries materialized on
#: first access); a plain tuple of :class:`PathEntry` remains a valid
#: combo and compares equal to a :class:`ComboRef` over the same paths.
EntryCombo = Sequence[PathEntry]

#: One path as the bare ``(nodes, attrs)`` its row and tree check need.
PathChain = Tuple[Tuple[NodeId, ...], Tuple[AttrId, ...]]


def _row_nodes(chains: Sequence[PathChain]) -> Optional[List[NodeId]]:
    """The chains' nodes end to end if they form a tree, else ``None``."""
    if chains and chains_form_tree(chains):
        return [node for nodes, _attrs in chains for node in nodes]
    return None


class ComboRef(Sequence):
    """One valid subtree held as store-native scalars.

    The id-based enumeration loops never build :class:`PathEntry` objects;
    when a subtree must be *kept* (``keep_subtrees=True``) it is captured
    as a reference — the backing :class:`~repro.index.store.PostingStore`
    plus parallel ``(path_id, sim)`` tuples — and the entries are
    reconstructed lazily (and cached) on first element access.  Rendering
    a table row does not need them: :meth:`row_nodes` reads the nodes
    straight from the store's path columns, tree-checking them
    with the attribute chains first — except on a :class:`KeptCombo`, the
    kind the enumerators keep, which passed that check already.  Equality
    and hashing are by materialized entry values, so combos from different
    stores (built vs loaded, index vs baseline scratch) and plain entry
    tuples all compare interchangeably.

    The reference itself never crosses a process boundary (it would drag
    the store along); :func:`portable_combos` / :func:`bind_combos` ship
    ``pairs`` and re-bind them to the receiver's copy of the store.
    """

    __slots__ = ("_store", "pairs", "_entries", "_hash")

    def __init__(
        self,
        store: "PostingStore",
        pairs: Tuple[Tuple[int, float], ...],
    ) -> None:
        self._store = store
        self.pairs = pairs
        self._entries: Optional[Tuple[PathEntry, ...]] = None
        self._hash: Optional[int] = None

    @property
    def path_ids(self) -> Tuple[int, ...]:
        return tuple(pair[0] for pair in self.pairs)

    @property
    def sims(self) -> Tuple[float, ...]:
        return tuple(pair[1] for pair in self.pairs)

    def entries(self) -> Tuple[PathEntry, ...]:
        """The materialized entry tuple (built once, then cached)."""
        entries = self._entries
        if entries is None:
            make = self._store.make_entry
            entries = self._entries = tuple(
                make(path_id, sim) for path_id, sim in self.pairs
            )
        return entries

    def chains(self) -> List[PathChain]:
        """Every path's ``(nodes, attrs)``, read from the path columns
        (no :class:`PathEntry` is built, nothing is counted)."""
        store = self._store
        return [
            (store.path_nodes(path_id), store.path_attrs(path_id))
            for path_id, _sim in self.pairs
        ]

    def row_nodes(self) -> Optional[List[NodeId]]:
        """Every path's nodes end to end — a table row's input — or
        ``None`` when the paths do not form a tree (this combo was built
        by hand)."""
        return _row_nodes(self.chains())

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.entries())

    def __getitem__(self, index):
        return self.entries()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, ComboRef):
            if self._store is other._store and self.pairs == other.pairs:
                return True
            return self.entries() == other.entries()
        if isinstance(other, (tuple, list)):
            return list(self.entries()) == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        result = self._hash
        if result is None:
            result = self._hash = hash(self.entries())
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.pairs!r})"


class KeptCombo(ComboRef):
    """A :class:`ComboRef` an enumerator kept, so one that passed the
    store's tree check
    (:meth:`~repro.index.store.PostingStore.pairs_checker`): its rows
    read the node columns alone, with no second tree check, in one
    store call.  Built only by :func:`bind_combos`, from the pair tuples
    an enumerator's join kernel kept (or a worker sent back), for the
    answers it returns."""

    __slots__ = ()

    def row_nodes(self) -> List[NodeId]:
        return self._store.row_nodes(self.pairs)


def portable_combos(subtrees: Sequence[EntryCombo]) -> List[tuple]:
    """Kept subtrees in the form that crosses a pipe.

    A :class:`ComboRef` travels as its ``pairs`` — ints and floats only,
    never the store it points into.  Plain :class:`PathEntry` combos (the
    baseline's) are self-contained and travel as they are.
    """
    return [
        combo.pairs if isinstance(combo, ComboRef) else tuple(combo)
        for combo in subtrees
    ]


def bind_combos(
    combos: Sequence[tuple], store: "PostingStore"
) -> List[EntryCombo]:
    """Undo :func:`portable_combos` on the receiving side.

    ``store`` must be the receiver's copy of the store the sender ran
    on: path ids are append-only and every worker is forked from (and
    re-forked with) the version it serves, so the ids name the same
    paths on both sides.  Also how an enumerator wraps the pair tuples
    it kept, for the answers it returns.  An answer's combos are all of
    one kind (one algorithm kept them), so the first decides.
    """
    if not combos or isinstance(combos[0][0], PathEntry):
        return list(combos)
    return [KeptCombo(store, pairs) for pairs in combos]


@dataclass
class SearchStats:
    """Instrumentation shared by all algorithms (fields unused by an
    algorithm stay at their defaults)."""

    algorithm: str
    elapsed_seconds: float = 0.0
    candidate_roots: int = 0
    roots_expanded: int = 0
    patterns_checked: int = 0
    empty_patterns: int = 0
    nonempty_patterns: int = 0
    subtrees_enumerated: int = 0
    tree_check_rejections: int = 0
    sampled_types: int = 0
    rescored_patterns: int = 0
    #: Bound-driven pruning counters (0 / None when pruning is off or
    #: never triggered; semantics in ``docs/pruning.md``).
    roots_skipped: int = 0
    prefixes_skipped: int = 0
    pairs_skipped: int = 0
    #: k-th-score trajectory: the threshold when the top-k queue first
    #: filled, and the final one.  None when the queue never filled (or
    #: pruning was off).
    threshold_first: Optional[float] = None
    threshold_last: Optional[float] = None
    #: Set by :class:`~repro.search.service.SearchService` when the result
    #: was served from the result cache rather than executed; the service
    #: stamps a stats *copy*, so the cached original (whose counters
    #: describe the actual execution) is never mutated.
    from_result_cache: bool = False
    #: Split counters, written only by
    #: :class:`~repro.serve.pool.PooledSearchService` (all-zero on
    #: single-store runs).  ``shards_total`` is the number of slices the
    #: query was split over (0: it ran whole); ``shards_skipped`` is
    #: always 0 (a split sends every slice; kept for readers of the
    #: field); ``shard_failovers`` counts pool workers lost while serving
    #: this query, whose part was answered inline instead.
    #: ``shard_busy_ms`` is each slice's own execution time
    #: (worker-side; the inline run's for a failed-over slice), in slice
    #: order — a split costs its maximum, so a lopsided pair is the
    #: split's skew, visible without a profiler.  ``shard_subtrees`` is,
    #: aligned the same way, each slice's subtree count ``N_R`` — the
    #: work the split balanced on, to hold against ``shard_busy_ms`` (a
    #: single slice run's stats carry its own, as a 1-tuple).
    shards_total: int = 0
    shards_skipped: int = 0
    shard_failovers: int = 0
    shard_busy_ms: Tuple[float, ...] = ()
    shard_subtrees: Tuple[int, ...] = ()

    def format(self) -> str:
        parts = [f"{self.algorithm}: {self.elapsed_seconds * 1000:.1f} ms"]
        if self.from_result_cache:
            parts.append("(cached)")
        for label, value in (
            ("roots", self.candidate_roots),
            ("expanded", self.roots_expanded),
            ("patterns", self.patterns_checked),
            ("empty", self.empty_patterns),
            ("nonempty", self.nonempty_patterns),
            ("subtrees", self.subtrees_enumerated),
            ("non-tree", self.tree_check_rejections),
            ("sampled-types", self.sampled_types),
            ("rescored", self.rescored_patterns),
            ("roots-skipped", self.roots_skipped),
            ("prefixes-skipped", self.prefixes_skipped),
            ("pairs-skipped", self.pairs_skipped),
        ):
            if value:
                parts.append(f"{label}={value}")
        if self.shards_total:
            busy = ", ".join(f"{ms:.1f}" for ms in self.shard_busy_ms)
            parts.append(f"shards={self.shards_total} busy=[{busy}]ms")
        if self.shard_failovers:
            parts.append(f"shard-failovers={self.shard_failovers}")
        if self.threshold_first is not None:
            parts.append(
                f"kth={self.threshold_first:.6g}->{self.threshold_last:.6g}"
            )
        return " ".join(parts)


class Stopwatch:
    """Tiny helper so every algorithm times itself uniformly."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._start


@dataclass
class PatternAnswer:
    """One ranked answer: a tree pattern with its score and subtrees.

    ``subtrees`` holds compact entry combos; :meth:`materialize` converts
    them to :class:`ValidSubtree` objects and :meth:`to_table` renders the
    paper's table answer.  When a search ran with ``keep_subtrees=False``
    the combos are absent but ``num_subtrees`` and ``score`` remain exact.
    """

    pattern_key: Tuple[PatternId, ...]
    pattern: TreePattern
    score: float
    num_subtrees: int
    subtrees: List[EntryCombo] = field(default_factory=list)
    estimated_score: Optional[float] = None

    def materialize(self) -> List[ValidSubtree]:
        trees = []
        for combo in self.subtrees:
            tree = subtree_from_entries(combo)
            if tree is not None:
                trees.append(tree)
        return trees

    def _tree_rows(self) -> Iterator[List[NodeId]]:
        """The kept subtrees as rows of nodes, in order, skipping what
        :meth:`materialize` skips (empty or non-tree combinations; a
        :class:`KeptCombo` is neither)."""
        for combo in self.subtrees:
            if isinstance(combo, ComboRef):
                nodes = combo.row_nodes()
            else:
                nodes = _row_nodes(
                    [(entry.nodes, entry.attrs) for entry in combo]
                )
            if nodes is not None:
                yield nodes

    def to_table(self, graph, max_rows: Optional[int] = None) -> TableAnswer:
        """The table answer, reading only the combos of the rows asked
        for and building no entry, match path or subtree object."""
        return compose_rows(
            self.pattern,
            islice(self._tree_rows(), max_rows),
            graph,
            score=self.score,
            total_rows=len(self.subtrees),
        )


@dataclass
class SearchResult:
    """Ranked tree-pattern answers for one query."""

    query: Tuple[str, ...]
    k: int
    d: int
    answers: List[PatternAnswer]
    stats: SearchStats

    @property
    def num_answers(self) -> int:
        return len(self.answers)

    def scores(self) -> List[float]:
        return [answer.score for answer in self.answers]

    def pattern_keys(self) -> List[Tuple[PatternId, ...]]:
        return [answer.pattern_key for answer in self.answers]

    def tables(self, graph, max_rows: Optional[int] = None) -> List[TableAnswer]:
        return [answer.to_table(graph, max_rows) for answer in self.answers]

    def format(self, graph, max_tables: int = 3, max_rows: int = 5) -> str:
        """Readable digest: per-answer pattern, score, and a table preview."""
        lines = [
            f"query={' '.join(self.query)!r} k={self.k} d={self.d} "
            f"answers={self.num_answers}",
            self.stats.format(),
        ]
        for rank, answer in enumerate(self.answers[:max_tables], start=1):
            lines.append(
                f"#{rank} score={answer.score:.4f} "
                f"rows={answer.num_subtrees}"
            )
            lines.append(answer.pattern.format(graph, self.query))
            if answer.subtrees:
                lines.append(answer.to_table(graph, max_rows).to_ascii(max_rows))
        return "\n".join(lines)


def pattern_from_key(
    indexes: "PathIndexes", key: Tuple[PatternId, ...]
) -> TreePattern:
    """Reconstruct a :class:`TreePattern` from interned pattern ids."""
    return TreePattern(
        tuple(indexes.interner.pattern(pid) for pid in key)
    )


def portable_answers(answers: Sequence[PatternAnswer]) -> List[tuple]:
    """Ranked answers as the plain rows a worker sends over its pipe:
    ``(score, pattern_key, num_subtrees, combos, estimated_score)`` with
    the combos of :func:`portable_combos`.  Pattern ids are global (the
    interner is shared by a bundle and its snapshots)."""
    return [
        (
            answer.score,
            answer.pattern_key,
            answer.num_subtrees,
            portable_combos(answer.subtrees),
            answer.estimated_score,
        )
        for answer in answers
    ]


def bind_answers(
    rows: Sequence[tuple], indexes: "PathIndexes"
) -> List[PatternAnswer]:
    """Ranked ``(score, pattern_key, num_subtrees, combos,
    estimated_score)`` rows as answers in :func:`order_answers` order.

    How every enumerator builds its answers from its ranked queue, and
    how the receiver of a pipe undoes :func:`portable_answers`:
    ``indexes`` is the bundle the rows were enumerated on (or the
    receiver's copy of it), so the combos' path ids are its store's
    (see :func:`bind_combos`).  The sort is stable, so rows already in
    that order keep it.
    """
    store = indexes.store
    return order_answers([
        PatternAnswer(
            pattern_key=key,
            pattern=pattern_from_key(indexes, key),
            score=score,
            num_subtrees=count,
            subtrees=bind_combos(combos, store),
            estimated_score=estimated,
        )
        for score, key, count, combos, estimated in rows
    ])


def canonical_pattern_key(pattern: TreePattern) -> Tuple:
    """Engine-independent sort key for a tree pattern (raw labels)."""
    return tuple((p.labels, p.ends_at_edge) for p in pattern.paths)


def interned_pattern_key(
    interner: "PatternInterner", key: Sequence[PatternId]
) -> Tuple:
    """:func:`canonical_pattern_key` of the tree pattern whose path
    pattern ids are ``key`` — the top-k queues' tie key — reading each
    id from ``interner`` once."""
    return tuple(
        (p.labels, p.ends_at_edge) for p in map(interner.pattern, key)
    )


def _quantize(score: float) -> float:
    """Collapse last-ulp noise: 12 significant digits.

    The engines compute identical scores through different summation
    orders; quantizing before ordering keeps near-identical scores from
    ranking differently across engines.
    """
    return float(f"{score:.12g}")


def order_answers(answers: List[PatternAnswer]) -> List[PatternAnswer]:
    """Final deterministic ranking: score desc, canonical pattern key asc.

    Every engine applies this to its retained top-k so that (near-)tied
    patterns — isomorphic answers are common — rank identically regardless
    of each algorithm's enumeration order.
    """
    answers.sort(
        key=lambda a: (-_quantize(a.score), canonical_pattern_key(a.pattern))
    )
    return answers


def pattern_from_labels(
    labels_key: Tuple[Tuple[Tuple[int, ...], bool], ...]
) -> TreePattern:
    """Reconstruct a :class:`TreePattern` from raw (labels, flag) pairs.

    The baseline has no interner; it keys its dictionary by raw label
    tuples.
    """
    return TreePattern(
        tuple(PathPattern(labels, flag) for labels, flag in labels_key)
    )

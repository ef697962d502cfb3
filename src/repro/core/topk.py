"""Bounded top-k priority queue.

All three search algorithms "only need to maintain k tree patterns in Q"
(Algorithm 2, line 8).  This queue keeps the k highest-scoring items using
a min-heap of size k; pushes below the current k-th score are O(1)
rejections.

Ties are broken deterministically.  By default, earlier insertions win.
Callers may instead pass an explicit ``tie_key`` (any totally ordered
value): among equal scores the *smallest* tie key is retained — the search
engines pass canonical pattern keys so that all algorithms retain the
same answer set at tied k-boundaries, regardless of enumeration order.
"""

from __future__ import annotations

import heapq
from typing import Generic, List, Optional, Tuple, TypeVar

from repro.core.errors import SearchError

T = TypeVar("T")


class _InvertedKey:
    """Wrapper inverting comparison order.

    The retention heap is a *min*-heap that evicts its smallest element;
    to keep the canonically-smallest tie key we must make larger keys
    compare smaller (evicted first).
    """

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __lt__(self, other: "_InvertedKey") -> bool:
        return self.key > other.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _InvertedKey) and self.key == other.key


def largest_with_ties(k: int, scored: List[Tuple]) -> List[Tuple]:
    """The ``k`` largest ``(score, key)`` pairs, best first, followed by
    every other pair whose score equals the k-th's.

    For a pre-selection that feeds a :class:`TopKQueue` with tie keys:
    cutting at exactly ``k`` would settle a tie at the cut by the pairs'
    own ``key`` order, before the queue's tie key ever saw the losers.

    >>> largest_with_ties(2, [(1.0, "a"), (2.0, "b"), (1.0, "c"), (0.5, "d")])
    [(2.0, 'b'), (1.0, 'c'), (1.0, 'a')]
    """
    best = heapq.nlargest(k, scored)
    if len(scored) > k:
        cut = best[-1][0]
        tied = [pair for pair in scored if pair[0] == cut and pair < best[-1]]
        best.extend(sorted(tied, reverse=True))
    return best


class TopKQueue(Generic[T]):
    """Keep the ``k`` highest-scoring items seen so far.

    >>> queue = TopKQueue(2)
    >>> for score, name in [(1.0, "a"), (3.0, "b"), (2.0, "c")]:
    ...     _ = queue.push(score, name)
    >>> [(s, v) for s, v in queue.ranked()]
    [(3.0, 'b'), (2.0, 'c')]
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        self.k = k
        # Heap entries: (score, tie_token, -sequence, payload).  With a
        # min-heap the smallest score is evicted first; among equal scores
        # the tie token decides (see push), and the unique -sequence both
        # breaks remaining ties and shields payloads from comparison.
        self._heap: List[Tuple] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        return len(self._heap) >= self.k

    def threshold(self) -> float:
        """Current k-th best score; -inf while the queue is not full."""
        if len(self._heap) < self.k:
            return float("-inf")
        return self._heap[0][0]

    def would_accept(self, score: float) -> bool:
        """Whether ``push(score, ...)`` *might* change the queue's contents.

        Scores equal to the threshold may still be retained when tie keys
        are in play, so equality is accepted (callers use this only to
        skip hopeless work).
        """
        return len(self._heap) < self.k or score >= self._heap[0][0]

    def push(self, score: float, item: T, tie_key=None) -> bool:
        """Offer an item; returns True when it was retained.

        ``tie_key``: totally ordered value deciding equal-score conflicts
        (smallest retained, and ranked first).  Omitted: insertion order
        decides (earlier wins).  Do not mix both styles in one queue —
        tie tokens must be mutually comparable.
        """
        if tie_key is None:
            token = ()  # compares equal between entries; -seq decides
        else:
            token = (_InvertedKey(tie_key),)
        entry = (score, token, -self._sequence, item)
        self._sequence += 1
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return True
        if not self._heap[0][:3] < entry[:3]:
            return False
        heapq.heapreplace(self._heap, entry)
        return True

    def ranked(self) -> List[Tuple[float, T]]:
        """Items best-first; ties per the queue's tie policy."""
        def sort_key(entry):
            score, token, neg_seq, _item = entry
            # Ascending tie key = descending inverted token; then
            # insertion order (ascending sequence = descending -seq).
            return (-score, tuple(t.key for t in token), -neg_seq)

        ordered = sorted(self._heap, key=sort_key)
        return [(entry[0], entry[3]) for entry in ordered]

    def items(self) -> List[T]:
        """Payloads best-first."""
        return [item for _score, item in self.ranked()]

    def min_score(self) -> float:
        """Lowest retained score; raises if empty."""
        if not self._heap:
            raise SearchError("queue is empty")
        return self._heap[0][0]


class TopKThreshold:
    """Bound-admission gate over a :class:`TopKQueue`, with trajectory.

    The bound-driven search loops ask one question per candidate unit of
    work: *given an admissible upper bound on everything this unit could
    contribute, can it still change the queue?*  :meth:`admits` answers
    it — always ``True`` while the queue is not full (any score can still
    enter), and ``upper_bound >= k-th score`` afterwards.  Equality is
    admitted because a score tying the k-th may still be retained under
    the queue's tie keys, so skipping requires the bound *strictly*
    below the threshold; pruned and unpruned runs then keep identical
    answers (see ``docs/pruning.md``).

    The gate also records the k-th-score trajectory — the threshold the
    first time the queue was observed full, and the final one — which
    ``SearchStats`` and ``repro search --explain`` surface so the
    "threshold tightens fast" claim is inspectable per query.

    >>> queue = TopKQueue(1)
    >>> gate = TopKThreshold(queue)
    >>> gate.admits(0.1)  # queue not full: everything admitted
    True
    >>> _ = queue.push(2.0, "a")
    >>> gate.admits(1.5), gate.admits(2.0)
    (False, True)
    """

    __slots__ = ("queue", "first_threshold", "last_threshold", "_heap", "_k")

    def __init__(self, queue: TopKQueue) -> None:
        self.queue = queue
        self.first_threshold: Optional[float] = None
        self.last_threshold: Optional[float] = None
        # The queue's own heap list (mutated in place, never replaced):
        # its first entry's score is the k-th score once it holds k.
        self._heap = queue._heap
        self._k = queue.k

    @property
    def is_active(self) -> bool:
        """Whether the queue is full (only then can anything be pruned)."""
        return len(self._heap) >= self._k

    def admits(self, upper_bound: float) -> bool:
        """Whether work bounded by ``upper_bound`` could change the queue.

        One step (the hot loops ask once per unit of work): every call on
        a full queue records its k-th score into the trajectory.
        """
        heap = self._heap
        if len(heap) < self._k:
            return True
        kth = heap[0][0]
        if self.first_threshold is None:
            self.first_threshold = kth
        self.last_threshold = kth
        return upper_bound >= kth

    def write_stats(self, stats) -> None:
        """Snapshot the final threshold trajectory into ``SearchStats``."""
        self.admits(0.0)  # records the final k-th score, if the queue is full
        stats.threshold_first = self.first_threshold
        stats.threshold_last = self.last_threshold

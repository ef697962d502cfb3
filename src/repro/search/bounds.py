"""Admissible score upper bounds for bound-driven top-k pruning.

The paper's top-k algorithms win by discarding candidate work before
enumerating it; this module supplies the arithmetic.  From the columnar
store's aggregate bound columns (:meth:`repro.index.store.PostingStore.\
bound_columns`) and one :class:`~repro.scoring.function.ScoringFunction`,
:class:`QueryBounds` computes *upper bounds* on

* the score of any single valid subtree drawn from given posting groups
  (:meth:`combo_upper`, :meth:`root_term`), and
* the aggregated score of any tree pattern completing a pattern prefix
  over a given root set (:meth:`prefix_upper`,
  :meth:`full_pattern_upper`),

that are **admissible**: never below the exact value the enumeration
loops would compute.  A skipped candidate therefore provably cannot
enter a full top-k queue whose k-th score exceeds the bound, so pruned
and unpruned searches return bit-identical answers (differential-tested
in ``tests/search/test_pruning.py``; derivation and the floating-point
argument live in ``docs/pruning.md``).

Admissibility sketch.  A subtree combines one path per keyword; its
score is ``size^z1 * pr^z2 * sim^z3`` over the *summed* per-path
components (Equation 3).  Each component sum is bracketed by summing the
per-group minima/maxima, and the power product is monotone in each
positive component, so evaluating it on the per-sign extreme (min for a
negative exponent, max for a positive one) bounds every concrete
combination — in float arithmetic too, because IEEE addition and
multiplication are monotone and the bound follows the hot loop's
operation order.  Pattern aggregation (sum/avg/max/count of subtree
scores) is then bounded from the per-root combination counts and
per-combination bounds.  A relative safety factor absorbs the remaining
ulp-level slack of ``math.pow`` and of long float summations.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.types import NodeId, PatternId
from repro.scoring.aggregate import COUNT, SUM
from repro.scoring.function import ScoringFunction

#: One aggregate posting-group bound, as stored in the bound columns:
#: (count, size_lo, size_hi, pr_lo, pr_hi, sim_lo, sim_hi).
Bound = Tuple[int, int, int, float, float, float, float]

#: Relative slack absorbing float rounding: the exact enumeration sums
#: and multiplies in the same order but not on the same values, and a
#: pattern-sum of n subtree scores carries O(n·eps) relative error.  The
#: margin only *loosens* bounds (skips less), never correctness.
SAFETY = 1.0 + 1e-9


class QueryBounds:
    """Per-query admissible upper bounds for one (store, scoring) pair.

    Built by :meth:`repro.search.context.EnumerationContext.query_bounds`
    and shared by every pruning site of a query.  ``None`` is returned
    instead when the scoring function is outside the bounded class (extra
    weighted components — nothing the id-based hot loops support today,
    but the guard keeps future extensions honest).
    """

    __slots__ = (
        "scoring",
        "aggregator",
        "root_bounds",
        "pattern_bounds",
        "_size_pick",
        "_pr_pick",
        "_sim_pick",
        "_score_terms",
        "_root_mass",
        "_pid_upper",
    )

    def __init__(
        self, store, scoring: ScoringFunction, words: Sequence[str]
    ) -> None:
        root_bounds, pattern_bounds = store.bound_columns()
        #: Per query keyword: root -> Bound over all patterns at the root.
        self.root_bounds: List[Dict[NodeId, Bound]] = [
            root_bounds.get(word, {}) for word in words
        ]
        #: Per query keyword: pid -> root -> Bound for one index leaf.
        self.pattern_bounds: List[Dict[PatternId, Dict[NodeId, Bound]]] = [
            pattern_bounds.get(word, {}) for word in words
        ]
        self.scoring = scoring
        self.aggregator = scoring.aggregator
        # Upper-bounding a positive power product: take each component's
        # max when its exponent is positive, its min when negative (a
        # zero exponent drops the component; either pick is unused).
        self._size_pick = 1 if scoring.z1 < 0 else 2
        self._pr_pick = 3 if scoring.z2 < 0 else 4
        self._sim_pick = 5 if scoring.z3 < 0 else 6
        self._score_terms = scoring.subtree_score_terms
        self._root_mass: Dict[NodeId, float] = {}
        self._pid_upper: List[Dict[PatternId, float]] = [{} for _ in words]

    @classmethod
    def create(
        cls, store, scoring: ScoringFunction, words: Sequence[str]
    ) -> Optional["QueryBounds"]:
        """A bounds object, or ``None`` when ``scoring`` is unbounded."""
        if scoring.extra_weights:
            return None
        return cls(store, scoring, words)

    # ------------------------------------------------------- subtree bounds

    def score_upper(self, size: int, pr: float, sim: float) -> float:
        """Safetied Equation-3 product over already-picked component sums."""
        return self._score_terms(size, pr, sim) * SAFETY

    def picked(self, bound: Bound) -> Tuple[int, float, float]:
        """The (size, pr, sim) extremes of one group, per exponent sign."""
        return (
            bound[self._size_pick],
            bound[self._pr_pick],
            bound[self._sim_pick],
        )

    def combo_upper(self, bounds: Sequence[Bound]) -> float:
        """Upper bound on any single subtree drawing one path per group."""
        size = 0
        pr = 0.0
        sim = 0.0
        size_pick = self._size_pick
        pr_pick = self._pr_pick
        sim_pick = self._sim_pick
        for bound in bounds:
            size += bound[size_pick]
            pr += bound[pr_pick]
            sim += bound[sim_pick]
        return self._score_terms(size, pr, sim) * SAFETY

    def leaf_bounds(
        self, pid_combo: Sequence[PatternId], root: NodeId
    ) -> List[Bound]:
        """The per-keyword leaf bounds of one (pattern combo, root)."""
        return [
            self.pattern_bounds[i][pid][root]
            for i, pid in enumerate(pid_combo)
        ]

    def root_term(self, root: NodeId) -> Optional[Tuple[int, float]]:
        """``(combination count, single-subtree upper bound)`` at one root.

        ``None`` when some keyword has no path at the root (the root can
        join no subtree).  The count multiplies the per-keyword posting
        counts — an upper bound on valid subtrees, exactly the paper's
        ``N_R`` contribution (tree-check rejections included).
        """
        count = 1
        size = 0
        pr = 0.0
        sim = 0.0
        size_pick = self._size_pick
        pr_pick = self._pr_pick
        sim_pick = self._sim_pick
        for word_map in self.root_bounds:
            bound = word_map.get(root)
            if bound is None:
                return None
            count *= bound[0]
            size += bound[size_pick]
            pr += bound[pr_pick]
            sim += bound[sim_pick]
        return count, self._score_terms(size, pr, sim) * SAFETY

    # ------------------------------------------------------- pattern bounds

    def root_mass(self, root: NodeId) -> float:
        """One root's pattern-score mass: an upper bound — under *any* of
        the four aggregators — on the score contribution of the root's
        subtrees to any single pattern.

        Summing masses over a root set therefore bounds every pattern
        confined to it: the cheap, pow-free-after-first-touch prefix
        bound the hot loops accumulate over each prefix's roots (one
        cached-dict lookup and one add per root).  Looser than
        :meth:`prefix_upper` — per-keyword counts and extremes are taken
        over all patterns at the root — but orders of magnitude cheaper;
        callers re-check survivors with the tight bound where a join is
        about to run.  Cached per root for the query's lifetime.
        """
        mass = self._root_mass.get(root)
        if mass is None:
            term = self.root_term(root)
            if term is None:
                mass = 0.0
            else:
                count, upper = term
                aggregator = self.aggregator
                if aggregator == SUM:
                    mass = count * upper
                elif aggregator == COUNT:
                    mass = float(count)
                else:  # AVG and MAX: no single subtree beats `upper`
                    mass = upper
            self._root_mass[root] = mass
        return mass

    def prefix_upper(
        self,
        pids: Sequence[PatternId],
        num_fixed: int,
        roots: Sequence[NodeId],
    ) -> float:
        """Upper bound on score(P, q) over all tree patterns ``P`` that fix
        ``pids[:num_fixed]`` for the first keywords, choose any path
        pattern for the rest, and whose root set is contained in
        ``roots``.

        ``num_fixed == 0`` bounds every pattern over ``roots`` (the
        per-root-type bound); ``num_fixed == len(words)`` is the full
        single-pattern bound restricted to ``roots``.  Admissible for all
        four aggregators; 0.0 when no completion has a root.
        """
        sources: List[Dict[NodeId, Bound]] = []
        for i in range(len(self.root_bounds)):
            if i < num_fixed:
                source = self.pattern_bounds[i].get(pids[i])
                if source is None:
                    return 0.0
            else:
                source = self.root_bounds[i]
            sources.append(source)
        size_pick = self._size_pick
        pr_pick = self._pr_pick
        sim_pick = self._sim_pick
        score_terms = self._score_terms
        total_count = 0
        total_mass = 0.0
        best = 0.0
        for root in roots:
            count = 1
            size = 0
            pr = 0.0
            sim = 0.0
            for source in sources:
                bound = source.get(root)
                if bound is None:
                    count = 0
                    break
                count *= bound[0]
                size += bound[size_pick]
                pr += bound[pr_pick]
                sim += bound[sim_pick]
            if not count:
                continue
            upper = score_terms(size, pr, sim)
            total_count += count
            total_mass += count * upper
            if upper > best:
                best = upper
        return self._finish(total_count, total_mass, best)

    def pattern_upper_at_roots(
        self,
        pids: Sequence[PatternId],
        num_fixed: int,
        roots: Sequence[NodeId],
    ) -> float:
        """Single-``pow`` variant of :meth:`prefix_upper`.

        Instead of scoring each root's extreme sums separately, the
        per-root sums are themselves reduced to component extremes across
        the root set and scored once — admissible because the power
        product is monotone per component, slightly looser when a
        pattern's mass concentrates on one root, and an order of
        magnitude cheaper.  This is the bound the hot loops pay per
        *surviving* pattern, where ``math.pow`` per root would rival the
        join being skipped.
        """
        sources: List[Dict[NodeId, Bound]] = []
        for i in range(len(self.root_bounds)):
            if i < num_fixed:
                source = self.pattern_bounds[i].get(pids[i])
                if source is None:
                    return 0.0
            else:
                source = self.root_bounds[i]
            sources.append(source)
        return self._extremes_upper(sources, roots)

    def _extremes_upper(
        self,
        sources: Sequence[Dict[NodeId, Bound]],
        roots,
    ) -> float:
        """The shared single-``pow`` accumulation: per-root component
        sums reduced to sign-aware extremes across ``roots``, scored
        once, finished per aggregator.  The one source of truth for
        every extreme-reduction bound (:meth:`pattern_upper_at_roots`,
        :meth:`pid_upper`, :meth:`full_pattern_upper`)."""
        size_pick = self._size_pick
        pr_pick = self._pr_pick
        sim_pick = self._sim_pick
        size_min = size_pick == 1
        pr_min = pr_pick == 3
        sim_min = sim_pick == 5
        total_count = 0
        ext_size = 0
        ext_pr = 0.0
        ext_sim = 0.0
        for root in roots:
            count = 1
            size = 0
            pr = 0.0
            sim = 0.0
            for source in sources:
                bound = source.get(root)
                if bound is None:
                    count = 0
                    break
                count *= bound[0]
                size += bound[size_pick]
                pr += bound[pr_pick]
                sim += bound[sim_pick]
            if not count:
                continue
            if not total_count:
                ext_size, ext_pr, ext_sim = size, pr, sim
            else:
                if (size < ext_size) == size_min:
                    ext_size = size
                if (pr < ext_pr) == pr_min:
                    ext_pr = pr
                if (sim < ext_sim) == sim_min:
                    ext_sim = sim
            total_count += count
        if not total_count:
            return 0.0
        upper = self._score_terms(ext_size, ext_pr, ext_sim) * SAFETY
        aggregator = self.aggregator
        if aggregator == SUM:
            return total_count * upper * SAFETY
        if aggregator == COUNT:
            return float(total_count)
        return upper  # AVG and MAX

    def pid_upper(self, word_index: int, pid: PatternId) -> float:
        """Upper bound on *any* pattern that uses path pattern ``pid``
        for keyword ``word_index`` — memoized per (word, pid).

        The strongest cheap lever the hot loops have: a dead pid removes
        a whole slice of every pattern product it would have appeared in,
        at one cached-dict lookup per (root, keyword, pid).  Computed
        with the single-``pow`` reduction over the pid's root map (other
        keywords at root level); maps larger than a small cap get ``inf``
        — high-support pids are effectively never prunable and iterating
        their full root set would cost more than it could save.
        """
        cache = self._pid_upper[word_index]
        upper = cache.get(pid)
        if upper is None:
            source = self.pattern_bounds[word_index].get(pid)
            if not source:
                upper = 0.0
            elif len(source) > 64:
                upper = math.inf
            else:
                sources = [
                    source if j == word_index else self.root_bounds[j]
                    for j in range(len(self.root_bounds))
                ]
                upper = self._extremes_upper(sources, source)
            cache[pid] = upper
        return upper

    def pid_upper_cache(self, word_index: int) -> Dict[PatternId, float]:
        """The pid → :meth:`pid_upper` memo for one keyword.

        Hot loops probe this dict directly (one lookup per occurrence)
        and fall back to :meth:`pid_upper` only on a miss, avoiding a
        function call per already-bounded pid.
        """
        return self._pid_upper[word_index]

    def full_pattern_upper(
        self,
        pid_combo: Sequence[PatternId],
        max_roots: Optional[int] = None,
    ) -> float:
        """Upper bound on one fully-specified pattern's score over *all*
        its roots (the pattern-first root-set intersection).

        Small patterns (root set up to ``max_roots``) use the
        single-``pow`` reduction of :meth:`pattern_upper_at_roots`;
        larger ones get the tight per-root :meth:`prefix_upper` instead —
        for a high-support pattern the extreme-component reduction is far
        too loose (count times the best root's combination everywhere),
        while the per-root ``pow`` amortizes over the many joins a kill
        would skip.  With ``max_roots=None`` the single-``pow`` form is
        always used.
        """
        maps: List[Dict[NodeId, Bound]] = []
        for i, pid in enumerate(pid_combo):
            source = self.pattern_bounds[i].get(pid)
            if not source:
                return 0.0
            maps.append(source)
        smallest = min(maps, key=len)
        if max_roots is not None and len(smallest) > max_roots:
            return self.prefix_upper(pid_combo, len(pid_combo), smallest)
        return self.pattern_upper_at_roots(
            pid_combo, len(pid_combo), smallest
        )

    def _finish(
        self, total_count: int, total_mass: float, best: float
    ) -> float:
        """Aggregate per-root ``(count, combo upper)`` terms per Eq. 2."""
        aggregator = self.aggregator
        if aggregator == SUM:
            return total_mass * SAFETY
        if aggregator == COUNT:
            return float(total_count)
        return best * SAFETY  # AVG and MAX

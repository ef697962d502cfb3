"""The paper's class of scoring functions (Section 2.2.3).

A subtree's relevance is a weighted product of components::

    score(T, q) = score1(T, q)^z1 * score2(T, q)^z2 * score3(T, q)^z3

with the paper's defaults z1 = -1 (prefer small trees), z2 = 1 (prefer
important nodes), z3 = 1 (prefer close text matches).  A pattern's score
aggregates its subtrees' scores (sum by default, Equation 2).

The class is open: Section 2.2.3 notes the components "can also be replaced
by other functions and more can be inserted" — :class:`ScoringFunction`
accepts arbitrary extra component values via ``extra_weights``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, Tuple

from repro.core.errors import ScoringError
from repro.scoring.aggregate import (
    COUNT,
    SUM,
    RunningAggregate,
    aggregate,
    estimate_from_sample,
    validate_aggregator,
)
from repro.scoring.components import PathComponents, SubtreeComponents


@dataclass(frozen=True)
class ScoringFunction:
    """Weights and aggregation defining one member of the scoring class.

    Parameters mirror the paper: ``z1``/``z2``/``z3`` are the exponents of
    the size/PageRank/similarity components; ``aggregator`` is how subtree
    scores combine into a pattern score.
    """

    z1: float = -1.0
    z2: float = 1.0
    z3: float = 1.0
    aggregator: str = SUM
    extra_weights: Tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        validate_aggregator(self.aggregator)

    def subtree_score(
        self,
        components: SubtreeComponents,
        extras: Sequence[float] = (),
    ) -> float:
        """score(T, q) for one valid subtree (Equation 3).

        Every component must be positive — sizes are >= 1 by construction,
        PageRank is strictly positive, and a matched keyword always has
        sim > 0 — so the power never divides by zero; a non-positive
        component signals an upstream bug and raises.
        """
        if len(extras) != len(self.extra_weights):
            raise ScoringError(
                f"expected {len(self.extra_weights)} extra components, "
                f"got {len(extras)}"
            )
        score = self._base_subtree_score(
            components.size, components.pr, components.sim
        )
        for value, weight in zip(extras, self.extra_weights):
            if weight == 0.0:
                continue
            if value <= 0.0:
                raise ScoringError(f"non-positive extra component {value!r}")
            score *= math.pow(value, weight)
        return score

    def _base_subtree_score(self, size: int, pr: float, sim: float) -> float:
        """Equation 3's power product over the three base components.

        The entry-based pipeline's form (:meth:`subtree_score`, the
        reference enumeration): one call of a fresh :meth:`subtree_scorer`
        closure (extra weights aside), the one the id-based hot loops and
        the bounds hoist once per query, so the two pipelines' scores are
        bit-identical by construction.
        """
        base = replace(self, extra_weights=())
        return base.subtree_scorer()(size, pr, sim)

    def subtree_scorer(self) -> Callable[[int, float, float], float]:
        """``(size, pr, sim) -> score(T, q)``: Equation 3 as one closure.

        Built per query (never cached on the instance: plans carrying a
        scoring function are pickled to worker processes) and shared by
        the enumeration kernel and :class:`~repro.search.bounds.QueryBounds`.
        The product is ``pow(size, z1) * pow(pr, z2) * pow(sim, z3)``, left
        to right, bit-identical to multiplying only the non-zero-weight
        factors into ``1.0``: ``pow(x, 0.0)`` is ``1.0`` for every ``x``
        and ``a * 1.0 == a`` (``docs/pruning.md``).  A non-positive
        component raises only under a non-zero weight, as it always did.
        Extra components are not supported here — configurations with
        ``extra_weights`` must go through :meth:`subtree_score`.
        """
        if self.extra_weights:
            raise ScoringError(
                f"expected {len(self.extra_weights)} extra components, "
                "got 0"
            )
        weights = (self.z1, self.z2, self.z3)
        z1, z2, z3 = weights
        power = math.pow

        def score(size: int, pr: float, sim: float) -> float:
            if size <= 0 or pr <= 0.0 or sim <= 0.0:
                for value, weight in zip((size, pr, sim), weights):
                    if weight != 0.0 and value <= 0.0:
                        raise ScoringError(
                            f"non-positive score component {value!r}; "
                            "components must be positive (is a keyword "
                            "unmatched?)"
                        )
            return power(size, z1) * power(pr, z2) * power(sim, z3)

        return score

    def subtree_score_from_paths(
        self, parts: Sequence[PathComponents]
    ) -> float:
        """Subtree score straight from per-path components.

        This is the hot-path form used by the search algorithms: index
        entries carry :class:`PathComponents`, which are summed and scored
        without materializing the subtree.
        """
        size = 0
        pr = 0.0
        sim = 0.0
        for part in parts:
            size += part.size
            pr += part.pr
            sim += part.sim
        return self.subtree_score(SubtreeComponents(size, pr, sim))

    def pattern_score(self, tree_scores: Sequence[float]) -> float:
        """score(P, q): aggregate the pattern's subtree scores (Equation 2)."""
        return aggregate(self.aggregator, tree_scores)

    def pattern_estimate(
        self, sampled_tree_scores: Sequence[float], rate: float
    ) -> float:
        """s_hat(P, q): estimate from a rho-sampled subset of subtrees."""
        return estimate_from_sample(
            self.aggregator, sampled_tree_scores, rate
        )

    def running(self) -> RunningAggregate:
        """A streaming aggregator matching this function's aggregation."""
        return RunningAggregate(self.aggregator)


#: The configuration used throughout the paper's examples and experiments.
PAPER_DEFAULT = ScoringFunction()

#: Pattern relevance = number of supporting rows; useful for debugging and
#: for the "prefers patterns with more valid subtrees" discussions.
COUNT_TREES = ScoringFunction(z1=0.0, z2=0.0, z3=0.0, aggregator=COUNT)

"""The per-query Equation-3 closure and the float rules of the kernels.

``ScoringFunction.subtree_scorer`` replaced a generic loop over
``(value, weight)`` pairs; it must score bit-identically to that loop
(copied below as the reference) and fail the same way.  The AST guards
keep the float arithmetic of the hot modules where the bit-identity
arguments of ``docs/pruning.md`` put it.
"""

from __future__ import annotations

import ast
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.core.errors import ScoringError
from repro.scoring.function import ScoringFunction
from repro.search.plan import execute_plan, plan_search

SRC = Path(repro.__file__).parent

WEIGHTS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


def loop_score(scoring: ScoringFunction, size, pr, sim) -> float:
    """Equation 3 as the generic loop computed it before the closure."""
    score = 1.0
    for value, weight in (
        (size, scoring.z1),
        (pr, scoring.z2),
        (sim, scoring.z3),
    ):
        if weight == 0.0:
            continue
        if value <= 0.0:
            raise ScoringError(
                f"non-positive score component {value!r}; components "
                "must be positive (is a keyword unmatched?)"
            )
        score *= math.pow(value, weight)
    return score


def outcome(score, *components):
    """The score's exact bits, or the error it raised."""
    try:
        return ("score", score(*components).hex())
    except ScoringError as error:
        return ("error", str(error))


positive_floats = st.floats(min_value=1e-3, max_value=1e3)
non_positive_floats = st.sampled_from([0.0, -0.0, -1e-9, -0.5, -3.0])


class TestSubtreeScorer:

    @given(
        WEIGHTS, WEIGHTS, WEIGHTS,
        st.integers(min_value=1, max_value=60),
        positive_floats,
        positive_floats,
    )
    def test_bit_identical_to_the_loop(self, z1, z2, z3, size, pr, sim):
        scoring = ScoringFunction(z1=z1, z2=z2, z3=z3)
        expected = loop_score(scoring, size, pr, sim)
        got = scoring.subtree_scorer()(size, pr, sim)
        assert got.hex() == expected.hex()
        assert scoring._base_subtree_score(size, pr, sim).hex() == got.hex()

    @given(
        WEIGHTS, WEIGHTS, WEIGHTS,
        st.one_of(st.integers(min_value=1, max_value=60),
                  st.sampled_from([0, -1, -4])),
        st.one_of(positive_floats, non_positive_floats),
        st.one_of(positive_floats, non_positive_floats),
    )
    def test_non_positive_components_fail_like_the_loop(
        self, z1, z2, z3, size, pr, sim
    ):
        """A non-positive component raises the loop's ``ScoringError``
        under a non-zero weight, and is ignored under a zero one."""
        scoring = ScoringFunction(z1=z1, z2=z2, z3=z3)
        expected = outcome(
            lambda *c: loop_score(scoring, *c), size, pr, sim
        )
        assert outcome(scoring.subtree_scorer(), size, pr, sim) == expected

    def test_raises_for_an_unmatched_keyword(self):
        score = ScoringFunction().subtree_scorer()
        with pytest.raises(ScoringError, match="non-positive score"):
            score(3, 1.0, 0.0)

    def test_plan_pickles_after_a_search(self, example_indexes):
        """The closure is built per query, never stored on the frozen
        scoring function a plan carries over a worker pipe."""
        scoring = ScoringFunction(z1=-2.0, z2=0.5, z3=1.0)
        plan = plan_search(
            example_indexes, "software company", k=2, scoring=scoring
        )
        assert execute_plan(example_indexes, plan).answers
        assert vars(scoring) == vars(ScoringFunction(-2.0, 0.5, 1.0))
        restored = pickle.loads(pickle.dumps(plan))
        assert restored == plan
        assert execute_plan(example_indexes, restored).scores() == (
            execute_plan(example_indexes, plan).scores()
        )


# ------------------------------------------------------------- AST guards

#: Where the kernels add floats: a float ``sum()`` rounds differently
#: from Python 3.12 on (compensated), and ``fsum``/``prod`` differ from a
#: left-to-right loop everywhere, so these modules add in plain loops.
PLAIN_LOOP_MODULES = (
    "search/expand.py",
    "search/pattern_enum.py",
    "search/linear_topk.py",
    "search/bounds.py",
)


def math_names(tree):
    """Every ``math.<name>`` reference and ``from math import <name>``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from (alias.name for alias in node.names)


def parse(relative):
    return ast.parse((SRC / relative).read_text())


def test_pow_is_called_only_by_the_scoring_function():
    found = sorted(
        source.relative_to(SRC).as_posix()
        for source in SRC.rglob("*.py")
        if "pow" in set(math_names(ast.parse(source.read_text())))
    )
    assert found == ["scoring/function.py"]


@pytest.mark.parametrize("relative", PLAIN_LOOP_MODULES)
def test_kernel_modules_add_floats_in_plain_loops(relative):
    tree = parse(relative)
    summed = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]
    assert summed == [], f"sum() in {relative} at lines {summed}"
    assert not {"fsum", "prod"} & set(math_names(tree))

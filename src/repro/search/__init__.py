"""Search algorithms for the d-height tree pattern problem (Section 4)."""

from repro.search.baseline import baseline_search
from repro.search.context import EnumerationContext
from repro.search.engine import ALGORITHMS, TableAnswerEngine
from repro.search.individual import (
    CoverageMetrics,
    IndividualResult,
    coverage_metrics,
    individual_topk,
)
from repro.search.linear_enum import (
    Enumeration,
    count_answers,
    linear_enum,
    linear_enum_search,
)
from repro.search.linear_topk import linear_topk_search
from repro.search.mixed import MixedAnswer, MixedResult, mixed_search
from repro.search.pattern_enum import pattern_enum_search
from repro.search.plan import (
    ALGORITHM_ALIASES,
    QueryPlan,
    canonical_algorithm,
    execute_plan,
    plan_search,
)
from repro.search.relaxation import RelaxedResult, relaxed_search
from repro.search.result import (
    ComboRef,
    EntryCombo,
    PatternAnswer,
    SearchResult,
    SearchStats,
    pattern_from_key,
    pattern_from_labels,
)

from repro.search.service import SearchService, ServiceStats

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_ALIASES",
    "ComboRef",
    "QueryPlan",
    "SearchService",
    "ServiceStats",
    "canonical_algorithm",
    "execute_plan",
    "plan_search",
    "CoverageMetrics",
    "Enumeration",
    "EntryCombo",
    "EnumerationContext",
    "IndividualResult",
    "MixedAnswer",
    "MixedResult",
    "PatternAnswer",
    "RelaxedResult",
    "SearchResult",
    "SearchStats",
    "TableAnswerEngine",
    "mixed_search",
    "relaxed_search",
    "baseline_search",
    "count_answers",
    "coverage_metrics",
    "individual_topk",
    "linear_enum",
    "linear_enum_search",
    "linear_topk_search",
    "pattern_enum_search",
    "pattern_from_key",
    "pattern_from_labels",
]

"""repro — keyword search over knowledge bases composing table answers.

A faithful reproduction of *"Finding Patterns in a Knowledge Base using
Keywords to Compose Table Answers"* (Yang, Ding, Chaudhuri, Chakrabarti;
PVLDB 7(14), 2014).

Quickstart::

    from repro import KnowledgeBase, TableAnswerEngine, EntityRef

    kb = KnowledgeBase()
    kb.add_entity("SQL Server", "Software")
    kb.add_entity("Microsoft", "Company")
    kb.set_attribute("SQL Server", "Developer", EntityRef("Microsoft"))
    kb.set_attribute("Microsoft", "Revenue", "US$ 77 billion")

    engine = TableAnswerEngine.from_knowledge_base(kb, d=3)
    for table in engine.tables("software company revenue", k=3):
        print(table.to_ascii())
"""

from repro.core import (
    MatchPath,
    PathPattern,
    QueryError,
    ReproError,
    TableAnswer,
    TopKQueue,
    TreePattern,
    ValidSubtree,
    combine_paths,
    compose_table,
)
from repro.index import (
    PathIndexes,
    build_indexes,
    index_statistics,
    load_indexes,
    save_indexes,
)
from repro.kg import (
    EntityRef,
    KnowledgeBase,
    KnowledgeGraph,
    SynonymTable,
    TextNormalizer,
    TextValue,
    build_graph,
    pagerank,
)
from repro.scoring import PAPER_DEFAULT, ScoringFunction
from repro.search import (
    SearchResult,
    TableAnswerEngine,
    baseline_search,
    coverage_metrics,
    individual_topk,
    linear_enum_search,
    linear_topk_search,
    pattern_enum_search,
)

__version__ = "1.0.0"

__all__ = [
    "EntityRef",
    "KnowledgeBase",
    "KnowledgeGraph",
    "MatchPath",
    "PAPER_DEFAULT",
    "PathIndexes",
    "PathPattern",
    "QueryError",
    "ReproError",
    "ScoringFunction",
    "SearchResult",
    "SynonymTable",
    "TableAnswer",
    "TableAnswerEngine",
    "TextNormalizer",
    "TextValue",
    "TopKQueue",
    "TreePattern",
    "ValidSubtree",
    "baseline_search",
    "build_graph",
    "build_indexes",
    "combine_paths",
    "compose_table",
    "coverage_metrics",
    "index_statistics",
    "individual_topk",
    "linear_enum_search",
    "linear_topk_search",
    "load_indexes",
    "pagerank",
    "pattern_enum_search",
    "save_indexes",
    "__version__",
]

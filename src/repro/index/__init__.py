"""Path-pattern indexes (Section 3 of the paper)."""

from repro.index.builder import (
    DEFAULT_HEIGHT,
    PathIndexes,
    ResolvedQuery,
    build_indexes,
)
from repro.index.incremental import add_entity, add_relationship
from repro.index.entry import (
    PathEntry,
    combination_score_terms,
    entries_form_tree,
    subtree_from_entries,
)
from repro.index.interner import PatternInterner
from repro.index.lexicon import GraphLexicon
from repro.index.path_enum import (
    count_paths,
    interleaved_labels,
    iter_all_paths,
    iter_paths_from,
    iter_reverse_paths_to,
)
from repro.index.pattern_first import PatternFirstIndex
from repro.index.root_first import RootFirstIndex
from repro.index.serialize import load_indexes, save_indexes
from repro.index.stats import IndexStatistics, index_statistics
from repro.index.store import PostingStore

__all__ = [
    "DEFAULT_HEIGHT",
    "GraphLexicon",
    "ResolvedQuery",
    "add_entity",
    "add_relationship",
    "IndexStatistics",
    "PathEntry",
    "PathIndexes",
    "PatternFirstIndex",
    "PatternInterner",
    "PostingStore",
    "RootFirstIndex",
    "build_indexes",
    "combination_score_terms",
    "count_paths",
    "entries_form_tree",
    "index_statistics",
    "interleaved_labels",
    "iter_all_paths",
    "iter_paths_from",
    "iter_reverse_paths_to",
    "load_indexes",
    "save_indexes",
    "subtree_from_entries",
]

"""A word's finalized views against a reference written from the rule.

The paper's path indexes (§3) are one rule: a word's postings sorted by
(pattern, root, path) and stored sequentially, cut into one leaf per
(pattern, root), each leaf carrying its count and the min/max of its
paths' size, PageRank and similarity.  ``reference_views`` below is that
rule in ``sorted`` / ``groupby`` / ``min`` / ``max`` over the store's raw
columns; every store state — heap-built, mapped, written to, compacted —
must present exactly it, contents and iteration order (shards read the
one store, they are not a state of it).
"""

import ast
import gc
import sys
from itertools import groupby
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.index
from repro.index.builder import build_indexes
from repro.index.entry import PathEntry
from repro.index.incremental import add_entity, add_relationship
from repro.index.interner import PatternInterner
from repro.index.serialize import compact_indexes, load_indexes, save_indexes
from repro.index.shards import partition_indexes
from repro.index.store import PostingStore

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "property"))
from test_index_completeness import graphs  # noqa: E402


def reference_views(store, word, postings):
    """``(pattern_leaves, root_leaves, root_counts, root_bounds,
    pattern_bounds)`` of ``word`` from its raw ``(path_id, sim)`` pairs."""

    def leaf_of(posting):
        return store.path_pattern(posting[0]), store.path_root(posting[0])

    def full_key(posting):
        path_id = posting[0]
        return leaf_of(posting) + (
            store.path_nodes(path_id), store.path_attrs(path_id), path_id
        )

    def aggregate(group):
        sizes = [store.path_size(path_id) for path_id, _sim in group]
        prs = [store.path_pr(path_id) for path_id, _sim in group]
        sims = [sim for _path_id, sim in group]
        return (
            len(group), min(sizes), max(sizes), min(prs), max(prs),
            min(sims), max(sims),
        )

    leaves = [
        (leaf, list(group))
        for leaf, group in groupby(sorted(postings, key=full_key), leaf_of)
    ]
    pattern_leaves, pattern_bounds, by_root = {}, {}, {}
    for (pid, root), group in leaves:
        pattern_leaves.setdefault(pid, {})[root] = group
        pattern_bounds.setdefault(pid, {})[root] = aggregate(group)
        by_root.setdefault(root, []).extend(group)
    root_leaves = {}
    for (root, pid), group in sorted(
        ((root, pid), group) for (pid, root), group in leaves
    ):
        root_leaves.setdefault(root, {})[pid] = group
    root_counts = {root: len(group) for root, group in by_root.items()}
    root_bounds = {root: aggregate(group) for root, group in by_root.items()}
    return pattern_leaves, root_leaves, root_counts, root_bounds, pattern_bounds


def ordered(value):
    """Nested dicts as nested item lists (so ``==`` compares order too);
    leaf tuples as lists of their ``(path_id, sim)`` pairs."""
    if isinstance(value, dict):
        return [(key, ordered(inner)) for key, inner in value.items()]
    if isinstance(value, tuple) and value and isinstance(value[0], tuple):
        return list(value)
    return value


def assert_views_match_reference(store, raw=None):
    """``raw`` is ``word -> pairs`` captured before the store sorted its
    columns; a finalized store's own columns serve otherwise."""
    words = list(store.words())
    if raw is None:
        raw = {word: list(store.postings(word)) for word in words}
    pattern_view = store.pattern_view()
    root_view = store.root_view()
    root_bounds, pattern_bounds = store.bound_columns()
    for view in (pattern_view, root_view, root_bounds, pattern_bounds):
        assert list(view) == words
    for word in words:
        got = (
            pattern_view[word], root_view[word], store.root_counts(word),
            root_bounds[word], pattern_bounds[word],
        )
        expected = reference_views(store, word, raw[word])
        assert [ordered(view) for view in got] == [
            ordered(view) for view in expected
        ], word
    assert store.root_counts("no-such-word") == {}


def _write(bundle):
    """Dirty words (existing vocabulary), brand-new words, a new edge."""
    vocab = sorted(bundle.store.words())
    a = add_entity(bundle, "city", f"viewton {vocab[0]}", pagerank=0.004)
    b = add_entity(bundle, "person", f"{vocab[1]} viewton", pagerank=0.003)
    add_relationship(bundle, a, "mayor", b)
    return {"viewton", vocab[0], vocab[1]}


class TestEveryStoreState:
    def test_heap_built(self, wiki_indexes):
        assert_views_match_reference(wiki_indexes.store)

    def test_mapped_written_compacted(self, wiki_indexes, tmp_path):
        path = tmp_path / "wiki.idx"
        save_indexes(wiki_indexes, path)
        mapped = load_indexes(path)
        assert_views_match_reference(mapped.store)
        pinned = mapped.snapshot()
        written = _write(mapped)
        store = mapped.store
        assert written <= set(store.words())
        assert len(written) < len(list(store.words()))  # clean words too
        assert_views_match_reference(store)
        assert_views_match_reference(mapped.snapshot().store)
        compact_indexes(mapped, path)
        assert_views_match_reference(store)
        assert_views_match_reference(load_indexes(path).store)
        # The snapshot from before the writes still presents the old rule.
        assert "viewton" not in set(pinned.store.words())
        assert_views_match_reference(pinned.store)

    def test_shard_stores(self, wiki_indexes):
        """Shards are not one more store state: they read the one
        store's views, which any root-type shard map splits with every
        pattern's leaves on one side — a pattern's roots share its root
        type."""
        store = wiki_indexes.store
        graph = wiki_indexes.graph
        interner = wiki_indexes.interner
        version = store.version
        assert partition_indexes(wiki_indexes, 2) is wiki_indexes
        assert store.version == version
        pattern_view = store.pattern_view()
        root_types = set()
        for word in store.words():
            for pid, by_root in pattern_view[word].items():
                (root_type,) = {graph.node_type(root) for root in by_root}
                assert root_type == interner.pattern(pid).root_type
                root_types.add(root_type)
        assert len(root_types) > 1
        assert_views_match_reference(store)


def store_states(graph, tmp_path):
    """``(name, bundle, heap_twin)`` for every store state of one graph.

    Each bundle is built or opened just before it is yielded, so none of
    its words is decoded yet; the twin is a heap build holding the same
    postings (with the same writes, once there are writes)."""
    heap = build_indexes(graph, d=3)
    yield "heap-built", heap, heap
    path = tmp_path / "states.idx"
    save_indexes(build_indexes(graph, d=3), path)
    yield "mapped v3", load_indexes(path), heap
    written_twin = build_indexes(graph, d=3)
    _write(written_twin)
    written = load_indexes(path)
    _write(written)
    yield "mapped + overlay writes", written, written_twin
    compact_indexes(written, path)
    yield "compacted", written, written_twin


def decode_every_word(store):
    """Touch every view of every word; returns the words."""
    words = list(store.words())
    pattern_view, root_view = store.pattern_view(), store.root_view()
    root_bounds, pattern_bounds = store.bound_columns()
    for word in words:
        pattern_view[word], root_view[word], store.root_counts(word)
        root_bounds[word], pattern_bounds[word]
    return words


class TestDecodedViewsAreUntracked:
    """A decoded word leaves O(1) objects for the garbage collector to
    walk.  Its leaves are tuples of ``(int, float)`` pairs, and its inner
    view dicts hold only such tuples or numbers.  CPython stops tracking
    a tuple whose items are all untracked when a collection examines
    it: the pairs at the first collection they survive, the leaf at the
    next (it is examined before its pairs), and a dict of untracked
    values at that same full collection.  An interpreter whose
    untracking rules change fails here instead of silently walking
    every leaf again."""

    def test_every_store_state(self, wiki_indexes, tmp_path):
        for name, bundle, _twin in store_states(wiki_indexes.graph, tmp_path):
            store = bundle.store
            store.finalize()
            gc.collect()
            before = len(gc.get_objects())
            words = decode_every_word(store)
            gc.collect()  # untracks the pairs
            gc.collect()  # then the leaves and the dicts holding them
            grown = len(gc.get_objects()) - before
            assert grown < 5 * len(words), (name, grown, len(words))
            pattern_view, root_view = store.pattern_view(), store.root_view()
            root_bounds, pattern_bounds = store.bound_columns()
            for word in words:
                for by_root in pattern_view[word].values():
                    assert not gc.is_tracked(by_root), (name, word)
                    for leaf in by_root.values():
                        assert not gc.is_tracked(leaf), (name, word)
                for by_pattern in root_view[word].values():
                    assert not gc.is_tracked(by_pattern), (name, word)
                for inner in pattern_bounds[word].values():
                    assert not gc.is_tracked(inner), (name, word)
                assert not gc.is_tracked(root_bounds[word]), (name, word)
                assert not gc.is_tracked(store.root_counts(word)), (name, word)


def assert_entry_accessors_match(bundle, twin):
    """The entry-facing accessors hand out :class:`PathEntry` lists
    equal to the heap twin's."""
    pf, rf = bundle.pattern_first, bundle.root_first
    twin_pf, twin_rf = twin.pattern_first, twin.root_first
    entries = list(pf.iter_entries())
    assert entries and all(
        isinstance(entry, PathEntry) for _word, _pid, entry in entries
    )
    assert entries == list(twin_pf.iter_entries())
    assert list(rf.iter_entries()) == list(twin_rf.iter_entries())
    for word in pf.words():
        for pid in pf.patterns(word):
            for root in pf.roots(word, pid):
                paths = pf.paths(word, pid, root)
                assert type(paths) is list and paths
                assert paths == twin_pf.paths(word, pid, root)
                assert rf.paths_with_pattern(word, root, pid) == paths
        for root in rf.roots(word):
            assert list(rf.paths(word, root)) == list(
                twin_rf.paths(word, root)
            )


class TestLeavesAreThePostingColumns:
    """Every leaf is the ``(path_id, sim)`` pair tuple of its slice of
    the word's sorted posting columns, in leaf order, and both views
    hold that one tuple; the entry accessors keep their contract."""

    def test_every_store_state(self, wiki_indexes, tmp_path):
        for name, bundle, twin in store_states(wiki_indexes.graph, tmp_path):
            store = bundle.store
            pattern_view, root_view = store.pattern_view(), store.root_view()
            for word in store.words():
                pairs = list(store.postings(word))
                start = 0
                for pid, by_root in pattern_view[word].items():
                    for root, leaf in by_root.items():
                        stop = start + len(leaf)
                        assert type(leaf) is tuple and leaf, (name, word)
                        assert leaf == tuple(pairs[start:stop]), (name, word)
                        assert root_view[word][root][pid] is leaf
                        start = stop
                assert start == len(pairs), (name, word)
            assert_entry_accessors_match(bundle, twin)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs(), st.integers(min_value=1, max_value=3), st.randoms())
def test_shuffled_postings_and_a_path_posted_twice(graph, d, rng):
    """Postings arrive in any order, and one path is posted to one word
    twice (distinguishable similarities): the stable sort keeps the two
    in arrival order, everything else lands where the rule says."""
    built = build_indexes(graph, d=d)
    source = built.store
    postings = [
        (word, path_id, sim)
        for word in source.words()
        for path_id, sim in source.postings(word)
    ]
    rng.shuffle(postings)
    if postings:
        word, path_id, sim = postings[rng.randrange(len(postings))]
        postings.append((word, path_id, sim / 2))
    store = PostingStore(PatternInterner())
    raw = {}
    for word, path_id, sim in postings:
        new_id = store.add_path(
            source.path_nodes(path_id),
            source.path_attrs(path_id),
            source.path_matched_on_edge(path_id),
            source.path_pattern(path_id),
            source.path_pr(path_id),
        )
        store.add_posting(word, new_id, sim)
        raw.setdefault(word, []).append((new_id, sim))
    assert_views_match_reference(store, raw)
    assert store.num_postings() == len(postings)


def test_reference_is_not_vacuous():
    """The comparison sees order: a hand-made two-leaf word."""
    store = PostingStore(PatternInterner())
    late = store.add_path((5, 6), (0,), False, 1, 0.25)
    early = store.add_path((2,), (), False, 0, 0.5)
    store.add_posting("w", late, 0.1)
    store.add_posting("w", early, 0.2)
    views = reference_views(store, "w", [(late, 0.1), (early, 0.2)])
    assert ordered(views[0]) == [
        (0, [(2, [(early, 0.2)])]), (1, [(5, [(late, 0.1)])]),
    ]
    assert views[2] == {2: 1, 5: 1}
    assert views[4][1][5] == (1, 2, 2, 0.25, 0.25, 0.1, 0.1)
    assert_views_match_reference(store, {"w": [(late, 0.1), (early, 0.2)]})


class TestOneOfEach:
    """A second finalizer cannot grow back unnoticed: under
    ``src/repro/index/`` posting positions are sorted in one function
    and leaves are built in one function."""

    @staticmethod
    def functions_calling(matches):
        """``file:qualname`` of every module-level function or method
        under ``index/`` whose body holds a call ``matches`` accepts."""
        found = []
        for path in sorted(Path(repro.index.__file__).parent.glob("*.py")):
            scopes = []
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.FunctionDef):
                    scopes.append((node.name, node))
                elif isinstance(node, ast.ClassDef):
                    scopes.extend(
                        (f"{node.name}.{item.name}", item)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                    )
            found.extend(
                f"{path.name}:{name}"
                for name, scope in scopes
                if any(
                    isinstance(call, ast.Call) and matches(call)
                    for call in ast.walk(scope)
                )
            )
        return found

    @staticmethod
    def calls(name):
        def matches(call):
            return isinstance(call.func, ast.Name) and call.func.id == name
        return matches

    def test_leaves_are_built_by_the_decoder_only(self):
        # Leaves are slices of a word's pair tuple, ``tuple(zip(ids,
        # sims))``: only the decoder may build one.
        is_tuple, is_zip = self.calls("tuple"), self.calls("zip")

        def builds_leaf(call):
            return (
                is_tuple(call)
                and call.args
                and isinstance(call.args[0], ast.Call)
                and is_zip(call.args[0])
            )

        assert self.functions_calling(builds_leaf) == [
            "store.py:decode_leaf_rows"
        ]

    def test_posting_positions_are_sorted_in_one_function(self):
        is_sorted, is_range = self.calls("sorted"), self.calls("range")

        def sorts_positions(call):
            return (
                is_sorted(call)
                and call.args
                and isinstance(call.args[0], ast.Call)
                and is_range(call.args[0])
            )

        assert self.functions_calling(sorts_positions) == [
            "store.py:PostingStore._remerge"
        ]

    def test_rows_are_derived_and_decoded_in_one_place_each(self):
        assert self.functions_calling(self.calls("derive_leaf_rows")) == [
            "store.py:PostingStore._remerge"
        ]
        assert self.functions_calling(self.calls("decode_leaf_rows")) == [
            "mmapstore.py:_MappedBaseViews.views", "store.py:WordRows.views"
        ]

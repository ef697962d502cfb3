"""PatternInterner, PatternFirstIndex, RootFirstIndex, PathEntry."""

import pytest

from repro.core.errors import PathIndexError
from repro.core.pattern import PathPattern
from repro.index.entry import (
    PathEntry,
    combination_score_terms,
    entries_form_tree,
    subtree_from_entries,
)
from repro.index.interner import PatternInterner
from repro.index.pattern_first import PatternFirstIndex
from repro.index.root_first import RootFirstIndex


class TestInterner:
    def test_intern_and_lookup(self):
        interner = PatternInterner()
        pid = interner.intern((0, 1, 2), False)
        assert interner.intern((0, 1, 2), False) == pid
        assert interner.pattern(pid) == PathPattern((0, 1, 2), False)
        assert len(interner) == 1

    def test_edge_flag_distinguishes(self):
        interner = PatternInterner()
        a = interner.intern((0, 1), True)
        b = interner.intern((0, 1, 0), False)
        assert a != b

    def test_lookup_unknown_raises(self):
        interner = PatternInterner()
        with pytest.raises(PathIndexError):
            interner.pattern(7)
        with pytest.raises(PathIndexError):
            interner.lookup(PathPattern((0,), False))

    def test_contains_and_intern_pattern(self):
        interner = PatternInterner()
        pattern = PathPattern((0, 1, 2), False)
        pid = interner.intern_pattern(pattern)
        assert pattern in interner
        assert interner.lookup(pattern) == pid


def make_entry(nodes, attrs=(), edge=False, pr=1.0, sim=1.0):
    return PathEntry(tuple(nodes), tuple(attrs), edge, pr, sim)


class TestPathEntry:
    def test_properties(self):
        entry = make_entry((3, 4, 5), (0, 1), edge=True, pr=0.5, sim=0.25)
        assert entry.root == 3
        assert entry.size == 3
        assert entry.components().size == 3
        assert entry.components().pr == 0.5

    def test_to_match_path(self):
        entry = make_entry((3, 4), (0,), edge=False)
        path = entry.to_match_path()
        assert path.nodes == (3, 4)
        assert not path.matched_on_edge

    def test_combination_score_terms(self):
        entries = [
            make_entry((0, 1), (0,), pr=0.5, sim=0.5),
            make_entry((0,), (), pr=1.5, sim=1.0),
        ]
        assert combination_score_terms(entries) == (3, 2.0, 1.5)


class TestEntriesFormTree:
    def test_shared_root_disjoint_branches(self):
        a = make_entry((0, 1), (0,))
        b = make_entry((0, 2), (1,))
        assert entries_form_tree((a, b))

    def test_conflicting_parent_rejected(self):
        a = make_entry((0, 1, 3), (0, 1))
        b = make_entry((0, 2, 3), (0, 1))
        assert not entries_form_tree((a, b))

    def test_different_roots_rejected(self):
        assert not entries_form_tree((make_entry((0,)), make_entry((1,))))

    def test_edge_into_root_rejected(self):
        a = make_entry((0, 1), (0,))
        b = make_entry((0, 1, 0), (0, 1))
        assert not entries_form_tree((a, b))

    def test_subtree_from_entries(self):
        a = make_entry((0, 1), (0,))
        b = make_entry((0, 2), (1,))
        tree = subtree_from_entries((a, b))
        assert tree is not None
        assert tree.node_set() == {0, 1, 2}

    def test_subtree_from_invalid_is_none(self):
        a = make_entry((0, 1, 3), (0, 1))
        b = make_entry((0, 2, 3), (0, 1))
        assert subtree_from_entries((a, b)) is None
        assert subtree_from_entries(()) is None


@pytest.fixture
def filled_indexes():
    interner = PatternInterner()
    pattern_first = PatternFirstIndex(interner)
    root_first = RootFirstIndex(interner)
    pid_a = interner.intern((0, 0, 1), False)
    pid_b = interner.intern((2,), False)
    entries = [
        ("databas", pid_a, make_entry((10, 11), (0,))),
        ("databas", pid_a, make_entry((12, 13), (0,))),
        ("databas", pid_b, make_entry((14,))),
        ("softwar", pid_b, make_entry((10,))),
    ]
    for word, pid, entry in entries:
        pattern_first.add(word, pid, entry)
        root_first.add(word, pid, entry)
    pattern_first.store.finalize()
    root_first.store.finalize()
    return interner, pattern_first, root_first, (pid_a, pid_b)


class TestPatternFirst:
    def test_patterns(self, filled_indexes):
        _interner, pf, _rf, (pid_a, pid_b) = filled_indexes
        assert set(pf.patterns("databas")) == {pid_a, pid_b}
        assert pf.patterns("missing") == []

    def test_roots(self, filled_indexes):
        _interner, pf, _rf, (pid_a, _pid_b) = filled_indexes
        assert set(pf.roots("databas", pid_a)) == {10, 12}

    def test_paths(self, filled_indexes):
        _interner, pf, _rf, (pid_a, _pid_b) = filled_indexes
        paths = pf.paths("databas", pid_a, 10)
        assert len(paths) == 1
        assert paths[0].nodes == (10, 11)
        assert pf.paths("databas", pid_a, 999) == []

    def test_patterns_rooted_at(self, filled_indexes):
        _interner, pf, _rf, (pid_a, pid_b) = filled_indexes
        assert list(pf.patterns_rooted_at("databas", 0)) == [pid_a]
        assert list(pf.patterns_rooted_at("databas", 2)) == [pid_b]
        assert list(pf.patterns_rooted_at("databas", 9)) == []

    def test_root_types(self, filled_indexes):
        _interner, pf, _rf, _pids = filled_indexes
        assert pf.root_types("databas") == {0, 2}

    def test_num_entries(self, filled_indexes):
        _interner, pf, _rf, _pids = filled_indexes
        assert pf.num_entries() == 4
        assert pf.num_entries("databas") == 3

    def test_iter_entries(self, filled_indexes):
        _interner, pf, _rf, _pids = filled_indexes
        assert len(list(pf.iter_entries())) == 4

    def test_has_word(self, filled_indexes):
        _interner, pf, _rf, _pids = filled_indexes
        assert pf.has_word("softwar")
        assert not pf.has_word("ghost")


class TestRootFirst:
    def test_roots(self, filled_indexes):
        _interner, _pf, rf, _pids = filled_indexes
        assert set(rf.roots("databas")) == {10, 12, 14}

    def test_patterns_per_root(self, filled_indexes):
        _interner, _pf, rf, (pid_a, _pid_b) = filled_indexes
        assert rf.patterns("databas", 10) == [pid_a]
        assert rf.patterns("databas", 999) == []

    def test_paths_chains_patterns(self, filled_indexes):
        _interner, _pf, rf, _pids = filled_indexes
        all_paths = list(rf.paths("databas", 10))
        assert len(all_paths) == 1
        assert list(rf.paths("ghost", 10)) == []

    def test_paths_with_pattern(self, filled_indexes):
        _interner, _pf, rf, (pid_a, pid_b) = filled_indexes
        assert len(rf.paths_with_pattern("databas", 10, pid_a)) == 1
        assert rf.paths_with_pattern("databas", 10, pid_b) == []

    def test_path_count(self, filled_indexes):
        _interner, _pf, rf, _pids = filled_indexes
        assert rf.path_count("databas", 10) == 1
        assert rf.path_count("databas", 999) == 0
        assert rf.path_count("ghost", 10) == 0

    def test_num_entries(self, filled_indexes):
        _interner, _pf, rf, _pids = filled_indexes
        assert rf.num_entries() == 4
        assert rf.num_entries("softwar") == 1

    def test_pattern_map(self, filled_indexes):
        _interner, _pf, rf, (pid_a, _pid_b) = filled_indexes
        assert set(rf.pattern_map("databas", 10)) == {pid_a}
        assert rf.pattern_map("databas", 999) == {}


class TestPostingStore:
    def make_store(self):
        from repro.index.store import PostingStore

        interner = PatternInterner()
        store = PostingStore(interner)
        pid_a = interner.intern((0, 0, 1), False)
        pid_b = interner.intern((2,), False)
        return interner, store, pid_a, pid_b

    def test_path_interning_dedups(self):
        _interner, store, pid_a, _pid_b = self.make_store()
        first = store.add_path((10, 11), (0,), False, pid_a, 0.5)
        again = store.add_path((10, 11), (0,), False, pid_a, 0.5)
        assert first == again
        assert store.num_paths == 1
        store.add_posting("databas", first, 1.0)
        store.add_posting("softwar", first, 0.5)
        assert store.num_postings() == 2
        assert store.dedup_ratio() == 2.0

    def test_edge_flag_distinguishes_paths(self):
        _interner, store, pid_a, pid_b = self.make_store()
        node_match = store.add_path((10, 11), (0,), False, pid_a, 0.5)
        edge_match = store.add_path((10, 11), (0,), True, pid_b, 0.5)
        assert node_match != edge_match
        assert store.num_paths == 2

    def test_columns_roundtrip_single_path(self):
        _interner, store, pid_a, _pid_b = self.make_store()
        path_id = store.add_path((10, 11, 12), (0, 1), False, pid_a, 0.25)
        assert store.path_nodes(path_id) == (10, 11, 12)
        assert store.path_attrs(path_id) == (0, 1)
        assert store.path_root(path_id) == 10
        assert store.path_size(path_id) == 3
        assert store.path_pr(path_id) == 0.25
        assert not store.path_matched_on_edge(path_id)
        assert store.matched_node(path_id) == 12
        edge_id = store.add_path((10, 11, 12), (0, 1), True, pid_a, 0.5)
        assert store.matched_node(edge_id) == 11

    def test_mismatched_attr_count_rejected(self):
        _interner, store, pid_a, _pid_b = self.make_store()
        with pytest.raises(PathIndexError):
            store.add_path((10, 11), (0, 1), False, pid_a, 0.5)

    def test_shared_store_feeds_both_views(self):
        from repro.index.pattern_first import PatternFirstIndex
        from repro.index.root_first import RootFirstIndex

        interner, store, pid_a, _pid_b = self.make_store()
        pf = PatternFirstIndex(interner, store)
        rf = RootFirstIndex(interner, store)
        store.add_entry("databas", pid_a, make_entry((10, 11), (0,)))
        assert pf.num_entries() == rf.num_entries() == 1
        assert list(pf.roots("databas", pid_a)) == [10]
        assert rf.path_count("databas", 10) == 1
        # Leaves are the same object in both views; the entry accessors
        # materialize equal entries from it.
        pf_leaf = pf.roots("databas", pid_a)[10]
        rf_leaf = rf.pattern_map("databas", 10)[pid_a]
        assert pf_leaf is rf_leaf
        assert pf.paths("databas", pid_a, 10) == rf.paths_with_pattern(
            "databas", 10, pid_a
        )

    def test_view_refreshes_after_store_mutation(self):
        from repro.index.root_first import RootFirstIndex

        interner, store, pid_a, _pid_b = self.make_store()
        rf = RootFirstIndex(interner, store)
        store.add_entry("databas", pid_a, make_entry((10, 11), (0,)))
        assert rf.path_count("databas", 10) == 1
        store.add_entry("databas", pid_a, make_entry((10, 12), (0,)))
        assert rf.path_count("databas", 10) == 2

    def test_form_tree_matches_entries_on_non_simple_paths(self):
        # Builder-enumerated paths are always simple, but add_path accepts
        # hand-constructed ones; the single-path fast path must agree with
        # entries_form_tree on them too.
        _interner, store, pid_a, _pid_b = self.make_store()
        cases = [
            ((10, 11, 12), (0, 1)),        # simple: valid alone
            ((10, 11, 10), (0, 1)),        # re-enters its own root
            ((10, 11, 12, 11), (0, 1, 2)), # node 11 gets two parent edges
        ]
        for nodes, attrs in cases:
            path_id = store.add_path(nodes, attrs, False, pid_a, 0.5)
            entry = store.make_entry(path_id, 1.0)
            expected = entries_form_tree((entry,))
            checker = store.pairs_checker()
            assert checker(((path_id, 0.0),)) == expected, nodes
            assert checker(((path_id, 1.0),)) == expected, nodes

    def test_form_tree_cache_refreshes_after_append(self):
        # append_path bumps the store version, so the query-acceleration
        # columns may not serve stale state across interleaved appends.
        _interner, store, pid_a, _pid_b = self.make_store()
        first = store.add_path((10, 11), (0,), False, pid_a, 0.5)
        assert store.pairs_checker()([(first, 0.0)])
        second = store.append_path((10, 12), (0,), False, pid_a, 0.5)
        form_tree = store.pairs_checker()
        assert form_tree([(second, 0.0)])
        assert form_tree([(first, 0.0), (second, 0.0)])


class TestMissesShareNothing:
    """No accessor hands out an object a later call hands out again for
    writing: a miss is ``()`` or a read-only empty mapping, the root-type
    grouping holds tuples, and entry lists are new on every call."""

    def test_pattern_first(self, filled_indexes):
        _interner, pf, _rf, (pid_a, _pid_b) = filled_indexes
        for grouping in (
            pf.patterns_rooted_at("nosuch", 0),
            pf.patterns_rooted_at("databas", 9),
            pf.patterns_rooted_at("databas", 0),
        ):
            with pytest.raises(AttributeError):
                grouping.append(12345)
        assert list(pf.patterns_rooted_at("softwar", 0)) == []
        assert list(pf.patterns_rooted_at("databas", 0)) == [pid_a]
        for miss in (pf.roots("nosuch", pid_a), pf.roots("databas", 999)):
            with pytest.raises(TypeError):
                miss[7] = ((1, 1.0),)
        assert dict(pf.roots("ghost", pid_a)) == {}
        pf.paths("nosuch", pid_a, 10).append("leak")
        assert pf.paths("ghost", pid_a, 10) == []
        pf.paths("databas", pid_a, 10).clear()
        assert len(pf.paths("databas", pid_a, 10)) == 1

    def test_root_first(self, filled_indexes):
        _interner, _pf, rf, (pid_a, _pid_b) = filled_indexes
        for miss in (
            rf.roots("nosuch"),
            rf.pattern_map("nosuch", 10),
            rf.pattern_map("databas", 999),
        ):
            with pytest.raises(TypeError):
                miss[7] = {}
        assert dict(rf.roots("ghost")) == {}
        assert dict(rf.pattern_map("ghost", 10)) == {}
        rf.paths_with_pattern("nosuch", 10, pid_a).append("leak")
        assert rf.paths_with_pattern("ghost", 10, pid_a) == []
        rf.paths_with_pattern("databas", 10, pid_a).clear()
        assert len(rf.paths_with_pattern("databas", 10, pid_a)) == 1

    def test_context_root_miss(self, example_indexes):
        from repro.search.context import EnumerationContext

        context = EnumerationContext(example_indexes, "database software")
        missing = example_indexes.graph.num_nodes + 1
        for pattern_map in context.pattern_maps(missing):
            with pytest.raises(TypeError):
                pattern_map[7] = ((1, 1.0),)
        assert all(not m for m in context.pattern_maps(missing))

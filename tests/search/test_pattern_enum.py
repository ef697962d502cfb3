"""PATTERNENUM (Algorithm 2): correctness and worst-case behaviour."""

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.example import EXAMPLE_QUERY
from repro.datasets.imdb import ImdbConfig, generate_imdb_graph
from repro.datasets.queries import words_reachable_from
from repro.datasets.wiki import WikiConfig, generate_wiki_graph
from repro.datasets.worstcase import pattern_enum_adversarial_graph
from repro.index.builder import ResolvedQuery, build_indexes
from repro.index.entry import entries_form_tree
from repro.index.pattern_first import PatternFirstIndex
from repro.search.context import EnumerationContext
from repro.search.linear_enum import linear_enum_search
from repro.search.pattern_enum import pattern_enum_search


class TestOnExample:
    def test_top1_is_paper_p1(self, example_bundle, example_query):
        graph, _nodes, indexes = example_bundle
        result = pattern_enum_search(indexes, example_query, k=5)
        top = result.answers[0]
        assert top.score == pytest.approx(3.5)
        assert top.num_subtrees == 2
        rendered = top.pattern.format(graph)
        assert "(Software) (Genre) (Model)" in rendered
        assert "(Software) (Developer) (Company) (Revenue)" in rendered

    def test_k_limits_answers(self, example_indexes, example_query):
        result = pattern_enum_search(example_indexes, example_query, k=2)
        assert result.num_answers == 2

    def test_scores_descending(self, example_indexes, example_query):
        result = pattern_enum_search(example_indexes, example_query, k=100)
        scores = result.scores()
        assert scores == sorted(scores, reverse=True)

    def test_keep_subtrees_false(self, example_indexes, example_query):
        result = pattern_enum_search(
            example_indexes, example_query, k=5, keep_subtrees=False
        )
        assert result.answers[0].subtrees == []
        assert result.answers[0].num_subtrees == 2
        assert result.answers[0].score == pytest.approx(3.5)

    def test_unknown_word_gives_empty(self, example_indexes):
        result = pattern_enum_search(example_indexes, "xylophone", k=5)
        assert result.num_answers == 0

    def test_single_keyword(self, example_indexes):
        result = pattern_enum_search(example_indexes, "microsoft", k=10)
        assert result.num_answers >= 1
        for answer in result.answers:
            assert answer.pattern.num_keywords == 1

    def test_heights_bounded_by_d(self, example_indexes, example_query):
        result = pattern_enum_search(example_indexes, example_query, k=100)
        for answer in result.answers:
            assert answer.pattern.height <= example_indexes.d


class TestWorstCase:
    def test_all_combined_patterns_empty(self):
        """Section 4.1: PETopK checks p^2 combinations, all empty."""
        p = 6
        graph, query = pattern_enum_adversarial_graph(p)
        indexes = build_indexes(graph, d=2)
        result = pattern_enum_search(indexes, query, k=10)
        assert result.num_answers == 0
        assert result.stats.patterns_checked == p * p
        assert result.stats.empty_patterns == p * p

    def test_quadratic_growth(self):
        checked = []
        for p in (3, 6):
            graph, query = pattern_enum_adversarial_graph(p)
            indexes = build_indexes(graph, d=2)
            result = pattern_enum_search(indexes, query, k=10)
            checked.append(result.stats.patterns_checked)
        assert checked[1] == 4 * checked[0]


class TestStats:
    def test_counters_populated(self, example_indexes, example_query):
        result = pattern_enum_search(example_indexes, example_query, k=5)
        stats = result.stats
        assert stats.algorithm == "pattern_enum"
        assert stats.elapsed_seconds > 0
        assert stats.patterns_checked >= stats.nonempty_patterns
        assert stats.subtrees_enumerated >= stats.nonempty_patterns
        assert stats.candidate_roots >= 1

    def test_format_smoke(self, example_indexes, example_query):
        result = pattern_enum_search(example_indexes, example_query, k=5)
        assert "pattern_enum" in result.stats.format()


class TestCountedNotIntersected:
    """Section 4.1: the p^2 empty combinations are counted, but the walk
    starts from the type's candidate roots (there are none), so no
    ``Roots(w_i, P)`` posting map is ever fetched."""

    @pytest.mark.parametrize("p", [3, 6, 12])
    def test_no_root_set_is_fetched(self, monkeypatch, p):
        graph, query = pattern_enum_adversarial_graph(p)
        indexes = build_indexes(graph, d=2)
        calls = []
        real_roots = PatternFirstIndex.roots

        def counting_roots(self, word, pid):
            calls.append((word, pid))
            return real_roots(self, word, pid)

        monkeypatch.setattr(PatternFirstIndex, "roots", counting_roots)
        for prune in (True, False):
            result = pattern_enum_search(indexes, query, k=10, prune=prune)
            assert result.num_answers == 0
            assert result.stats.patterns_checked == p * p
            assert result.stats.empty_patterns == p * p
        assert calls == []


# ------------------------------------------------ an independent oracle

#: The walk counters the brute force below reproduces exactly.
ORACLE_COUNTERS = (
    "patterns_checked",
    "empty_patterns",
    "nonempty_patterns",
    "subtrees_enumerated",
    "tree_check_rejections",
    "candidate_roots",
)

#: Most pattern combinations one oracle example may brute-force; a
#: query over it loses its last keywords until it fits.
MAX_COMBINATIONS = 20_000


def brute_force_counts(indexes, words, keep_type=lambda root_type: True):
    """Algorithm 2 written out: every combination of ``Patterns_C(w_i)``
    for every kept root type ``C``, its roots the set intersection of
    ``Roots(w_i, P_i)``, and every path combination at each shared root
    tree-checked on materialized entries."""
    pattern_first = indexes.pattern_first
    counts = dict.fromkeys(ORACLE_COUNTERS, 0)
    roots_joined = set()
    for root_type in range(indexes.graph.num_types):
        if not keep_type(root_type):
            continue
        per_word = [
            pattern_first.patterns_rooted_at(word, root_type)
            for word in words
        ]
        for combo in itertools.product(*per_word):
            counts["patterns_checked"] += 1
            roots = set.intersection(*(
                set(pattern_first.roots(word, pid))
                for word, pid in zip(words, combo)
            ))
            roots_joined |= roots
            valid = 0
            for root in roots:
                for entries in itertools.product(*(
                    pattern_first.paths(word, pid, root)
                    for word, pid in zip(words, combo)
                )):
                    counts["subtrees_enumerated"] += 1
                    if entries_form_tree(entries):
                        valid += 1
                    else:
                        counts["tree_check_rejections"] += 1
            counts["nonempty_patterns" if valid else "empty_patterns"] += 1
    counts["candidate_roots"] = len(roots_joined)
    return counts


def combinations_of(indexes, words):
    """Pattern combinations :func:`brute_force_counts` walks for ``words``."""
    pattern_first = indexes.pattern_first
    total = 0
    for root_type in range(indexes.graph.num_types):
        per_type = 1
        for word in words:
            per_type *= len(pattern_first.patterns_rooted_at(word, root_type))
        total += per_type
    return total


def answerable_words(indexes, picks):
    """1-4 distinct words: the first from the vocabulary, the others
    reached from one of its roots, so most queries join somewhere.  A
    query over ``MAX_COMBINATIONS`` loses its last words until it fits."""
    vocabulary = sorted(indexes.store.words())
    first = vocabulary[picks[0] % len(vocabulary)]
    roots = sorted(indexes.root_first.roots(first))
    near = words_reachable_from(indexes, roots[picks[-1] % len(roots)])
    words = tuple(
        dict.fromkeys([first] + [near[i % len(near)] for i in picks[1:]])
    )
    while combinations_of(indexes, words) > MAX_COMBINATIONS:
        words = words[:-1]
    return words


def answers_of(result):
    """Everything observable about the answers, kept subtrees included."""
    return [
        (
            answer.score,
            answer.pattern_key,
            answer.num_subtrees,
            [combo.pairs for combo in answer.subtrees],
        )
        for answer in result.answers
    ]


@st.composite
def small_graph(draw):
    """A small seeded wiki- or IMDB-like graph."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        return generate_wiki_graph(WikiConfig(
            num_entities=draw(st.integers(min_value=10, max_value=120)),
            num_types=draw(st.integers(min_value=2, max_value=5)),
            num_attrs=draw(st.integers(min_value=3, max_value=8)),
            vocabulary_size=draw(st.integers(min_value=6, max_value=20)),
            seed=seed,
        ))
    return generate_imdb_graph(ImdbConfig(
        num_movies=draw(st.integers(min_value=3, max_value=30)),
        num_people=draw(st.integers(min_value=3, max_value=35)),
        num_companies=draw(st.integers(min_value=1, max_value=4)),
        num_countries=draw(st.integers(min_value=1, max_value=4)),
        num_years=draw(st.integers(min_value=1, max_value=5)),
        vocabulary_size=draw(st.integers(min_value=6, max_value=20)),
        seed=seed,
    ))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    small_graph(),
    st.integers(min_value=2, max_value=3),
    st.lists(st.integers(min_value=0), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=255),
    st.sampled_from([1, 3, 50]),
)
def test_walk_matches_brute_force(graph, d, picks, type_mask, k):
    """Full and shard contexts: unpruned counters equal the brute-force
    count, and pruned answers are bit-identical to unpruned and to
    LINEARENUM's full enumeration."""
    indexes = build_indexes(graph, d=d)
    words = answerable_words(indexes, picks)
    query = ResolvedQuery(words)

    def in_shard(root_type):
        return bool(type_mask >> (root_type % 8) & 1)

    context = EnumerationContext(indexes, query)
    for keep_type, run_context in (
        (lambda root_type: True, context),
        (in_shard, context.restricted_to(in_shard)),
    ):
        unpruned = pattern_enum_search(
            indexes, query, k=k, prune=False, context=run_context
        )
        expected = brute_force_counts(indexes, words, keep_type)
        assert {
            name: getattr(unpruned.stats, name) for name in ORACLE_COUNTERS
        } == expected
        pruned = pattern_enum_search(
            indexes, query, k=k, prune=True, context=run_context
        )
        full = linear_enum_search(indexes, query, k=k, context=run_context)
        assert answers_of(pruned) == answers_of(unpruned) == answers_of(full)


#: Pruned ``SearchStats`` of PETopK (k=5) on the shared wiki fixture,
#: pinned before the walk took its path patterns from root passes (the
#: fields are ``PINNED_FIELDS``), each with the combinations that moved
#: since.  Starting depth 0 from the type's candidate roots makes its
#: mass bound tighter, so combinations move from ``prefixes_skipped`` to
#: checked-and-empty, their sum fixed; no other field moves.
PINNED_FIELDS = (
    "candidate_roots",
    "patterns_checked",
    "empty_patterns",
    "nonempty_patterns",
    "subtrees_enumerated",
    "tree_check_rejections",
    "roots_skipped",
    "prefixes_skipped",
    "pairs_skipped",
    "threshold_first",
    "threshold_last",
)
PINNED_STATS = [
    ("curela lemacu nitogu", 394,
     (44, 4342, 4235, 107, 430, 0, 1, 11888, 0,
      0.0002664005141998219, 0.008157390865389032)),
    ("dopiru lemacu demozo", 172,
     (69, 1222, 1160, 62, 478, 2, 0, 5527, 0,
      0.0012383699107869706, 0.017144272775971362)),
    ("bamoc parar tedeb", 60,
     (51, 681, 640, 41, 484, 29, 7, 6379, 0,
      0.0003739860097274107, 0.042661538348946204)),
    ("divepu lemacu sopopi", 36,
     (103, 393, 332, 61, 712, 2, 1, 2262, 0,
      0.0010500685299573095, 0.022975925544260915)),
    ("cenopi robebu zudiga", 6,
     (145, 199, 169, 30, 667, 8, 7, 5177, 0,
      0.00025756419543274155, 0.057277861316252836)),
    ("cirap lemacu lovila", 816,
     (21, 5816, 5753, 63, 317, 6, 1, 20168, 0,
      0.0001765395732168449, 0.022079261180244926)),
    ("lemacu vezot divepu", 36,
     (23, 477, 426, 51, 202, 5, 1, 2526, 0,
      0.0008750341648168211, 0.009136891280344747)),
    ("cumazu lemacu divepu", 17,
     (115, 3276, 3144, 132, 3698, 164, 2, 12468, 0,
      0.00043574366924249946, 0.11436039667389566)),
    ("cirap dedopo dozugo lemacu", 5511,
     (23, 22564, 22351, 213, 1516, 406, 0, 73002, 0,
      0.0010444115538378884, 0.023871150019256722)),
    ("cirap dedopo lemacu tecugu", 6786,
     (50, 110917, 110838, 79, 1345, 56, 0, 85228, 0,
      0.0006825366604967691, 0.06608896900963071)),
    ("cenopi cumazu lemacu roroca", 1888,
     (85, 72906, 72788, 118, 2432, 47, 2, 151723, 0,
      0.00029488544487715366, 0.1126451725273408)),
    ("cesubu roveru cirap manip", 165,
     (12, 2339, 2315, 24, 64, 2, 1, 13141, 0,
      0.002016816037120818, 0.007348240855742056)),
    ("roroca cumazu bamoc domasa", 1674,
     (21, 13034, 12991, 43, 176, 1, 1, 45694, 0,
      0.0006529305117359079, 0.010533952037555954)),
    ("lemacu nivaza capodi cirap", 741,
     (10, 7628, 7596, 32, 46, 0, 1, 34450, 0,
      0.0005118386352458579, 0.002034498460043384)),
    ("curela parar vurili zudiga", 102,
     (114, 9353, 9237, 116, 3569, 403, 2, 18243, 0,
      0.0010253873076163037, 0.16199063336843322)),
    ("bamoc cirap conota nigev", 5888,
     (16, 16305, 16264, 41, 98, 0, 0, 84827, 0,
      0.0005342184608972291, 0.005706249027245963)),
    ("cesubu curela parar zudiga", 296,
     (47, 38087, 38022, 65, 422, 16, 3, 26525, 0,
      0.0005403538831849896, 0.017572736723747342)),
    ("cumazu", 0,
     (316, 24, 0, 24, 727, 0, 60, 121, 0,
      9.957632719966158e-05, 0.019108626764769182)),
    ("dopiru", 0,
     (274, 12, 0, 12, 393, 0, 70, 12, 0,
      0.0010751594524837642, 0.018644718628644526)),
    ("cumazu", 0,
     (316, 24, 0, 24, 727, 0, 60, 121, 0,
      9.957632719966158e-05, 0.019108626764769182)),
    ("robebu", 0,
     (275, 17, 0, 17, 452, 0, 47, 83, 0,
      0.0001523074316806343, 0.009724994128382264)),
    ("zudiga", 0,
     (288, 17, 0, 17, 519, 0, 21, 31, 0,
      1.995013086928934e-05, 0.011837885686711038)),
    ("robebu", 0,
     (275, 17, 0, 17, 452, 0, 47, 83, 0,
      0.0001523074316806343, 0.009724994128382264)),
    ("tecugu", 0,
     (179, 20, 0, 20, 267, 0, 30, 45, 0,
      0.00011369206559893394, 0.006786829825528806)),
    ("lemacu", 0,
     (141, 17, 0, 17, 1005, 0, 122, 310, 0,
      0.0014948089025918, 0.047624492903984295)),
    ("dopiru", 0,
     (274, 12, 0, 12, 393, 0, 70, 12, 0,
      0.0010751594524837642, 0.018644718628644526)),
    ("cirap", 0,
     (256, 18, 0, 18, 601, 0, 68, 214, 0,
      0.0007896071012294525, 0.014737088206020803)),
    ("cumazu", 0,
     (316, 24, 0, 24, 727, 0, 60, 121, 0,
      9.957632719966158e-05, 0.019108626764769182)),
    ("tecugu", 0,
     (179, 20, 0, 20, 267, 0, 30, 45, 0,
      0.00011369206559893394, 0.006786829825528806)),
    ("parar", 0,
     (254, 15, 0, 15, 738, 0, 35, 88, 0,
      0.00017789026484988556, 0.032729147012001636)),
]


@pytest.mark.parametrize("query, moved, pinned", PINNED_STATS)
def test_pruned_stats_against_pins(wiki_indexes, query, moved, pinned):
    result = pattern_enum_search(wiki_indexes, query, k=5)
    stats = dataclasses.asdict(result.stats)
    before = dict(zip(PINNED_FIELDS, pinned))
    assert stats["patterns_checked"] - before["patterns_checked"] == moved
    assert stats["empty_patterns"] - before["empty_patterns"] == moved
    assert before["prefixes_skipped"] - stats["prefixes_skipped"] == moved
    unmoved = set(PINNED_FIELDS) - {
        "patterns_checked", "empty_patterns", "prefixes_skipped"
    }
    assert {name: stats[name] for name in unmoved} == {
        name: before[name] for name in unmoved
    }

import heapq
import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest

from conftest import GOLDEN_INDEX_DIR
from divsearch import diversify
from divsearch.anchors import diversify_anchored
from divsearch.cli import render_search_report
from divsearch.diversify import diversify_baseline
from divsearch.errors import NoIntentError
from divsearch.features import FeatureEntry, FeatureMatrix, build_matrix
from divsearch.indexing import IndexConfig, index_corpus
from divsearch.intents import (
    iter_combinations,
    iter_intents,
    resolve_segment,
    segment_node_list,
)
from divsearch.parallel import diversify_parallel
from divsearch.storage import load_index
from helpers import Entities, count_intersections, ids, patch_everywhere, random_corpus_xml

ENGINES = {"baseline": diversify_baseline, "anchor": diversify_anchored}

# The report of the keywords ["query", "query"] at k=5, m=5 on the golden
# index, as the engines answered it before segments were shared between
# intents.  `divsearch search` reads a repeated word once, so the engines
# are called here directly.
QUERY_QUERY_REPORT = (
    '{"query":["query","query"],"k":5,"m":5,"algo":"baseline","intents":['
    '{"segments":[{"keyword":"query","feature":"language"},'
    '{"keyword":"query","feature":"language"}],'
    '"aggMi":0.270310072072,"relevance":1,"dif":1,"score":1,"results":["1.1"]},'
    '{"segments":[{"keyword":"query","feature":"optimization"},'
    '{"keyword":"query","feature":"optimization"}],'
    '"aggMi":0.270310072072,"relevance":1,"dif":0.5,"score":0.5,"results":["1.2"]}],'
    '"phi":["1.1","1.2"]}'
)


def make_matrix(*columns: dict[str, float]) -> FeatureMatrix:
    """Columns as {feature: mi}; entries sorted the way build_matrix does."""
    keywords = tuple(f"k{i}" for i in range(len(columns)))
    cols = []
    for keyword, column in zip(keywords, columns):
        entries = [FeatureEntry(keyword, f, mi) for f, mi in column.items()]
        entries.sort(key=lambda e: (-e.mi, e.feature))
        cols.append(tuple(entries))
    return FeatureMatrix(keywords, tuple(cols))


def random_matrix(rng: random.Random, shuffled: bool) -> FeatureMatrix:
    """1 to 4 columns of 0 to 5 entries, the first not empty, each shuffled if ``shuffled``."""
    columns = []
    for c in range(rng.randint(1, 4)):
        size = rng.randint(0 if c else 1, 5)
        columns.append({f"f{c}_{i}": rng.choice([0.2, 0.4, rng.random()]) for i in range(size)})
    matrix = make_matrix(*columns)
    if not shuffled:
        return matrix
    columns = tuple(tuple(rng.sample(col, len(col))) for col in matrix.columns)
    return matrix._replace(columns=columns)


def emitted_names(matrix: FeatureMatrix) -> list[tuple[tuple[str, ...], float]]:
    out = []
    for chosen, agg in iter_combinations(matrix):
        names = tuple(e.feature for e in chosen if e is not None)
        out.append((names, agg))
    return out


def toy_nodes(index, ordinals):
    return Entities(index.entity_table).deweys(ordinals)


class TestSegmentNodeList:
    def test_query_language(self, toy_index):
        assert toy_nodes(toy_index, segment_node_list("query", "language", toy_index)) == ids("1.1")

    def test_database_relational(self, toy_index):
        nodes = segment_node_list("database", "relational", toy_index)
        assert toy_nodes(toy_index, nodes) == ids("1.2")

    def test_unknown_feature_empty(self, toy_index):
        assert segment_node_list("database", "unknownterm", toy_index) == ()

    def test_bare_segment_uses_full_posting(self, toy_index):
        segment = resolve_segment("database", None, toy_index)
        assert segment.feature is None
        assert toy_nodes(toy_index, segment.node_list) == ids("1.1", "1.2", "1.3")
        assert segment.feature_list_size == 3

    def test_feature_segment_records_feature_posting_size(self, toy_index):
        segment = resolve_segment("query", "language", toy_index)
        assert toy_nodes(toy_index, segment.node_list) == ids("1.1")
        assert segment.feature_list_size == 1


class TestEnumerationOrder:
    def test_two_by_two_descending_sums(self):
        matrix = make_matrix({"a": 0.9, "b": 0.5}, {"c": 0.8, "d": 0.7})
        got = emitted_names(matrix)
        assert [names for names, _ in got] == [
            ("a", "c"),
            ("a", "d"),
            ("b", "c"),
            ("b", "d"),
        ]
        assert [round(agg, 10) for _, agg in got] == [1.7, 1.6, 1.3, 1.2]

    def test_single_combination_then_exhausted(self):
        matrix = make_matrix({"a": 0.9})
        assert emitted_names(matrix) == [(("a",), 0.9)]

    def test_tie_broken_by_feature_name(self):
        matrix = make_matrix({"zz": 0.5, "aa": 0.5}, {"c": 0.1})
        assert [names for names, _ in emitted_names(matrix)] == [
            ("aa", "c"),
            ("zz", "c"),
        ]

    def test_cross_column_ties_by_name_tuple(self):
        # both middle states sum to 1.0; (a2,b1) < (a1,b2) lexicographically
        matrix = make_matrix({"a1": 0.6, "a2": 0.4}, {"b1": 0.6, "b2": 0.4})
        assert [names for names, _ in emitted_names(matrix)] == [
            ("a1", "b1"),
            ("a1", "b2"),
            ("a2", "b1"),
            ("a2", "b2"),
        ]

    def test_each_combination_exactly_once(self):
        """Sorted columns or not: the walk's tree needs no column order."""
        rng = random.Random(71)
        for trial in range(100):
            matrix = random_matrix(rng, shuffled=trial % 2 == 1)
            got = Counter(names for names, _ in emitted_names(matrix))
            expected = itertools.product(*(col for col in matrix.columns if col))
            assert got == Counter(tuple(e.feature for e in chosen) for chosen in expected)

    def test_agg_mi_non_increasing(self):
        rng = random.Random(72)
        for _ in range(30):
            sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
            matrix = make_matrix(
                *(
                    {f"f{c}_{i}": rng.uniform(0.01, 1.0) for i in range(size)}
                    for c, size in enumerate(sizes)
                )
            )
            aggs = [agg for _, agg in emitted_names(matrix)]
            assert all(a >= b for a, b in zip(aggs, aggs[1:]))

    def test_emission_is_globally_sorted(self):
        """The stream is every combination sorted by (-aggMi, names).

        1 to 4 columns, some empty, with MI drawn from a few levels so that
        aggregates tie; the reference sorts ``itertools.product`` with the
        aggregate summed in slot order, as the heap key sums it.
        """
        rng = random.Random(73)
        tied = 0
        for _ in range(300):
            levels = rng.choice([[0.2, 0.4, 0.6], [0.1, 0.3], [0.25, 0.5, 0.75, 1.0]])
            matrix = make_matrix(
                *(
                    {f"f{rng.randrange(50)}_{i}": rng.choice(levels) for i in range(size)}
                    for size in (rng.randint(0, 5) for _ in range(rng.randint(1, 4)))
                )
            )
            want = []
            for chosen in itertools.product(*(col or (None,) for col in matrix.columns)):
                picked = [e for e in chosen if e is not None]
                agg = 0.0
                for e in picked:
                    agg += e.mi
                if picked:
                    want.append((-agg, tuple(e.feature for e in picked), chosen))
            want.sort(key=lambda row: row[:2])
            assert list(iter_combinations(matrix)) == [(chosen, -neg) for neg, _, chosen in want]
            aggs = [neg for neg, _, _ in want]
            tied += len(set(aggs)) < len(aggs)
        assert tied > 100, tied

    def test_each_state_enters_the_heap_once(self, monkeypatch):
        """No state is pushed twice, in sorted columns or not: heap entries
        plus the seeded start state equal the combinations."""
        rng = random.Random(76)
        pushes = []
        real_push = heapq.heappush
        monkeypatch.setattr(
            heapq, "heappush", lambda heap, item: (pushes.append(item), real_push(heap, item))
        )
        for _ in range(100):
            matrix = random_matrix(rng, shuffled=rng.random() < 0.5)
            pushes.clear()
            emitted = sum(1 for _ in iter_combinations(matrix))
            total = math.prod(len(col) for col in matrix.columns if col)
            assert emitted == total
            assert len(pushes) + 1 == total

    def test_full_enumeration_memory_is_the_frontier(self):
        """4 x 20 = 160,000 combinations hold only the heap's frontier
        (1.2 MB), not every state pushed, as a visited set would (23 MB)."""
        rng = random.Random(78)
        matrix = make_matrix(
            *({f"f{c}_{i:02d}": rng.uniform(0.01, 1.0) for i in range(20)} for c in range(4))
        )
        tracemalloc.start()
        try:
            emitted = sum(1 for _ in itertools.islice(iter_combinations(matrix), 160_001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emitted == 160_000
        assert peak < 5_000_000, peak

    def test_scale_invariance_of_order(self):
        rng = random.Random(74)
        base = make_matrix(
            *(
                {f"f{c}_{i}": rng.uniform(0.01, 1.0) for i in range(4)}
                for c in range(2)
            )
        )
        scaled = FeatureMatrix(
            base.keywords,
            tuple(
                tuple(FeatureEntry(e.keyword, e.feature, e.mi * 2.0) for e in col)
                for col in base.columns
            ),
        )
        assert [n for n, _ in emitted_names(base)] == [
            n for n, _ in emitted_names(scaled)
        ]

    def test_twenty_by_twenty_emits_400(self):
        rng = random.Random(75)
        matrix = make_matrix(
            *(
                {f"f{c}_{i:02d}": rng.uniform(0.01, 1.0) for i in range(20)}
                for c in range(2)
            )
        )
        # one past the count, so a walk that repeats states fails instead of running on
        assert sum(1 for _ in itertools.islice(iter_combinations(matrix), 401)) == 400


class TestIterIntents:
    def test_empty_column_degrades_to_bare_keyword(self, toy_index):
        matrix = FeatureMatrix(
            ("database", "query"),
            (
                (),
                (FeatureEntry("query", "language", 0.1),),
            ),
        )
        intents = list(iter_intents(matrix, toy_index))
        assert len(intents) == 1
        bare, featured = intents[0].segments
        assert bare.feature is None
        assert toy_nodes(toy_index, bare.node_list) == ids("1.1", "1.2", "1.3")
        assert featured.feature == "language"
        assert intents[0].agg_mi == 0.1

    def test_all_columns_empty_emits_nothing(self, toy_index):
        matrix = FeatureMatrix(("a", "b"), ((), ()))
        assert list(iter_intents(matrix, toy_index)) == []

    def test_lex_key_uses_empty_string_for_bare(self, toy_index):
        matrix = FeatureMatrix(
            ("database", "query"),
            ((), (FeatureEntry("query", "language", 0.1),)),
        )
        (intent,) = iter_intents(matrix, toy_index)
        assert intent.lex_key == ("", "language")
        assert intent.label() == "database query:language"


def record_stream(monkeypatch) -> list:
    """Record every intent an engine pulls from its intent stream."""
    seen = []
    original = diversify.run_topk

    def recording(intents, k, evaluate):
        def pulled():
            for intent in intents:
                seen.append(intent)
                yield intent

        return original(pulled(), k, evaluate)

    patch_everywhere(monkeypatch, original, recording)
    return seen


def assert_one_segment_per_key(intents) -> dict:
    """Every intent with a given key holds the same ``Segment`` object."""
    by_key = {}
    for intent in intents:
        for segment in intent.segments:
            key = (segment.keyword, segment.feature)
            assert by_key.setdefault(key, segment) is segment, key
    return by_key


class TestSegmentMemo:
    """Each ``(keyword, feature)`` segment is resolved once per query."""

    def test_shared_keys_share_one_segment(self, toy_index, monkeypatch):
        calls = count_intersections(monkeypatch)
        matrix = build_matrix(["language", "query"], 2, toy_index)
        intents = list(iter_intents(matrix, toy_index))
        assert len(intents) == 4
        by_key = assert_one_segment_per_key(intents)
        assert len(by_key) == 4
        assert sorted(calls) == sorted(by_key)
        for key, segment in by_key.items():
            assert segment == resolve_segment(*key, toy_index)

    def test_memo_lasts_one_query(self, toy_index, monkeypatch):
        calls = count_intersections(monkeypatch)
        matrix = build_matrix(["language", "query"], 2, toy_index)
        first = list(iter_intents(matrix, toy_index))
        assert len(calls) == 4
        second = list(iter_intents(matrix, toy_index))
        assert len(calls) == 8
        assert first == second
        assert first[0].segments[0] is not second[0].segments[0]

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_engines_intersect_each_key_once(self, monkeypatch, engine):
        calls = count_intersections(monkeypatch)
        seen = record_stream(monkeypatch)
        rng = random.Random(91)
        config = IndexConfig(entity_labels=frozenset({"item"}))
        reused = cut = 0
        for _ in range(80):
            index = index_corpus(random_corpus_xml(rng), config)
            terms = sorted(index.postings)
            query = rng.sample(terms, min(rng.choice((2, 3)), len(terms)))
            budget = rng.choice((None, None, 1, 2, 5))
            calls.clear()
            seen.clear()
            try:
                ENGINES[engine](query, rng.choice((1, 3)), rng.choice((2, 4)), index, budget)
            except NoIntentError:
                continue
            assert all([s.keyword for s in intent.segments] == query for intent in seen)
            by_key = assert_one_segment_per_key(seen)
            featured = [key for key in by_key if key[1] is not None]
            # one call per featured key the query used, and none for any other
            assert sorted(calls) == sorted(featured)
            uses = sum(s.feature is not None for intent in seen for s in intent.segments)
            shared = uses > len(featured)
            reused += shared
            if budget is not None:
                assert len(seen) <= budget
                cut += shared and len(seen) == budget
        # keys were shared between intents, also under a budget cut
        assert reused > 20
        assert cut > 5

    def test_repeated_keyword_shares_within_an_intent(self, toy_index, monkeypatch):
        calls = count_intersections(monkeypatch)
        matrix = build_matrix(["query", "query"], 5, toy_index)
        intents = list(iter_intents(matrix, toy_index))
        assert len(intents) == 16
        assert len(calls) == 4
        same = [i for i in intents if i.segments[0].feature == i.segments[1].feature]
        assert len(same) == 4
        assert all(i.segments[0] is i.segments[1] for i in same)

    @pytest.mark.parametrize("algo", ["baseline", "anchor", "parallel"])
    def test_repeated_keyword_report_unchanged(self, algo):
        engine = {**ENGINES, "parallel": diversify_parallel}[algo]
        topk, _ = engine(["query", "query"], 5, 5, load_index(GOLDEN_INDEX_DIR))
        want = QUERY_QUERY_REPORT.replace('"algo":"baseline"', f'"algo":"{algo}"')
        assert render_search_report(["query", "query"], 5, 5, algo, topk) == want


class TestQueryPipeline:
    """The stages ``diversify.run_query`` chains for every engine."""

    @pytest.mark.parametrize("budget", [1, 3, 7])
    def test_budget_keeps_the_first_intents_and_resolves_only_theirs(
        self, toy_index, monkeypatch, budget
    ):
        matrix = build_matrix(["language", "query"], 4, toy_index)
        full = list(iter_intents(matrix, toy_index))
        assert len(full) == 8
        calls = count_intersections(monkeypatch)
        cut = list(iter_intents(matrix, toy_index, budget))
        assert cut == full[:budget]
        # one intersection per featured key of the kept intents, none beyond
        keys = {key for intent in cut for key in intent.segment_keys() if key[1] is not None}
        assert sorted(calls) == sorted(keys)

    @pytest.mark.parametrize(
        "engine",
        [
            diversify_baseline,
            diversify_anchored,
            lambda *args: diversify_parallel(*args, workers=2),
        ],
        ids=["baseline", "anchor", "parallel"],
    )
    def test_query_without_intents_builds_no_entity_table(self, engine):
        index = load_index(GOLDEN_INDEX_DIR)
        with pytest.raises(NoIntentError):
            engine(["zzzz"], 2, 2, index)
        assert "entity_table" not in vars(index)
        engine(["database", "query"], 2, 2, index)
        assert "entity_table" in vars(index)

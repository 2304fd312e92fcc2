import itertools
import random

from divsearch.features import FeatureEntry, FeatureMatrix
from divsearch.intents import (
    iter_combinations,
    iter_intents,
    resolve_segment,
    segment_node_list,
)
from helpers import ids


def make_matrix(*columns: dict[str, float]) -> FeatureMatrix:
    """Columns as {feature: mi}; entries sorted the way build_matrix does."""
    keywords = tuple(f"k{i}" for i in range(len(columns)))
    cols = []
    for keyword, column in zip(keywords, columns):
        entries = [FeatureEntry(keyword, f, mi) for f, mi in column.items()]
        entries.sort(key=lambda e: (-e.mi, e.feature))
        cols.append(tuple(entries))
    return FeatureMatrix(keywords, tuple(cols))


def emitted_names(matrix: FeatureMatrix) -> list[tuple[tuple[str, ...], float]]:
    out = []
    for chosen, agg in iter_combinations(matrix):
        names = tuple(e.feature for e in chosen if e is not None)
        out.append((names, agg))
    return out


class TestSegmentNodeList:
    def test_query_language(self, toy_index):
        assert segment_node_list("query", "language", toy_index) == ids("1.1")

    def test_database_relational(self, toy_index):
        assert segment_node_list("database", "relational", toy_index) == ids("1.2")

    def test_unknown_feature_empty(self, toy_index):
        assert segment_node_list("database", "unknownterm", toy_index) == ()

    def test_bare_segment_uses_full_posting(self, toy_index):
        segment = resolve_segment("database", None, toy_index)
        assert segment.feature is None
        assert segment.node_list == ids("1.1", "1.2", "1.3")
        assert segment.feature_list_size == 3

    def test_feature_segment_records_feature_posting_size(self, toy_index):
        segment = resolve_segment("query", "language", toy_index)
        assert segment.node_list == ids("1.1")
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
        rng = random.Random(71)
        for _ in range(30):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
            matrix = make_matrix(
                *(
                    {f"f{c}_{i}": rng.uniform(0.01, 1.0) for i in range(size)}
                    for c, size in enumerate(sizes)
                )
            )
            got = [names for names, _ in emitted_names(matrix)]
            expected = set(
                itertools.product(*[[e.feature for e in col] for col in matrix.columns])
            )
            assert len(got) == len(expected)
            assert set(got) == expected

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
        rng = random.Random(73)
        for _ in range(20):
            sizes = [rng.randint(1, 5), rng.randint(1, 5)]
            matrix = make_matrix(
                *(
                    {f"f{c}_{i}": rng.choice([0.2, 0.4, 0.6]) for i in range(size)}
                    for c, size in enumerate(sizes)
                )
            )
            got = emitted_names(matrix)
            want = sorted(got, key=lambda pair: (-pair[1], pair[0]))
            assert got == want

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
        assert len(emitted_names(matrix)) == 400


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
        assert bare.node_list == ids("1.1", "1.2", "1.3")
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

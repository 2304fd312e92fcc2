import random

import pytest

from divsearch import diversify
from divsearch.anchors import diversify_anchored
from divsearch.diversify import (
    IntentEvaluation,
    diversify_baseline,
    dif,
    evaluate_against_pool,
    intent_likelihood,
    run_topk,
)
from divsearch.errors import NoIntentError
from divsearch.indexing import IndexConfig, index_corpus
from divsearch.intents import IntentQuery, Segment, resolve_segment
from divsearch.parallel import diversify_parallel
from divsearch.slca import DiversifiedSet, SlcaSet
from helpers import ids, random_corpus_xml

MIQ = 0.13515503603605478  # shared MI score of query's partners in the fixture


def toy_intent(index, *pairs):
    segments = []
    agg = 0.0
    for keyword, feature in pairs:
        segments.append(resolve_segment(keyword, feature, index))
        if feature is not None:
            agg += MIQ
    return IntentQuery(tuple(segments), agg)


def relevance_and_results(intent, index):
    """The baseline's relevance and SLCA set: its merge into an empty pool, rendered."""
    evaluation = evaluate_against_pool(intent, DiversifiedSet(), index.entity_table)
    return evaluation.relevance, index.entity_table.render(evaluation.outcome.inserted)


class TestRelevance:
    def test_fully_selective_segments(self, toy_index):
        intent = toy_intent(toy_index, ("database", "relational"), ("query", "optimization"))
        assert intent_likelihood(intent) == 1.0
        assert relevance_and_results(intent, toy_index) == (1.0, ids("1.2"))

    def test_shared_entity_intent(self, toy_index):
        intent = toy_intent(toy_index, ("database", "system"), ("query", "language"))
        assert relevance_and_results(intent, toy_index) == (1.0, ids("1.1"))

    def test_empty_segment_node_list_zeroes_relevance(self, toy_index):
        intent = toy_intent(toy_index, ("database", "relational"), ("query", "image"))
        assert relevance_and_results(intent, toy_index) == (0.0, ())

    def test_bare_segment_contributes_factor_one(self, toy_index):
        intent = toy_intent(toy_index, ("database", None), ("query", "language"))
        assert intent_likelihood(intent) == 1.0

    def test_partial_match_ratio(self, toy_index):
        # query:database segment matches 2 of database's 3 entities
        intent = toy_intent(toy_index, ("query", "database"))
        assert intent_likelihood(intent) == 2 / 3


class TestDif:
    def test_duplicate_zero(self):
        phi = DiversifiedSet()
        phi.merge(ids("1.2"), 0)
        assert dif(SlcaSet(ids("1.2")), phi) == 0.0

    def test_disjoint_half(self):
        phi = DiversifiedSet()
        phi.merge(ids("1.2"), 0)
        assert dif(SlcaSet(ids("1.3")), phi) == 0.5

    def test_descendant_replacement_full(self):
        phi = DiversifiedSet()
        phi.merge(ids("1.2"), 0)
        assert dif(SlcaSet(ids("1.2.1")), phi) == 1.0

    def test_range(self):
        rng = random.Random(91)
        from helpers import random_antichain

        for _ in range(200):
            phi = DiversifiedSet()
            phi.merge(random_antichain(rng), 0)
            value = dif(SlcaSet(random_antichain(rng)), phi)
            assert 0.0 <= value <= 1.0


class TestBaseline:
    def test_toy_trace(self, toy_index):
        topk, stats = diversify_baseline(["database", "query"], 2, 2, toy_index)
        assert len(topk.entries) == 2
        first, second = topk.entries
        assert first.intent.label() == "database query:language"
        assert (first.relevance, first.dif, first.score) == (1.0, 1.0, 1.0)
        assert first.results.nodes == ids("1.1")
        assert second.intent.label() == "database query:optimization"
        assert (second.relevance, second.dif, second.score) == (1.0, 0.5, 0.5)
        assert second.results.nodes == ids("1.2")
        assert topk.phi.nodes == ids("1.1", "1.2")
        assert stats.nodes_visited == 8
        assert stats.nodes_pruned == 0

    def test_duplicate_result_intent_not_admitted(self, toy_index):
        # intents 3 and 4 reproduce entities already in the pool: score 0
        topk, _ = diversify_baseline(["database", "query"], 4, 4, toy_index)
        assert len(topk.entries) == 2
        assert {e.intent.label() for e in topk.entries} == {
            "database query:language",
            "database query:optimization",
        }

    def test_k_larger_than_scoring_intents(self, toy_index):
        topk, _ = diversify_baseline(["database", "query"], 50, 4, toy_index)
        assert len(topk.entries) == 2

    def test_no_intent_raises(self, toy_index):
        with pytest.raises(NoIntentError):
            diversify_baseline(["zzz1", "zzz2"], 2, 2, toy_index)

    def test_invalid_parameters(self, toy_index):
        with pytest.raises(ValueError):
            diversify_baseline(["query"], 0, 2, toy_index)
        with pytest.raises(ValueError):
            diversify_baseline(["query"], 2, 0, toy_index)
        # checked before the matrix: no NoIntentError for an unknown keyword
        with pytest.raises(ValueError, match="k must be"):
            diversify_baseline(["zzzz"], 0, 2, toy_index)

    @pytest.mark.parametrize("budget", [0, -1, 1.5, True])
    @pytest.mark.parametrize("engine", [diversify_baseline, diversify_anchored, diversify_parallel])
    def test_invalid_budget_is_refused_before_any_work(
        self, toy_index, monkeypatch, engine, budget
    ):
        """Each engine checks ``budget`` as it checks ``k`` and ``m``: before the matrix."""

        def failing(*args):
            raise AssertionError("build_matrix called")

        monkeypatch.setattr(diversify, "build_matrix", failing)
        with pytest.raises(ValueError, match="budget must be an integer >= 1"):
            engine(["database", "query"], 2, 2, toy_index, budget=budget)

    def test_budget_limits_evaluations(self, toy_index):
        full, full_stats = diversify_baseline(["database", "query"], 2, 2, toy_index)
        capped, capped_stats = diversify_baseline(
            ["database", "query"], 2, 2, toy_index, budget=1
        )
        assert len(capped.entries) == 1
        assert capped_stats.nodes_visited < full_stats.nodes_visited

    def test_deterministic(self, toy_index):
        a = diversify_baseline(["database", "query"], 2, 3, toy_index)
        b = diversify_baseline(["database", "query"], 2, 3, toy_index)
        assert [(e.intent, e.score, e.results.nodes) for e in a[0].entries] == [
            (e.intent, e.score, e.results.nodes) for e in b[0].entries
        ]
        assert a[0].phi == b[0].phi

    def test_score_bounds_on_random_corpora(self):
        rng = random.Random(92)
        for _ in range(20):
            xml = random_corpus_xml(rng)
            index = index_corpus(xml, IndexConfig(entity_labels=frozenset({"item"})))
            terms = sorted(index.postings)
            query = rng.sample(terms, min(2, len(terms)))
            try:
                topk, _ = diversify_baseline(query, 3, 3, index)
            except NoIntentError:
                continue
            for entry in topk.entries:
                assert entry.relevance >= 0.0
                assert 0.0 <= entry.dif <= 1.0
                assert 0.0 < entry.score <= entry.relevance + 1e-15


def fake_intent(name: str, agg: float, *sizes: int) -> IntentQuery:
    """An intent of one segment per size, each a list of that many placeholder nodes."""
    segments = tuple(
        Segment(
            keyword=f"k{i}", feature=name, node_list=tuple(range(size)),
            feature_list_size=max(1, size), ancestors=frozenset(), cover=frozenset(),
        )
        for i, size in enumerate(sizes or (0,))
    )
    return IntentQuery(segments, agg)


def scripted_evaluator(script, visits=None):
    """Maps intent feature name to (relevance, fresh nodes); ``visits`` to nodes visited."""

    def evaluate(intent, pool):
        name = intent.segments[0].feature
        relevance, fresh = script[name]
        return IntentEvaluation(
            relevance=relevance,
            outcome=pool.preview(fresh),
            visited=(visits or {}).get(name, 0),
            areas_skipped=0,
        )

    return evaluate


class TestTopKDriver:
    def test_eviction_replaces_worst_and_cleans_pool(self):
        script = {
            "one": (1.0, ids("1.1")),
            "two": (1.0, ids("1.2")),
            "three": (4.0, ids("1.3")),
        }
        intents = [fake_intent("one", 0.9), fake_intent("two", 0.8), fake_intent("three", 0.7)]
        topk, _ = run_topk(intents, 2, scripted_evaluator(script))
        # "three" scores 4 * (1/3); "two" (score 0.5) is evicted
        labels = [e.intent.segments[0].feature for e in topk.entries]
        assert labels == ["three", "one"]
        assert topk.phi.nodes == ids("1.1", "1.3")

    def test_newcomer_must_strictly_beat_worst(self):
        # "same" scores 1/3 against the full pool, beating two's 0.25
        script = {
            "one": (1.0, ids("1.1")),
            "two": (0.5, ids("1.2")),
            "same": (1.0, ids("1.3")),
        }
        intents = [fake_intent("one", 0.9), fake_intent("two", 0.8), fake_intent("same", 0.7)]
        topk, _ = run_topk(intents, 2, scripted_evaluator(script))
        labels = [e.intent.segments[0].feature for e in topk.entries]
        assert labels == ["one", "same"]

    def test_equal_score_keeps_incumbent(self):
        script = {
            "one": (1.0, ids("1.1")),
            "challenger": (2.0, ids("1.2")),  # 2.0 * 0.5 = 1.0, ties incumbent worst
        }
        intents = [fake_intent("one", 0.9), fake_intent("challenger", 0.8)]
        topk, _ = run_topk(intents, 1, scripted_evaluator(script))
        assert [e.intent.segments[0].feature for e in topk.entries] == ["one"]
        assert topk.phi.nodes == ids("1.1")

    def test_tie_order_score_then_aggmi_then_lex(self):
        # relevance compensates the shrinking novelty so every score is 1.0
        script = {
            "bb": (1.0, ids("1.1")),
            "aa": (2.0, ids("1.2")),
            "cc": (3.0, ids("1.3")),
        }
        intents = [fake_intent("bb", 0.5), fake_intent("aa", 0.5), fake_intent("cc", 0.9)]
        topk, _ = run_topk(intents, 3, scripted_evaluator(script))
        assert [e.score for e in topk.entries] == [1.0, 1.0, 1.0]
        labels = [e.intent.segments[0].feature for e in topk.entries]
        assert labels == ["cc", "aa", "bb"]

    def test_newcomer_is_applied_before_the_evicted_intent_leaves(self):
        # "fine" refines one's only node, so its merge removes that node first
        script = {"one": (1.0, ids("1.2")), "fine": (3.0, ids("1.2.1"))}
        intents = [fake_intent("one", 0.9), fake_intent("fine", 0.8)]
        topk, _ = run_topk(intents, 1, scripted_evaluator(script))
        assert [e.intent.segments[0].feature for e in topk.entries] == ["fine"]
        assert topk.entries[0].results.nodes == ids("1.2.1")
        assert topk.phi.nodes == ids("1.2.1")

    def test_zero_score_never_admitted(self):
        script = {"one": (0.0, ids("1.1"))}
        topk, _ = run_topk([fake_intent("one", 0.9)], 2, scripted_evaluator(script))
        assert topk.entries == ()
        assert topk.phi.nodes == ()

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            run_topk([], 0, scripted_evaluator({}))

    def test_pruned_is_every_segments_input_less_visited(self):
        script = {"one": (1.0, ids("1.1")), "two": (1.0, ids("1.2")), "none": (0.0, ())}
        intents = [
            fake_intent("one", 0.9, 3, 5),
            fake_intent("two", 0.8, 4, 1, 2),
            fake_intent("none", 0.7, 6),
        ]
        visits = {"one": 6, "two": 7, "none": 0}
        _, stats = run_topk(intents, 1, scripted_evaluator(script, visits))
        assert stats.nodes_visited == 13
        assert stats.nodes_pruned == (8 - 6) + (7 - 7) + (6 - 0)


class TestEvaluateAgainstPool:
    def test_visited_counts_all_segment_nodes(self, toy_index):
        intent = toy_intent(toy_index, ("database", None), ("query", "language"))
        evaluation = evaluate_against_pool(intent, DiversifiedSet(), toy_index.entity_table)
        assert evaluation.visited == 4  # 3 database entities + 1 intersection node
        assert evaluation.areas_skipped == 0

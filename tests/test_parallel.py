import random
import threading
import tracemalloc
from collections import Counter

import pytest

from divsearch.diversify import diversify_baseline
from divsearch.anchors import diversify_anchored, partition_areas
from divsearch.dewey import DeweyId
from divsearch.errors import NoIntentError
from divsearch.features import FeatureEntry, FeatureMatrix, build_matrix
from divsearch.indexing import IndexBundle, IndexConfig, index_corpus
from divsearch.intents import iter_intents, resolve_segment
from divsearch import anchors, parallel
from divsearch.parallel import diversify_parallel, evaluate_area, plan_shared_segments
from divsearch.slca import proper_ancestors
from helpers import Entities, count_intersections, ids, patch_everywhere, random_corpus_xml


class TestPlanSharedSegments:
    def test_registers_only_repeated_keys(self):
        rows = [
            (("a", "f1"), ("b", "g1")),
            (("a", "f1"), ("b", "g2")),
        ]
        table = plan_shared_segments(rows)
        assert table.shared == {("a", "f1")}
        assert table.segments == {}

    def test_disjoint_intents_share_nothing(self):
        table = plan_shared_segments([(("a", "f1"),), (("a", "f2"),)])
        assert table.shared == frozenset()

    def test_within_intent_repeats_count_once(self):
        table = plan_shared_segments([(("a", None), ("a", None))])
        assert table.shared == frozenset()


class TestSharedSegmentTable:
    def test_miss_publishes_then_hit_reads_nothing(self, toy_index, monkeypatch):
        """A shared segment is intersected once and then handed out as is."""
        calls = count_intersections(monkeypatch)
        key = ("query", "language")
        table = plan_shared_segments([(key,)] * 2)
        first = table.resolve(*key, toy_index)
        assert calls == [key]
        assert table.segments == {key: first}
        second = table.resolve(*key, toy_index)
        assert calls == [key]
        assert second is first

    def test_unshared_segment_bypasses_cache(self, toy_index, monkeypatch):
        calls = count_intersections(monkeypatch)
        table = plan_shared_segments([(("query", "language"),)] * 2)
        bare = table.resolve("database", None, toy_index)
        assert bare.node_list is toy_index.posting("database")
        table.resolve("database", "relational", toy_index)
        table.resolve("database", "relational", toy_index)
        assert calls == [("database", "relational")] * 2
        assert table.segments == {}

    def test_resolved_values_match_direct_resolution(self, toy_index):
        table = plan_shared_segments([(("query", "language"),)] * 2)
        cached = table.resolve("query", "language", toy_index)
        direct = resolve_segment("query", "language", toy_index)
        assert cached.node_list == direct.node_list
        assert Entities(toy_index.entity_table).deweys(cached.node_list) == ids("1.1")
        assert cached.feature_list_size == direct.feature_list_size == 1
        bare = table.resolve("database", None, toy_index)
        assert bare.node_list == toy_index.posting("database")
        assert bare.feature_list_size == 3


class TestPlannedIntents:
    @pytest.mark.parametrize("budget", [None, 1, 5, 15])
    def test_plan_sees_exactly_the_budgeted_rows(self, toy_index, monkeypatch, budget):
        rows = []

        def recording(key_rows):
            listed = list(key_rows)
            rows.append(listed)
            return plan_shared_segments(listed)

        monkeypatch.setattr(parallel, "plan_shared_segments", recording)
        matrix = build_matrix(["query", "query"], 5, toy_index)
        full = list(iter_intents(matrix, toy_index))
        assert len(full) == 16
        planned = list(parallel.planned_intents(matrix, toy_index, budget))
        assert planned == full[:budget]
        assert rows == [[intent.segment_keys() for intent in planned]]
        rows.clear()
        diversify_parallel(["query", "query"], 2, 5, toy_index, workers=2, budget=budget)
        assert [len(keys) for keys in rows] == [len(planned)]

    def test_memory_is_the_frontier_not_the_combinations(self):
        """4 x 10 = 10,000 intents: neither walk keeps the combinations, so
        the stream holds ~0.3 MB, not the ~4.8 MB of listing them all."""
        keywords = ("k0", "k1", "k2", "k3")
        rng = random.Random(7)
        columns = tuple(
            tuple(
                sorted(
                    (FeatureEntry(word, f"{word}f{i}", rng.uniform(0.01, 1.0)) for i in range(10)),
                    key=lambda entry: (-entry.mi, entry.feature),
                )
            )
            for word in keywords
        )
        terms = [*keywords, *(entry.feature for column in columns for entry in column)]
        index = IndexBundle(
            entities=(DeweyId((1, 1)), DeweyId((1, 2))),
            labels=("item", "item"),
            postings={term: (0, 1) for term in terms},
            cooccur={},
            config=IndexConfig(entity_labels=frozenset({"item"})),
        )
        index.entity_table  # a one-time build, not the stream's
        tracemalloc.start()
        try:
            planned = sum(1 for _ in parallel.planned_intents(FeatureMatrix(keywords, columns), index))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert planned == 10_000
        assert peak < 1_500_000, peak


def entities_of(lists):
    return Entities.of_tree(v for lst in lists for v in lst)


def toy_live(lists, anchors=()):
    """The live nodes of the lists around the anchors, joined list by list.

    The anchors are entities, as the pool of earlier intents holds them.
    """
    ents = entities_of([*lists, anchors])
    ordinal_lists = [ents.ordinals(lst) for lst in lists]
    live = partition_areas(ordinal_lists, ents.pool(anchors).layout(ents.table))[1]
    return [ents.deweys(lst) for lst in live]


def area_slcas(live, lists):
    """``evaluate_area`` with the live lists' own ancestor sets, rendered."""
    ents = entities_of(lists)
    table = ents.table
    area = [ents.ordinals(lst) for lst in live]
    return table.render(evaluate_area(area, table, [proper_ancestors(lst, table) for lst in area]))


class TestEvaluateArea:
    def test_matches_sequential_result(self):
        lists = [ids("1.1"), ids("1.1")]
        assert area_slcas(toy_live(lists), lists) == ids("1.1")

    def test_leaves_anchor_cover_to_the_merge(self):
        lists = [ids("1.2"), ids("1.3")]
        live = toy_live(lists, ids("1.1"))
        # 1 covers the anchor 1.1; the pool's merge skips it, not the worker
        assert area_slcas(live, lists) == ids("1")


def entries_signature(topk):
    return [(e.intent, e.relevance, e.dif, e.score, e.results.nodes) for e in topk.entries]


class TestDiversifyParallel:
    def test_worker_count_does_not_change_output(self, toy_index):
        base, _ = diversify_baseline(["database", "query"], 2, 2, toy_index)
        for workers in (1, 2, 6):
            par, _ = diversify_parallel(["database", "query"], 2, 2, toy_index, workers=workers)
            assert entries_signature(par) == entries_signature(base)
            assert par.phi == base.phi

    def test_stats_match_baseline_engine(self, toy_index):
        _, base_stats = diversify_baseline(["database", "query"], 2, 2, toy_index)
        _, par_stats = diversify_parallel(["database", "query"], 2, 2, toy_index, workers=3)
        assert par_stats == base_stats

    def test_starts_no_thread(self, toy_index, monkeypatch):
        def refuse(self):
            raise AssertionError("the parallel engine started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        base, base_stats = diversify_baseline(["database", "query"], 2, 2, toy_index)
        par, par_stats = diversify_parallel(["database", "query"], 2, 2, toy_index, workers=6)
        assert entries_signature(par) == entries_signature(base)
        assert par.phi == base.phi
        assert par_stats == base_stats

    def test_repeated_runs_identical(self, toy_index):
        a, _ = diversify_parallel(["database", "query"], 4, 4, toy_index, workers=6)
        b, _ = diversify_parallel(["database", "query"], 4, 4, toy_index, workers=6)
        assert entries_signature(a) == entries_signature(b)
        assert a.phi == b.phi

    def test_budget_is_respected(self, toy_index):
        capped, _ = diversify_parallel(["database", "query"], 2, 2, toy_index, workers=2, budget=1)
        assert len(capped.entries) == 1

    def test_parameter_validation(self, toy_index):
        with pytest.raises(ValueError):
            diversify_parallel(["query"], 2, 2, toy_index, workers=0)
        with pytest.raises(ValueError):
            diversify_parallel(["query"], 2, 0, toy_index)
        with pytest.raises(ValueError, match="k must be"):
            diversify_parallel(["zzzz"], 0, 2, toy_index)

    def test_unknown_keywords_raise(self, toy_index):
        with pytest.raises(NoIntentError):
            diversify_parallel(["zzz"], 2, 2, toy_index)

    def test_random_corpora_agree_with_baseline(self):
        rng = random.Random(44)
        config = IndexConfig(entity_labels=frozenset({"item"}))
        compared = 0
        for trial in range(30):
            index = index_corpus(random_corpus_xml(rng), config)
            terms = sorted(index.postings)
            query = rng.sample(terms, min(2, len(terms)))
            k = rng.choice((1, 3, 5))
            m = rng.choice((3, 5))
            try:
                base, base_stats = diversify_baseline(query, k, m, index)
            except NoIntentError:
                continue
            workers = (1, 2, 3, 6)[trial % 4]
            par, par_stats = diversify_parallel(query, k, m, index, workers=workers)
            assert entries_signature(par) == entries_signature(base)
            assert par.phi == base.phi
            assert par_stats == base_stats
            compared += 1
        assert compared > 20


class TestLayerBoundaries:
    """The benchmark's tracer times the engines' layers by swapping these names.

    It replaces each function in every ``divsearch`` module namespace that
    holds it.  An engine that stopped calling one by that name, say after
    inlining it, would leave its per-layer figures at 0 with no error.
    """

    TRACED = [
        (anchors, "partition_areas"),
        (anchors, "area_results"),
        (anchors, "covered_anchor_ancestors"),
        (parallel, "evaluate_area"),
    ]
    CALLED = {
        "anchor": {"partition_areas", "area_results", "covered_anchor_ancestors"},
        "parallel": {"area_results", "evaluate_area"},
    }

    @pytest.mark.parametrize("engine", ["anchor", "parallel"])
    def test_engines_call_traced_functions(self, toy_index, monkeypatch, engine):
        calls = Counter()
        for owner, name in self.TRACED:
            original = getattr(owner, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            patch_everywhere(monkeypatch, original, counting)
        if engine == "anchor":
            diversify_anchored(["database", "query"], 2, 2, toy_index)
        else:
            diversify_parallel(["database", "query"], 2, 2, toy_index, workers=2)
        assert {name for name, n in calls.items() if n} == self.CALLED[engine]

import random

import pytest

from divsearch.diversify import diversify_baseline
from divsearch.anchors import diversify_anchored, partition_areas, prune_empty_areas
from divsearch.errors import NoIntentError
from divsearch.indexing import IndexConfig, index_corpus
from divsearch.intents import IntentQuery, Segment, resolve_segment
from divsearch.features import FeatureEntry
from divsearch import parallel
from divsearch.parallel import (
    PROCESSED,
    SharedSegmentTable,
    WorkPlan,
    diversify_parallel,
    evaluate_area,
    plan_shared_segments,
)
from helpers import ids, random_corpus_xml


def intent_of(*keys):
    segments = tuple(Segment(k, f, (), 1) for k, f in keys)
    return IntentQuery(segments, 0.0)


class TestPlanSharedSegments:
    def test_registers_only_repeated_keys(self):
        rows = [
            (("a", "f1"), ("b", "g1")),
            (("a", "f1"), ("b", "g2")),
        ]
        table = plan_shared_segments(rows)
        assert set(table.entries) == {("a", "f1")}
        assert table.entries[("a", "f1")].uses == 2

    def test_disjoint_intents_share_nothing(self):
        table = plan_shared_segments([(("a", "f1"),), (("a", "f2"),)])
        assert table.entries == {}

    def test_within_intent_repeats_count_once(self):
        table = plan_shared_segments([(("a", None), ("a", None))])
        assert table.entries == {}

    def test_accepts_intent_objects(self):
        one = intent_of(("a", "f1"), ("b", None))
        two = intent_of(("a", "f1"), ("b", "g1"))
        table = plan_shared_segments([one, two])
        assert set(table.entries) == {("a", "f1")}


class TestSharedSegmentTable:
    def test_miss_publishes_then_hit_reads_nothing(self, toy_index):
        table = plan_shared_segments([(("query", "language"),)] * 2)
        first = table.resolve("query", "language", toy_index)
        assert (table.misses, table.hits) == (1, 0)
        assert table.entries[("query", "language")].status == PROCESSED
        reads_after_first = dict(table.reads)
        second = table.resolve("query", "language", toy_index)
        assert (table.misses, table.hits) == (1, 1)
        assert dict(table.reads) == reads_after_first
        assert second == first

    def test_unshared_segment_bypasses_cache(self, toy_index):
        table = SharedSegmentTable()
        table.resolve("database", None, toy_index)
        assert (table.hits, table.misses) == (0, 0)
        assert table.reads["database"] == 1
        assert table.entries == {}

    def test_resolved_values_match_direct_resolution(self, toy_index):
        table = SharedSegmentTable()
        cached = table.resolve("query", "language", toy_index)
        entry = FeatureEntry("query", "language", 0.0)
        direct = resolve_segment("query", entry, toy_index)
        assert cached.node_list == direct.node_list == ids("1.1")
        assert cached.feature_list_size == direct.feature_list_size == 1
        bare = table.resolve("database", None, toy_index)
        assert bare.node_list == toy_index.posting("database")
        assert bare.feature_list_size == 3

    def test_consume_evicts_after_last_use(self, toy_index):
        key = ("query", "language")
        table = plan_shared_segments([(key,), (key,)])
        table.resolve(*key, toy_index)
        table.consume([key])
        assert table.entries[key].uses == 1
        table.consume([key])
        assert key not in table.entries

    def test_consume_deduplicates_intent_keys(self):
        key = ("a", "f1")
        table = plan_shared_segments([(key,), (key,), (key,)])
        table.consume([key, key])
        assert table.entries[key].uses == 2


def toy_areas(lists, anchors=()):
    areas, _ = partition_areas(lists, anchors)
    kept, _, _ = prune_empty_areas(areas)
    return kept


class TestWorkPlan:
    def test_round_robin_assignment(self):
        areas = toy_areas([ids("1.1", "1.2", "1.3")], ids("1.2")) * 3
        plan = WorkPlan(tuple(areas[:5]), 2)
        assert plan.assignment == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}
        assert plan.batches() == [[0, 2, 4], [1, 3]]

    def test_more_workers_than_areas(self):
        areas = toy_areas([ids("1.1")])
        plan = WorkPlan(tuple(areas), 6)
        batches = plan.batches()
        assert batches[0] == [0]
        assert all(not b for b in batches[1:])


class TestEvaluateArea:
    def test_matches_sequential_result(self):
        (area,) = toy_areas([ids("1.1"), ids("1.1")])
        assert evaluate_area(area, ()) == ids("1.1")

    def test_applies_anchor_filter(self):
        (area,) = toy_areas([ids("1.2"), ids("1.3")], ids("1.1"))
        assert evaluate_area(area, ids("1.1")) == ()


def entries_signature(topk):
    return [(e.intent, e.relevance, e.dif, e.score, e.results.nodes) for e in topk.entries]


class TestDiversifyParallel:
    def test_worker_count_does_not_change_output(self, toy_index):
        base, _ = diversify_baseline(["database", "query"], 2, 2, toy_index)
        for workers in (1, 2, 6):
            par, _ = diversify_parallel(["database", "query"], 2, 2, toy_index, workers=workers)
            assert entries_signature(par) == entries_signature(base)
            assert par.phi == base.phi

    def test_stats_match_anchored_engine(self, toy_index):
        _, anch_stats = diversify_anchored(["database", "query"], 2, 2, toy_index)
        _, par_stats = diversify_parallel(["database", "query"], 2, 2, toy_index, workers=3)
        assert par_stats == anch_stats

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

    @pytest.mark.parametrize("cpus, threads", [(2, 2), (None, 1)])
    def test_thread_pool_capped_at_cpu_count(self, toy_index, monkeypatch, cpus, threads):
        pool_sizes = []
        plan_workers = []

        class RecordingExecutor(parallel.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pool_sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        class RecordingPlan(WorkPlan):
            def batches(self):
                plan_workers.append(self.workers)
                return super().batches()

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(parallel, "WorkPlan", RecordingPlan)
        capped, _ = diversify_parallel(["database", "query"], 2, 2, toy_index, workers=8)
        base, _ = diversify_baseline(["database", "query"], 2, 2, toy_index)
        assert pool_sizes == [threads]
        # the plan still deals areas into the requested batches; they queue
        assert plan_workers and set(plan_workers) == {8}
        assert entries_signature(capped) == entries_signature(base)

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
            assert par_stats.nodes_visited <= base_stats.nodes_visited
            compared += 1
        assert compared > 20

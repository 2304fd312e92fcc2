"""The anchor engine against the baseline on the ``hub`` bench corpus.

Acceptance compares the engines' output on small random corpora only, and
counts the anchor engine's visits on this corpus without comparing its
output.  Here the bench's own ``hub`` corpus and engine queries check both:
the same entries and pool as the baseline, from strictly fewer visited
nodes.  The bench indexes only ``item``, so no anchor there has an entity
ancestor; the same corpus with ``sec`` entities as well reaches the
partition's exclusion of those ancestors.  The generator is imported
read-only from ``perfbench/corpora.py``.
"""

import sys
from pathlib import Path

import pytest

from divsearch.anchors import diversify_anchored, partition_areas
from divsearch.diversify import diversify_baseline
from divsearch.indexing import IndexConfig, index_corpus
from helpers import patch_everywhere

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

QUERIES = [(["hub0", "hub1"], 5, 5), (["hub0", "hub1"], 10, 20), (["hub1", "hub4", "hub7"], 5, 5)]


def bench_corpus(sections, labels):
    sys.path.insert(0, str(PERFBENCH))
    try:
        from corpora import skewed_corpus
    finally:
        sys.path.remove(str(PERFBENCH))
    config = IndexConfig(entity_labels=frozenset(labels))
    return index_corpus(skewed_corpus(20250804, sections=sections).xml, config)


@pytest.fixture(scope="module")
def hub_index():
    return bench_corpus(120, {"item"})


@pytest.fixture(scope="module")
def nested_index():
    return bench_corpus(40, {"sec", "item"})


def assert_anchor_equals_baseline_with_fewer_visits(index, query, k, m):
    base, base_stats = diversify_baseline(query, k, m, index)
    anch, anch_stats = diversify_anchored(query, k, m, index)
    assert anch.entries == base.entries
    assert anch.phi == base.phi
    assert anch_stats.nodes_visited < base_stats.nodes_visited


@pytest.mark.parametrize("query,k,m", QUERIES)
def test_anchor_equals_baseline_with_fewer_visits(hub_index, query, k, m):
    assert_anchor_equals_baseline_with_fewer_visits(hub_index, query, k, m)


@pytest.mark.parametrize("query,k,m", QUERIES)
def test_nested_entities_anchor_equals_baseline(nested_index, query, k, m):
    assert_anchor_equals_baseline_with_fewer_visits(nested_index, query, k, m)


def test_nested_entities_reach_the_ancestor_exclusion(nested_index, monkeypatch):
    """Some partition cuts a list that holds an anchor's entity ancestor."""
    calls = []

    def recording(lists, layout):
        calls.append(any(set(layout.hidden).intersection(lst) for lst in lists))
        return partition_areas(lists, layout)

    patch_everywhere(monkeypatch, partition_areas, recording)
    for query, k, m in QUERIES:
        diversify_anchored(query, k, m, nested_index)
    assert len(calls) > 100 and sum(calls) > 40, (len(calls), sum(calls))

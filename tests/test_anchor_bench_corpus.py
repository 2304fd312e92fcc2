"""The anchor engine against the baseline on the ``hub`` bench corpus.

Acceptance compares the engines' output on small random corpora only, and
counts the anchor engine's visits on this corpus without comparing its
output.  Here the bench's own ``hub`` corpus and engine queries check both:
the same entries and pool as the baseline, from strictly fewer visited
nodes.  The generator is imported read-only from ``perfbench/corpora.py``.
"""

import sys
from pathlib import Path

import pytest

from divsearch.anchors import diversify_anchored
from divsearch.diversify import diversify_baseline
from divsearch.indexing import IndexConfig, index_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

QUERIES = [(["hub0", "hub1"], 5, 5), (["hub0", "hub1"], 10, 20), (["hub1", "hub4", "hub7"], 5, 5)]


@pytest.fixture(scope="module")
def hub_index():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from corpora import skewed_corpus
    finally:
        sys.path.remove(str(PERFBENCH))
    config = IndexConfig(entity_labels=frozenset({"item"}))
    return index_corpus(skewed_corpus(20250804, sections=120).xml, config)


@pytest.mark.parametrize("query,k,m", QUERIES)
def test_anchor_equals_baseline_with_fewer_visits(hub_index, query, k, m):
    base, base_stats = diversify_baseline(query, k, m, hub_index)
    anch, anch_stats = diversify_anchored(query, k, m, hub_index)
    assert anch.entries == base.entries
    assert anch.phi == base.phi
    assert anch_stats.nodes_visited < base_stats.nodes_visited

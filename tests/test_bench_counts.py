"""Pinned work counts of the benchmark's tracer, per engine.

``perfbench/tracer.py`` counts each layer's work from the arguments and
results of the functions it wraps: the lists ``compute_slca`` is handed,
the postings behind each ``segment_node_list`` call, the counters
``run_topk`` returns.  A change to one of those shapes would change what
the bench's per-layer counters measure without any error, so the counts
for a small ``hub``-style corpus are pinned here.  They were taken before
node lists became entity ordinals and must not move with representation
changes; a change that alters the work done updates them on purpose.
"""

import sys
from pathlib import Path

import pytest

from divsearch.anchors import diversify_anchored
from divsearch.diversify import diversify_baseline
from divsearch.indexing import IndexConfig, index_corpus
from divsearch.parallel import diversify_parallel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

QUERIES = [(["hub0", "hub1"], 5, 5), (["hub1", "hub4", "hub7"], 3, 4), (["hub2", "ctx11"], 4, 6)]

ENGINES = {
    "baseline": diversify_baseline,
    "anchor": diversify_anchored,
    "parallel": lambda *args: diversify_parallel(*args, workers=2),
}

COUNTS = (
    "slca.calls",
    "slca.nodes_in",
    "slca.results",
    "intents.intersections",
    "intents.intersect_nodes_in",
    "diversify.nodes_visited",
    "anchors.areas",
    "anchors.areas_skipped",
    "anchors.nodes_pruned",
)

ANCHORED = {
    "slca.calls": 670,
    "slca.nodes_in": 9013,
    "slca.results": 769,
    "intents.intersections": 33,
    "intents.intersect_nodes_in": 5491,
    "diversify.nodes_visited": 9013,
    "anchors.areas": 4081,
    "anchors.areas_skipped": 3411,
    "anchors.nodes_pruned": 3282,
}

EXPECTED = {
    "baseline": {
        "slca.calls": 119,
        "slca.nodes_in": 12295,
        "slca.results": 792,
        "intents.intersections": 33,
        "intents.intersect_nodes_in": 5491,
        "diversify.nodes_visited": 12295,
        "anchors.areas": 0,
        "anchors.areas_skipped": 0,
        "anchors.nodes_pruned": 0,
    },
    "anchor": ANCHORED,
    "parallel": {
        "slca.calls": 119,
        "slca.nodes_in": 12295,
        "slca.results": 792,
        "intents.intersections": 33,
        "intents.intersect_nodes_in": 5491,
        "diversify.nodes_visited": 12295,
        "anchors.areas": 0,
        "anchors.areas_skipped": 0,
        "anchors.nodes_pruned": 0,
    },
}


@pytest.fixture(scope="module")
def tracer_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer

        yield tracer
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def hub_index(tracer_module):
    from corpora import skewed_corpus

    config = IndexConfig(entity_labels=frozenset({"item"}))
    return index_corpus(skewed_corpus(20250804, sections=6).xml, config)


def traced_counts(tracer_module, index):
    tracer = tracer_module.Tracer()
    for engine, run in ENGINES.items():
        with tracer.traced(engine):
            for query, k, m in QUERIES:
                run(query, k, m, index)
    return {
        engine: {name: tracer.totals.get((name, engine), 0) for name in COUNTS}
        for engine in ENGINES
    }


def test_traced_counts_are_pinned(tracer_module, hub_index):
    assert hub_index.entity_count == 556
    assert traced_counts(tracer_module, hub_index) == EXPECTED

"""The anchor engine against the baseline on the ``hub`` bench corpus.

Acceptance compares the engines' output on small random corpora only, and
counts the anchor engine's visits on this corpus without comparing its
output.  Here the bench's own ``hub`` corpus and engine queries check both:
the same entries and pool as the baseline, from strictly fewer visited
nodes.  The bench indexes only ``item``, so no anchor there has an entity
ancestor; the same corpus with ``sec`` entities as well reaches the
partition's exclusion of those ancestors.  A smaller copy of the corpus,
indexed both ways, pins every engine's ``--stats`` report to recorded
SHA-256 digests.  Only the anchor engine lays out the pool's entity
spans, here and on the toy index.  The generator is imported read-only
from ``perfbench/corpora.py``.
"""

import hashlib
import sys
from itertools import chain
from pathlib import Path

import pytest

from divsearch.anchors import diversify_anchored, partition_areas
from divsearch.cli import render_search_report
from divsearch.dewey import EntityTable
from divsearch.diversify import diversify_baseline
from divsearch.indexing import IndexConfig, index_corpus
from divsearch.parallel import diversify_parallel
from divsearch.slca import PoolLayout
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


@pytest.fixture(scope="module")
def flat_index():
    """The nested corpus's 40 sections with ``item`` entities only: the root
    and the sections are non-entity nodes."""
    return bench_corpus(40, {"item"})


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


ENGINES = {
    "baseline": diversify_baseline,
    "anchor": diversify_anchored,
    "parallel": diversify_parallel,
}

# SHA-256 of each engine's report, baseline, anchor and parallel in that
# order, keyed by (entity labels, query, k, m), on the 40-section corpus
REPORT_DIGESTS = {
    ("item", "hub0 hub1", 5, 5): (
        "5e39eb222c96ee45ada4d0bd5a2ab83f6f30901241c96b9bb98b517d4eb4d863",
        "8abb06b4fcd757e5cb58b73255fe1c6338cf09e8d10c092b6099f9d6bfa27235",
        "5ae7ccf3a4737c2f88455d422cef00f138b5522e451ffc4c63b1f9f9ea491f70",
    ),
    ("item", "hub0 hub1", 10, 20): (
        "c425432fdb3a8b56e6414d64b65ed545142e4b95ec6c3cb935d23c155dc2599a",
        "2aed50249e0469e0d4ab09dca174e800678138beeb0e3606f4c4380b7709e48f",
        "a77097f0657a85ec31f87a69fead5d8cfa722f92d59da2b9ad1ffc7759841cc7",
    ),
    ("item", "hub1 hub4 hub7", 3, 4): (
        "99854ddd6f1e921c9ececa6affd4e1cdb31aec377ea2a9384f7deed639d7bf0b",
        "456ba77345f87e8b1c0dd88f3b12d2d9137f3845b8deb52f17e82f7aad57f506",
        "aad2f3c5957aa9db6c59237fda1cae2e33d1825f66b216fe5428672a03bd4fc1",
    ),
    ("item", "hub2 ctx11", 4, 6): (
        "382986f2f9e4d862504c4d48e05f850d2c935dd2f6d4cf32e0bdb85a67e18a9e",
        "3e0cf74de317583b2aee538281265658e7c2dc47b0905e807530dd2eee5689f1",
        "cab8637e0c2e60b0d5793c5e10b956019dfb2ce5b2916c782980e5430f9c7308",
    ),
    ("item sec", "hub0 hub1", 5, 5): (
        "73984ed39017e94c390b7fb4866d24de182b90b8edb8a86ad47b09c9be1224ae",
        "d8461c1a43756db089f3c31ffade877e4a8ab4cf73d57d35000a5a76b59ecabb",
        "9bc880f552887068771672c0f909b10fbd2421c4cbbc757dac7bf927c789c836",
    ),
    ("item sec", "hub0 hub1", 10, 20): (
        "a0d7535ab816a1bae807342f440ec6303a9737b99c7f31d92f6d480d3650769b",
        "86f4b440cdc05beaa3843132295466a01baae6c2f0eba2c12fbba4616b6ea9ae",
        "b67b749177d6d3608811405e1865d84aba2a41e022b4f91c63909b7aa5e943c1",
    ),
    ("item sec", "hub1 hub4 hub7", 3, 4): (
        "efa1f8f74bae954c4244309cfe43408c6310ac9ce51866e35e16a2898b98f454",
        "2cc8ec16dc524dc03a1b5afc0bc30823666ec5c5aa8f5abd740f223ee8334040",
        "aa219cfdc573b3b73129d0d206abca5698302ae57871cfe54ca2186ca44ecf45",
    ),
    ("item sec", "hub2 ctx11", 4, 6): (
        "739d7f42ccd58ff84f4ab7ed459fefe341707cf50bfd80e17b46d988f56e43a5",
        "65faee0c980272089a90a6c6c4fbe19403a6528207e59670bf45033dd1bb1e5f",
        "c70865e6f891bedfc89c7efdf62bacde4f304b84fd80f32b5f181fc7f1dad095",
    ),
}


@pytest.mark.parametrize("labels,query,k,m", sorted(REPORT_DIGESTS))
def test_reports_match_their_recorded_digests(flat_index, nested_index, labels, query, k, m):
    index = nested_index if labels == "item sec" else flat_index
    words = query.split()
    got = []
    for algo, engine in ENGINES.items():
        topk, stats = engine(words, k, m, index)
        counts = (stats.nodes_visited, stats.nodes_pruned, stats.areas_skipped)
        report = render_search_report(words, k, m, algo, topk, stats=counts)
        got.append(hashlib.sha256(report.encode()).hexdigest())
    assert tuple(got) == REPORT_DIGESTS[labels, query, k, m]


@pytest.mark.parametrize("which", ["toy", "hub"])
def test_only_the_anchor_engine_lays_out_spans(request, monkeypatch, which):
    """Entity spans are the anchor engine's work alone: with ``PoolLayout.build``
    failing, the baseline and parallel engines give their reports as before,
    on the toy index and on the ``hub`` corpus, and the anchor engine does not."""
    index = request.getfixturevalue(f"{which}_index")
    query, k, m = (["database", "query"], 2, 3) if which == "toy" else QUERIES[0]
    want = diversify_baseline(query, k, m, index)
    assert want[0].entries

    def failing(*args):
        raise AssertionError("PoolLayout.build called")

    monkeypatch.setattr(PoolLayout, "build", failing)
    assert diversify_baseline(query, k, m, index) == want
    assert diversify_parallel(query, k, m, index) == want
    with pytest.raises(AssertionError, match="PoolLayout.build called"):
        diversify_anchored(query, k, m, index)


def test_each_reported_node_is_rendered_once(hub_index, monkeypatch):
    """The entries' results and the pool share 424 of their 886 nodes on the
    ``hub`` corpus's ``hub0 hub1`` at k=5, m=5: every engine makes one
    ``DeweyId`` for each of the 462 distinct nodes, and both hold that object."""
    made = []
    dewey_ids = EntityTable.dewey_ids

    def counting(table, numbers):
        for dewey in dewey_ids(table, numbers):
            made.append(dewey)
            yield dewey

    monkeypatch.setattr(EntityTable, "dewey_ids", counting)
    for engine in ENGINES.values():
        made.clear()
        topk, _ = engine(*QUERIES[0], hub_index)
        reported = [*chain.from_iterable(e.results for e in topk.entries), *topk.phi]
        assert len(reported) == 886
        assert len(made) == len(set(reported)) == len({id(v) for v in reported}) == 462

"""The ordinal path: entity tables, their numbered trees, and SLCA on a bundle.

``EntityTable`` numbers every node at or above an entity, an entity by
its ordinal, and names each node's parent by number (``nodes`` and
``up``).  These tests hold the tree to a brute-force parent search and
the spans ``PoolLayout`` derives from the sorted entities to a scan of
them, on chains deep enough that a recursive build would fail, and the
bundle path to the SLCA oracle on corpora whose entities nest.
"""

import random

import pytest

from divsearch.dewey import DeweyId, EntityTable
from divsearch.errors import NoIntentError
from divsearch.features import build_matrix
from divsearch.indexing import IndexConfig, index_corpus
from divsearch.intents import iter_intents
from divsearch.slca import PoolLayout, compute_slca, proper_ancestors
from helpers import (
    Entities,
    ids,
    is_ancestor_or_self,
    random_corpus_xml,
    random_lists,
    random_tree,
    scan_layout,
    scan_span,
    slca_oracle,
)


def deep_chain(depth: int, rng: random.Random) -> list[DeweyId]:
    """A path ``depth`` levels deep, with a few side branches along it."""
    nodes = [DeweyId((1,))]
    for _ in range(depth - 1):
        parent = nodes[-1]
        for sibling in range(1, rng.randint(1, 3)):
            nodes.append(DeweyId(parent + (sibling,)))
        nodes.append(DeweyId(parent + (rng.randint(3, 4),)))
    return nodes


def assert_tree(table: EntityTable) -> None:
    """The tree numbers each node at or above an entity once, entities by
    their ordinals, and names each node's parent as a search of the
    numbered nodes finds it."""
    nodes, up = table.nodes, table.up
    deweys = table.deweys
    assert nodes[: len(deweys)] == list(deweys)
    assert all(type(v) is tuple for v in nodes[len(deweys) :])  # the nodes above are plain
    spanned = {v[:depth] for v in deweys for depth in range(1, len(v) + 1)}
    assert len(nodes) == len(spanned) and set(nodes) == spanned
    number = {v: x for x, v in enumerate(nodes)}
    assert len(up) == len(nodes)
    for x, v in enumerate(nodes):
        assert up[x] == (number[v[:-1]] if len(v) > 1 else None)


def assert_spans(table: EntityTable) -> tuple[int, int]:
    """A one-member layout of each numbered node cuts at the run of entities
    a scan finds below it: ``(lo, lo + 1, hi)`` for an entity, ``(lo, lo, hi)``
    for a node above the entities.  Returns how many entities hold another
    and how many nodes lie above the entities."""
    entities = len(table.deweys)
    nested = 0
    for x, v in enumerate(table.nodes):
        lo, hi = scan_span(table, v)
        # the prefixes only decide the hidden entities, not read here
        layout = PoolLayout.build((x,), frozenset((x,)), table, {})
        assert layout.cuts == (lo, lo + (x < entities), hi)
        nested += x < entities and hi > lo + 1
    return nested, len(table.nodes) - entities


def random_entities(rng: random.Random, size: int) -> EntityTable:
    """Some nodes of a random tree as entities, so non-entity nodes occur."""
    tree = random_tree(rng, size)
    chosen = [v for v in tree if rng.random() < rng.choice((0.2, 0.5, 1.0))]
    return Entities.of_tree(chosen or tree[-1:]).table


class TestEntityTable:
    def test_tree_matches_a_brute_force_parent_search(self):
        rng = random.Random(71)
        for _ in range(60):
            assert_tree(random_entities(rng, 90))

    def test_spans_match_a_scan(self):
        """On random nested trees and on a 300-level chain with side branches."""
        rng = random.Random(75)
        counts = [assert_spans(random_entities(rng, 90)) for _ in range(60)]
        # both derivations of hi: an entity holding others, and a node above the entities
        assert sum(nested for nested, _ in counts) > 60 and sum(above for _, above in counts) > 60
        table = Entities.of_tree(deep_chain(300, rng)).table
        assert assert_spans(table) == (299, 0)
        # an anchor at the bottom: every entity above it is hidden
        bottom = max(table.deweys, key=len)
        layout = Entities(table).pool([bottom]).layout(table)
        assert (layout.cuts, layout.hidden, layout.prefixes) == scan_layout(table, [bottom])
        assert len(layout.hidden) == 299

    def test_chain_deeper_than_255_levels(self):
        rng = random.Random(72)
        nodes = deep_chain(300, rng)
        table = Entities.of_tree(nodes).table
        assert max(map(len, table.deweys)) == 300
        assert_tree(table)
        tail = sorted(nodes)[-40:]
        lists = [tuple(tail[0::2]), tuple(tail[1::3])]
        assert compute_slca(lists).nodes == slca_oracle(nodes, lists)

    def test_entity_5000_non_entity_levels_down(self):
        """Past the recursion limit: the build walks the chain in a loop.

        The spans, and the layouts of anchors at the bottom, match a scan.
        """
        deep = DeweyId((1,) * 5001)
        sibling = DeweyId(deep[:-1] + (2,))
        table = EntityTable([deep, sibling])
        assert_tree(table)
        nodes, up = table.nodes, table.up
        chain = frozenset(range(2, 5002))
        assert proper_ancestors((0,), table) == proper_ancestors((0, 1), table) == chain
        assert nodes[up[0]] == deep[:-1] and up[0] == up[1]
        lists = [(0,), (1,)]
        assert table.render(compute_slca(lists, table).nodes) == (DeweyId(deep[:-1]),)
        assert assert_spans(table) == (0, 5000)
        for anchors in ([deep], [deep[:-1]], [deep, sibling]):
            layout = Entities(table).pool(anchors).layout(table)
            assert (layout.cuts, layout.hidden, layout.prefixes) == scan_layout(table, anchors)
        assert layout.cuts == (0, 1, 1, 1, 2, 2) and layout.hidden == ()

    def test_pool_layout_places_members_and_prefixes(self):
        """Anchors are tree nodes: an entity, or a node above one."""
        ents = Entities.of_tree(ids("1", "1.1", "1.2", "1.2.1", "1.2.2", "1.3.1", "1.4"))
        layout = ents.pool(ids("1.2.2", "1.3")).layout(ents.table)
        # 1.2.2 is entity 4 with no descendants; 1.3 is no entity and holds entity 5
        assert layout.cuts == (4, 5, 5, 5, 5, 6)
        assert layout.hidden == (0, 2)
        # the tree numbers of 1, 1.2 and 1.2.2, entities, and 1.3, the first other node
        assert layout.prefixes == {0, 2, 4, 7}

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 8, 9, 17])
    def test_every_size_answers_every_range(self, size):
        rng = random.Random(size)
        nodes = sorted({DeweyId((1, rng.randint(1, 4), rng.randint(1, 4))) for _ in range(size)})
        table = EntityTable(nodes)
        assert len(table.deweys) == len(nodes)
        assert_tree(table)


def closure(nodes):
    """Every node with all its ancestors: the tree the entities span."""
    return sorted({DeweyId(v[:depth]) for v in nodes for depth in range(1, len(v) + 1)})


def nested(nodes) -> bool:
    """True if one of the nodes is a proper ancestor of another."""
    ordered = sorted(set(nodes))
    return any(is_ancestor_or_self(a, b) for a, b in zip(ordered, ordered[1:]))


class TestBundlePath:
    def test_every_intent_matches_the_oracle_on_nested_corpora(self):
        rng = random.Random(73)
        config = IndexConfig(entity_labels=frozenset({"item"}))
        checked = with_nesting = 0
        for _ in range(150):
            index = index_corpus(random_corpus_xml(rng, max_entities=40), config)
            ents = Entities(index.entity_table)
            tree = closure(ents.table.deweys)
            terms = sorted(index.postings)
            query = rng.sample(terms, min(rng.choice((2, 3)), len(terms)))
            try:
                matrix = build_matrix(query, 4, index)
            except NoIntentError:
                continue
            for intent in iter_intents(matrix, index):
                ordinal_lists = [segment.node_list for segment in intent.segments]
                lists = [ents.deweys(lst) for lst in ordinal_lists]
                got = compute_slca(ordinal_lists, index.entity_table).nodes
                assert index.entity_table.render(got) == slca_oracle(tree, lists)
                checked += 1
                with_nesting += nested(v for lst in lists for v in lst)
        assert checked > 1000
        assert with_nesting > 100

    def test_dewey_lists_take_the_same_kernel(self):
        """Without a table, the lists' union becomes one; the answer is the same."""
        rng = random.Random(74)
        for _ in range(200):
            tree = random_tree(rng, 80)
            lists = random_lists(rng, tree)
            ents = Entities.of_tree(tree)
            with_table = compute_slca([ents.ordinals(lst) for lst in lists], ents.table)
            rendered = ents.table.render(with_table.nodes)
            assert rendered == compute_slca(lists).nodes == slca_oracle(tree, lists)

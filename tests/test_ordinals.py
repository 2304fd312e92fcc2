"""The ordinal path: entity tables, their shared depths, and SLCA on a bundle.

``EntityTable`` keeps each entity's depth and its shared depth with the
entity before it; ``parents`` builds its map from the two.  These tests hold
the table to ``common_prefix_len`` and the bundle path to the SLCA oracle on
corpora whose entities nest.
"""

import random

import pytest

from divsearch.dewey import DeweyId, EntityTable, common_prefix_len, is_ancestor_or_self
from divsearch.errors import NoIntentError
from divsearch.features import build_matrix
from divsearch.indexing import IndexConfig, index_corpus
from divsearch.intents import iter_intents
from divsearch.slca import PoolLayout, compute_slca
from helpers import Entities, ids, random_corpus_xml, random_lists, random_tree, slca_oracle


def deep_chain(depth: int, rng: random.Random) -> list[DeweyId]:
    """A path ``depth`` levels deep, with a few side branches along it."""
    nodes = [DeweyId((1,))]
    for _ in range(depth - 1):
        parent = nodes[-1]
        for sibling in range(1, rng.randint(1, 3)):
            nodes.append(DeweyId(parent + (sibling,)))
        nodes.append(DeweyId(parent + (rng.randint(3, 4),)))
    return nodes


def assert_every_range(table: EntityTable) -> None:
    """Entities i < j share the least of the shared depths from i+1 to j."""
    deweys, shared = table.deweys, table.shared
    assert list(table.depths) == [len(v) for v in deweys]
    for i, a in enumerate(deweys):
        least = len(a)
        for j in range(i + 1, len(deweys)):
            least = min(least, shared[j])
            assert least == common_prefix_len(a, deweys[j])


def assert_parents(table: EntityTable) -> None:
    """``parents`` names each entity's parent as a brute-force search finds it."""
    up, above = table.parents()
    ordinal = {v: i for i, v in enumerate(table.deweys)}

    def parent_key(node):
        return ordinal.get(node[:-1], DeweyId(node[:-1])) if len(node) > 1 else None

    assert up == [parent_key(v) for v in table.deweys]
    for node, parent in above.items():
        assert node not in ordinal
        assert parent == parent_key(node)


class TestEntityTable:
    def test_shared_depths_equal_common_prefix_len_of_neighbours(self):
        rng = random.Random(71)
        for _ in range(60):
            table = Entities.of_tree(random_tree(rng, 90)).table
            deweys = table.deweys
            assert list(table.shared) == [0] + list(map(common_prefix_len, deweys, deweys[1:]))
            assert_every_range(table)

    def test_chain_deeper_than_255_levels(self):
        rng = random.Random(72)
        nodes = deep_chain(300, rng)
        table = Entities.of_tree(nodes).table
        assert max(table.depths) == 300
        assert table.depths.itemsize >= 2
        assert table.shared.itemsize >= 2
        assert max(table.shared) >= 256
        assert_every_range(table)
        assert_parents(table)
        tail = sorted(nodes)[-40:]
        lists = [tuple(tail[0::2]), tuple(tail[1::3])]
        assert compute_slca(lists).nodes == slca_oracle(nodes, lists)

    def test_shallow_tables_take_one_byte(self):
        table = Entities.of_tree(ids("1", "1.1", "1.2", "1.2.1", "1.3")).table
        assert table.depths.itemsize == table.shared.itemsize == 1
        assert list(table.shared) == [0, 1, 1, 2, 1]

    def test_pool_layout_places_members_and_prefixes(self):
        table = Entities.of_tree(ids("1", "1.1", "1.2", "1.2.1", "1.2.2", "1.4")).table
        layout = PoolLayout.build(ids("1.2.2", "1.3"), table)
        # 1.2.2 is entity 4 with no descendants; 1.3 holds no entity
        assert layout.cuts == (4, 5, 5, 5, 5, 5)
        assert layout.hidden == (0, 2)
        assert layout.prefixes == (
            (DeweyId.parse("1"), DeweyId.parse("2"), 0, 6),
            (DeweyId.parse("1.2"), DeweyId.parse("1.3"), 2, 5),
            (DeweyId.parse("1.2.2"), DeweyId.parse("1.2.3"), 4, 5),
            (DeweyId.parse("1.3"), DeweyId.parse("1.4"), 5, 5),
        )

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 8, 9, 17])
    def test_every_size_answers_every_range(self, size):
        rng = random.Random(size)
        nodes = sorted({DeweyId((1, rng.randint(1, 4), rng.randint(1, 4))) for _ in range(size)})
        table = EntityTable(nodes)
        assert len(table.deweys) == len(nodes)
        assert_every_range(table)
        assert_parents(table)


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
                assert got == slca_oracle(tree, lists)
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
            assert with_table.nodes == compute_slca(lists).nodes == slca_oracle(tree, lists)

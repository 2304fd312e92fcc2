"""The set-algebra SLCA: per-segment ancestor sets, intersected in C.

The sets name each node by its number in ``EntityTable.nodes``, an entity
by its ordinal; the brute-force sets here search the numbered nodes for
every proper prefix of every member, and the tree is held to the same
search.

``compute_slca(lists, table, ancestors)`` must answer as the SLCA oracle
does, for every shape of entity table: entities that nest, a root that is
an entity and a list member, non-entity nodes between entities, and a short
list against one far longer than the cover it starts.  Without
``ancestors`` it builds the same sets itself.  Each segment's set is built
once per query, when the segment is resolved, and never carried over to the
next query.
"""

import random
import sys

from divsearch.anchors import diversify_anchored
from divsearch.dewey import DeweyId, EntityTable
from divsearch.diversify import diversify_baseline
from divsearch.features import build_matrix
from divsearch.indexing import IndexConfig, index_corpus
from divsearch.intents import iter_intents
from divsearch.parallel import diversify_parallel
from divsearch.slca import compute_slca, proper_ancestors
from helpers import (
    Entities,
    is_ancestor_or_self,
    patch_everywhere,
    random_corpus_xml,
    random_tree,
    slca_oracle,
)


def number(table: EntityTable, node) -> int:
    """A node as the sets name it: its position among the tree's nodes."""
    return table.nodes.index(node)


def brute_ancestors(table: EntityTable, ordinals) -> frozenset:
    return frozenset(
        number(table, table.deweys[i][:depth])
        for i in ordinals
        for depth in range(1, len(table.deweys[i]))
    )


def random_entities(rng: random.Random, tree: list[DeweyId]) -> Entities:
    """Some of the tree's nodes as entities, often the root among them."""
    chosen = [v for v in tree if rng.random() < rng.choice((0.3, 0.7, 1.0))]
    if rng.random() < 0.5:
        chosen.append(tree[0])
    return Entities.of_tree(chosen or tree[:1])


def shallow_tree(rng: random.Random, size: int) -> list[DeweyId]:
    """A random tree of ``size`` nodes at most four levels deep, so covers stay short."""
    nodes = [DeweyId((1,))]
    children = {nodes[0]: 0}
    while len(nodes) < size:
        parent = rng.choice(nodes)
        if len(parent) < 4:
            children[parent] += 1
            child = DeweyId(parent + (children[parent],))
            children[child] = 0
            nodes.append(child)
    return nodes


def random_ordinal_lists(rng: random.Random, size: int) -> list[tuple[int, ...]]:
    """One to four sorted lists of ordinals; sometimes empty, repeated or one alone."""
    lists = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.05:
            lists.append(())
        elif roll < 0.15 and lists:
            lists.append(rng.choice(lists))
        else:
            count = rng.randint(1, max(1, size // 2))
            lists.append(tuple(sorted(rng.sample(range(size), min(count, size)))))
    return lists


class TestProperAncestors:
    def test_equals_every_proper_prefix_keyed_by_entity(self):
        rng = random.Random(81)
        for _ in range(300):
            ents = random_entities(rng, random_tree(rng, 60))
            table = ents.table
            size = len(table.deweys)
            nodes = tuple(sorted(rng.sample(range(size), rng.randint(0, size))))
            assert proper_ancestors(nodes, table) == brute_ancestors(table, nodes)

    def test_tree_numbers_each_node_once(self):
        rng = random.Random(82)
        for _ in range(200):
            table = random_entities(rng, random_tree(rng, 60)).table
            nodes, up = table.nodes, table.up
            assert nodes[: len(table.deweys)] == list(table.deweys)
            assert len(set(nodes)) == len(nodes)
            for x, v in enumerate(nodes):
                assert up[x] == (number(table, v[:-1]) if len(v) > 1 else None)


class TestSetPath:
    def test_matches_the_oracle(self):
        rng = random.Random(83)
        seen = dict.fromkeys(
            ("nested", "root member", "entity above another list", "single", "twice", "empty"), 0
        )
        for _ in range(1500):
            tree = random_tree(rng, 50)
            ents = random_entities(rng, tree)
            table = ents.table
            lists = random_ordinal_lists(rng, len(table.deweys))
            sets = [proper_ancestors(lst, table) for lst in lists]
            got = compute_slca(lists, table, sets)
            assert table.render(got.nodes) == slca_oracle(tree, [ents.deweys(lst) for lst in lists])

            members = [ents.deweys(lst) for lst in lists]
            flat = sorted({v for lst in members for v in lst})
            seen["nested"] += any(is_ancestor_or_self(a, b) for a, b in zip(flat, flat[1:]))
            seen["root member"] += DeweyId((1,)) in flat
            seen["entity above another list"] += any(
                a != b and is_ancestor_or_self(a, b)
                for i, lst in enumerate(members)
                for j, other in enumerate(members)
                if i != j
                for a in lst
                for b in other
            )
            seen["single"] += len(lists) == 1
            seen["twice"] += len(set(lists)) < len(lists)
            seen["empty"] += () in lists
        assert min(seen.values()) > 50, seen

    def test_non_entity_ancestors_are_results(self):
        """Two entities under a non-entity node meet there."""
        table = EntityTable([DeweyId((1, 1, 1)), DeweyId((1, 1, 2)), DeweyId((1, 2, 1))])
        lists = [(0,), (1, 2)]
        got = compute_slca(lists, table, [proper_ancestors(lst, table) for lst in lists])
        assert table.render(got.nodes) == (DeweyId((1, 1)),)
        assert got == compute_slca(lists, table)

    def test_the_root_entity_covers_lists_in_different_subtrees(self):
        ents = Entities.of_tree([DeweyId((1,)), DeweyId((1, 1)), DeweyId((1, 2))])
        table = ents.table
        for lists in ([(1,), (2,)], [(0,), (2,)], [(0,), (0,)], [(0, 1)]):
            got = compute_slca(lists, table, [proper_ancestors(lst, table) for lst in lists])
            assert table.render(got.nodes) == slca_oracle(
                table.deweys, [ents.deweys(lst) for lst in lists]
            )
            assert got == compute_slca(lists, table)
        assert compute_slca([(1,), (2,)], table, [proper_ancestors((1,), table)] * 2).nodes == (0,)

    def test_a_short_list_against_a_long_one(self):
        """One or two entities against a list of up to every entity.

        In most draws the long list is over 32 times longer than the cover
        the short one starts, so the long list's cut keeps few of its nodes.
        """
        rng = random.Random(85)
        far_longer = 0
        for _ in range(300):
            tree = shallow_tree(rng, rng.randint(200, 600))
            ents = random_entities(rng, tree)
            table = ents.table
            size = len(table.deweys)
            if size < 64:
                continue
            short = tuple(sorted(rng.sample(range(size), rng.randint(1, 2))))
            count = rng.randint(32 * len(short), size)
            long = tuple(sorted(rng.sample(range(size), count)))
            lists = [short, long] if rng.random() < 0.5 else [long, short]
            sets = [proper_ancestors(lst, table) for lst in lists]
            got = compute_slca(lists, table, sets)
            assert table.render(got.nodes) == slca_oracle(tree, [ents.deweys(lst) for lst in lists])
            far_longer += len(sets[lists.index(short)].union(short)) * 32 < len(long)
        assert far_longer > 100, far_longer


def omni_index(rng: random.Random):
    """A nested corpus whose every entity holds ``omni``: its MI with any term is 0."""
    xml = random_corpus_xml(rng, max_entities=40).replace(b"<item><t>", b"<item><t>omni ")
    return index_corpus(xml, IndexConfig(entity_labels=frozenset({"item"})))


def entries(topk):
    return [(e.intent, e.relevance, e.score, e.results.nodes) for e in topk.entries]


class TestBareKeyword:
    def test_bare_segment_scores_as_the_anchor_engine(self):
        rng = random.Random(84)
        checked = 0
        for _ in range(60):
            index = omni_index(rng)
            other = rng.choice(sorted(set(index.postings) - {"omni"}))
            matrix = build_matrix(["omni", other], 4, index)
            if not matrix.columns[1]:
                continue
            intent = next(iter_intents(matrix, index))
            bare = intent.segments[0]
            assert bare.feature is None
            assert bare.node_list == index.posting("omni")
            assert bare.ancestors == brute_ancestors(index.entity_table, bare.node_list)
            for k in (1, 3):
                base, _ = diversify_baseline(["omni", other], k, 4, index)
                anch, _ = diversify_anchored(["omni", other], k, 4, index)
                par, _ = diversify_parallel(["omni", other], k, 4, index, workers=2)
                want = entries(anch)
                assert entries(base) == want
                assert entries(par) == want
                assert base.phi == anch.phi == par.phi
                checked += bool(want)
        assert checked > 40


class TestOncePerQuery:
    def count_builds(self, monkeypatch) -> list[tuple[int, ...]]:
        built: list[tuple[int, ...]] = []

        def counting(nodes, table):
            # the pool's merge and the covered count take the sets of results
            if sys._getframe(1).f_code.co_name not in ("_proper", "covered_anchor_ancestors"):
                built.append(nodes)
            return proper_ancestors(nodes, table)

        patch_everywhere(monkeypatch, proper_ancestors, counting)
        return built

    def test_built_once_per_distinct_segment_and_again_next_query(self, toy_index, monkeypatch):
        query = ["database", "query"]
        keys = {
            intent.segment_keys()
            for intent in iter_intents(build_matrix(query, 3, toy_index), toy_index)
        }
        distinct = {key for keys_of in keys for key in keys_of}
        assert sum(map(len, keys)) > len(distinct)  # intents share segments
        built = self.count_builds(monkeypatch)
        for engine in (diversify_baseline, diversify_anchored, diversify_parallel):
            del built[:]
            engine(query, 3, 3, toy_index)
            assert len(built) == len(distinct), engine.__name__
            engine(query, 3, 3, toy_index)
            assert len(built) == 2 * len(distinct), engine.__name__

    def test_intents_share_one_set_per_segment(self, toy_index):
        by_key = {}
        for intent in iter_intents(build_matrix(["database", "query"], 3, toy_index), toy_index):
            for segment in intent.segments:
                first = by_key.setdefault((segment.keyword, segment.feature), segment.ancestors)
                assert segment.ancestors is first
        assert len(by_key) > 1

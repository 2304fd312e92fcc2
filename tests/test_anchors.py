import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import chain

from divsearch import anchors as anchors_module
from divsearch.anchors import (
    area_results,
    covered_anchor_ancestors,
    diversify_anchored,
    evaluate_anchored,
    partition_areas,
)
from divsearch.dewey import DeweyId
from divsearch.diversify import (
    IntentEvaluation,
    diversify_baseline,
    evaluate_against_pool,
    run_topk,
)
from divsearch.intents import IntentQuery, Segment
from divsearch.slca import (
    MergeOutcome,
    compute_slca,
    proper_ancestors,
)
from helpers import (
    Entities,
    contains_anchor,
    d,
    ids,
    is_ancestor_or_self,
    patch_everywhere,
    random_antichain,
    random_lists,
    random_tree,
    subtree_bound,
)


def make_intent(lists, table) -> IntentQuery:
    """An intent of the ordinal lists of ``table``'s entities, with their ancestor sets."""
    segments = tuple(
        Segment(
            f"k{i}",
            f"f{i}",
            tuple(lst),
            max(1, len(lst)),
            proper_ancestors(tuple(lst), table),
        )
        for i, lst in enumerate(lists)
    )
    return IntentQuery(segments, 0.0)


def place(lists, tree=(), anchors=()):
    """The entities of the tree and the lists, and the lists as ordinals.

    An anchor that holds none of those entities becomes one, as a pool
    filled by earlier intents holds it, so every anchor is a tree node.
    """
    nodes = {*tree, *(v for lst in lists for v in lst)}
    spanned = {v[:n] for v in nodes for n in range(1, len(v) + 1)}
    ents = Entities.of_tree([*nodes, *(a for a in anchors if a not in spanned)])
    return ents, [ents.ordinals(lst) for lst in lists]


def rendered(evaluation, table):
    """An evaluation with its merge outcome in Dewey IDs."""
    outcome = evaluation.outcome
    return evaluation._replace(
        outcome=MergeOutcome(
            table.render(outcome.inserted), table.render(outcome.removed), outcome.union_size
        ),
    )


def input_less_live(lists, live):
    """The nodes an intent of ``lists`` prunes when it visits ``live``."""
    return sum(map(len, lists)) - sum(map(len, live))


def partition(lists, anchors, tree=()):
    """partition_areas on Dewey lists.

    Returns the entity map, the live flags, the live nodes as Dewey lists
    and the pruned count: the input nodes that are not live.
    """
    ents, ordinal_lists = place(lists, tree, anchors)
    alive, live = partition_areas(ordinal_lists, ents.pool(anchors).layout(ents.table))
    return ents, alive, [ents.deweys(lst) for lst in live], input_less_live(lists, live)


def covered(lists, anchors, new_nodes, tree=()):
    """covered_anchor_ancestors on Dewey lists, with the anchors' layout prefixes."""
    ents, ordinal_lists = place(lists, tree, anchors)
    prefixes = ents.pool(anchors).layout(ents.table).prefixes
    sets = [proper_ancestors(lst, ents.table) for lst in ordinal_lists]
    fresh = ents.numbers(new_nodes)
    return covered_anchor_ancestors(ordinal_lists, sets, prefixes, ents.table, fresh)


def split_single(lists, anchor):
    """partition_areas around one anchor: pre, des and next live flags, live lists, pruned."""
    _, alive, live, pruned = partition(lists, (anchor,))
    assert len(alive) == 3
    return alive, live, pruned


class TestSingleAnchorPartition:
    def test_four_way_split(self):
        alive, live, pruned = split_single([ids("1", "1.1", "1.2.1", "1.3")], d("1.2"))
        assert pruned == 1  # 1 is the anchor's ancestor
        assert alive == [True, True, True]
        assert live == [ids("1.1", "1.2.1", "1.3")]

    def test_anchor_member_is_covered(self):
        alive, live, pruned = split_single([ids("1.2")], d("1.2"))
        assert pruned == 1
        assert alive == [False, False, False]
        assert live == [()]

    def test_root_anchor_absorbs_descendants(self):
        alive, live, pruned = split_single([ids("1", "1.1", "1.2")], d("1"))
        assert pruned == 1
        assert alive == [False, True, False]
        assert live == [ids("1.1", "1.2")]

    def test_anchor_after_all_nodes(self):
        alive, live, pruned = split_single([ids("1.1", "1.2")], d("1.5"))
        assert alive == [True, False, False]
        assert live == [ids("1.1", "1.2")]
        assert pruned == 0

    def test_anchor_before_all_nodes(self):
        alive, live, _ = split_single([ids("1.2", "1.3")], d("1.1"))
        assert alive == [False, False, True]
        assert live == [ids("1.2", "1.3")]

    def test_covered_counts_accumulate_across_lists(self):
        alive, live, pruned = split_single([ids("1"), ids("1", "1.2")], d("1.2"))
        assert pruned == 3
        assert not any(alive)
        assert live == [(), ()]


class TestPartitionAreas:
    def test_no_anchors_yields_single_tail(self):
        _, alive, live, pruned = partition([ids("1.1", "1.2")], ())
        assert pruned == 0
        assert alive == [True]
        assert live == [ids("1.1", "1.2")]

    def test_single_anchor_yields_three_areas(self):
        _, alive, live, pruned = partition([ids("1.1", "1.2", "1.3")], ids("1.2"))
        assert pruned == 1
        assert alive == [True, False, True]
        assert live == [ids("1.1", "1.3")]

    def test_exhausted_list_stops_splitting(self):
        lists = [ids("1.1"), ids("1.1", "1.2")]
        _, alive, live, pruned = partition(lists, ids("1.1", "1.3"))
        # the first anchor consumes list 0 entirely; 1.3 is never split on
        assert alive == [False, False, False]
        assert pruned == 3  # both 1.1s are the anchor, 1.2 sits in the dead tail
        assert live == [(), ()]

    def test_node_conservation(self):
        """Every input node is live or pruned; the reference says which."""
        rng = random.Random(41)
        for _ in range(300):
            tree = random_tree(rng, 60)
            lists = random_lists(rng, tree)
            anchors = random_antichain(rng)
            _, alive, live, pruned = partition(lists, anchors, tree)
            ref_areas, ref_discarded = reference_partition(lists, anchors)
            assert pruned == ref_discarded + sum(a.total_nodes for a in ref_areas if a.dead)
            assert len(alive) % 2 == 1 and len(alive) <= 2 * len(anchors) + 1
            for lst, nodes in zip(lists, live):
                assert set(nodes) <= set(lst) and list(nodes) == sorted(nodes)
                assert not any(contains_anchor(v, anchors) for v in nodes)
            covered = sum(
                1 for lst in lists for v in lst if contains_anchor(v, anchors)
            )
            if len(alive) == 2 * len(anchors) + 1:
                assert ref_discarded == covered
            else:
                assert ref_discarded <= covered


def evaluate(lists, anchors):
    """evaluate_anchored on Dewey lists against a pool of the anchors, rendered."""
    ents, ordinal_lists = place(lists, anchors=anchors)
    intent = make_intent(ordinal_lists, ents.table)
    return rendered(evaluate_anchored(intent, ents.pool(anchors), ents.table), ents.table)


class TestDeadAreas:
    """An area with an empty list is skipped; its nodes count as pruned."""

    def test_fully_consumed_lists(self):
        lists = [ids("1.1"), ids("1.1")]
        _, alive, _, pruned = partition(lists, ids("1.1"))
        assert pruned == 2
        assert alive == [False, False, False]
        evaluation = evaluate(lists, ids("1.1"))
        assert (evaluation.visited, evaluation.areas_skipped) == (0, 3)

    def test_dead_area_counts_surviving_nodes(self):
        lists = [ids("1.1", "1.3"), ids("1.3")]
        _, alive, live, pruned = partition(lists, ids("1.3"))
        # 1.1 sits in a pre area whose second list is empty
        assert alive == [False, False, False]
        assert live == [(), ()]
        assert pruned == 3
        evaluation = evaluate(lists, ids("1.3"))
        assert (evaluation.visited, evaluation.areas_skipped) == (0, 3)

    def test_live_areas_are_visited(self):
        lists = [ids("1.1", "1.2.1", "1.3"), ids("1.1", "1.3")]
        _, alive, live, pruned = partition(lists, ids("1.2"))
        # pre, des and tail area of the anchor; 1.2.1 sits alone in des
        assert alive == [True, False, True]
        assert live == [ids("1.1", "1.3"), ids("1.1", "1.3")]
        assert pruned == 1
        evaluation = evaluate(lists, ids("1.2"))
        assert (evaluation.visited, evaluation.areas_skipped) == (4, 1)
        assert evaluation.outcome == MergeOutcome(ids("1.1", "1.3"), (), 3)


class TestContainsAnchor:
    def test_cases(self):
        anchors = ids("1.2", "1.4")
        assert contains_anchor(d("1.2"), anchors)
        assert contains_anchor(d("1"), anchors)
        assert not contains_anchor(d("1.2.1"), anchors)
        assert not contains_anchor(d("1.3"), anchors)
        assert not contains_anchor(d("1.1"), ())


class TestAreaResults:
    """An area hands its SLCAs to the pool's merge unfiltered; the merge drops some."""

    def run_single_area(self, lists, anchors, position):
        """The one live area's SLCAs, and the evaluation they go into.

        ``position`` is the live area's place: 0 pre, 1 des, 2 the tail.
        """
        ents, alive, live, _ = partition(lists, anchors)
        assert alive == [i == position for i in range(3)]
        area = [ents.ordinals(lst) for lst in live]
        sets = [proper_ancestors(lst, ents.table) for lst in area]
        return ents.table.render(area_results(area, ents.table, sets)), evaluate(lists, anchors)

    def test_descendant_area_drops_anchor_duplicate(self):
        results, evaluation = self.run_single_area([ids("1.2.1"), ids("1.2.2")], ids("1.2"), 1)
        assert results == ids("1.2")
        assert evaluation.outcome == MergeOutcome((), (), 1)
        assert evaluation.relevance == 1.0  # the anchor is still a full SLCA

    def test_descendant_area_keeps_refinement(self):
        results, evaluation = self.run_single_area([ids("1.2.1"), ids("1.2.1")], ids("1.2"), 1)
        assert results == ids("1.2.1")
        assert evaluation.outcome == MergeOutcome(ids("1.2.1"), ids("1.2"), 1)
        assert evaluation.relevance == 1.0

    def test_pre_area_result_covering_anchor_is_dropped(self):
        results, evaluation = self.run_single_area([ids("1.1.1"), ids("1.1.2")], ids("1.1.5"), 0)
        assert results == ids("1.1")
        assert evaluation.outcome == MergeOutcome((), (), 1)
        assert evaluation.relevance == 1.0

    def test_tail_result_covering_anchor_is_dropped(self):
        results, evaluation = self.run_single_area([ids("1.2"), ids("1.3")], ids("1.1"), 2)
        assert results == ids("1")
        assert evaluation.outcome == MergeOutcome((), (), 1)
        assert evaluation.relevance == 1.0

    def test_independent_result_survives(self):
        results, evaluation = self.run_single_area([ids("1.3"), ids("1.3")], ids("1.1"), 2)
        assert results == ids("1.3")
        assert evaluation.outcome == MergeOutcome(ids("1.3"), (), 2)
        assert evaluation.relevance == 1.0


class TestCoveredAnchorAncestors:
    def test_anchor_itself_still_covers(self):
        lists = [ids("1.1", "1.2", "1.3"), ids("1.1", "1.2")]
        assert covered(lists, ids("1.1"), ids("1.2")) == 1

    def test_fresh_result_inside_candidate_blocks_it(self):
        lists = [ids("1.1", "1.2"), ids("1.2")]
        assert covered(lists, ids("1.1"), ids("1.2")) == 0

    def test_only_minimal_covered_prefix_counts(self):
        lists = [ids("1.1.1"), ids("1.1.1")]
        assert covered(lists, ids("1.1.1"), ()) == 1

    def test_matches_full_slca_partition(self):
        """The count of full SLCAs at or above an anchor, on random pools.

        Anchors are tree nodes, drawn from a table whose entities are the
        lists' nodes and part of the tree.  A covering prefix covers some
        list only through the list itself (it is listed and nothing below
        it is) and some list only through its ancestor set (it is not
        listed), and some anchor is no entity.
        """
        rng = random.Random(42)
        checked = by_list = by_ancestors = non_entity = 0
        for _ in range(1200):
            tree = random_tree(rng, 60)
            lists = random_lists(rng, tree)
            if any(not lst for lst in lists):
                continue
            entities = {v for v in tree if rng.random() < 0.5}.union(*lists)
            spanned = sorted({DeweyId(v[:n]) for v in entities for n in range(1, len(v) + 1)})
            anchors = tree_antichain(rng, spanned)
            full = compute_slca(lists)
            anc = [v for v in full if contains_anchor(v, anchors)]
            rest = tuple(v for v in full if not contains_anchor(v, anchors))
            assert covered(lists, anchors, rest, sorted(entities)) == len(anc)
            checked += 1
            ways = set()
            for p in {a[:n] for a in anchors for n in range(1, len(a) + 1)}:
                inside = [[v for v in lst if is_ancestor_or_self(p, v)] for lst in lists]
                for got in inside if all(inside) else ():
                    if got == [p]:
                        ways.add("list")
                    elif got[0] != p:
                        ways.add("above")
            by_list += "list" in ways
            by_ancestors += "above" in ways
            non_entity += any(a not in entities for a in anchors)
        assert checked > 800
        assert by_list > 50, by_list
        assert by_ancestors > 50, by_ancestors
        assert non_entity > 20, non_entity

    def test_fresh_ancestor_set_built_only_for_a_covering_candidate(self, monkeypatch):
        """No ``proper_ancestors`` call when no anchor or ancestor of one covers
        every list, and exactly one, of the fresh results, when one does."""
        calls = []

        def counting(nodes, table):
            calls.append(nodes)
            return proper_ancestors(nodes, table)

        patch_everywhere(monkeypatch, proper_ancestors, counting)
        rng = random.Random(49)
        seen = {False: 0, True: 0}
        for _ in range(600):
            tree, lists, anchors = random_case(rng)
            if any(not lst for lst in lists):
                continue
            ents, ordinal_lists = place(lists, tree, anchors)
            prefixes = ents.pool(anchors).layout(ents.table).prefixes
            sets = [proper_ancestors(lst, ents.table) for lst in ordinal_lists]
            fresh = ents.numbers(v for v in compute_slca(lists) if not contains_anchor(v, anchors))
            del calls[:]
            covered_anchor_ancestors(ordinal_lists, sets, prefixes, ents.table, fresh)
            candidates = {a[:n] for a in anchors for n in range(1, len(a) + 1)}
            covering = any(
                all(any(is_ancestor_or_self(p, v) for v in lst) for lst in lists) for p in candidates
            )
            assert calls == ([fresh] if covering else []), (lists, anchors)
            seen[covering] += 1
        assert min(seen.values()) > 50, seen


class TestEngineEquivalence:
    def test_matches_baseline_on_random_pools(self):
        rng = random.Random(43)
        for _ in range(200):
            tree = random_tree(rng, 50)
            anchors = random_antichain(rng)
            ents, lists = place(random_lists(rng, tree), tree, anchors)
            intent = make_intent(lists, ents.table)
            pool = ents.pool(anchors)
            base = evaluate_against_pool(intent, pool, ents.table)
            anch = evaluate_anchored(intent, pool, ents.table)
            assert anch.relevance == base.relevance
            assert anch.dif == base.dif
            assert anch.score == base.score
            assert anch.outcome == base.outcome
            assert anch.visited <= base.visited

    def test_admission_run_prunes_what_the_reference_prunes(self):
        """nodesPruned of whole runs: the reference's discarded and dead-area nodes, summed."""
        rng = random.Random(44)
        pruning_runs = 0
        for _ in range(150):
            tree = random_tree(rng, 50)
            groups = [random_lists(rng, tree) for _ in range(rng.randint(2, 6))]
            ents, flat = place([lst for group in groups for lst in group], tree)
            lists = iter(flat)
            intents = [make_intent([next(lists) for _ in group], ents.table) for group in groups]
            want = []

            def evaluating(intent, pool):
                want.append(reference_evaluate(intent, pool, ents)[1])
                return evaluate_anchored(intent, pool, ents.table)

            _, stats = run_topk(intents, rng.randint(1, 3), evaluating)
            _, base = run_topk(intents, 1, partial(evaluate_against_pool, table=ents.table))
            assert stats.nodes_pruned == sum(want)
            assert stats.nodes_visited + stats.nodes_pruned == base.nodes_visited
            pruning_runs += sum(want) > 0
        assert pruning_runs > 50, pruning_runs

    def test_duplicate_of_pool_scores_zero_without_visits(self):
        ents, lists = place([ids("1.1"), ids("1.1")])
        intent = make_intent(lists, ents.table)
        pool = ents.pool(ids("1.1"))
        anch = evaluate_anchored(intent, pool, ents.table)
        assert anch.visited == 0
        assert anch.relevance == 1.0
        assert anch.dif == 0.0
        assert anch.score == 0.0
        assert evaluate_against_pool(intent, pool, ents.table).score == 0.0

    def test_toy_trace_matches_baseline(self, toy_index):
        base, base_stats = diversify_baseline(["database", "query"], 2, 2, toy_index)
        anch, anch_stats = diversify_anchored(["database", "query"], 2, 2, toy_index)
        assert [(e.intent, e.score, e.results.nodes) for e in anch.entries] == [
            (e.intent, e.score, e.results.nodes) for e in base.entries
        ]
        assert anch.phi == base.phi
        assert base_stats.nodes_visited == 8
        assert (anch_stats.nodes_visited, anch_stats.nodes_pruned) == (7, 1)
        assert anch_stats.areas_skipped == 2

    def test_toy_full_budget_matches_baseline(self, toy_index):
        base, _ = diversify_baseline(["database", "query"], 4, 4, toy_index)
        anch, _ = diversify_anchored(["database", "query"], 4, 4, toy_index)
        assert anch.entries == base.entries
        assert anch.phi == base.phi


# Reference: the partition as it was before areas became positions.  One
# frozen span object per list and area, sizes and liveness recomputed on
# every read, one prefix probe per list and anchor.  Each area keeps its kind
# and anchor, and the evaluation filters the area results by hand rather
# than through the pool's merge.

PRE = "pre"
DES = "des"
NEXT = "next"


@dataclass(frozen=True)
class RefSpan:
    source: tuple
    lo: int
    hi: int
    excluded: tuple = ()

    @property
    def size(self):
        return (self.hi - self.lo) - len(self.excluded)

    def nodes(self):
        if not self.excluded:
            return self.source[self.lo : self.hi]
        skip = set(self.excluded)
        return tuple(self.source[i] for i in range(self.lo, self.hi) if i not in skip)


@dataclass(frozen=True)
class RefArea:
    kind: str
    anchor: object
    spans: tuple

    @property
    def total_nodes(self):
        return sum(span.size for span in self.spans)

    @property
    def dead(self):
        return any(span.size == 0 for span in self.spans)

    def lists(self):
        return [span.nodes() for span in self.spans]


def reference_split(lst, lo, anchor, bound):
    a = bisect_left(lst, anchor, lo)
    b = bisect_left(lst, bound, lo)
    ancestors = []
    for plen in range(1, len(anchor)):
        p = DeweyId(anchor[:plen])
        j = bisect_left(lst, p, lo, a)
        if j < a and lst[j] == p:
            ancestors.append(j)
    eq = 1 if a < len(lst) and lst[a] == anchor else 0
    return a, b, tuple(ancestors), eq


def reference_partition(lists, anchors):
    areas = []
    discarded = 0
    cursors = [0] * len(lists)
    for anchor in anchors:
        bound = subtree_bound(anchor)
        pre_spans, des_spans = [], []
        exhausted = False
        for li, lst in enumerate(lists):
            lo = cursors[li]
            a, b, anc, eq = reference_split(lst, lo, anchor, bound)
            discarded += len(anc) + eq
            pre_spans.append(RefSpan(lst, lo, a, anc))
            des_spans.append(RefSpan(lst, a + eq, b))
            cursors[li] = b
            if b >= len(lst):
                exhausted = True
        areas.append(RefArea(PRE, anchor, tuple(pre_spans)))
        areas.append(RefArea(DES, anchor, tuple(des_spans)))
        if exhausted:
            break
    tail = tuple(RefSpan(lst, cursors[li], len(lst)) for li, lst in enumerate(lists))
    areas.append(RefArea(NEXT, None, tail))
    return areas, discarded


def reference_evaluate(intent, pool, ents):
    """The evaluation built from the reference partition, not by the pool's merge.

    Relevance counts the full SLCA set of the complete lists, with no
    covered-prefix scan; the merge outcome gathers the filtered area
    results, and every descendant area with a result replaces its anchor.
    Also returns the pruned count, the discarded nodes and the dead areas'
    nodes, and how many area results the filter dropped as an anchor's
    duplicate and how many for covering an anchor.
    """
    lists = [ents.deweys(segment.node_list) for segment in intent.segments]
    anchors = ents.table.render(pool.nodes)
    areas, discarded = reference_partition(lists, anchors)
    kept = [area for area in areas if not area.dead]
    dead = [area for area in areas if area.dead]
    inserted, removed = [], []
    duplicates = covering = 0
    for area in kept:
        raw = compute_slca(area.lists())
        if area.kind == DES:
            results = [r for r in raw if r != area.anchor]
            duplicates += len(raw) - len(results)
            if results:
                removed.append(area.anchor)
        else:
            results = [r for r in raw if not contains_anchor(r, anchors)]
            covering += len(raw) - len(results)
        inserted += results
    likelihood = 1.0
    for segment in intent.segments:
        likelihood *= len(segment.node_list) / segment.feature_list_size
    evaluation = IntentEvaluation(
        relevance=likelihood * len(compute_slca(lists)),
        outcome=MergeOutcome(tuple(inserted), tuple(removed), len(pool) + len(inserted) - len(removed)),
        visited=sum(area.total_nodes for area in kept),
        areas_skipped=len(dead),
    )
    pruned = discarded + sum(area.total_nodes for area in dead)
    return evaluation, pruned, duplicates, covering


def tree_antichain(rng, tree):
    """Incomparable nodes drawn from the tree itself, so anchors hit lists."""
    out = []
    for v in sorted(rng.sample(tree, rng.randint(0, min(8, len(tree))))):
        if not out or v[: len(out[-1])] != tuple(out[-1]):
            out.append(v)
    return tuple(out)


def random_case(rng):
    tree = random_tree(rng, 60)
    lists = random_lists(rng, tree)
    anchors = random_antichain(rng) if rng.random() < 0.5 else tree_antichain(rng, tree)
    return tree, lists, anchors


def reference_live(areas, width):
    """The live areas' nodes of a reference partition, joined list by list."""
    parts = [area.lists() for area in areas if not area.dead]
    return [tuple(chain.from_iterable(lists)) for lists in zip(*parts)] if parts else [()] * width


class TestAgainstReferencePartition:
    def test_same_areas_and_discarded(self):
        """Same live flags and live nodes; the rest is what the reference discards or kills."""
        rng = random.Random(45)
        with_ancestors = with_listed = stopped_early = 0
        for _ in range(400):
            tree, lists, anchors = random_case(rng)
            _, alive, live, pruned = partition(lists, anchors, tree)
            ref_areas, ref_discarded = reference_partition(lists, anchors)
            assert alive == [not a.dead for a in ref_areas]
            assert live == reference_live(ref_areas, len(lists))
            # so areas come by position: pre and des per anchor, then the tail
            spans = len(ref_areas) // 2
            assert [a.kind for a in ref_areas] == [PRE, DES] * spans + [NEXT]
            assert [a.anchor for a in ref_areas[:-1:2]] == list(anchors[:spans])
            assert pruned == ref_discarded + sum(a.total_nodes for a in ref_areas if a.dead)
            with_ancestors += any(span.excluded for a in ref_areas for span in a.spans)
            with_listed += any(a in lst for a in anchors[:spans] for lst in lists)
            stopped_early += len(alive) < 2 * len(anchors) + 1
        # the ancestor probe, a listed anchor and the early stop were all exercised
        assert with_ancestors > 50
        assert with_listed > 50
        assert stopped_early > 50

    def test_same_evaluation_and_counters(self):
        rng = random.Random(46)
        refined = with_duplicate = with_covering = 0
        for _ in range(2000):
            tree, lists, anchors = random_case(rng)
            ents, ordinal_lists = place(lists, tree, anchors)
            intent = make_intent(ordinal_lists, ents.table)
            pool = ents.pool(anchors)
            want, pruned, duplicates, covering = reference_evaluate(intent, pool, ents)
            got = evaluate_anchored(intent, pool, ents.table)
            assert rendered(got, ents.table) == want
            assert sum(map(len, lists)) - got.visited == pruned
            refined += bool(want.outcome.removed)
            with_duplicate += duplicates > 0
            with_covering += covering > 0
        # the merge refined an anchor and dropped both kinds of area result
        assert refined >= 50
        assert with_duplicate >= 50
        assert with_covering >= 50

    def test_ancestor_sets_of_whole_lists_are_exact_for_live_nodes(self):
        """The anchor engine's one SLCA call runs over the live nodes only.

        The segments' sets are those of the whole lists, nodes that were
        discarded or sit in dead areas included; the evaluation must still
        equal the reference's and the baseline's, which takes the same sets.
        """
        rng = random.Random(47)
        refined = with_covering = set_reaches_pruned = 0
        for _ in range(2500):
            tree, lists, anchors = random_case(rng)
            ents, ordinal_lists = place(lists, tree, anchors)
            intent = make_intent(ordinal_lists, ents.table)
            pool = ents.pool(anchors)
            want, pruned, _, covering = reference_evaluate(intent, pool, ents)
            got = evaluate_anchored(intent, pool, ents.table)
            assert rendered(got, ents.table) == want
            base = evaluate_against_pool(intent, pool, ents.table)
            assert (got.outcome, got.relevance) == (base.outcome, base.relevance)
            refined += bool(want.outcome.removed)
            with_covering += covering > 0
            set_reaches_pruned += got.visited > 0 and pruned > 0
        assert refined >= 50
        assert with_covering >= 50
        # live and pruned nodes together: the whole lists' sets hold both
        assert set_reaches_pruned >= 500


def excluded_counts(areas, width):
    """How many anchor ancestors a reference partition excludes from each list."""
    return [sum(len(area.spans[i].excluded) for area in areas) for i in range(width)]


class TestSegmentCache:
    """A layout cuts each segment list once; every intent of the version slices it.

    The intents of one pool version draw their lists from one set of list
    objects, as intents sharing a segment share its node list, so their
    stops differ from the lists' own.
    """

    def test_shared_lists_match_the_reference(self):
        rng = random.Random(49)
        stop_below = dropped = 0
        for _ in range(150):
            tree = random_tree(rng, 60)
            shared = random_lists(rng, tree, max_lists=6)
            ents, ordinal_lists = place(shared, tree)
            for _ in range(3):  # pool versions over the same list objects
                anchors = tree_antichain(rng, tree)
                layout = ents.pool(anchors).layout(ents.table)
                own = [reference_partition([lst], anchors)[0] for lst in shared]
                for _ in range(4):
                    picks = rng.sample(range(len(shared)), rng.randint(1, len(shared)))
                    lists = [shared[i] for i in picks]
                    alive, live = partition_areas([ordinal_lists[i] for i in picks], layout)
                    ref_areas, ref_discarded = reference_partition(lists, anchors)
                    assert alive == [not a.dead for a in ref_areas]
                    assert [ents.deweys(lst) for lst in live] == reference_live(ref_areas, len(lists))
                    dead = sum(a.total_nodes for a in ref_areas if a.dead)
                    assert input_less_live(lists, live) == ref_discarded + dead
                    stop_below += any(len(own[i]) > len(ref_areas) for i in picks)
                    mine = excluded_counts(ref_areas, len(lists))
                    dropped += any(
                        excluded_counts(own[i], 1)[0] > n for i, n in zip(picks, mine)
                    )
        # some list was sliced below its own stop, losing a hidden hit with it
        assert stop_below > 50, stop_below
        assert dropped > 50, dropped

    def test_each_list_is_bisected_once_per_layout(self, monkeypatch):
        calls: dict[int, int] = {}

        def counting(seq, *args):
            calls[id(seq)] = calls.get(id(seq), 0) + 1
            return bisect_left(seq, *args)

        monkeypatch.setattr(anchors_module, "bisect_left", counting)
        rng = random.Random(50)
        for _ in range(100):
            tree = random_tree(rng, 60)
            shared = [lst for lst in random_lists(rng, tree, max_lists=5) if lst]
            anchors = tree_antichain(rng, tree)
            if not shared or not anchors:
                continue
            ents, ordinal_lists = place(shared, tree)
            for _ in range(2):  # a new layout cuts every list again
                layout = ents.pool(anchors).layout(ents.table)
                before = {id(lst): calls.get(id(lst), 0) for lst in ordinal_lists}
                cut = {}
                for _ in range(4):
                    picks = rng.sample(range(len(shared)), rng.randint(1, len(shared)))
                    partition_areas([ordinal_lists[i] for i in picks], layout)
                    for i in picks:
                        cut.setdefault(i, calls[id(ordinal_lists[i])])
                        assert calls[id(ordinal_lists[i])] == cut[i]
                for i, count in cut.items():
                    assert count > before[id(ordinal_lists[i])]


class TestOneSlcaCallPerIntent:
    """The anchor engine solves all of an intent's live areas in one SLCA call."""

    def count_calls(self, monkeypatch) -> list[int]:
        """Patch ``compute_slca`` to count; the list holds the running count."""
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return compute_slca(*args, **kwargs)

        patch_everywhere(monkeypatch, compute_slca, counting)
        return calls

    def test_one_call_with_a_live_area_and_none_without(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        rng = random.Random(48)
        seen = {True: 0, False: 0}
        for _ in range(400):
            tree, lists, anchors = random_case(rng)
            ents, ordinal_lists = place(lists, tree, anchors)
            live = any(partition(lists, anchors, tree)[1])
            pool = ents.pool(anchors)
            before = calls[0]
            evaluate_anchored(make_intent(ordinal_lists, ents.table), pool, ents.table)
            assert calls[0] - before == int(live)
            seen[live] += 1
        assert min(seen.values()) > 50, seen

    def test_engine_makes_at_most_one_call_per_intent(self, toy_index, monkeypatch):
        calls = self.count_calls(monkeypatch)
        made = []

        def evaluating(intent, pool, table):
            before = calls[0]
            evaluation = evaluate_anchored(intent, pool, table)
            made.append((calls[0] - before, evaluation.visited > 0))
            return evaluation

        patch_everywhere(monkeypatch, evaluate_anchored, evaluating)
        diversify_anchored(["database", "query"], 4, 4, toy_index)
        assert made and all(n == live for n, live in made)
        assert {live for _, live in made} == {True, False}

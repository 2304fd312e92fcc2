import itertools
import random
from bisect import bisect_left
from collections import Counter

import pytest

from divsearch.dewey import DeweyId
from divsearch.diversify import dif
from divsearch.slca import (
    DiversifiedSet,
    SlcaSet,
    compute_slca,
    merge_distinct,
)
from helpers import (
    Entities,
    common_prefix_len,
    d,
    ids,
    is_ancestor_or_self,
    random_antichain,
    random_lists,
    random_tree,
    scan_layout,
    slca_oracle,
)


def _naive_merge(phi_nodes, fresh):
    """Reference merge: literal rule application, no incremental tricks.

    Returns the merged nodes in document order, the inserted results and
    the members they removed, each in the order the rules fired.
    """
    nodes = list(phi_nodes)
    inserted, removed = [], []
    for v in fresh:
        if any(is_ancestor_or_self(v, w) for w in nodes):
            continue  # v duplicates or covers an existing member
        for w in [w for w in nodes if is_ancestor_or_self(w, v) and w != v]:
            nodes.remove(w)
            removed.append(w)
        nodes.append(v)
        inserted.append(v)
    return sorted(nodes), inserted, removed


def _previous_nearest_prefix_len(x, lst):
    j = bisect_left(lst, x)
    best = 0
    if j < len(lst):
        best = common_prefix_len(x, lst[j])
    if j > 0:
        k = common_prefix_len(x, lst[j - 1])
        if k > best:
            best = k
    return best


def _previous_compute_slca(lists):
    """Indexed Lookup Eager on Dewey IDs, a prefix helper call for every probe.

    A test-only reference: ``compute_slca`` intersects ancestor sets and
    shares no step with this driver-and-probe algorithm.
    """
    if any(not lst for lst in lists):
        return SlcaSet()
    driver_pos = min(range(len(lists)), key=lambda i: len(lists[i]))
    driver = lists[driver_pos]
    others = [lst for i, lst in enumerate(lists) if i != driver_pos]
    candidates = set()
    for v in driver:
        x = v
        for lst in others:
            k = _previous_nearest_prefix_len(x, lst)
            if k == 0:
                x = None
                break
            if k < len(x):
                x = DeweyId(x[:k])
        if x is not None:
            candidates.add(x)
    ordered = sorted(candidates)
    keep = [
        c
        for i, c in enumerate(ordered)
        if i + 1 == len(ordered) or not is_ancestor_or_self(c, ordered[i + 1])
    ]
    return SlcaSet(tuple(keep))


def chain_tree(rng, max_nodes=120):
    """A random tree grown mostly downward: long ancestor chains."""
    nodes = [DeweyId((1,))]
    child_count = {nodes[0]: 0}
    for _ in range(rng.randint(1, max_nodes - 1)):
        parent = nodes[-1] if rng.random() < 0.7 else rng.choice(nodes)
        child_count[parent] += 1
        child = DeweyId(parent + (child_count[parent],))
        child_count[child] = 0
        nodes.append(child)
    return nodes


def _assert_antichain(nodes):
    assert list(nodes) == sorted(set(nodes))
    for a in nodes:
        for b in nodes:
            if a != b:
                assert not is_ancestor_or_self(a, b)


def assert_layout_reuses_cuts(pool, table):
    """The pool's layout, its cuts kept from earlier versions for the members
    that stayed, equals one laid out by scans, and only members keep cuts."""
    layout = pool.layout(table)
    assert (layout.cuts, layout.hidden, layout.prefixes) == scan_layout(table, table.render(pool))
    assert pool._cuts.keys() == set(pool)


class TestComputeSlca:
    def test_two_lists_meet_in_shared_entity(self):
        got = compute_slca([ids("1.1", "1.2"), ids("1.2", "1.3")])
        assert got.nodes == ids("1.2")

    def test_single_list_is_its_own_result(self):
        got = compute_slca([ids("1.1", "1.2", "1.3")])
        assert got.nodes == ids("1.1", "1.2", "1.3")

    def test_disjoint_leaves_meet_at_root(self):
        got = compute_slca([ids("1.1"), ids("1.3")])
        assert got.nodes == ids("1")

    def test_empty_member_list_gives_empty_result(self):
        assert compute_slca([ids("1.1"), ()]).nodes == ()

    def test_no_lists_rejected(self):
        with pytest.raises(ValueError):
            compute_slca([])

    def test_ancestor_of_cover_excluded(self):
        got = compute_slca([ids("1.2.1", "1.3"), ids("1.2.2", "1.3")])
        assert got.nodes == ids("1.2", "1.3")

    def test_result_is_antichain(self):
        rng = random.Random(61)
        for _ in range(100):
            tree = random_tree(rng, 80)
            got = compute_slca(random_lists(rng, tree))
            _assert_antichain(got.nodes)

    def test_matches_oracle(self):
        rng = random.Random(62)
        for _ in range(200):
            tree = random_tree(rng, 120)
            lists = random_lists(rng, tree)
            assert compute_slca(lists).nodes == slca_oracle(tree, lists)

    def test_order_insensitive(self):
        rng = random.Random(63)
        for _ in range(50):
            tree = random_tree(rng, 80)
            lists = random_lists(rng, tree, max_lists=4)
            want = compute_slca(lists).nodes
            shuffled = lists[:]
            rng.shuffle(shuffled)
            assert compute_slca(shuffled).nodes == want

    def test_duplicate_list_objects(self):
        lst = ids("1.1", "1.2")
        assert compute_slca([lst, lst]).nodes == lst


class TestAgainstPreviousKernel:
    """``compute_slca`` answers as Indexed Lookup Eager on Dewey IDs does."""

    def test_same_results_on_random_trees(self):
        rng = random.Random(64)
        shapes = Counter()
        for trial in range(800):
            tree = chain_tree(rng) if trial % 2 else random_tree(rng, 120)
            lists = random_lists(rng, tree)
            shape = trial // 2 % 4
            if shape == 1:
                lists = [lists[0]] + lists
            elif shape == 2:
                size = rng.randint(1, len(tree))
                lists = [
                    tuple(sorted(rng.sample(tree, size))) for _ in range(rng.randint(2, 4))
                ]
            elif shape == 3:
                lists = lists[:1]
            got = compute_slca(lists).nodes
            assert got == _previous_compute_slca(lists).nodes
            assert got == slca_oracle(tree, lists)
            shapes["one list object twice"] += any(
                a is b and a for a, b in itertools.combinations(lists, 2)
            )
            shapes["equal lengths"] += len(lists) > 1 and len({len(lst) for lst in lists}) == 1
            shapes["single list"] += len(lists) == 1 and bool(lists[0])
            shapes["ancestor and descendant in one list"] += any(
                len(a) > 4 and is_ancestor_or_self(a, b)
                for lst in lists
                for a, b in zip(lst, lst[1:])
            )
        assert len(shapes) == 4
        assert min(shapes.values()) > 100, shapes


class TestMergeDistinct:
    def test_pure_duplicate(self):
        phi = DiversifiedSet()
        phi.merge(ids("1.2"), 0)
        phi, distinct, union = merge_distinct(phi, SlcaSet(ids("1.2")), 1)
        assert (distinct, union) == (0, 1)
        assert phi.nodes == ids("1.2")

    def test_disjoint_sibling_inserts(self):
        phi = DiversifiedSet()
        phi.merge(ids("1.2"), 0)
        phi, distinct, union = merge_distinct(phi, SlcaSet(ids("1.3")), 1)
        assert (distinct, union) == (1, 2)
        assert phi.nodes == ids("1.2", "1.3")

    def test_descendant_replaces_ancestor(self):
        phi = DiversifiedSet()
        phi.merge(ids("1.2"), 0)
        phi, distinct, union = merge_distinct(phi, SlcaSet(ids("1.2.1")), 1)
        assert (distinct, union) == (1, 1)
        assert phi.nodes == ids("1.2.1")

    def test_fresh_ancestor_of_member_dropped(self):
        phi = DiversifiedSet()
        phi.merge(ids("1.2.1"), 0)
        outcome = phi.merge(ids("1.2"), 1)
        assert outcome.distinct_count == 0
        assert phi.nodes == ids("1.2.1")

    def test_idempotent_on_duplicates(self):
        rng = random.Random(64)
        for _ in range(50):
            phi = DiversifiedSet()
            phi.merge(random_antichain(rng), 0)
            fresh = random_antichain(rng)
            phi.merge(fresh, 1)
            before = phi.nodes
            outcome = phi.merge(fresh, 2)
            assert outcome.distinct_count == 0
            assert phi.nodes == before

    def test_matches_naive_reference(self):
        rng = random.Random(65)
        shapes = Counter()
        for _ in range(300):
            base = random_antichain(rng)
            fresh = random_antichain(rng)
            phi = DiversifiedSet()
            phi.merge(base, 0)
            outcome = phi.preview(fresh)
            want_nodes, want_inserted, want_removed = _naive_merge(base, fresh)
            assert outcome.inserted == tuple(want_inserted)
            assert outcome.removed == tuple(sorted(want_removed))
            assert outcome.distinct_count == len(want_inserted)
            assert outcome.union_size == len(want_nodes)
            phi.apply(outcome, 1)
            assert list(phi.nodes) == want_nodes
            shapes["duplicate"] += any(v in base for v in fresh)
            shapes["coarser"] += any(v != w and is_ancestor_or_self(v, w) for v in fresh for w in base)
            shapes["refinement"] += bool(want_removed)
            shapes["plain insert"] += any(
                not any(is_ancestor_or_self(w, v) for w in base) for v in want_inserted
            )
        assert len(shapes) == 4
        assert min(shapes.values()) > 50, shapes

    def test_every_pool_version_matches_naive_reference(self):
        """Merges and evictions interleave; each preview sees the pool as it is.

        Every eviction follows a preview that was not applied, as a rejected
        intent's is, so the pool has a version's sets built when it changes.
        The same runs go on tree numbers with a table, each node an entity
        or above one; rendered, every outcome and pool equals the
        Dewey-labelled run's, which is the reference.
        """
        rng = random.Random(67)
        evictions = non_entity_members = 0
        for _ in range(100):
            script = []
            for step in range(8):
                rejected, evicted = (), None
                if step % 3 == 2:
                    rejected, evicted = random_antichain(rng), rng.randrange(step)
                script.append((rejected, evicted, random_antichain(rng)))
            nodes = {v for rejected, _, fresh in script for v in (*rejected, *fresh)}
            ents = Entities.of_tree(v if rng.random() < 0.5 else DeweyId(v + (1,)) for v in nodes)
            table = ents.table
            phi, numbered = DiversifiedSet(), DiversifiedSet()
            for step, (rejected, evicted, fresh) in enumerate(script):
                if evicted is not None:
                    before = phi.nodes
                    phi.preview(rejected)
                    numbered.preview(ents.numbers(rejected), table)
                    phi.remove_intent(evicted)
                    numbered.remove_intent(evicted)
                    evictions += phi.nodes != before
                    assert_layout_reuses_cuts(numbered, table)
                outcome = phi.preview(fresh)
                want_nodes, want_inserted, want_removed = _naive_merge(phi.nodes, fresh)
                assert outcome.inserted == tuple(want_inserted)
                assert outcome.removed == tuple(sorted(want_removed))
                assert outcome.union_size == len(want_nodes)
                got = numbered.preview(ents.numbers(fresh), table)
                rendered = (table.render(got.inserted), table.render(got.removed), got.union_size)
                assert rendered == (outcome.inserted, outcome.removed, outcome.union_size)
                phi.apply(outcome, step)
                numbered.apply(got, step)
                assert list(phi.nodes) == want_nodes
                assert numbered.rendered({x: DeweyId(table.nodes[x]) for x in numbered}) == phi
                non_entity_members += any(x >= len(table.deweys) for x in numbered)
                assert_layout_reuses_cuts(numbered, table)
        assert evictions > 50, evictions
        assert non_entity_members > 50, non_entity_members

    def test_antichain_invariant_after_merge_sequence(self):
        rng = random.Random(66)
        for _ in range(30):
            phi = DiversifiedSet()
            for intent_id in range(6):
                phi.merge(random_antichain(rng), intent_id)
                _assert_antichain(phi.nodes)


class TestAttribution:
    def test_remove_intent_drops_only_its_nodes(self):
        phi = DiversifiedSet()
        phi.merge(ids("1.1", "1.3"), 0)
        phi.merge(ids("1.2"), 1)
        phi.remove_intent(0)
        assert phi.nodes == ids("1.2")

    def test_replaced_node_changes_owner(self):
        phi = DiversifiedSet()
        phi.merge(ids("1.2"), 0)
        phi.merge(ids("1.2.1"), 1)  # replaces intent 0's node
        phi.remove_intent(0)  # intent 0 owns nothing anymore
        assert phi.nodes == ids("1.2.1")
        phi.remove_intent(1)
        assert phi.nodes == ()

    def test_prefix_bounds_follow_every_change(self):
        """The layout of a pool of tree numbers is built once per pool version.

        ``apply`` and ``remove_intent`` drop it, and members of evicted
        intents come back in later merges.  Members are tree nodes, entities
        or not.  The cuts, hidden entities and prefixes match a scan of the
        entities (``scan_layout``).
        """
        rng = random.Random(65)
        returned = 0
        for _ in range(100):
            tree = random_tree(rng, 40)
            ents = Entities.of_tree(v for v in tree if v == tree[-1] or rng.random() < 0.5)
            table = ents.table
            spanned = table.nodes
            phi = DiversifiedSet()
            evicted: set = set()
            for step in range(8):
                if step % 3 == 2:
                    before = set(table.render(phi.nodes))
                    phi.remove_intent(rng.randrange(step))
                    evicted |= before - set(table.render(phi.nodes))
                else:
                    back = rng.sample(sorted(evicted), min(len(evicted), rng.randint(0, 3)))
                    drawn = rng.sample(spanned, rng.randint(0, min(6, len(spanned))))
                    fresh = []
                    for v in sorted({*drawn, *back}):
                        if not fresh or not is_ancestor_or_self(fresh[-1], v):
                            fresh.append(v)
                    phi.apply(phi.preview(ents.numbers(fresh), table), step)
                    returned += bool(evicted.intersection(table.render(phi.nodes)))
                built = phi.layout(table)
                members = table.render(phi.nodes)
                assert (built.cuts, built.hidden, built.prefixes) == scan_layout(table, members)
                assert phi.layout(table) is built
        # an evicted member was laid out again after its departure
        assert returned > 50, returned

    def test_change_order_does_not_show(self):
        """Pools that reach the same members and owners through different
        changes are equal, iterate alike and preview alike.

        One pool merges five intents in turn and evicts one of them; the
        other merges and evicts an intent, then merges each surviving
        intent's members, the intents and their members in shuffled order.
        Dewey IDs iterate in document order, tree numbers ascending, and a
        preview's removed members are the pool's own objects.
        """
        rng = random.Random(69)
        removals = 0
        for _ in range(100):
            script = [random_antichain(rng) for _ in range(5)]
            detour, *probes = (random_antichain(rng) for _ in range(4))
            evicted = rng.randrange(5)
            ents = Entities.of_tree(v for fresh in (*script, detour, *probes) for v in fresh)
            for table, label in ((None, tuple), (ents.table, ents.numbers)):

                def replay(evict: int) -> DiversifiedSet:
                    pool = DiversifiedSet()
                    for step, fresh in enumerate(script):
                        pool.apply(pool.preview(label(fresh), table), step)
                    pool.remove_intent(evict)
                    return pool

                a = replay(evicted)
                owned = {i: set(a) - set(replay(i)) for i in range(5)}
                b = DiversifiedSet()
                b.apply(b.preview(label(detour), table), 5)
                b.remove_intent(5)
                for i in rng.sample(range(5), 5):
                    members = list(owned[i])
                    b.apply(b.preview(rng.sample(members, len(members)), table), i)
                assert a == b
                assert list(a) == list(b) == sorted(a) == list(a.nodes) == list(b.nodes)
                for probe in probes:
                    got = a.preview(label(probe), table)
                    assert got == b.preview(label(probe), table)
                    if table is None:
                        own = set(map(id, a))
                        assert all(id(w) in own for w in got.removed)
                    removals += bool(got.removed)
        assert removals > 50, removals

    def test_equality_covers_attribution(self):
        a = DiversifiedSet()
        b = DiversifiedSet()
        a.merge(ids("1.1"), 0)
        b.merge(ids("1.1"), 1)
        assert a != b
        c = DiversifiedSet()
        c.merge(ids("1.1"), 0)
        assert a == c


class TestNovelty:
    """The novelty fraction, computed by ``diversify.dif``."""

    def test_empty_pool_fresh_results_fully_novel(self):
        assert dif(SlcaSet(ids("1.1", "1.2")), DiversifiedSet()) == 1.0

    def test_empty_fresh_is_zero(self):
        phi = DiversifiedSet()
        phi.merge(ids("1.1"), 0)
        assert dif(SlcaSet(), phi) == 0.0

    def test_both_empty_is_zero(self):
        assert dif(SlcaSet(), DiversifiedSet()) == 0.0

    def test_preview_does_not_mutate(self):
        phi = DiversifiedSet()
        phi.merge(ids("1.2"), 0)
        dif(SlcaSet(ids("1.2.1", "1.3")), phi)
        assert phi.nodes == ids("1.2")

import random

import pytest

from divsearch.dewey import DeweyId, EntityTable
from helpers import common_prefix_len, d, ids, is_ancestor_or_self, prefix_bounds, subtree_bound


class TestConstruction:
    def test_str_round_trip(self):
        for text in ("1", "1.2", "1.2.1", "3.14.15.9"):
            assert str(d(text)) == text

    def test_components_are_a_tuple(self):
        assert DeweyId((1, 2, 1)) == (1, 2, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DeweyId(())

    def test_rejects_nonpositive_components(self):
        with pytest.raises(ValueError):
            DeweyId((1, 0))
        with pytest.raises(ValueError):
            DeweyId((-1,))

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            DeweyId((1, "2"))
        with pytest.raises(ValueError):
            DeweyId((True,))


class TestOrdering:
    def test_lexicographic_is_document_order(self):
        assert d("1.1") < d("1.2") < d("1.2.1") < d("1.3")

    def test_numeric_not_string_comparison(self):
        # component 10 follows component 2
        assert d("1.2") < d("1.10")

    def test_ancestor_precedes_descendant(self):
        assert d("1.2") < d("1.2.1")


class TestRelation:
    """How b relates to a (equal, ancestor, descendant, precedes, follows),
    read off ``common_prefix_len`` and ``<``."""

    def test_ancestor(self):
        a, b = d("1.2"), d("1.2.1")
        assert common_prefix_len(a, b) == len(a) and a < b

    def test_precedes(self):
        a, b = d("1.1"), d("1.2.1")
        assert common_prefix_len(a, b) == 1 and a < b

    def test_equal(self):
        a, b = d("1.2"), d("1.2")
        assert common_prefix_len(a, b) == 2 and not a < b and not b < a

    def test_descendant(self):
        a, b = d("1.2.1"), d("1.2")
        assert common_prefix_len(a, b) == len(b) and b < a

    def test_follows(self):
        a, b = d("1.3"), d("1.2.9")
        assert common_prefix_len(a, b) == 1 and b < a

    def test_exactly_one_relation_holds(self):
        rng = random.Random(7)
        for _ in range(500):
            a = DeweyId(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5))))
            b = DeweyId(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5))))
            k = common_prefix_len(a, b)
            # cross-check against independent predicates
            a_prefix_of_b = len(a) < len(b) and tuple(b[: len(a)]) == tuple(a)
            b_prefix_of_a = len(b) < len(a) and tuple(a[: len(b)]) == tuple(b)
            equal = tuple(a) == tuple(b)
            if equal:
                assert k == len(a) == len(b) and not a < b and not b < a
            elif a_prefix_of_b:
                assert k == len(a) and a < b
            elif b_prefix_of_a:
                assert k == len(b) and b < a
            else:
                # the first differing component decides document order
                assert k < min(len(a), len(b)) and a[:k] == b[:k]
                assert (a < b) == (a[k] < b[k]) != (b < a)


class TestAncestry:
    def test_common_prefix_len(self):
        assert common_prefix_len(d("1.2.3"), d("1.2.5")) == 2
        assert common_prefix_len(d("1"), d("2")) == 0
        assert common_prefix_len(d("1.2"), d("1.2")) == 2


class TestSubtreeBound:
    """The tests' reference for subtree ranges, ``helpers.subtree_bound``."""

    def test_bound_is_next_sibling_slot(self):
        assert subtree_bound(d("1.2")) == d("1.3")
        assert subtree_bound(d("1")) == d("2")

    def test_interval_characterizes_subtree(self):
        # x in [a, bound(a)) iff a is an ancestor of or equal to x
        rng = random.Random(21)
        for _ in range(1000):
            a = DeweyId(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4))))
            x = DeweyId(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6))))
            inside = a <= x < subtree_bound(a)
            assert inside == is_ancestor_or_self(a, x)


class TestPrefixBounds:
    def test_every_prefix_once_in_document_order(self):
        table = EntityTable(ids("1.1", "1.2", "1.2.3", "1.2.5", "1.4.1"))
        assert prefix_bounds(ids("1.2.3", "1.4", "1.2"), table) == (
            (d("1"), 0, 5),
            (d("1.2"), 1, 4),
            (d("1.2.3"), 2, 3),
            (d("1.4"), 4, 5),
        )

    def test_no_nodes_no_prefixes(self):
        assert prefix_bounds((), EntityTable(ids("1"))) == ()

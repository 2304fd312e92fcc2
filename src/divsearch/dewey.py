"""Dewey node labels: hierarchical IDs with document order and ancestry tests.

A Dewey ID is the sequence of 1-based child ordinals on the path from the
root to a node.  Tuple comparison is lexicographic, which coincides with
document order, and ancestry is a strict-prefix test.  ``DeweyId`` is a thin
tuple subclass: all comparisons and hashing come from ``tuple`` for free.

The engines work on entity ordinals instead: positions in an
``EntityTable``, a document-ordered run of distinct Dewey IDs.  The table
maps each entity to its parent, so the SLCA step's ancestor sets hold ints
and make a ``DeweyId`` only for a node that is not an entity.
"""

from __future__ import annotations

from array import array
from typing import Iterable


class DeweyId(tuple):
    """Immutable Dewey label; components are positive ints, root is (1,)."""

    __slots__ = ()

    def __new__(cls, components: Iterable[int]) -> "DeweyId":
        comps = tuple(components)
        if not comps:
            raise ValueError("Dewey ID must have at least one component")
        for c in comps:
            if isinstance(c, bool) or not isinstance(c, int) or c < 1:
                raise ValueError(f"Dewey components must be integers >= 1, got {c!r}")
        return tuple.__new__(cls, comps)

    @classmethod
    def parse(cls, text: str) -> "DeweyId":
        """Parse dot-separated decimal form, e.g. ``"1.2.1"``.

        Leading zeros are allowed, but unlike ``int`` no sign, space,
        underscore or non-ASCII digit.
        """
        if text.isascii() and text.replace(".", "").isdigit():
            try:
                return cls(map(int, text.split(".")))
            except ValueError:  # an empty or zero component
                pass
        raise ValueError(f"invalid Dewey ID {text!r}")

    def __str__(self) -> str:
        return ".".join(str(c) for c in self)

    def __repr__(self) -> str:
        return f"DeweyId({str(self)!r})"


def _trusted(components: tuple[int, ...]) -> DeweyId:
    # Internal fast path: skip validation for components we built ourselves.
    return tuple.__new__(DeweyId, components)


def common_prefix_len(a: DeweyId, b: DeweyId) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def is_ancestor_or_self(a: DeweyId, b: DeweyId) -> bool:
    """True iff a's subtree contains b (prefix test, includes a == b)."""
    return len(a) <= len(b) and b[: len(a)] == tuple(a)


def subtree_bound(a: DeweyId) -> DeweyId:
    """Smallest ID following a's entire subtree in document order.

    Every x with a <= x < subtree_bound(a) is a or a descendant of a, and
    nothing else is; this turns subtree membership into range queries over
    sorted lists.
    """
    return _trusted(tuple(a[:-1]) + (a[-1] + 1,))


class EntityTable:
    """Distinct Dewey IDs in document order, addressed by ordinal.

    ``depths[i]`` is the depth of entity i and ``shared[i]`` its shared
    depth with entity i-1 (0 for the first), as ``common_prefix_len`` gives
    it; ``parents`` builds its map from the two.  Both are typed arrays
    whose item size holds the greatest depth.
    """

    __slots__ = ("deweys", "depths", "shared", "_parents")

    def __init__(self, deweys: Iterable[DeweyId]) -> None:
        self.deweys = tuple(deweys)
        depths = [len(v) for v in self.deweys]
        code = next(c for c in "BHILQ" if max(depths, default=0) < 1 << 8 * array(c).itemsize)
        self.depths = array(code, depths)
        self.shared = array(code, [0])
        self.shared.extend(map(common_prefix_len, self.deweys, self.deweys[1:]))
        self._parents: tuple[list, dict] | None = None

    def parents(self) -> tuple[list, dict]:
        """The parent of every node above or at an entity, built on first use.

        A node is keyed by its ordinal if it is an entity and by its
        ``DeweyId`` otherwise.  Returns ``(up, above)``: ``up[i]`` is the key
        of entity i's parent, ``above[v]`` that of the non-entity node v's;
        the root's parent is None.  One pass in document order keeps the
        entities on the path to the current one, cut to its shared depth
        with the previous entity, so the deepest left is its nearest entity
        ancestor; a sibling of the previous entity takes its parent.  Each
        non-entity node is made once and shared.
        """
        if self._parents is None:
            deweys, depths, shared = self.deweys, self.depths, self.shared
            up: list = []
            above: dict = {}
            made: dict[tuple, DeweyId] = {}  # each non-entity node's one object
            path: list[int] = []  # ends with the previous entity
            last = 0  # its depth
            for i, v in enumerate(deweys):
                if len(v) == last and shared[i] == last - 1:
                    up.append(up[-1])
                    path[-1] = i
                    continue
                last = len(v)
                while path and depths[path[-1]] > shared[i]:
                    path.pop()
                key = path[-1] if path else None
                low = depths[key] if path else 0
                if low < len(v) - 1:  # the parent is not an entity
                    parent = made.get(v[:-1])
                    if parent is None:  # nor made yet: make it and the ones above, root first
                        for depth in range(low + 1, len(v)):
                            node = made.get(v[:depth])
                            if node is None:
                                node = _trusted(v[:depth])
                                made[node] = node
                                above[node] = key
                            key = node
                    else:
                        key = parent
                up.append(key)
                path.append(i)
            self._parents = (up, above)
        return self._parents

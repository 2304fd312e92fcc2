"""Dewey node labels: hierarchical IDs in document order.

A Dewey ID is the sequence of 1-based child ordinals on the path from the
root to a node.  Tuple comparison is lexicographic, which coincides with
document order, and a node's ancestors are its proper prefixes: ancestry
is decided by sets of prefixes or by the range ``[a, subtree_bound(a))``,
not pairwise here.  ``DeweyId`` is a thin tuple subclass: all comparisons
and hashing come from ``tuple`` for free.

The engines work on entity ordinals instead: positions in an
``EntityTable``, a document-ordered run of distinct Dewey IDs.  The table
also gives every node at or above an entity one number, an entity's being
its ordinal, and each node's parent by number, so the SLCA step's ancestor
sets hold ints only.
"""

from __future__ import annotations

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


def subtree_bound(a: DeweyId) -> DeweyId:
    """Smallest ID following a's entire subtree in document order.

    Every x with a <= x < subtree_bound(a) is a or a descendant of a, and
    nothing else is; this turns subtree membership into range queries over
    sorted lists.
    """
    return _trusted(tuple(a[:-1]) + (a[-1] + 1,))


class EntityTable:
    """Distinct Dewey IDs in document order, addressed by ordinal.

    ``tree`` numbers every node at or above an entity: entity i keeps number
    i and each other such node takes the next free number.
    """

    __slots__ = ("deweys", "_tree")

    def __init__(self, deweys: Iterable[DeweyId]) -> None:
        self.deweys = tuple(deweys)
        self._tree: tuple[list[DeweyId], list[int | None]] | None = None

    def tree(self) -> tuple[list[DeweyId], list[int | None]]:
        """The nodes at or above an entity and their parents, built on first use.

        Returns ``(nodes, up)``: ``nodes[x]`` is node x's Dewey ID and
        ``up[x]`` its parent's number, None for the root.  Each entity's
        prefixes are walked upward until one is numbered, numbering the
        others on the way; a loop, as chains may be thousands of levels deep.
        """
        if self._tree is None:
            deweys = self.deweys
            nodes = list(deweys)
            up: list[int | None] = [None] * len(nodes)
            # an entity is an ancestor of another only if the next one is its descendant
            number = {v: i for i, (v, w) in enumerate(zip(deweys, deweys[1:])) if w[: len(v)] == v}
            for i, v in enumerate(deweys):
                child = i
                for depth in range(len(v) - 1, 0, -1):
                    parent = v[:depth]
                    up[child] = n = number.setdefault(parent, len(nodes))
                    if n < len(nodes):
                        break  # an entity, or a node whose walk went on up
                    nodes.append(_trusted(parent))
                    up.append(None)
                    child = n
            self._tree = (nodes, up)
        return self._tree

"""Dewey node labels: hierarchical IDs in document order.

A Dewey ID is the sequence of 1-based child ordinals on the path from the
root to a node.  Tuple comparison is lexicographic, which coincides with
document order, and a node's ancestors are its proper prefixes: ancestry
is decided by sets of prefixes, not pairwise here.  Inside the package a
Dewey ID is a plain tuple of ints, which the garbage collector stops
tracking; ``DeweyId`` is the public, validating form, a thin tuple subclass
that compares and hashes as the plain tuple does.  A report holds
``DeweyId`` objects, and :func:`dewey_text` writes either form.

The engines work on entity ordinals instead: positions in an
``EntityTable``, a document-ordered run of distinct Dewey IDs.  The table
also gives every node at or above an entity one number, an entity's being
its ordinal, and each node's parent by number, in the attributes ``nodes``
and ``up`` that it builds with the table, so the engines' sets hold ints
only; the anchor engine's ``slca.PoolLayout`` finds a node's entities.
Dewey IDs appear only at the edges: the index names entities by their
text, and ``render`` turns the numbers back into ``DeweyId`` objects.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Iterator


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

    def __str__(self) -> str:
        return dewey_text(self)

    def __repr__(self) -> str:
        return f"DeweyId({str(self)!r})"


def dewey_text(dewey: Iterable[int]) -> str:
    """A Dewey ID as the index and the report write it: ``1.2.1``."""
    return ".".join(map(str, dewey))


class EntityTable:
    """Distinct Dewey IDs in document order, addressed by ordinal, and their tree.

    The tree numbers every node at or above an entity: entity i keeps number
    i and each other such node takes the next free number, when the first
    entity below it is walked.  ``nodes[x]`` is node x's Dewey ID and
    ``up[x]`` its parent's number, None for the root.  An entity whose
    parent is already numbered, as most are, takes one lookup.  From any
    other entity the prefixes are walked upward until one is numbered,
    numbering those on the way; a loop, as chains may be thousands of levels
    deep.
    """

    __slots__ = ("deweys", "nodes", "up")
    deweys: tuple[tuple[int, ...], ...]
    nodes: list[tuple[int, ...]]
    up: list[int | None]

    def __init__(self, deweys: Iterable[tuple[int, ...]]) -> None:
        self.deweys = deweys = tuple(deweys)
        self.nodes = nodes = list(deweys)
        self.up = up = [None] * len(nodes)
        # an entity is an ancestor of another only if the next one is its descendant
        number = {v: i for i, (v, w) in enumerate(zip(deweys, deweys[1:])) if w[: len(v)] == v}
        for i, v in enumerate(deweys):
            x = number.get(v[:-1])
            if x is not None:  # the parent is an entity, or a node numbered before
                up[i] = x
                continue
            child = i
            for depth in range(len(v) - 1, 0, -1):
                parent = v[:depth]
                up[child] = n = number.setdefault(parent, len(nodes))
                if n < len(nodes):
                    break  # an entity, or a node whose walk went on up
                nodes.append(parent)
                up.append(None)
                child = n

    def dewey_ids(self, numbers: Iterable[int]) -> Iterator[DeweyId]:
        """The nodes of the given tree numbers as ``DeweyId`` objects, in that order.

        Each node is a Dewey ID already, so ``DeweyId``'s checks are not repeated.
        """
        return map(partial(tuple.__new__, DeweyId), map(self.nodes.__getitem__, numbers))

    def render(self, numbers: Iterable[int]) -> tuple[DeweyId, ...]:
        """The nodes of the given tree numbers as ``DeweyId`` objects, in document order."""
        return tuple(sorted(self.dewey_ids(numbers)))

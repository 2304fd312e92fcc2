"""Dewey node labels: hierarchical IDs with document order and ancestry tests.

A Dewey ID is the sequence of 1-based child ordinals on the path from the
root to a node.  Tuple comparison is lexicographic, which coincides with
document order, and ancestry is a strict-prefix test.  Both facts are relied
on heavily by the search engines, so ``DeweyId`` is a thin tuple subclass:
all comparisons and hashing come from ``tuple`` for free.
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
        """Parse dot-separated decimal form, e.g. ``"1.2.1"``."""
        try:
            return cls(int(part) for part in text.split("."))
        except ValueError as exc:
            raise ValueError(f"invalid Dewey ID {text!r}") from exc

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


def prefix_bounds(nodes: Iterable[DeweyId]) -> tuple[tuple[DeweyId, DeweyId], ...]:
    """Every distinct prefix of the nodes, in document order, with its bound.

    A node is a prefix of itself; each prefix p comes paired with
    ``subtree_bound(p)``.
    """
    prefixes = {_trusted(v[:plen]) for v in nodes for plen in range(1, len(v) + 1)}
    return tuple((p, subtree_bound(p)) for p in sorted(prefixes))

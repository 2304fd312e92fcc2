"""SLCA computation and maintenance of the distinct result set.

``compute_slca`` finds the smallest lowest common ancestors of a family of
sorted node lists: nodes whose subtree contains at least one node from every
list while no descendant's subtree does.  It is the whole cost of a
baseline query once segments are shared, so its probe loop is written out
inline.  ``DiversifiedSet`` accumulates results across accepted intents
with the merge semantics used for novelty scoring: duplicates and ancestors
of existing members are dropped, descendants replace the member they
refine, everything else inserts.  It also keeps the prefixes of its
members for the anchor engine, rebuilt only after the pool changes.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .dewey import DeweyId, _trusted, is_ancestor_or_self, prefix_bounds


@dataclass(frozen=True)
class SlcaSet:
    """Document-ordered, duplicate-free antichain of result nodes."""

    nodes: tuple[DeweyId, ...] = ()

    def __iter__(self) -> Iterator[DeweyId]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, i: int) -> DeweyId:
        return self.nodes[i]


def compute_slca(lists: Sequence[Sequence[DeweyId]]) -> SlcaSet:
    """SLCA set of one sorted, duplicate-free node list per query segment.

    Indexed Lookup Eager: each node of the shortest list (the driver) is
    cut down, list by list, to its longest common prefix with any member
    of the other list.  That member is always adjacent to the node's
    insertion point, so one binary search and at most two probes per list
    suffice; when the member at the insertion point lies in the node's
    subtree, the node itself is the prefix and no prefix is computed.  Cost
    is |shortest list| binary searches into each other list.  The driver is
    picked by position, so a list may appear twice.  An empty member list
    means no node can cover every segment: empty result.
    """
    if not lists:
        raise ValueError("compute_slca requires at least one node list")
    if any(not lst for lst in lists):
        return SlcaSet()
    driver_pos = min(range(len(lists)), key=lambda i: len(lists[i]))
    driver = lists[driver_pos]
    others = [(lst, len(lst)) for i, lst in enumerate(lists) if i != driver_pos]

    candidates: set[DeweyId] = set()
    for v in driver:
        x = v
        for lst, size in others:
            n = len(x)
            j = bisect_left(lst, x)
            best = 0
            if j < size:
                y = lst[j]
                if y[:n] == x:
                    continue  # x is y or an ancestor of y: nothing to cut
                for a, b in zip(x, y):
                    if a != b:
                        break
                    best += 1
            if j:
                k = 0
                for a, b in zip(x, lst[j - 1]):
                    if a != b:
                        break
                    k += 1
                if k > best:
                    best = k
            if not best:
                break  # no common root with this list: no candidate
            x = _trusted(x[:best])
        else:
            candidates.add(x)

    # Keep minimal candidates only; in sorted order an ancestor's nearest
    # strict descendant is its immediate successor.
    ordered = sorted(candidates)
    keep = [
        c
        for i, c in enumerate(ordered)
        if i + 1 == len(ordered) or not is_ancestor_or_self(c, ordered[i + 1])
    ]
    return SlcaSet(tuple(keep))


@dataclass(frozen=True)
class MergeOutcome:
    """Net effect of merging one fresh result set into the distinct pool."""

    inserted: tuple[DeweyId, ...]
    removed: tuple[DeweyId, ...]
    union_size: int

    @property
    def distinct_count(self) -> int:
        return len(self.inserted)

    def novelty(self) -> float:
        if self.union_size == 0:
            return 0.0
        return self.distinct_count / self.union_size


class DiversifiedSet:
    """The running distinct SLCA pool with per-intent attribution."""

    def __init__(self) -> None:
        self._nodes: list[DeweyId] = []
        self._owner: dict[DeweyId, int] = {}
        self._by_owner: dict[int, set[DeweyId]] = {}
        self._prefixes: tuple[tuple[DeweyId, DeweyId], ...] | None = None

    @property
    def nodes(self) -> tuple[DeweyId, ...]:
        return tuple(self._nodes)

    def prefix_bounds(self) -> tuple[tuple[DeweyId, DeweyId], ...]:
        """``dewey.prefix_bounds`` of the members, built once per pool version.

        Only ``apply`` and ``remove_intent`` change the pool; both drop the
        built copy, so every intent evaluated in between reuses it.
        """
        if self._prefixes is None:
            self._prefixes = prefix_bounds(self._nodes)
        return self._prefixes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[DeweyId]:
        return iter(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiversifiedSet):
            return NotImplemented
        return self._nodes == other._nodes and self._owner == other._owner

    def preview(self, fresh: Iterable[DeweyId]) -> MergeOutcome:
        """Dry-run merge: what would change, without mutating the pool."""
        nodes = list(self._nodes)
        inserted: list[DeweyId] = []
        removed: list[DeweyId] = []
        for v in fresh:
            i = bisect_left(nodes, v)
            if i < len(nodes) and nodes[i] == v:
                continue  # duplicate
            if i < len(nodes) and is_ancestor_or_self(v, nodes[i]):
                continue  # coarser than an existing member
            if i > 0 and is_ancestor_or_self(nodes[i - 1], v):
                removed.append(nodes[i - 1])
                nodes[i - 1] = v  # descendant refines its ancestor in place
            else:
                nodes.insert(i, v)
            inserted.append(v)
        return MergeOutcome(inserted=tuple(inserted), removed=tuple(removed), union_size=len(nodes))

    def apply(self, outcome: MergeOutcome, intent_id: int) -> None:
        """Commit a previously previewed merge, attributing inserts."""
        self._prefixes = None
        for w in outcome.removed:
            self._discard(w)
        bucket = self._by_owner.setdefault(intent_id, set())
        for v in outcome.inserted:
            insort(self._nodes, v)
            self._owner[v] = intent_id
            bucket.add(v)

    def merge(self, fresh: Iterable[DeweyId], intent_id: int) -> MergeOutcome:
        outcome = self.preview(fresh)
        self.apply(outcome, intent_id)
        return outcome

    def remove_intent(self, intent_id: int) -> None:
        """Drop every node still attributed to an evicted intent."""
        self._prefixes = None
        for v in sorted(self._by_owner.pop(intent_id, ())):
            self._discard(v)

    def _discard(self, v: DeweyId) -> None:
        i = bisect_left(self._nodes, v)
        del self._nodes[i]
        owner = self._owner.pop(v)
        bucket = self._by_owner.get(owner)
        if bucket is not None:
            bucket.discard(v)
            if not bucket:
                del self._by_owner[owner]


def merge_distinct(
    phi: DiversifiedSet, fresh: SlcaSet, intent_id: int
) -> tuple[DiversifiedSet, int, int]:
    """Merge fresh results into phi; returns (phi, distinctCount, unionSize)."""
    outcome = phi.merge(fresh, intent_id)
    return phi, outcome.distinct_count, outcome.union_size

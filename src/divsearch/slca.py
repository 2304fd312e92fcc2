"""SLCA computation and maintenance of the distinct result set.

``compute_slca`` finds the smallest lowest common ancestors of a family of
sorted node lists: nodes whose subtree contains at least one node from every
list while no descendant's subtree does.  It is the whole cost of a
baseline query once segments are shared, so it works on node numbers
(``EntityTable.tree``, an entity's being its ordinal) and each list's
ancestor set (``proper_ancestors``, built once per segment), and
intersects the sets in C: the nodes covering every list form a subtree
closed under ancestors, and its leaves are the SLCAs.
``DiversifiedSet`` accumulates results across accepted intents
with the merge semantics used for novelty scoring: duplicates and
ancestors of existing members are dropped, descendants replace the member
they refine, everything else inserts.  Pool and results are antichains, so
the merge is set algebra on Dewey prefixes (``proper_prefixes``).  Each
member is attributed to the intent that inserted it, in one map, so an
evicted intent's members can be found and dropped.  For the anchor engine
the pool also places each node among the entities once, with the tree
numbers of its prefixes, and keeps that placement for its life; after each
change a layout of the members (``PoolLayout``) is gathered from the kept
placements.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import chain, filterfalse
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .dewey import DeweyId, EntityTable, _trusted, subtree_bound


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


AncestorSet = frozenset  # of node numbers (EntityTable.tree), see proper_ancestors

# compute_slca bisects the cover into a list this many times longer than it;
# the break-even measured against 102,541 entities lies between 25 and 34
BISECT_RATIO = 32


def proper_ancestors(nodes: Sequence[int], table: EntityTable) -> AncestorSet:
    """P(L): every proper ancestor of an entity in the ordinal list ``nodes``.

    Each ancestor is named by its number in ``table.tree()``, an entity's
    being its ordinal, as list members are, so a list and these sets
    intersect directly.  The set grows a level at a time, from the members'
    parents up to the root; every step runs in C.
    """
    up = table.tree()[1]
    out: set = set()
    level = set(map(up.__getitem__, nodes))
    while level:
        level.discard(None)
        level -= out
        out |= level
        level = set(map(up.__getitem__, level))
    return frozenset(out)


def proper_prefixes(nodes: Iterable[DeweyId]) -> set:
    """Every proper prefix of the nodes: all their proper ancestors, as tuples."""
    return {v[:n] for v in nodes for n in range(1, len(v))}


def compute_slca(
    lists: Sequence[Sequence[int]] | Sequence[Sequence[DeweyId]],
    table: EntityTable | None = None,
    ancestors: Sequence[AncestorSet] | None = None,
) -> SlcaSet:
    """SLCA set of one sorted, duplicate-free node list per query segment.

    The lists hold ordinals of ``table``'s entities.  Without a table they
    hold Dewey IDs, and a table is built from their union first.
    ``ancestors`` holds ``proper_ancestors`` of each list against ``table``;
    a query builds them once per segment, and without them they are built
    here.  An empty member list means no node can cover every segment:
    empty result.

    A node covers list i iff it is in L_i or in P(L_i).  Starting from the
    shortest list s, the cover is P(L_s) | L_s; each other list cuts it to
    (cover & P(L_i)) | (cover & L_i), set operations that run in C.  The
    second term walks all of L_i, so against a list more than
    ``BISECT_RATIO`` times longer than the cover it is found instead by
    bisecting into L_i the cover's entities outside P(L_i), the numbers
    below the entity count.  The cover is then every node covering all the
    lists.  It is closed under ancestors, so a member has a descendant in
    the cover iff it is the parent of a member; the others are the SLCAs.
    Only they are turned into Dewey IDs and sorted, by number first, so the
    entities come as one sorted run.  The work is linear in the lists'
    total length, or in the cover's times log |L_i| when the cover is that
    much shorter.
    """
    if not lists:
        raise ValueError("compute_slca requires at least one node list")
    if any(not lst for lst in lists):
        return SlcaSet()
    if table is None:
        nodes = sorted(set().union(*lists))
        table = EntityTable(nodes)
        ordinal = {v: i for i, v in enumerate(nodes)}
        lists = [[ordinal[v] for v in lst] for lst in lists]
    if ancestors is None:
        ancestors = [proper_ancestors(lst, table) for lst in lists]
    entities = len(table.deweys)
    s = min(range(len(lists)), key=lambda i: len(lists[i]))
    cover = ancestors[s].union(lists[s])
    for i, (lst, above) in enumerate(zip(lists, ancestors)):
        if i == s or not cover:
            continue
        size = len(lst)
        if len(cover) * BISECT_RATIO < size:
            inside = cover & above
            cover = inside.union(
                [
                    x
                    for x in cover - inside
                    if x < entities and (j := bisect_left(lst, x)) < size and lst[j] == x
                ]
            )
        else:
            cover = cover.intersection(lst) | (cover & above)
    nodes, up = table.tree()
    leaves = cover.difference(map(up.__getitem__, cover))
    found = list(map(nodes.__getitem__, sorted(leaves)))
    found.sort()  # the entities come first, as one sorted run
    return SlcaSet(tuple(found))


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


@dataclass(eq=False)
class PoolLayout:
    """The members of a pool placed among the entities of ``table``.

    ``cuts`` holds three ordinals per member, in document order: ``lo``,
    the start of its strict descendants (``lo + 1`` if the member is itself
    an entity, else ``lo``) and ``hi``, so that the entities of its subtree
    are ``lo .. hi-1``.  The members form an antichain, so ``cuts`` never
    falls.  ``hidden`` holds, ascending, every entity that is a proper
    ancestor of some member.  ``prefixes`` holds the tree number
    (``EntityTable.tree``) of every prefix of the members that holds an
    entity, a member being a prefix of itself; it is closed under parents.
    ``lists`` is the anchor partition's cache of each segment list cut at
    this layout (``anchors.partition_areas``), keyed by the list's ``id``;
    it lives as long as the layout, one pool version.
    """

    table: EntityTable
    cuts: tuple[int, ...]
    hidden: tuple[int, ...]
    prefixes: frozenset
    lists: dict[int, tuple] = field(default_factory=dict)

    @classmethod
    def build(
        cls, nodes: Sequence[DeweyId], table: EntityTable, placed: dict | None = None
    ) -> "PoolLayout":
        """Lay out the document-ordered antichain ``nodes`` from their placements.

        ``placed`` maps each node placed against ``table`` so far, members
        and their prefixes, to its ``place`` row; nodes missing from it are
        placed and added.  The hidden entities are the prefixes' numbers
        below the entity count, less the members that are entities.
        """
        placed = {} if placed is None else placed
        rows = [placed.get(v) or place(v, table, placed) for v in nodes]
        cuts = tuple(chain.from_iterable(map(itemgetter(0), rows)))
        prefixes = frozenset(chain.from_iterable(map(itemgetter(1), rows)))
        members = {lo for lo, start in zip(cuts[::3], cuts[1::3]) if start > lo}
        hidden = sorted(filter(len(table.deweys).__gt__, prefixes - members))
        return cls(table, cuts, tuple(hidden), prefixes)


def place(v: DeweyId, table: EntityTable, placed: dict) -> tuple:
    """Place node ``v`` and each of its prefixes not yet in ``placed``.

    A node's row is ``(cut, prefixes)``: its three ``PoolLayout`` cuts and
    the tree numbers of its prefixes that hold an entity, root first.  A
    prefix's span lies inside its parent's, so it is found by two bisects
    into the parent's span only.  Its number is its first entity ``lo``
    walked up once per level between them, and it is that entity iff the
    walk is empty.
    """
    deweys = table.deweys
    up = table.tree()[1]
    row: tuple = ((0, 0, len(deweys)), ())
    for n in range(1, len(v) + 1):
        got = placed.get(v[:n])
        if got is None:
            (lo, start, hi), prefixes = row
            p = _trusted(v[:n])
            lo = start = bisect_left(deweys, p, lo, hi)
            hi = bisect_left(deweys, subtree_bound(p), lo, hi)
            if lo < hi:
                x = lo
                for _ in range(len(deweys[lo]) - n):
                    x = up[x]
                start += x == lo
                prefixes += (x,)
            got = placed[p] = ((lo, start, hi), prefixes)
        row = got
    return row


class DiversifiedSet:
    """The running distinct SLCA pool with per-intent attribution."""

    def __init__(self) -> None:
        self._nodes: list[DeweyId] = []
        self._owner: dict[DeweyId, int] = {}
        self._above: set | None = None  # every prefix of a member, members too
        self._layout: PoolLayout | None = None
        self._placed: tuple[EntityTable, dict] | None = None

    @property
    def nodes(self) -> tuple[DeweyId, ...]:
        return tuple(self._nodes)

    def layout(self, table: EntityTable) -> PoolLayout:
        """The members placed among ``table``'s entities, once per pool version.

        Only ``apply`` and ``remove_intent`` change the pool; both drop the
        built layout, so every intent evaluated in between reuses it.  Each
        node is placed once for the life of the pool: its row (``place``)
        is kept, departed members' too, until a layout is asked of another
        table, and a new version is built from the kept rows.
        """
        if self._layout is None or self._layout.table is not table:
            if self._placed is None or self._placed[0] is not table:
                self._placed = (table, {})
            self._layout = PoolLayout.build(self._nodes, table, self._placed[1])
        return self._layout

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[DeweyId]:
        return iter(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiversifiedSet):
            return NotImplemented
        return self._nodes == other._nodes and self._owner == other._owner

    def preview(self, fresh: Iterable[DeweyId]) -> MergeOutcome:
        """Dry-run merge: what would change, without mutating the pool.

        ``fresh`` must be a document-ordered antichain, as every ``SlcaSet``
        is; the members are one too.  A fresh result is dropped iff it is a
        member or a proper prefix of one, a set built once per pool version;
        the others insert, in input order.  A member is removed iff it is a
        proper prefix of an inserted result (no dropped one has any).  The
        union is the members less the removed, plus the inserted.
        """
        if self._above is None:
            self._above = proper_prefixes(self._nodes).union(self._nodes)
        inserted = tuple(filterfalse(self._above.__contains__, fresh))
        # iterating the members keeps their DeweyId objects
        removed = tuple(sorted(proper_prefixes(inserted).intersection(self._nodes)))
        return MergeOutcome(inserted, removed, len(self._nodes) - len(removed) + len(inserted))

    def apply(self, outcome: MergeOutcome, intent_id: int) -> None:
        """Commit a previously previewed merge, attributing inserts."""
        self._above = self._layout = None
        for w in outcome.removed:
            self._discard(w)
        for v in outcome.inserted:
            insort(self._nodes, v)
            self._owner[v] = intent_id

    def merge(self, fresh: Iterable[DeweyId], intent_id: int) -> MergeOutcome:
        outcome = self.preview(fresh)
        self.apply(outcome, intent_id)
        return outcome

    def remove_intent(self, intent_id: int) -> None:
        """Drop every node still attributed to an evicted intent."""
        self._above = self._layout = None
        for v in [v for v in self._nodes if self._owner[v] == intent_id]:
            self._discard(v)

    def _discard(self, v: DeweyId) -> None:
        del self._nodes[bisect_left(self._nodes, v)]
        del self._owner[v]


def merge_distinct(
    phi: DiversifiedSet, fresh: SlcaSet, intent_id: int
) -> tuple[DiversifiedSet, int, int]:
    """Merge fresh results into phi; returns (phi, distinctCount, unionSize)."""
    outcome = phi.merge(fresh, intent_id)
    return phi, outcome.distinct_count, outcome.union_size

"""SLCA computation and maintenance of the distinct result set.

``compute_slca`` finds the smallest lowest common ancestors of a family of
sorted node lists: nodes whose subtree contains at least one node from every
list while no descendant's subtree does.  It is the whole cost of a
baseline query once segments are shared, so it works on node numbers
(``EntityTable.nodes``, an entity's being its ordinal) and each list's
cover set C(L), the list's members and their proper ancestors
(``proper_ancestors``), built once per segment.  The nodes covering every
list are the intersection of those sets, a subtree closed under
ancestors; its leaves are the SLCAs, returned as numbers.  Each step of
the intersection runs in C over the smaller of two sets and reads no list.
That cover rule and leaf step are written once, in ``cover_leaves``, which
the anchor engine's covered count shares; the anchor engine's live nodes,
parts of the lists, are solved against the whole lists' ancestor sets.
``DiversifiedSet`` accumulates results across accepted intents
with the merge semantics used for novelty scoring: duplicates and
ancestors of existing members are dropped, descendants replace the member
they refine, everything else inserts.  Pool and results are antichains, so
the merge is set algebra on the members and their proper ancestors, by
tree number (``proper_ancestors``) when the evaluator passes the table and
by Dewey prefix (``proper_prefixes``) when it passes none.  Each member is
attributed to the intent that inserted it, in one map, so an evicted
intent's members can be found and dropped.  For the anchor engine alone
the members are laid out by their entity spans (``PoolLayout``), once per
pool version; each member's cut is bisected out of the table's sorted
entities once, and kept while the member stays in the pool.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, filterfalse
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .dewey import DeweyId, EntityTable


class SlcaSet(tuple):
    """Duplicate-free antichain of result nodes; ``nodes`` is the tuple itself.

    They are Dewey IDs in document order, or tree numbers ascending.
    """

    __slots__ = ()

    @property
    def nodes(self) -> tuple:
        return self


AncestorSet = frozenset  # of node numbers (EntityTable.nodes), see proper_ancestors
CoverSet = frozenset  # a list's members and their proper ancestors, C(L) = L | P(L)


def proper_ancestors(nodes: Sequence[int], table: EntityTable) -> AncestorSet:
    """P(L): every proper ancestor of an entity in the ordinal list ``nodes``.

    Each ancestor is named by its number in ``table``'s tree, an entity's
    being its ordinal, as list members are, so a list and these sets
    intersect directly.  The set grows a level at a time, from the members'
    parents up to the root; every step runs in C.
    """
    up = table.up
    out: set = set()
    level = set(map(up.__getitem__, nodes))
    while level:
        level.discard(None)
        level -= out
        out |= level
        level = set(map(up.__getitem__, level))
    return frozenset(out)


def proper_prefixes(nodes: Iterable[tuple[int, ...]]) -> set:
    """Every proper prefix of the nodes: all their proper ancestors, as tuples."""
    return {v[:n] for v in nodes for n in range(1, len(v))}


def compute_slca(
    lists: Sequence[Sequence[int]] | Sequence[Sequence[tuple[int, ...]]],
    table: EntityTable | None = None,
    ancestors: Sequence[AncestorSet] | None = None,
    *,
    covers: Sequence[CoverSet] | None = None,
) -> SlcaSet:
    """SLCA set of one sorted, duplicate-free node list per query segment.

    The lists hold ordinals of ``table``'s entities, and the result holds
    tree numbers.  Without a table the lists hold Dewey IDs, a table is
    built from their union first, and the result is rendered to Dewey IDs;
    sets are then refused, as they would name nodes of another table.  An
    empty member list means no node can cover every segment: empty result.

    A node covers list i iff it is in C(L_i) = L_i | P(L_i).  Given
    ``covers``, each list's C(L) (``intents.Segment.cover``, built once per
    segment), the SLCAs are the leaves of their intersection, found by
    :func:`cover_leaves` without reading a list: each step iterates the
    smaller set.  Given ``ancestors`` instead, each list's P(L), the lists
    may be parts of the lists the sets were built from, as the anchor
    engine's live nodes are: the cover starts as P(L_s) | L_s for the
    shortest list s and each other list cuts it to (cover & L) |
    (cover & P(L)), reading every list node.  With neither, the covers are
    built here.  The SLCAs are returned sorted.
    """
    if not lists:
        raise ValueError("compute_slca requires at least one node list")
    dewey = table is None
    if dewey and (ancestors is not None or covers is not None):
        raise ValueError("compute_slca takes sets only with the table that numbers them")
    if any(not lst for lst in lists):
        return SlcaSet()
    if dewey:
        nodes = sorted(set().union(*lists))
        table = EntityTable(nodes)
        ordinal = {v: i for i, v in enumerate(nodes)}
        lists = [[ordinal[v] for v in lst] for lst in lists]
    if covers is None and ancestors is None:
        covers = [proper_ancestors(lst, table).union(lst) for lst in lists]
    if covers is not None:
        smallest, *others = sorted(covers, key=len)
        leaves = cover_leaves(smallest, others, table)
    else:
        pairs = list(zip(lists, ancestors))
        shortest, cover = pairs.pop(min(range(len(lists)), key=lambda i: len(lists[i])))
        cover = cover.union(shortest)
        for lst, above in pairs:
            if not cover:
                break
            cover = cover.intersection(lst) | (cover & above)
        leaves = cover_leaves(cover, (), table)
    leaves = sorted(leaves)
    return SlcaSet(table.render(leaves) if dewey else leaves)


def cover_leaves(cover: frozenset, covers: Iterable[CoverSet], table: EntityTable) -> frozenset:
    """The minimal nodes of ``cover`` that lie in every one of ``covers``: the cover rule.

    ``cover`` is a set of ``table``'s tree numbers closed under ancestors,
    and ``covers`` holds each list's C(L), its members and their proper
    ancestors, so a node covers a list iff it is in its set.  Each set cuts
    the cover by one intersection of two sets, which iterates the smaller
    one and no list; an empty cover ends the cuts.  What is left is still
    closed under ancestors, so a member has a descendant in it iff it is
    the parent of a member; the others are returned.
    """
    for other in covers:
        if not cover:
            break
        cover = cover & other
    up = table.up
    return cover.difference(map(up.__getitem__, cover))


class MergeOutcome(NamedTuple):
    """Net effect of merging one fresh result set into the distinct pool."""

    inserted: tuple
    removed: tuple
    union_size: int

    @property
    def distinct_count(self) -> int:
        return len(self.inserted)

    def novelty(self) -> float:
        if self.union_size == 0:
            return 0.0
        return self.distinct_count / self.union_size


class PoolLayout:
    """The members of a pool, tree numbers, laid out among their table's entities.

    ``cuts`` holds three ordinals per member, ordered by the first: ``lo``,
    the start of its strict descendants (``lo + 1`` if the member is itself
    an entity, else ``lo``) and ``hi``: its subtree's entities are
    ``lo .. hi-1``, found in the table's sorted ``deweys``.  An entity's
    ``lo`` is its ordinal, another node's where its Dewey ID bisects them;
    ``hi`` is ``lo + 1`` unless entity ``lo + 1`` lies below the member,
    and then where the member's next sibling bisects them.  The members
    form an antichain, so ``cuts`` never falls.  ``prefixes`` holds the
    members and their proper ancestors, the set the pool's merge tests
    against, and ``hidden``, ascending, those ancestors that are entities.
    ``lists`` is the anchor partition's cache of each segment list cut at
    this layout (``anchors.partition_areas``), keyed by the list's ``id``;
    it lives as long as the layout, one pool version.
    """

    __slots__ = ("cuts", "hidden", "prefixes", "lists")

    def __init__(self, cuts: tuple[int, ...], hidden: tuple[int, ...], prefixes: frozenset) -> None:
        self.cuts, self.hidden, self.prefixes = cuts, hidden, prefixes
        self.lists: dict[int, tuple] = {}

    @classmethod
    def build(
        cls, nodes: Iterable[int], prefixes: frozenset, table: EntityTable, known: dict
    ) -> "PoolLayout":
        """Lay out the antichain ``nodes``, with ``prefixes`` them and their proper ancestors.

        ``known`` maps members to their cuts; a member without one gets its
        cut here, and ``known`` keeps it for the next layout.
        """
        deweys, tree = table.deweys, table.nodes
        entities = len(deweys)
        cuts = []
        for x in nodes:
            cut = known.get(x)
            if cut is None:
                v = tree[x]
                lo = x if x < entities else bisect_left(deweys, v)
                hi = lo + 1
                if hi < entities and deweys[hi][: len(v)] == v:  # most members span one entity
                    hi = bisect_left(deweys, (*v[:-1], v[-1] + 1), hi)
                cut = known[x] = (lo, lo + (x < entities), hi)
            cuts.append(cut)
        hidden = sorted(filter(entities.__gt__, prefixes.difference(nodes)))
        return cls(tuple(chain.from_iterable(sorted(cuts))), tuple(hidden), prefixes)


class DiversifiedSet:
    """The running distinct SLCA pool with per-intent attribution.

    Its members are tree numbers of one ``EntityTable`` if the evaluators
    pass that table to ``preview``, and Dewey IDs if they pass none;
    ``rendered`` turns the first kind of pool into the second.  The pool is
    one map, member to the intent that inserted it; ``nodes`` and iteration
    sort its keys on read, so Dewey IDs come in document order and tree
    numbers ascending.
    """

    def __init__(self) -> None:
        self._owner: dict = {}
        self._above: frozenset | set | None = None  # the members and their proper ancestors
        self._layout: PoolLayout | None = None
        self._cuts: dict = {}  # member -> its cut, kept while it stays (PoolLayout.build)

    @property
    def nodes(self) -> tuple:
        return tuple(sorted(self._owner))

    def _members_and_above(self, table: EntityTable | None) -> frozenset | set:
        if self._above is None:
            self._above = _proper(self._owner, table).union(self._owner)
        return self._above

    def layout(self, table: EntityTable) -> PoolLayout:
        """The members laid out among ``table``'s entities, once per pool version.

        Only ``apply`` and ``remove_intent`` change the pool; both drop the
        built layout, so every intent evaluated in between reuses it, and
        its prefixes are the set the merge tests against.  They keep the
        cuts of the members that stay, which the next layout reuses.
        """
        if self._layout is None:
            above = self._members_and_above(table)
            self._layout = PoolLayout.build(self._owner, above, table, self._cuts)
        return self._layout

    def rendered(self, ids: Mapping[int, DeweyId]) -> "DiversifiedSet":
        """This pool of tree numbers as a pool of their Dewey IDs, ``ids[x]`` for member x."""
        out = DiversifiedSet()
        out._owner = dict(zip(map(ids.__getitem__, self._owner), self._owner.values()))
        return out

    def __len__(self) -> int:
        return len(self._owner)

    def __iter__(self) -> Iterator:
        return iter(self.nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiversifiedSet):
            return NotImplemented
        return self._owner == other._owner

    def preview(self, fresh: Iterable, table: EntityTable | None = None) -> MergeOutcome:
        """Dry-run merge: what would change, without mutating the pool.

        ``fresh`` must be an antichain, as every ``SlcaSet`` is, labelled as
        the members are: tree numbers of ``table``, or Dewey IDs if it is
        None.  A fresh result is dropped iff it is a member or a proper
        ancestor of one, a set built once per pool version; the others
        insert, in input order.  A member is removed iff it is a proper
        ancestor of an inserted result (no dropped one has any).  The union
        is the members less the removed, plus the inserted.
        """
        inserted = tuple(filterfalse(self._members_and_above(table).__contains__, fresh))
        # iterating the map's keys keeps the members' own objects
        removed = tuple(sorted(_proper(inserted, table).intersection(self._owner)))
        return MergeOutcome(inserted, removed, len(self._owner) - len(removed) + len(inserted))

    def apply(self, outcome: MergeOutcome, intent_id: int) -> None:
        """Commit a previously previewed merge, attributing inserts."""
        self._above = self._layout = None
        for w in outcome.removed:
            del self._owner[w]
            self._cuts.pop(w, None)
        for v in outcome.inserted:
            self._owner[v] = intent_id

    def merge(self, fresh: Iterable, intent_id: int) -> MergeOutcome:
        outcome = self.preview(fresh)
        self.apply(outcome, intent_id)
        return outcome

    def remove_intent(self, intent_id: int) -> None:
        """Drop every node still attributed to an evicted intent."""
        self._above = self._layout = None
        for v in [v for v, owner in self._owner.items() if owner == intent_id]:
            del self._owner[v]
            self._cuts.pop(v, None)


def _proper(nodes: Sequence, table: EntityTable | None) -> frozenset | set:
    """P(nodes): tree numbers by ``proper_ancestors``, or Dewey prefixes without a table."""
    return proper_prefixes(nodes) if table is None else proper_ancestors(nodes, table)


def merge_distinct(
    phi: DiversifiedSet, fresh: SlcaSet, intent_id: int
) -> tuple[DiversifiedSet, int, int]:
    """Merge fresh results into phi; returns (phi, distinctCount, unionSize)."""
    outcome = phi.merge(fresh, intent_id)
    return phi, outcome.distinct_count, outcome.union_size

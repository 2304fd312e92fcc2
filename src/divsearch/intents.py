"""Intent generation: enumerate feature combinations in best-first order.

An intent pairs every query keyword with one of its matrix features; the
stream is ordered by aggregated MI descending, ties resolved by the chosen
feature names ascending column by column, and made down a spanning tree of
the combinations, each once, with no set of those seen.  A keyword whose
feature column is empty degrades to a bare segment (its full posting list,
likelihood factor 1) so that multi-keyword queries stay usable.  A segment's node list holds
entity ordinals, as the postings do, so intersections compare ints; the
segment also carries the list's ancestor and cover sets for the SLCA step.
``iter_intents`` is the intent stream of the baseline and anchor engines:
it cuts the enumeration at the query's budget, resolves each distinct
segment once per query and shares it between the intents that use it.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Iterator, NamedTuple

from .features import FeatureEntry, FeatureMatrix
from .indexing import IndexBundle
from .slca import AncestorSet, CoverSet, proper_ancestors


class Segment(NamedTuple):
    """One keyword with its chosen context; feature None = bare keyword.

    ``ancestors`` is ``slca.proper_ancestors`` of the node list, P(L), and
    ``cover`` the list's members and those ancestors, C(L) = L | P(L): the
    nodes that cover the segment.  ``resolve_segment`` builds both, so
    every intent sharing the segment reuses them; they live as long as the
    query's segment memo.  They are derived from the node list, so they
    take no part in equality or hashing.
    """

    keyword: str
    feature: str | None
    node_list: tuple[int, ...]  # entity ordinals, ascending
    feature_list_size: int
    ancestors: AncestorSet
    cover: CoverSet

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Segment) and self[:4] == other[:4]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:4])


class IntentQuery(NamedTuple):
    segments: tuple[Segment, ...]
    agg_mi: float

    @property
    def lex_key(self) -> tuple[str, ...]:
        """Chosen feature names, for deterministic tie-breaking."""
        return tuple(s.feature or "" for s in self.segments)

    def segment_keys(self) -> tuple[tuple[str, str | None], ...]:
        return tuple((s.keyword, s.feature) for s in self.segments)

    def label(self) -> str:
        return " ".join(
            f"{s.keyword}:{s.feature}" if s.feature else s.keyword for s in self.segments
        )


def segment_node_list(keyword: str, feature: str, index: IndexBundle) -> tuple[int, ...]:
    """Entities containing both terms: sorted intersection of their postings."""
    a = index.posting(keyword)
    b = index.posting(feature)
    if len(a) > len(b):
        a, b = b, a
    # a set of the shorter list holds the peak down; b filtered stays sorted
    return tuple(filter(set(a).__contains__, b))


def resolve_segment(keyword: str, feature: str | None, index: IndexBundle) -> Segment:
    """The segment's node list, its feature's posting length, and its ancestor and cover sets.

    The cover is built as ``ancestors.union(nodes)``, a copy of one set
    grown by the list: for a 2,188-node ``hub`` segment it takes 64 KB,
    half of what ``frozenset(nodes) | ancestors`` takes.
    """
    if feature is None:
        nodes = index.posting(keyword)
        size = len(nodes)
    else:
        nodes = segment_node_list(keyword, feature, index)
        size = len(index.posting(feature))
    ancestors = proper_ancestors(nodes, index.entity_table)
    return Segment(keyword, feature, nodes, size, ancestors, ancestors.union(nodes))


def iter_combinations(
    matrix: FeatureMatrix,
) -> Iterator[tuple[tuple[FeatureEntry | None, ...], float]]:
    """Yield every feature combination once, best aggregated MI first.

    A best-first walk down a spanning tree of the index lattice (reverse
    search), with no visited set: a state's parent is the state with its
    last advanced slot stepped back by one, so a popped state pushes
    successors only in that slot and the slots after it, and every state
    enters the heap exactly once, in any column order.  With each column in
    (MI descending, name ascending) order, as ``top_features`` builds it,
    the heap key (-aggMi, names) never falls along an edge, so the pops are
    that key's order: the aggregate, summed in slot order, cannot rise when
    an MI falls, and a step to an equal MI grows the names.  Only a sum that
    rounds away the step between two of a column's MI can break this.  The
    aggregate yielded is the key's own sum, negated back, which is exact.
    """
    active = [i for i, column in enumerate(matrix.columns) if column]
    if not active:
        return
    width = len(matrix.columns)

    def key(state: tuple[int, ...]) -> tuple[float, tuple[str, ...]]:
        agg = 0.0
        names: list[str] = []
        for pos, col in zip(state, active):
            entry = matrix.columns[col][pos]
            agg += entry.mi
            names.append(entry.feature)
        return -agg, tuple(names)

    start = (0,) * len(active)
    heap = [(*key(start), start, 0)]  # key, state, the slot advanced last to reach it
    while heap:
        neg_agg, _, state, last = heapq.heappop(heap)
        chosen: list[FeatureEntry | None] = [None] * width
        for pos, col in zip(state, active):
            chosen[col] = matrix.columns[col][pos]
        yield tuple(chosen), -neg_agg
        for slot in range(last, len(active)):
            if state[slot] + 1 < len(matrix.columns[active[slot]]):
                succ = state[:slot] + (state[slot] + 1,) + state[slot + 1 :]
                heapq.heappush(heap, (*key(succ), succ, slot))


def iter_intents(
    matrix: FeatureMatrix, index: IndexBundle, budget: int | None = None
) -> Iterator[IntentQuery]:
    """The first ``budget`` resolved intents in generation order (all if None).

    Each ``(keyword, feature)`` segment is resolved once per call, when the
    first intent that uses it is generated, so the memo holds at most n*m
    segments; every later intent with that key gets the same ``Segment``.
    """
    memo: dict[tuple[str, str | None], Segment] = {}
    for chosen, agg in islice(iter_combinations(matrix), budget):
        segments = []
        for keyword, entry in zip(matrix.keywords, chosen):
            feature = entry.feature if entry is not None else None
            segment = memo.get((keyword, feature))
            if segment is None:
                segment = memo[keyword, feature] = resolve_segment(keyword, feature, index)
            segments.append(segment)
        yield IntentQuery(segments=tuple(segments), agg_mi=agg)

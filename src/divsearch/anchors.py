"""Anchor-based pruned evaluation.

Every result already in the pool (an "anchor") splits the document range
into areas that cannot exchange SLCA results: nodes before the anchor
subtree, strict descendants, and nodes after, while ancestors of an anchor
are discarded outright.  Areas missing any segment entirely are skipped
without inspection.  Each surviving area is solved independently; all
their results go through the pool's merge, as the baseline's SLCAs do.

Node lists hold entity ordinals.  The pool places each anchor among the
entities once per version (``DiversifiedSet.layout``): its subtree is an
ordinal range, and the entities among its ancestors are a handful of
ordinals, so the partition makes int bisects only.

A full SLCA equal to an anchor or covering one is skipped by the merge,
and no area need yield it, yet it counts toward relevance.  Such results
are recovered by scanning the only possible candidates: prefixes of the
anchors, which the pool places once per version rather than once per
intent, each tested by its entity span.

:func:`evaluate_anchored` is the anchor engine's whole evaluation, run
through the pipeline of every engine, ``diversify.run_query``.  This engine
reproduces the paper's pruning; it is slower than the baseline in wall
time, one SLCA call per live area (README).  The parallel engine scores
like the baseline and uses only :class:`Area` and :func:`area_results`,
with the intent's whole node lists as one area.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import NamedTuple, Sequence

from .dewey import DeweyId, EntityTable
from .diversify import EvalStats, IntentEvaluation, TopK, intent_likelihood, run_query
from .indexing import IndexBundle
from .intents import IntentQuery
from .slca import AnchorSpan, DiversifiedSet, compute_slca

NodeList = tuple[int, ...]
Range = tuple[int, int, tuple[int, ...]]


class Area(NamedTuple):
    """One independent evaluation region: an index range per segment list.

    ``ranges[i]`` is ``(lo, hi, excluded)``: positions ``lo .. hi-1`` of
    ``sources[i]`` minus the sorted positions in ``excluded``.  The sweep
    that builds an area also fixes its size and whether some list is empty
    (``dead``), so neither needs a node to be copied.
    """

    sources: tuple[NodeList, ...]
    ranges: tuple[Range, ...]
    total_nodes: int
    dead: bool

    def lists(self) -> list[NodeList]:
        out: list[NodeList] = []
        for lst, (lo, hi, excluded) in zip(self.sources, self.ranges):
            if excluded:
                skip = set(excluded)
                out.append(tuple(lst[i] for i in range(lo, hi) if i not in skip))
            else:
                out.append(lst[lo:hi])
        return out


def partition_areas(
    lists: Sequence[NodeList], anchors: Sequence[AnchorSpan]
) -> tuple[list[Area], int]:
    """Split all segment lists around every anchor in document order.

    Returns the ordered candidate areas (pre, des per anchor, then the
    final tail) plus the count of discarded nodes (ancestors of or equal to
    an anchor).  Per list and anchor, ``lst[lo:a]`` precedes the anchor's
    subtree, ``lst[a+eq:b]`` are its strict descendants and ``lst[b:]``
    follows it, where ``eq`` is 1 if the anchor itself is listed: ``a`` and
    ``b`` are the insertion points of the anchor's entity span.  Entities
    that are proper ancestors of the anchor hide among the preceding nodes,
    so each one not below ``lst[lo]`` is probed.  If any list's remainder
    empties, later anchors cannot yield full coverage; the loop stops and
    the tail absorbs the rest.
    """
    sources = tuple(lists)
    areas: list[Area] = []
    discarded = 0
    cursors = [0] * len(sources)
    for _, first, stop, own, ancestors in anchors:
        pre: list[Range] = []
        des: list[Range] = []
        pre_sizes: list[int] = []
        des_sizes: list[int] = []
        exhausted = False
        for li, lst in enumerate(sources):
            lo = cursors[li]
            a = bisect_left(lst, first, lo)
            excluded: tuple[int, ...] = ()
            if ancestors and a > lo:
                head = lst[lo]
                for q in ancestors:
                    if q >= head:
                        j = bisect_left(lst, q, lo, a)
                        if j < a and lst[j] == q:
                            excluded += (j,)
            n = len(lst)
            eq = 1 if a < n and lst[a] == own else 0
            b = bisect_left(lst, stop, a)
            pre.append((lo, a, excluded))
            des.append((a + eq, b, ()))
            pre_sizes.append(a - lo - len(excluded))
            des_sizes.append(b - a - eq)
            discarded += len(excluded) + eq
            cursors[li] = b
            exhausted = exhausted or b >= n
        areas.append(Area(sources, tuple(pre), sum(pre_sizes), 0 in pre_sizes))
        areas.append(Area(sources, tuple(des), sum(des_sizes), 0 in des_sizes))
        if exhausted:
            break
    sizes = [len(lst) - lo for lst, lo in zip(sources, cursors)]
    tail = tuple((lo, len(lst), ()) for lst, lo in zip(sources, cursors))
    areas.append(Area(sources, tail, sum(sizes), 0 in sizes))
    return areas, discarded


def area_results(area: Area, table: EntityTable) -> tuple[DeweyId, ...]:
    """The SLCAs local to one area, as the pool's merge will receive them."""
    return compute_slca(area.lists(), table).nodes


def covered_anchor_ancestors(
    lists: Sequence[NodeList],
    prefixes: Sequence[tuple[DeweyId, DeweyId, int, int]],
    new_nodes: Sequence[DeweyId],
) -> int:
    """Count full SLCAs that are ancestors of or equal to an anchor.

    Any such result is a prefix of some anchor, so only those candidates
    need testing.  ``prefixes`` holds them in document order as
    ``(prefix, bound, lo, hi)``: its subtree bound and its entity span, as
    ``DiversifiedSet.layout`` keeps them for the pool.  A candidate counts
    iff its span holds a member of every segment list (it covers) and no
    covering candidate or fresh result lies strictly inside its subtree (it
    is minimal).
    """
    covered: list[tuple[DeweyId, DeweyId]] = []
    for p, bound, lo, hi in prefixes:
        for lst in lists:
            i = bisect_left(lst, lo)
            if i >= len(lst) or lst[i] >= hi:
                break
        else:
            covered.append((p, bound))
    count = 0
    for idx, (p, bound) in enumerate(covered):
        if idx + 1 < len(covered) and covered[idx + 1][0] < bound:
            continue
        j = bisect_left(new_nodes, p)
        if j < len(new_nodes) and new_nodes[j] < bound:
            continue
        count += 1
    return count


def evaluate_anchored(
    intent: IntentQuery,
    pool: DiversifiedSet,
    table: EntityTable,
) -> IntentEvaluation:
    """Evaluate one intent against the pool using anchor partitioning.

    The segments' node lists are ordinals of ``table``.  Dead areas are
    skipped and their nodes count as pruned; :func:`area_results` solves
    the live ones in area order.
    """
    lists = [segment.node_list for segment in intent.segments]
    layout = pool.layout(table)
    areas, pruned = partition_areas(lists, layout.anchors)
    kept: list[Area] = []
    visited = skipped = 0
    for area in areas:
        if area.dead:
            pruned += area.total_nodes
            skipped += 1
        else:
            kept.append(area)
            visited += area.total_nodes
    outputs = [area_results(area, table) for area in kept]
    # Exact as the baseline's merge: a pre or next area's result lies outside
    # every anchor's subtree, so it is skipped if it covers one and inserted
    # otherwise; a des area's result duplicates its anchor or refines it (the
    # anchor is removed once).  Results of different areas are incomparable
    # unless one covers an anchor, so area order is the inserted nodes' order.
    outcome = pool.preview(chain.from_iterable(outputs))
    covered = covered_anchor_ancestors(lists, layout.prefixes, outcome.inserted)
    return IntentEvaluation(
        relevance=intent_likelihood(intent) * (len(outcome.inserted) + covered),
        outcome=outcome,
        visited=visited,
        pruned=pruned,
        areas_skipped=skipped,
    )


def diversify_anchored(
    keywords: Sequence[str],
    k: int,
    m: int,
    index: IndexBundle,
    budget: int | None = None,
) -> tuple[TopK, EvalStats]:
    """Anchor-pruned engine; output equals :func:`diversify_baseline`."""
    return run_query(keywords, k, m, index, budget, evaluate_anchored)


__all__ = [
    "Area",
    "area_results",
    "covered_anchor_ancestors",
    "diversify_anchored",
    "evaluate_anchored",
    "partition_areas",
]

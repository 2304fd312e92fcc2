"""Anchor-based pruned evaluation.

Every result already in the pool (an "anchor") splits the document range
into areas that cannot exchange SLCA results: nodes before the anchor
subtree, strict descendants, and nodes after, while ancestors of an anchor
are discarded outright.  Areas missing any segment entirely are skipped
without inspection.  The surviving areas' nodes are solved together, in
one SLCA call per intent over the segments' ancestor sets, and the results
go through the pool's merge, as the baseline's SLCAs do.  Only they count
as visited; ``diversify.run_topk`` counts every other input node as pruned.
Once a segment's sets are built, no step walks a whole list: the
partition bisects the lists and copies only the live nodes, and the
covered count below works on the segments' cover sets.

Node lists hold entity ordinals, and anchors and results tree numbers.
The pool lays out each version from its members' entity spans
(``DiversifiedSet.layout``): three cut ordinals per anchor, bisected out
of the sorted entities, which bound its subtree, and the entities among
their ancestors.  An area is no object but a range of positions per list.
Each layout bisects a segment's list at its cuts once, up to the list's
own stop (:func:`cut_list`), and every intent of that pool version sharing
the segment slices the kept positions at its own stop.

A full SLCA equal to an anchor or covering one is skipped by the merge,
and no area need yield it, yet it counts toward relevance.  Such results
are recovered from the only possible candidates, the anchors and their
ancestors, the set the pool's merge tests against: they go through
``compute_slca``'s cover rule and leaf step, ``slca.cover_leaves``, on the
segments' cover sets (:func:`covered_anchor_ancestors`), each step
iterating the smaller set.

:func:`evaluate_anchored` is the anchor engine's whole evaluation, run
through the pipeline of every engine, ``diversify.run_query``.  This engine
reproduces the paper's pruning; it is slower than the baseline in wall
time, since each pool version still cuts each segment list at every anchor
up to its stop, and every intent joins its live areas (README).  The
parallel engine scores like the baseline and uses only
:func:`area_results`, on the intent's whole lists' cover sets.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, compress, repeat
from operator import sub
from typing import Sequence

from .dewey import EntityTable
from .diversify import (
    EvalStats,
    IntentEvaluation,
    TopK,
    intent_likelihood,
    run_query,
)
from .indexing import IndexBundle
from .intents import IntentQuery
from .slca import (
    AncestorSet,
    CoverSet,
    DiversifiedSet,
    PoolLayout,
    compute_slca,
    cover_leaves,
    proper_ancestors,
)

NodeList = tuple[int, ...]


def cut_list(lst: NodeList, layout: PoolLayout) -> tuple:
    """``lst`` cut at ``layout``, up to its own stop; one entry per list and layout.

    The list's stop is the first anchor whose subtree ends past its last
    node; it sweeps the anchors up to that one, ``swept`` of them.  Per list
    are kept: ``starts`` and ``ends``, each area's positions (pre and des
    per swept anchor, with the tail's start), the areas' ``sizes`` with the
    hidden hits taken off, and ``hits``, the list's members in
    ``layout.hidden`` below the last swept anchor's ``lo``, ascending.  The
    entry holds ``lst`` itself, so its ``id`` is not reused while the entry
    lives.
    """
    entry = layout.lists.get(id(lst))
    if entry is None:
        cuts, hidden = layout.cuts, layout.hidden
        swept = min(bisect_right(cuts, lst[-1]) // 3 + 1 if lst else 1, len(cuts) // 3)
        cuts = cuts[: 3 * swept]
        marks = [0, *map(bisect_left, repeat(lst), cuts)]
        starts, ends = marks, marks[1:]
        del starts[1::3], ends[1::3]
        sizes = list(map(sub, ends, starts))
        hits = []
        if cuts:
            for q in hidden[: bisect_left(hidden, cuts[-3])]:
                i = bisect_left(lst, q)
                if i < len(lst) and lst[i] == q:
                    hits.append(q)
                    sizes[bisect_right(cuts, q) // 3 * 2] -= 1
        entry = layout.lists[id(lst)] = (lst, swept, starts, ends, sizes, hits)
    return entry


def partition_areas(
    lists: Sequence[NodeList], layout: PoolLayout
) -> tuple[list[bool], list[NodeList]]:
    """Cut every segment list at every anchor's entity span, in document order.

    The areas are, per anchor, the nodes before its subtree (pre) and its
    strict descendants (des), then the tail after the last anchor.  Each is
    a range of positions per list.  A listed anchor and its entity ancestors
    are left out: the anchor sits between its pre and des positions, and
    each of its ancestors in ``layout.hidden`` is removed from the pre area
    it falls in.  An area is live iff no list's part of it is empty.  Once
    some list has no node past an anchor's subtree, later anchors cannot
    yield full coverage: the sweep stops there and the tail absorbs the
    rest.  So the intent's stop is the least of its lists' own stops, and
    each list, cut once per layout up to its own stop (:func:`cut_list`),
    is sliced there; a hidden hit at or past the stop anchor's ``lo`` lies
    in the tail and stays.

    Returns whether each area is live, and the live areas' nodes joined
    list by list.  Every other node is pruned (``diversify.run_topk``).
    """
    entries = [cut_list(lst, layout) for lst in lists]
    swept = min((entry[1] for entry in entries), default=0)
    limit = layout.cuts[3 * swept - 3] if swept else 0
    columns: list[list[int]] = []
    spans = []
    for lst, _, starts, ends, sizes, hits in entries:
        columns.append([*sizes[: 2 * swept], len(lst) - starts[2 * swept]])
        gone = set(hits[: bisect_left(hits, limit)])
        spans.append((starts, [*ends[: 2 * swept], len(lst)], gone))
    alive = list(map(all, zip(*columns)))
    live = []
    for lst, (starts, ends, gone) in zip(lists, spans):
        parts = map(slice, compress(starts, alive), compress(ends, alive))
        nodes = tuple(chain.from_iterable(map(lst.__getitem__, parts)))
        live.append(tuple(v for v in nodes if v not in gone) if gone else nodes)
    return alive, live


def area_results(
    lists: Sequence[NodeList],
    table: EntityTable,
    ancestors: Sequence[AncestorSet] | None = None,
    *,
    covers: Sequence[CoverSet] | None = None,
) -> tuple[int, ...]:
    """The SLCAs of one area's lists, as the pool's merge will receive them.

    ``ancestors`` are the segments' own sets, ``proper_ancestors`` of their
    whole node lists.  The anchor engine's lists hold only live nodes, yet
    the whole lists' sets are exact for every result that covers no anchor
    (:func:`evaluate_anchored`).  Lists that are whole may come with their
    ``covers`` instead, and are then not read (``compute_slca``).
    """
    return compute_slca(lists, table, ancestors, covers=covers).nodes


def covered_anchor_ancestors(
    covers: Sequence[CoverSet],
    prefixes: frozenset,
    table: EntityTable,
    new_nodes: Sequence[int],
) -> int:
    """Count full SLCAs that are ancestors of or equal to an anchor.

    Any such result is an anchor or an ancestor of one, so only those
    candidates need testing: ``prefixes``, as ``DiversifiedSet.layout``
    keeps them, closed under ancestors.  They go through ``compute_slca``'s
    cover rule and leaf step, :func:`cover_leaves`, against the segments'
    ``covers``, which reads no list node.  A leaf counts iff it is no
    proper ancestor of a fresh result ``new_nodes``, as no fresh result
    equals an anchor or an ancestor of one; with no leaf left, no ancestor
    set of ``new_nodes`` is built.
    """
    leaves = cover_leaves(prefixes, covers, table)
    if not leaves:
        return 0
    return len(leaves - proper_ancestors(new_nodes, table))


def evaluate_anchored(
    intent: IntentQuery,
    pool: DiversifiedSet,
    table: EntityTable,
) -> IntentEvaluation:
    """Evaluate one intent against the pool using anchor partitioning.

    The segments' node lists are ordinals of ``table``.  Dead areas are
    skipped; the live areas' nodes, joined list by list in area order, are
    the nodes visited, and are solved as one area by :func:`area_results`,
    with no call if no area is live.
    """
    lists = [segment.node_list for segment in intent.segments]
    ancestors = [segment.ancestors for segment in intent.segments]
    layout = pool.layout(table)
    alive, live = partition_areas(lists, layout)
    visited = sum(map(len, live))
    results: tuple[int, ...] = ()
    if visited:
        results = area_results(live, table, ancestors)
    # Exact as the baseline's merge.  A node that is not an ancestor-or-self
    # of an anchor has its whole subtree in one area, and live lists hold no
    # anchor's ancestor, so it covers list i through the whole list's set iff
    # a live member of list i lies below it: its cover and its minimality
    # are those of the live nodes alone.  Every other result is equal to or
    # above an anchor, which the merge skips; a result below an anchor
    # refines it (the anchor is removed once).
    outcome = pool.preview(results, table)
    covers = [segment.cover for segment in intent.segments]
    covered = covered_anchor_ancestors(covers, layout.prefixes, table, outcome.inserted)
    return IntentEvaluation(
        relevance=intent_likelihood(intent) * (len(outcome.inserted) + covered),
        outcome=outcome,
        visited=visited,
        areas_skipped=alive.count(False),
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
    "area_results",
    "covered_anchor_ancestors",
    "diversify_anchored",
    "evaluate_anchored",
    "partition_areas",
]

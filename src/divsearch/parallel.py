"""Parallel area evaluation with shared-segment reuse.

The engine runs the query pipeline of the others (``diversify.run_query``)
with two parts of its own.  Its intent stream, ``planned_intents``, lists
every combination up to the budget first, so the segments occurring in
more than one intent are marked before evaluation starts: the first intent
that needs one resolves it against the index, later intents reuse the same
``Segment``, and every shared segment is kept until the query ends.  Its
evaluator is ``anchors.evaluate_anchored`` with a ``solve`` that deals the
live areas round-robin into ``workers`` batches run on a thread pool.
Workers only read immutable data, the calling thread joins them all before
the pool's merge, and per-area outputs go back in area order, so results
are identical for any worker count.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .anchors import Area, area_results, evaluate_anchored
from .dewey import DeweyId, EntityTable
from .diversify import EvalStats, TopK, run_query
from .features import FeatureMatrix
from .indexing import IndexBundle
from .intents import IntentQuery, Segment, iter_combinations, resolve_segment

SegmentKey = tuple[str, str | None]


@dataclass
class SharedSegmentTable:
    """Per-query memo of the segments shared between intents."""

    shared: frozenset[SegmentKey]
    segments: dict[SegmentKey, Segment] = field(default_factory=dict)

    def resolve(self, keyword: str, feature: str | None, index: IndexBundle) -> Segment:
        """Resolve one segment; a shared one is resolved once per query."""
        key = (keyword, feature)
        segment = self.segments.get(key)
        if segment is None:
            segment = resolve_segment(keyword, feature, index)
            if key in self.shared:
                self.segments[key] = segment
        return segment


def plan_shared_segments(key_rows: Iterable[Sequence[SegmentKey]]) -> SharedSegmentTable:
    """Mark every segment key used by two or more intents."""
    counts: Counter[SegmentKey] = Counter()
    for keys in key_rows:
        counts.update(set(keys))
    return SharedSegmentTable(frozenset(key for key, uses in counts.items() if uses >= 2))


Results = tuple[DeweyId, ...]


def evaluate_area(area: Area, table: EntityTable) -> Results:
    """Worker task: the SLCAs of one area; pure and lock-free."""
    return area_results(area, table)


def _deal(
    executor: ThreadPoolExecutor, workers: int, kept: Sequence[Area], table: EntityTable
) -> list[Results]:
    """``solve`` for :func:`evaluate_anchored`: batch i is ``kept[i::workers]``."""

    def run(batch: Sequence[Area]) -> list[Results]:
        return [evaluate_area(area, table) for area in batch]

    futures = [executor.submit(run, kept[i::workers]) for i in range(min(workers, len(kept)))]
    outputs: list[Results] = [()] * len(kept)
    for i, future in enumerate(futures):  # barrier: all areas land before scoring
        outputs[i::workers] = future.result()
    return outputs


def planned_intents(
    matrix: FeatureMatrix, index: IndexBundle, budget: int | None = None
) -> Iterator[IntentQuery]:
    """The first ``budget`` intents in generation order, segments planned.

    Every combination is listed before the first intent is yielded, so the
    segments shared between intents are known up front.
    """
    resolved = list(islice(iter_combinations(matrix), budget))
    key_rows = [
        tuple(
            (keyword, entry.feature if entry is not None else None)
            for keyword, entry in zip(matrix.keywords, chosen)
        )
        for chosen, _ in resolved
    ]
    shared = plan_shared_segments(key_rows)
    for keys, (_, agg) in zip(key_rows, resolved):
        yield IntentQuery(tuple(shared.resolve(word, feature, index) for word, feature in keys), agg)


def diversify_parallel(
    keywords: Sequence[str],
    k: int,
    m: int,
    index: IndexBundle,
    workers: int = 4,
    budget: int | None = None,
) -> tuple[TopK, EvalStats]:
    """Parallel engine; output equals the baseline for any worker count.

    ``workers`` sets how many batches each intent's areas are dealt into; the
    pool runs them on at most ``os.cpu_count()`` threads.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as executor:
        evaluate = partial(evaluate_anchored, solve=partial(_deal, executor, workers))
        return run_query(keywords, k, m, index, budget, evaluate, planned_intents)

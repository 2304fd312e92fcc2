"""Parallel area evaluation with shared-segment reuse.

All intent combinations are known up front, so segments occurring in more
than one intent are registered in a shared table: the first intent that
needs one resolves it against the index and publishes the node list, later
intents reuse it without touching the postings, and a use counter evicts
the entry after its last consumer.  Within one intent, the surviving areas
are distributed round-robin over a worker pool; workers only read immutable
data, the driver joins them all before scoring, and per-area outputs are
merged back in area order, so results are identical for any worker count.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .anchors import (
    Area,
    NodeList,
    area_results,
    finish_evaluation,
    partition_areas,
    prune_empty_areas,
)
from .dewey import DeweyId
from .diversify import EvalStats, IntentEvaluation, TopK, run_topk
from .features import build_matrix
from .indexing import IndexBundle
from .intents import IntentQuery, Segment, iter_combinations, segment_node_list
from .slca import DiversifiedSet

SegmentKey = tuple[str, str | None]

PENDING = "pending"
PROCESSED = "processed"


@dataclass
class _SharedEntry:
    uses: int
    status: str = PENDING
    node_list: NodeList = ()
    feature_list_size: int = 0


class SharedSegmentTable:
    """Cache of resolved node lists for segments shared between intents."""

    def __init__(self) -> None:
        self.entries: dict[SegmentKey, _SharedEntry] = {}
        self.hits = 0
        self.misses = 0
        self.reads: Counter[str] = Counter()

    def _fetch(self, keyword: str, feature: str | None, index: IndexBundle) -> tuple[NodeList, int]:
        if feature is None:
            self.reads[keyword] += 1
            nodes = index.posting(keyword)
            return nodes, len(nodes)
        self.reads[keyword] += 1
        self.reads[feature] += 1
        return segment_node_list(keyword, feature, index), len(index.posting(feature))

    def resolve(self, keyword: str, feature: str | None, index: IndexBundle) -> Segment:
        """Resolve one segment, reusing the published node list if present."""
        entry = self.entries.get((keyword, feature))
        if entry is None:
            node_list, size = self._fetch(keyword, feature, index)
        elif entry.status == PROCESSED:
            self.hits += 1
            node_list, size = entry.node_list, entry.feature_list_size
        else:
            self.misses += 1
            node_list, size = self._fetch(keyword, feature, index)
            entry.node_list = node_list
            entry.feature_list_size = size
            entry.status = PROCESSED
        return Segment(keyword, feature, node_list, size)

    def consume(self, keys: Iterable[SegmentKey]) -> None:
        """One intent finished: decrement its keys, evict exhausted entries."""
        for key in dict.fromkeys(keys):
            entry = self.entries.get(key)
            if entry is not None:
                entry.uses -= 1
                if entry.uses <= 0:
                    del self.entries[key]


def plan_shared_segments(
    intents: Iterable[IntentQuery | Sequence[SegmentKey]],
) -> SharedSegmentTable:
    """Register every segment used by two or more intents."""
    counts: Counter[SegmentKey] = Counter()
    for intent in intents:
        keys = intent.segment_keys() if isinstance(intent, IntentQuery) else tuple(intent)
        counts.update(dict.fromkeys(keys).keys())
    table = SharedSegmentTable()
    for key, uses in counts.items():
        if uses >= 2:
            table.entries[key] = _SharedEntry(uses=uses)
    return table


@dataclass(frozen=True)
class WorkPlan:
    """Round-robin assignment of areas to workers."""

    areas: tuple[Area, ...]
    workers: int

    @property
    def assignment(self) -> dict[int, int]:
        return {i: i % self.workers for i in range(len(self.areas))}

    def batches(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.workers)]
        for i in range(len(self.areas)):
            out[i % self.workers].append(i)
        return out


def evaluate_area(area: Area, anchors: Sequence[DeweyId]) -> NodeList:
    """Worker task: filtered SLCAs of one area; pure and lock-free."""
    return area_results(area, anchors)


def _run_batch(
    areas: Sequence[Area], indices: Sequence[int], anchors: Sequence[DeweyId]
) -> list[tuple[int, NodeList]]:
    return [(i, evaluate_area(areas[i], anchors)) for i in indices]


def _evaluate_parallel(
    intent: IntentQuery,
    pool: DiversifiedSet,
    executor: ThreadPoolExecutor,
    workers: int,
) -> IntentEvaluation:
    lists = [segment.node_list for segment in intent.segments]
    anchors = pool.snapshot()
    areas, discarded = partition_areas(lists, anchors)
    kept, pruned_nodes, skipped = prune_empty_areas(areas)
    plan = WorkPlan(tuple(kept), workers)
    futures: list[Future[list[tuple[int, NodeList]]]] = [
        executor.submit(_run_batch, kept, batch, anchors)
        for batch in plan.batches()
        if batch
    ]
    outputs: list[NodeList] = [()] * len(kept)
    for future in futures:  # barrier: all areas land before scoring
        for i, results in future.result():
            outputs[i] = results
    visited = sum(area.total_nodes for area in kept)
    return finish_evaluation(
        intent, anchors, kept, outputs, visited, discarded + pruned_nodes, skipped
    )


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
    if m < 1:
        raise ValueError("m must be >= 1")
    matrix = build_matrix(list(keywords), m, index)
    combos = iter_combinations(matrix)
    if budget is not None:
        combos = islice(combos, budget)
    resolved = list(combos)
    key_rows = [
        tuple(
            (keyword, entry.feature if entry is not None else None)
            for keyword, entry in zip(matrix.keywords, chosen)
        )
        for chosen, _ in resolved
    ]
    table = plan_shared_segments(key_rows)

    def stream(index: IndexBundle) -> Iterator[IntentQuery]:
        for (chosen, agg), keys in zip(resolved, key_rows):
            segments = tuple(
                table.resolve(keyword, feature, index) for keyword, feature in keys
            )
            table.consume(keys)
            yield IntentQuery(segments=segments, agg_mi=agg)

    with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as executor:
        return run_topk(
            stream(index),
            k,
            lambda intent, pool: _evaluate_parallel(intent, pool, executor, workers),
        )

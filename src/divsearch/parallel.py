"""The parallel engine: baseline scoring over a planned intent stream.

The engine runs the query pipeline of the others (``diversify.run_query``)
with two parts of its own.  Its intent stream, ``planned_intents``, walks
the combinations up to the budget once before it yields any, so the
segments occurring in more than one intent are marked before evaluation
starts: the first intent that needs one resolves it against the index,
later intents reuse the same ``Segment``, and every shared segment is kept
until the query ends.  Its evaluator scores an intent as the baseline
does, one SLCA over the intent's whole node lists and their ancestor sets,
through ``evaluate_area``.

``workers`` is checked and echoed but does not change the work: no thread
or process is started.  Dealing anchor areas out to a thread pool ran
~3.5x the baseline's wall time, and a process pool missed a 1.15x gain
over the baseline at 103k entities (README), so both were dropped.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .anchors import NodeList, area_results
from .dewey import EntityTable
from .diversify import (
    EvalStats,
    IntentEvaluation,
    TopK,
    intent_likelihood,
    run_query,
)
from .features import FeatureEntry, FeatureMatrix
from .indexing import IndexBundle
from .intents import IntentQuery, Segment, iter_combinations, resolve_segment
from .slca import AncestorSet, DiversifiedSet

SegmentKey = tuple[str, str | None]


class SharedSegmentTable:
    """Per-query memo of the segments shared between intents."""

    __slots__ = ("shared", "segments")

    def __init__(self, shared: frozenset[SegmentKey]) -> None:
        self.shared = shared
        self.segments: dict[SegmentKey, Segment] = {}

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


def evaluate_area(
    lists: Sequence[NodeList], table: EntityTable, ancestors: Sequence[AncestorSet]
) -> tuple[int, ...]:
    """The SLCAs of some node lists; its own name so the bench's tracer can time it."""
    return area_results(lists, table, ancestors)


def evaluate_whole(
    intent: IntentQuery, pool: DiversifiedSet, table: EntityTable
) -> IntentEvaluation:
    """Baseline scoring: the SLCAs of the intent's whole node lists and their sets."""
    lists = [segment.node_list for segment in intent.segments]
    results = evaluate_area(lists, table, [s.ancestors for s in intent.segments])
    return IntentEvaluation(
        intent_likelihood(intent) * len(results), pool.preview(results, table), sum(map(len, lists)), 0
    )


def planned_intents(
    matrix: FeatureMatrix, index: IndexBundle, budget: int | None = None
) -> Iterator[IntentQuery]:
    """The first ``budget`` intents in generation order, segments planned.

    The combinations are walked twice, and neither walk keeps them: the
    first plans the segments shared between intents before the first intent
    is yielded, the second resolves and yields.
    """

    def keys(chosen: Sequence[FeatureEntry | None]) -> tuple[SegmentKey, ...]:
        return tuple(
            (keyword, entry.feature if entry is not None else None)
            for keyword, entry in zip(matrix.keywords, chosen)
        )

    shared = plan_shared_segments(
        keys(chosen) for chosen, _ in islice(iter_combinations(matrix), budget)
    )
    for chosen, agg in islice(iter_combinations(matrix), budget):
        segments = tuple(shared.resolve(word, feature, index) for word, feature in keys(chosen))
        yield IntentQuery(segments, agg)


def diversify_parallel(
    keywords: Sequence[str],
    k: int,
    m: int,
    index: IndexBundle,
    workers: int = 4,
    budget: int | None = None,
) -> tuple[TopK, EvalStats]:
    """Parallel engine; output and work counters equal the baseline's.

    ``workers`` must be >= 1; it is kept for callers and the report, and no
    longer changes the work.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return run_query(keywords, k, m, index, budget, evaluate_whole, planned_intents)

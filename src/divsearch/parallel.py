"""The parallel engine: baseline scoring over a planned intent stream.

The engine runs the query pipeline of the others (``diversify.run_query``)
with two parts of its own.  Its intent stream, ``planned_intents``, lists
every combination up to the budget first, so the segments occurring in
more than one intent are marked before evaluation starts: the first intent
that needs one resolves it against the index, later intents reuse the same
``Segment``, and every shared segment is kept until the query ends.  Its
evaluator scores an intent as the baseline does, one SLCA over the
intent's whole node lists, taken as a single area by ``evaluate_area``.

``workers`` is checked and echoed but does not change the work: no thread
or process is started.  Dealing anchor areas out to a thread pool ran
~3.5x the baseline's wall time, and a process pool missed a 1.15x gain
over the baseline at 103k entities (README), so both were dropped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .anchors import Area, area_results
from .dewey import DeweyId, EntityTable
from .diversify import EvalStats, IntentEvaluation, TopK, intent_likelihood, run_query
from .features import FeatureMatrix
from .indexing import IndexBundle
from .intents import IntentQuery, Segment, iter_combinations, resolve_segment
from .slca import DiversifiedSet

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


def evaluate_area(area: Area, table: EntityTable) -> tuple[DeweyId, ...]:
    """The SLCAs of one area; its own name so the bench's tracer can time it."""
    return area_results(area, table)


def evaluate_whole(
    intent: IntentQuery, pool: DiversifiedSet, table: EntityTable
) -> IntentEvaluation:
    """Baseline scoring: the SLCAs of the intent's whole node lists as one area."""
    lists = tuple(segment.node_list for segment in intent.segments)
    total = sum(len(lst) for lst in lists)
    area = Area(lists, tuple((0, len(lst), ()) for lst in lists), total, not all(lists))
    results = evaluate_area(area, table)
    return IntentEvaluation(
        intent_likelihood(intent) * len(results), pool.preview(results), total, 0, 0
    )


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
    """Parallel engine; output and work counters equal the baseline's.

    ``workers`` must be >= 1; it is kept for callers and the report, and no
    longer changes the work.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return run_query(keywords, k, m, index, budget, evaluate_whole, planned_intents)

"""Intent scoring and the top-k diversification driver.

score(intent) = likelihood * |SLCA set| * novelty, where likelihood is the
product over segments of |nodeList| / |postings(feature)| and novelty is the
fresh-result fraction against the accumulated pool; ``IntentEvaluation``
derives it for every engine.  The driver evaluates intents in generation
order, admits positive scores into a bounded top-k, and keeps the pool
consistent with the currently admitted intents, including removal of an
evicted intent's attributed results.  ``run_query`` checks ``k`` and ``m``
and chains these stages for all three engines; they differ only in the
evaluator they pass (parallel scores as the baseline does) and, for
parallel, in the intent stream.  Results and the pool are tree numbers
until ``run_query`` renders the admitted ones to Dewey IDs.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from .dewey import EntityTable
from .features import build_matrix
from .indexing import IndexBundle
from .intents import IntentQuery, iter_intents
from .slca import DiversifiedSet, MergeOutcome, SlcaSet, compute_slca


class EvalStats(NamedTuple):
    """Work counters; per intent, pruned = input nodes - visited (:func:`run_topk`)."""

    nodes_visited: int = 0
    nodes_pruned: int = 0
    areas_skipped: int = 0


class IntentEvaluation(NamedTuple):
    """Everything one engine pass learns about one intent.

    ``visited`` counts the input nodes read; :func:`run_topk` counts the
    rest as pruned.  ``dif`` and ``score`` are derived here, for every engine.
    """

    relevance: float
    outcome: MergeOutcome
    visited: int
    areas_skipped: int

    @property
    def dif(self) -> float:
        return self.outcome.novelty()

    @property
    def score(self) -> float:
        return self.relevance * self.dif


class ScoredIntent(NamedTuple):
    intent: IntentQuery
    relevance: float
    dif: float
    score: float
    results: SlcaSet


class TopK(NamedTuple):
    k: int
    entries: tuple[ScoredIntent, ...]
    phi: DiversifiedSet


def dif(fresh: SlcaSet, phi: DiversifiedSet) -> float:
    """Novelty fraction distinctCount/unionSize of a dry-run merge."""
    return phi.preview(fresh).novelty()


def intent_likelihood(intent: IntentQuery) -> float:
    """Product of per-segment match ratios; bare segments contribute 1."""
    likelihood = 1.0
    for segment in intent.segments:
        if segment.feature is not None:
            likelihood *= len(segment.node_list) / segment.feature_list_size
    return likelihood


def evaluate_against_pool(
    intent: IntentQuery, pool: DiversifiedSet, table: EntityTable
) -> IntentEvaluation:
    """Baseline evaluation: full SLCA over complete node lists of ``table`` ordinals.

    The SLCAs come from the segments' cover sets alone; the lists are not read.
    """
    lists = [segment.node_list for segment in intent.segments]
    slca = compute_slca(lists, table, covers=[segment.cover for segment in intent.segments])
    return IntentEvaluation(
        relevance=intent_likelihood(intent) * len(slca),
        outcome=pool.preview(slca, table),
        visited=sum(len(lst) for lst in lists),
        areas_skipped=0,
    )


def run_topk(
    intents: Iterable[IntentQuery],
    k: int,
    evaluate: Callable[[IntentQuery, DiversifiedSet], IntentEvaluation],
) -> tuple[TopK, EvalStats]:
    """Shared admission loop for all three engines.

    An intent's pruned count is its input, the summed node-list lengths of
    its segments, less the nodes it visited.  Only intents with score > 0
    are admitted.  Once full, a newcomer must strictly beat the worst
    admitted score; the evicted intent's remaining attributed nodes leave
    the pool.  The new outcome is applied before the eviction so its
    recorded replacements stay valid.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pool = DiversifiedSet()
    # (rank key, seq, entry): two intents of one stream differ in at least one
    # column's feature, so rank keys never tie and seq is never compared
    ranked: list[tuple[tuple, int, ScoredIntent]] = []
    visited = pruned = skipped = 0
    for seq, intent in enumerate(intents):
        evaluation = evaluate(intent, pool)
        visited += evaluation.visited
        pruned += sum(len(segment.node_list) for segment in intent.segments) - evaluation.visited
        skipped += evaluation.areas_skipped
        score = evaluation.score
        if score <= 0.0:
            continue
        full = len(ranked) == k
        if full:
            worst = max(ranked)
            if score <= worst[2].score:
                continue
        pool.apply(evaluation.outcome, seq)
        if full:
            ranked.remove(worst)
            pool.remove_intent(worst[1])
        results = SlcaSet(evaluation.outcome.inserted)
        entry = ScoredIntent(intent, evaluation.relevance, evaluation.dif, score, results)
        ranked.append(((-score, -intent.agg_mi, intent.lex_key), seq, entry))
    ranked.sort()
    topk = TopK(k=k, entries=tuple(entry for _, _, entry in ranked), phi=pool)
    return topk, EvalStats(visited, pruned, skipped)


def run_query(
    keywords: Sequence[str],
    k: int,
    m: int,
    index: IndexBundle,
    budget: int | None,
    evaluate: Callable[..., IntentEvaluation],
    stream: Callable[..., Iterable[IntentQuery]] = iter_intents,
) -> tuple[TopK, EvalStats]:
    """One query of any engine: matrix, intent stream, admission, rendering.

    ``stream(matrix, index, budget)`` yields at most ``budget`` intents and
    ``evaluate(intent, pool, table=...)`` scores each.  The table is bound
    after the matrix, so a query without intents never builds it.  The
    admitted entries' results and the pool, tree numbers until then, are
    rendered to Dewey IDs, one ``DeweyId`` object for each distinct node.
    ``k``, ``m`` and ``budget``, None or an int >= 1, are checked before
    any work.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    if budget is not None and (type(budget) is not int or budget < 1):
        raise ValueError("budget must be an integer >= 1")
    matrix = build_matrix(list(keywords), m, index)
    table = index.entity_table
    topk, stats = run_topk(stream(matrix, index, budget), k, partial(evaluate, table=table))
    if topk.entries:  # else the pool is empty too
        numbers = set(topk.phi).union(*(e.results for e in topk.entries))
        ids = dict(zip(numbers, table.dewey_ids(numbers)))  # one DeweyId a node, shared
        get = ids.__getitem__
        entries = tuple(e._replace(results=SlcaSet(sorted(map(get, e.results)))) for e in topk.entries)
        topk = TopK(topk.k, entries, topk.phi.rendered(ids))
    return topk, stats


def diversify_baseline(
    keywords: Sequence[str],
    k: int,
    m: int,
    index: IndexBundle,
    budget: int | None = None,
) -> tuple[TopK, EvalStats]:
    """Evaluate every generated intent against full node lists."""
    return run_query(keywords, k, m, index, budget, evaluate_against_pool)

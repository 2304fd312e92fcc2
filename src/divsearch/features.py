"""Mutual-information scoring and per-keyword feature selection.

MI for a term pair is computed over the entity sample space:

    p(x, y) * ln(p(x, y) / (p(x) * p(y)))

with p(x) = |postings(x)| / entityCount and p(x, y) from the co-occurrence
store.  Pairs never stored co-occurring score exactly 0 and are never
selected as features; negative-MI pairs (anti-correlated) are excluded too.

A keyword's candidate features are read from ``IndexBundle.neighbours``, a
flat layout of every term's pairs: the walk reads the keyword's run of
counts and partner posting lengths in order, and a partner's name only for
a candidate it keeps.  So the cost of a column follows the keyword's own
pairs, not the size of the co-occurrence store, and the walk down them
stops early.  A pair's count never exceeds either term's posting length
(``build_index`` counts it so, and the loaders refuse any other count), so
count * n / (nx * ny) <= n / nx and a pair's MI is at most
(count / n) * ln(n / nx).  That bound never falls
as the count rises, so once m positive entries are kept a walk in
count-descending order stops at the first pair whose bound, widened past
any rounding, is strictly below the m-th best MI: no pair after it can reach
that MI.  A pair equal to it is still kept; ties are broken by name.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NoIntentError
from .indexing import IndexBundle


class FeatureEntry(NamedTuple):
    keyword: str
    feature: str
    mi: float


class FeatureMatrix(NamedTuple):
    """One MI-ranked feature column per query keyword, in query order."""

    keywords: tuple[str, ...]
    columns: tuple[tuple[FeatureEntry, ...], ...]


def _mi(count: int, nx: int, ny: int, n: int) -> float:
    """MI of a pair seen together in ``count`` of ``n`` entities, from the
    posting sizes ``nx`` and ``ny`` of its terms."""
    pxy = count / n
    px = nx / n
    py = ny / n
    return pxy * math.log(pxy / (px * py))


def mutual_information(x: str, y: str, index: IndexBundle) -> float:
    """Pointwise MI weighted by joint probability; 0.0 for absent pairs."""
    if x == y:
        raise ValueError("mutual information requires two distinct terms")
    count = index.cooccur_count(x, y)
    if count == 0:
        return 0.0
    return _mi(count, len(index.posting(x)), len(index.posting(y)), index.entity_count)


def top_features(keyword: str, m: int, index: IndexBundle) -> tuple[FeatureEntry, ...]:
    """The m highest-MI partners of ``keyword``, ties broken by name.

    The keyword's entries are walked in count-descending order, as
    ``IndexBundle.neighbours`` lays them out, and the walk stops at the first
    pair whose count bounds its MI strictly below the m-th best MI kept so
    far (see the module docstring).  Pairs of one count share that bound,
    and one of them can raise the m-th best only to its own MI, below the
    bound, so the stop is tested where the count falls: the candidates are
    sorted and cut to m there, and their last one is the m-th best.  A
    candidate equal to it is still kept, so the final sort breaks the tie by
    name.  Unknown keywords and keywords with no positive-MI partner yield
    an empty column rather than an error.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    neighbours = index.neighbours
    span = neighbours.spans.get(keyword)
    if span is None:
        return ()
    start, stop = span
    partners = neighbours.partners
    n = index.entity_count
    nx = len(index.postings.get(keyword, ()))
    px = nx / n
    # MI <= count * per_count, widened past any rounding of the MI expression
    per_count = (math.log(n / nx) * (1 + 1e-9) + 1e-12) / n
    floor = math.ulp(0.0)  # the least MI a candidate needs: positive, then the m-th best
    last = 0
    scored: list[tuple[float, str]] = []
    entries = zip(range(start, stop), neighbours.counts[start:stop], neighbours.lengths[start:stop])
    for i, count, ny in entries:
        if count != last:
            last = count
            if len(scored) >= m:
                scored.sort()  # by MI descending, then feature name
                del scored[m:]  # each one cut already ranks below m others
                floor = -scored[-1][0]
                if count < math.ceil(floor / per_count):  # the least count that can reach it
                    break
        pxy = count / n  # _mi's float expression, with px computed once
        mi = pxy * math.log(pxy / (px * (ny / n)))
        if mi >= floor:
            scored.append((-mi, partners[i]))
    scored.sort()
    return tuple(FeatureEntry(keyword, partner, -neg_mi) for neg_mi, partner in scored[:m])


def build_matrix(keywords: list[str] | tuple[str, ...], m: int, index: IndexBundle) -> FeatureMatrix:
    """Assemble the n-column feature matrix for a keyword query."""
    if not keywords:
        raise ValueError("query must contain at least one keyword")
    columns = tuple(top_features(keyword, m, index) for keyword in keywords)
    if all(not column for column in columns):
        raise NoIntentError("no query keyword has any positive-MI feature")
    return FeatureMatrix(keywords=tuple(keywords), columns=columns)

"""Mutual-information scoring and per-keyword feature selection.

MI for a term pair is computed over the entity sample space:

    p(x, y) * ln(p(x, y) / (p(x) * p(y)))

with p(x) = |postings(x)| / entityCount and p(x, y) from the co-occurrence
store.  Pairs never stored co-occurring score exactly 0 and are never
selected as features; negative-MI pairs (anti-correlated) are excluded too.

A keyword's candidate features are read from ``IndexBundle.neighbours``, so
the cost of a column follows the keyword's own pairs, not the size of the
co-occurrence store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoIntentError
from .indexing import IndexBundle


@dataclass(frozen=True)
class FeatureEntry:
    keyword: str
    feature: str
    mi: float


@dataclass(frozen=True)
class FeatureMatrix:
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

    Only the pairs that name ``keyword`` are scored, and only the m kept
    become entries.  Unknown keywords and keywords with no positive-MI
    partner yield an empty column rather than an error.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    cooccur = index.cooccur
    postings = index.postings
    n = index.entity_count
    nx = len(postings.get(keyword, ()))
    scored: list[tuple[float, str]] = []
    for pair in index.neighbours.get(keyword, ()):
        a, b = pair
        partner = b if a == keyword else a
        mi = _mi(cooccur[pair], nx, len(postings.get(partner, ())), n)
        if mi > 0.0:
            scored.append((-mi, partner))
    scored.sort()  # by MI descending, then feature name
    return tuple(FeatureEntry(keyword, partner, -neg_mi) for neg_mi, partner in scored[:m])


def build_matrix(keywords: list[str] | tuple[str, ...], m: int, index: IndexBundle) -> FeatureMatrix:
    """Assemble the n-column feature matrix for a keyword query."""
    if not keywords:
        raise ValueError("query must contain at least one keyword")
    columns = tuple(top_features(keyword, m, index) for keyword in keywords)
    if all(not column for column in columns):
        raise NoIntentError("no query keyword has any positive-MI feature")
    return FeatureMatrix(keywords=tuple(keywords), columns=columns)

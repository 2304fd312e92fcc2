"""Diversified keyword search over XML corpora.

Pipeline: index an XML corpus (Dewey IDs, entity postings, windowed term
co-occurrence), mine per-keyword feature terms by mutual information,
enumerate search intents in descending aggregated-MI order, and keep the
top k scored by relevance times result novelty under SLCA semantics.
Three interchangeable engines (baseline, anchor-pruned, parallel) produce
identical output.

The package exports the entry points below; every other name is imported
from its own module (``divsearch.slca``, ``divsearch.anchors``, ...).
"""

from .anchors import diversify_anchored
from .dewey import DeweyId
from .diversify import EvalStats, ScoredIntent, TopK, diversify_baseline
from .errors import (
    CorpusParseError,
    DivSearchError,
    EmptyCorpusError,
    IndexFormatError,
    IndexVersionError,
    NoIntentError,
)
from .features import top_features
from .indexing import (
    DEFAULT_STOPWORDS,
    IndexBundle,
    IndexConfig,
    build_index,
    index_corpus,
    parse_corpus,
)
from .parallel import diversify_parallel
from .storage import load_index, save_index

__version__ = "0.1.0"

__all__ = [
    "CorpusParseError",
    "DEFAULT_STOPWORDS",
    "DeweyId",
    "DivSearchError",
    "EmptyCorpusError",
    "EvalStats",
    "IndexBundle",
    "IndexConfig",
    "IndexFormatError",
    "IndexVersionError",
    "NoIntentError",
    "ScoredIntent",
    "TopK",
    "build_index",
    "diversify_anchored",
    "diversify_baseline",
    "diversify_parallel",
    "index_corpus",
    "load_index",
    "parse_corpus",
    "save_index",
    "top_features",
]

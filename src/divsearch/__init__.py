"""Diversified keyword search over XML corpora.

Pipeline: index an XML corpus (Dewey IDs, entity postings, windowed term
co-occurrence), mine per-keyword feature terms by mutual information,
enumerate search intents in descending aggregated-MI order, and keep the
top k scored by relevance times result novelty under SLCA semantics.
Three interchangeable engines (baseline, anchor-pruned, parallel) produce
identical output.
"""

from .anchors import (
    contains_anchor,
    diversify_anchored,
    partition_areas,
    prune_empty_areas,
)
from .dewey import DeweyId, lca, subtree_bound
from .diversify import (
    EvalStats,
    ScoredIntent,
    TopK,
    dif,
    diversify_baseline,
    relevance_prob,
)
from .errors import (
    CorpusParseError,
    DivSearchError,
    EmptyCorpusError,
    IndexFormatError,
    IndexVersionError,
    NoIntentError,
)
from .features import (
    FeatureEntry,
    FeatureMatrix,
    build_matrix,
    mutual_information,
    top_features,
)
from .indexing import (
    DEFAULT_STOPWORDS,
    EntityRecord,
    IndexBundle,
    IndexConfig,
    build_index,
    index_corpus,
    parse_corpus,
    tokenize,
)
from .intents import (
    IntentQuery,
    Segment,
    iter_combinations,
    iter_intents,
    segment_node_list,
)
from .parallel import (
    SharedSegmentTable,
    diversify_parallel,
    evaluate_area,
    plan_shared_segments,
)
from .slca import DiversifiedSet, MergeOutcome, SlcaSet, compute_slca, merge_distinct
from .storage import load_index, save_index

__version__ = "0.1.0"

__all__ = [
    "CorpusParseError",
    "DEFAULT_STOPWORDS",
    "DeweyId",
    "DiversifiedSet",
    "DivSearchError",
    "EmptyCorpusError",
    "EntityRecord",
    "EvalStats",
    "FeatureEntry",
    "FeatureMatrix",
    "IndexBundle",
    "IndexConfig",
    "IndexFormatError",
    "IndexVersionError",
    "IntentQuery",
    "MergeOutcome",
    "NoIntentError",
    "ScoredIntent",
    "Segment",
    "SharedSegmentTable",
    "SlcaSet",
    "TopK",
    "build_index",
    "build_matrix",
    "compute_slca",
    "contains_anchor",
    "dif",
    "diversify_anchored",
    "diversify_baseline",
    "diversify_parallel",
    "evaluate_area",
    "index_corpus",
    "iter_combinations",
    "iter_intents",
    "lca",
    "load_index",
    "merge_distinct",
    "mutual_information",
    "parse_corpus",
    "partition_areas",
    "plan_shared_segments",
    "prune_empty_areas",
    "relevance_prob",
    "save_index",
    "segment_node_list",
    "subtree_bound",
    "tokenize",
    "top_features",
]

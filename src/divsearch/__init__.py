"""Diversified keyword search over XML corpora.

Pipeline: index an XML corpus (Dewey IDs, entity postings, windowed term
co-occurrence), mine per-keyword feature terms by mutual information,
enumerate search intents in descending aggregated-MI order, and keep the
top k scored by relevance times result novelty under SLCA semantics.
Three interchangeable engines (baseline, anchor-pruned, parallel) produce
identical output.

The package exports the entry points below; every other name is imported
from its own module (``divsearch.slca``, ``divsearch.anchors``, ...).  An
export is imported on first use, so importing the package, or one of its
modules, imports no engine or loader it does not name.
"""

import importlib

__version__ = "0.1.0"

# each exported name -> the module that defines it; imported on first use (PEP 562)
_EXPORTS = {
    name: module
    for module, names in (
        ("anchors", "diversify_anchored"),
        ("dewey", "DeweyId"),
        ("diversify", "EvalStats ScoredIntent TopK diversify_baseline"),
        ("errors", "CorpusParseError DivSearchError EmptyCorpusError IndexFormatError"
         " IndexVersionError NoIntentError"),
        ("features", "top_features"),
        ("indexing", "DEFAULT_STOPWORDS IndexBundle IndexConfig build_index index_corpus"
         " parse_corpus"),
        ("parallel", "diversify_parallel"),
        ("storage", "load_index save_index"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)

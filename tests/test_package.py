"""The names the package itself exports: the library's entry points."""

import ast
import importlib
import pkgutil
from pathlib import Path

import divsearch

# name -> the module that defines it
PUBLIC = {
    "IndexConfig": "indexing", "IndexBundle": "indexing", "DEFAULT_STOPWORDS": "indexing",
    "parse_corpus": "indexing", "build_index": "indexing", "index_corpus": "indexing",
    "save_index": "storage", "load_index": "storage", "top_features": "features",
    "diversify_baseline": "diversify", "diversify_anchored": "anchors",
    "diversify_parallel": "parallel",
    "TopK": "diversify", "ScoredIntent": "diversify", "EvalStats": "diversify",
    "DeweyId": "dewey",
    "DivSearchError": "errors", "CorpusParseError": "errors", "EmptyCorpusError": "errors",
    "IndexFormatError": "errors", "IndexVersionError": "errors", "NoIntentError": "errors",
}


def test_all_lists_exactly_the_entry_points():
    assert len(divsearch.__all__) == len(PUBLIC) == 22
    assert set(divsearch.__all__) == set(PUBLIC)


def test_each_name_is_its_modules_object():
    for name, module in PUBLIC.items():
        assert getattr(divsearch, name) is getattr(importlib.import_module(f"divsearch.{module}"), name)


def test_star_import_binds_exactly_those_names():
    namespace = {}
    exec("from divsearch import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def test_other_names_stay_in_their_modules():
    from divsearch.anchors import evaluate_anchored, partition_areas
    from divsearch.slca import DiversifiedSet, compute_slca, merge_distinct
    from divsearch.parallel import SharedSegmentTable, evaluate_area, plan_shared_segments

    assert all(
        callable(x)
        for x in (evaluate_anchored, partition_areas, DiversifiedSet, compute_slca,
                  merge_distinct, SharedSegmentTable, evaluate_area, plan_shared_segments)
    )
    assert not hasattr(divsearch, "compute_slca")


def test_every_modules_all_names_what_it_defines():
    """A stale ``__all__`` entry breaks ``import *`` only when someone runs it."""
    modules = [divsearch] + [
        importlib.import_module(f"divsearch.{info.name}")
        for info in pkgutil.iter_modules(divsearch.__path__)
    ]
    listed = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"
            listed += 1
    assert listed > len(divsearch.__all__)
    namespace = {}
    exec("from divsearch.anchors import *", namespace)
    assert "partition_areas" in namespace


def test_every_source_file_parses_as_python_3_10():
    """``pyproject.toml`` declares Python >= 3.10, so no file may use newer syntax."""
    root = Path(__file__).resolve().parent.parent
    paths = [p for part in ("src", "tests", "perfbench") for p in (root / part).rglob("*.py")]
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))

"""Guard for the names the benchmark's tracer wraps.

``perfbench/tracer.py`` times each layer by swapping functions and methods
of the package by name, from outside.  A deleted or renamed one would
otherwise break only ``perfbench/run.py --trace 1``, or read as 0.
"""

import sys
from pathlib import Path

import pytest

from divsearch.anchors import diversify_anchored
from divsearch.diversify import diversify_baseline
from divsearch.parallel import SharedSegmentTable, diversify_parallel
from divsearch.slca import DiversifiedSet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# every span a query run records, whichever engine makes it
QUERY_SPANS = {
    "parallel.plan",
    "parallel.resolve",
    "parallel.evaluate_area",
    "anchors.partition",
    "anchors.area_results",
    "anchors.covered_scan",
    "slca.compute",
    "slca.preview",
    "slca.apply",
    "intents.intersect",
    "intents.enumerate",
    "features.top_features",
    "diversify.run_topk",
}

ENGINES = {
    "baseline": lambda index: diversify_baseline(["database", "query"], 2, 2, index),
    "anchor": lambda index: diversify_anchored(["database", "query"], 2, 2, index),
    "parallel": lambda index: diversify_parallel(["database", "query"], 2, 2, index, workers=2),
}


@pytest.fixture()
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def bindings():
    """Every binding the tracer may replace: package globals and methods."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "divsearch" or name.startswith("divsearch."):
            for attr, value in vars(module).items():
                found[(name, attr)] = value
    for cls in (DiversifiedSet, SharedSegmentTable):
        for attr, value in vars(cls).items():
            found[(cls.__name__, attr)] = value
    return found


def test_every_wrapped_span_is_recorded(toy_index, tracer_module):
    tracer = tracer_module.Tracer()
    for engine, run in ENGINES.items():
        with tracer.traced(engine):
            run(toy_index)
    assert QUERY_SPANS <= set(tracer.calls)
    assert tracer.ops == {engine: 1 for engine in ENGINES}


def test_uninstall_restores_every_patched_name(toy_index, tracer_module):
    tracer = tracer_module.Tracer()
    before = bindings()
    with tracer.installed():
        during = bindings()
        ENGINES["parallel"](toy_index)
    patched = {key for key, value in during.items() if before.get(key) is not value}
    assert {
        ("divsearch.parallel", "plan_shared_segments"),
        ("divsearch.parallel", "evaluate_area"),
        ("divsearch.anchors", "partition_areas"),
        ("divsearch.slca", "compute_slca"),
        ("SharedSegmentTable", "resolve"),
        ("DiversifiedSet", "preview"),
    } <= patched
    after = bindings()
    assert all(after[key] is before[key] for key in patched)
    assert after.keys() == before.keys()

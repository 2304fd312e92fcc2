"""In-memory span tracing of divsearch, installed from outside the package.

``Tracer.install`` replaces the public functions each layer calls with
timing wrappers.  A function imported by name into several modules (for
example ``compute_slca`` in ``divsearch.diversify`` and
``divsearch.anchors``) is replaced in every ``divsearch`` module namespace
that holds it, so calls are caught whichever module makes them.  Methods
are replaced on their class.  ``uninstall`` restores the originals.

Spans carry a name, a start, an end and a parent; the parent stack is per
thread, so spans opened in the parallel engine's worker threads are roots
of their own.  When an operation ends its spans are folded into per-layer
totals: the self time of each span (its duration minus the time covered
by its children) plus counters recorded at the same boundaries.

Run as a script, the module executes the divsearch command line under
tracing and writes the totals to a JSON file:

    python3 perfbench/tracer.py OUT.json index --input ... --out ...
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

ENGINES = ("baseline", "anchor", "parallel")

# Layer time metrics: reported name -> span names whose self time it sums.
QUERY_TIMES = {
    "features.top_features_s": ("features.top_features",),
    "intents.enumerate_s": ("intents.enumerate",),
    "intents.intersect_s": ("intents.intersect",),
    "slca.compute_s": ("slca.compute",),
    "slca.preview_s": ("slca.preview",),
    "slca.apply_s": ("slca.apply",),
    "diversify.self_s": ("diversify.run_topk",),
    "anchors.partition_s": ("anchors.partition",),
    "anchors.area_results_s": ("anchors.area_results",),
    "anchors.covered_scan_s": ("anchors.covered_scan",),
    "parallel.plan_s": ("parallel.plan",),
}
QUERY_COUNTS = (
    "features.calls",
    "features.pairs_scanned",
    "features.kept",
    "intents.generated",
    "intents.intersections",
    "intents.intersect_nodes_in",
    "slca.calls",
    "slca.nodes_in",
    "slca.results",
    "diversify.evaluated",
    "diversify.admitted",
    "diversify.evicted",
    "diversify.nodes_visited",
    "anchors.areas",
    "anchors.areas_skipped",
    "anchors.nodes_pruned",
)
# Index-path metrics are means per call of the function named.
SETUP_METRICS = {
    "indexing.parse_s": ("indexing.parse", "s"),
    "indexing.entities": ("indexing.parse", "count"),
    "indexing.build_s": ("indexing.build", "s"),
    "indexing.pairs": ("indexing.build", "count"),
    "storage.save_s": ("storage.save", "s"),
    "storage.bytes_written": ("storage.save", "bytes"),
    "storage.load_s": ("storage.load", "s"),
}
FEATURE_METRICS = (
    "features.top_features_s",
    "features.calls",
    "features.pairs_scanned",
    "features.kept",
)
ANCHOR_ENGINES = ("anchor", "parallel")


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    spec = [(name, unit) for name, (_, unit) in SETUP_METRICS.items()]
    for engine in ENGINES:
        for name in (*QUERY_TIMES, *QUERY_COUNTS):
            layer = name.split(".")[0]
            if layer == "parallel" and engine != "parallel":
                continue
            if layer == "anchors" and engine not in ANCHOR_ENGINES:
                continue
            spec.append((f"{name}.{engine}", "s" if name.endswith("_s") else "count"))
        spec.append((f"diversify.admit_ratio.{engine}", "ratio"))
        if engine in ANCHOR_ENGINES:
            spec.append((f"anchors.live_ratio.{engine}", "ratio"))
        spec.append((f"trace.overhead_ms.{engine}", "ms"))
    spec += [
        ("parallel.evaluate_area_s.parallel", "s"),
        ("parallel.intersections_saved.parallel", "count"),
    ]
    spec += [(f"{name}.probe", "s" if name.endswith("_s") else "count") for name in FEATURE_METRICS]
    return spec


@dataclass
class _Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


class CountingPairs(dict):
    """Co-occurrence dict that counts the entries iterated over.

    Swapped into the traced index so ``features.pairs_scanned`` measures
    how many pairs feature mining walks.  A walk is counted whole when it
    starts, and the plain dict iterator is returned, so the trace adds no
    cost per pair.  ``top_features`` never stops a walk early.
    """

    def __init__(self, data: dict, tracer: "Tracer") -> None:
        super().__init__(data)
        self._tracer = tracer

    def __iter__(self):
        self._tracer.count("features.pairs_scanned", len(self))
        return super().__iter__()

    def keys(self):
        self._tracer.count("features.pairs_scanned", len(self))
        return super().keys()

    def items(self):
        self._tracer.count("features.pairs_scanned", len(self))
        return super().items()


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[_Span] = []
        self._counts: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []
        # (metric, tag) -> summed value; tag -> operations; span -> calls
        self.totals: dict[tuple[str, str], float] = {}
        self.ops: dict[str, int] = {}
        self.calls: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(_Span(name, 0.0, parent=stack[-1] if stack else None))
        stack.append(index)
        record = self.spans[index]
        record.start = time.perf_counter()
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + value

    @contextmanager
    def op(self, tag: str):
        """One benchmark operation; its spans are folded in when it ends."""
        try:
            with self.span("op"):
                yield
        finally:
            self._fold(tag)

    def _fold(self, tag: str) -> None:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        for span, child_time in zip(self.spans, covered):
            duration = span.end - span.start
            self._add((span.name + ":self", tag), duration - child_time)
            self._add((span.name + ":total", tag), duration)
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
        for name, value in self._counts.items():
            self._add((name, tag), value)
        self.ops[tag] = self.ops.get(tag, 0) + 1
        self.spans = []
        self._counts = {}

    def _add(self, key: tuple[str, str], value: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + value

    def merge(self, data: dict) -> None:
        """Add totals written by a traced child process (see ``dump``)."""
        for key, value in data["totals"]:
            self._add(tuple(key), value)
        for counts, into in ((data["calls"], self.calls), (data["ops"], self.ops)):
            for name, n in counts.items():
                into[name] = into.get(name, 0) + n

    def dump(self) -> dict:
        return {"totals": [[list(k), v] for k, v in self.totals.items()], "calls": self.calls, "ops": self.ops}

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_iter(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                self.count(counter)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every layer boundary with its wrapper; ``uninstall`` undoes it."""
        from divsearch import anchors, diversify, features, indexing, intents, parallel, slca, storage

        c = self.count

        def on_parse(args, kwargs, records):
            c("indexing.entities", len(records))

        def on_build(args, kwargs, bundle):
            c("indexing.pairs", len(bundle.cooccur))

        def on_save(args, kwargs, result):
            directory = Path(args[1] if len(args) > 1 else kwargs["directory"])
            c("storage.bytes_written", sum(p.stat().st_size for p in directory.iterdir()))

        def on_features(args, kwargs, entries):
            c("features.calls")
            c("features.kept", len(entries))

        def on_intersect(args, kwargs, nodes):
            keyword, feature, index = args
            c("intents.intersections")
            c("intents.intersect_nodes_in", len(index.posting(keyword)) + len(index.posting(feature)))

        def on_slca(args, kwargs, result):
            c("slca.calls")
            c("slca.nodes_in", sum(len(lst) for lst in args[0]))
            c("slca.results", len(result))

        def on_apply(args, kwargs, result):
            c("diversify.admitted")

        def on_remove(args, kwargs, result):
            c("diversify.evicted")

        def on_partition(args, kwargs, result):
            c("anchors.areas", len(result[0]))

        def on_resolve(args, kwargs, segment):
            if segment.feature is not None:
                c("parallel.segments_resolved")

        def counted_evaluate(evaluate):
            def inner(intent, pool):
                c("diversify.evaluated")
                return evaluate(intent, pool)

            return inner

        run_topk = diversify.run_topk

        def traced_run_topk(intents, k, evaluate):
            with self.span("diversify.run_topk"):
                topk, stats = run_topk(intents, k, counted_evaluate(evaluate))
            c("diversify.nodes_visited", stats.nodes_visited)
            c("anchors.nodes_pruned", stats.nodes_pruned)
            c("anchors.areas_skipped", stats.areas_skipped)
            return topk, stats

        functions = [
            (indexing.parse_corpus, self._timed("indexing.parse", indexing.parse_corpus, on_parse)),
            (indexing.build_index, self._timed("indexing.build", indexing.build_index, on_build)),
            (storage.save_index, self._timed("storage.save", storage.save_index, on_save)),
            (storage.load_index, self._timed("storage.load", storage.load_index)),
            (features.top_features, self._timed("features.top_features", features.top_features, on_features)),
            (intents.iter_combinations, self._timed_iter("intents.enumerate", intents.iter_combinations, "intents.generated")),
            (intents.segment_node_list, self._timed("intents.intersect", intents.segment_node_list, on_intersect)),
            (slca.compute_slca, self._timed("slca.compute", slca.compute_slca, on_slca)),
            (run_topk, traced_run_topk),
            (anchors.partition_areas, self._timed("anchors.partition", anchors.partition_areas, on_partition)),
            (anchors.area_results, self._timed("anchors.area_results", anchors.area_results)),
            (anchors.covered_anchor_ancestors, self._timed("anchors.covered_scan", anchors.covered_anchor_ancestors)),
            (parallel.plan_shared_segments, self._timed("parallel.plan", parallel.plan_shared_segments)),
            (parallel.evaluate_area, self._timed("parallel.evaluate_area", parallel.evaluate_area)),
        ]
        modules = [m for name, m in list(sys.modules.items()) if name == "divsearch" or name.startswith("divsearch.")]
        for original, wrapper in functions:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        methods = [
            (slca.DiversifiedSet, "preview", "slca.preview", None),
            (slca.DiversifiedSet, "apply", "slca.apply", on_apply),
            (slca.DiversifiedSet, "remove_intent", "slca.apply", on_remove),
            (parallel.SharedSegmentTable, "resolve", "parallel.resolve", on_resolve),
        ]
        for cls, attr, name, after in methods:
            self._patch(cls, attr, self._timed(name, getattr(cls, attr), after))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    @contextmanager
    def traced(self, tag: str):
        """Install the wrappers around one operation tagged ``tag``."""
        with self.installed(), self.op(tag):
            yield

    def counting_index(self, index):
        """A copy of ``index`` whose pair iterations are counted."""
        return replace(index, cooccur=CountingPairs(index.cooccur, self))

    # -- reporting ---------------------------------------------------------

    def _per_op(self, metric: str, tag: str) -> float:
        ops = self.ops.get(tag, 0)
        return self.totals.get((metric, tag), 0.0) / ops if ops else 0.0

    def per_layer(self, overhead_ms: dict[str, float]) -> dict[str, float]:
        """The values of :func:`per_layer_spec`, per operation or per call."""
        out: dict[str, float] = {}
        for name, (span, unit) in SETUP_METRICS.items():
            calls = self.calls.get(span, 0)
            key = span + ":self" if unit == "s" else name
            total = sum(v for (metric, _), v in self.totals.items() if metric == key)
            out[name] = total / calls if calls else 0.0
        for tag in (*ENGINES, "probe"):
            for name, spans in QUERY_TIMES.items():
                out[f"{name}.{tag}"] = sum(self._per_op(span + ":self", tag) for span in spans)
            for name in QUERY_COUNTS:
                out[f"{name}.{tag}"] = self._per_op(name, tag)
            evaluated = out[f"diversify.evaluated.{tag}"]
            out[f"diversify.admit_ratio.{tag}"] = out[f"diversify.admitted.{tag}"] / evaluated if evaluated else 0.0
            areas = out[f"anchors.areas.{tag}"]
            live = areas - out[f"anchors.areas_skipped.{tag}"]
            out[f"anchors.live_ratio.{tag}"] = live / areas if areas else 0.0
        for engine, value in overhead_ms.items():
            out[f"trace.overhead_ms.{engine}"] = value
        out["parallel.evaluate_area_s.parallel"] = self._per_op("parallel.evaluate_area:total", "parallel")
        out["parallel.intersections_saved.parallel"] = self._per_op(
            "parallel.segments_resolved", "parallel"
        ) - self._per_op("intents.intersections", "parallel")
        return {name: out[name] for name, _ in per_layer_spec()}


def main(argv: list[str]) -> int:
    """Run ``divsearch.cli.main(argv[1:])`` traced; totals go to argv[0]."""
    from divsearch.cli import main as cli_main

    tracer = Tracer()
    with tracer.traced("cli"):
        code = cli_main(argv[1:])
    Path(argv[0]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""divsearch driven in a fresh interpreter, for the benchmark's timings.

    python3 perfbench/worker.py setup XML LABEL DIR [TRACE_OUT]
    python3 perfbench/worker.py serve --index DIR [--trace]

``setup`` runs parse_corpus, build_index, save_index and load_index once
and prints ``{"setup_s", "entities"}``; with TRACE_OUT it runs traced and
writes the tracer's totals there.

``serve`` loads the index from DIR, then answers one JSON request per
stdin line with one JSON reply per stdout line, one at a time:

* ``{"op": "engine", "engine", "terms", "k", "m", "label"}`` ->
  ``{"ms", "report"}``: one engine call and its report, rendered with
  ``cli.render_search_report`` under ``label``.  With ``"check": true``
  the reply also holds ``"topk"``, the result as plain data for the
  oracles.  An optional ``"tag"`` files the call's spans under another
  name than the engine's;
* ``{"op": "features", "term", "m", "calls"}`` -> ``{"ms": [...],
  "entries": [[feature, mi], ...]}``: ``calls`` top_features calls;
* ``{"op": "finish"}`` -> the tracer's totals and, per engine, the
  traced minus untraced times (``--trace`` only).

Each timed call runs in a process that set up its index once and does
nothing else, as a user's would.  In a process that has built and freed
indexes before, the same call reads up to twice as slow, because the
index it walks lies scattered over a fragmented heap.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import divsearch  # noqa: E402
from divsearch.cli import render_search_report  # noqa: E402
from tracer import ENGINES, Tracer  # noqa: E402

WORKERS = 2  # parallel engine threads: the core count of the reference machine

ENGINE_CALLS = {
    "baseline": lambda r, index: divsearch.diversify_baseline(r["terms"], r["k"], r["m"], index),
    "anchor": lambda r, index: divsearch.diversify_anchored(r["terms"], r["k"], r["m"], index),
    "parallel": lambda r, index: divsearch.diversify_parallel(r["terms"], r["k"], r["m"], index, workers=WORKERS),
}


def plain(topk) -> dict:
    """The fields the oracles check, as JSON data."""
    return {
        "entries": [
            {
                "label": e.intent.label(),
                "segments": [[s.keyword, s.feature] for s in e.intent.segments],
                "results": list(e.results),
                "relevance": e.relevance,
                "dif": e.dif,
                "score": e.score,
            }
            for e in topk.entries
        ],
        "phi": list(topk.phi),
    }


def setup(argv: list[str]) -> int:
    xml_path, label, directory, *trace_out = argv
    xml = Path(xml_path).read_bytes()
    config = divsearch.IndexConfig(entity_labels=frozenset({label}))
    tracer = Tracer()
    with tracer.traced("setup") if trace_out else nullcontext():
        t0 = time.perf_counter()
        bundle = divsearch.build_index(divsearch.parse_corpus(xml, config), config)
        divsearch.save_index(bundle, directory)
        index = divsearch.load_index(directory)
        elapsed = time.perf_counter() - t0
    if trace_out:
        Path(trace_out[0]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    print(json.dumps({"setup_s": elapsed, "entities": index.entity_count}))
    return 0


class Server:
    def __init__(self, index, trace: bool) -> None:
        self.index = index
        self.trace = trace
        self.tracer = Tracer()
        self.traced_index = self.tracer.counting_index(index) if trace else index
        self.overhead: dict[str, list[float]] = {e: [] for e in ENGINES}

    def maybe_traced(self, tag: str):
        return self.tracer.traced(tag) if self.trace else nullcontext()

    def engine(self, r: dict) -> dict:
        call = ENGINE_CALLS[r["engine"]]
        if self.trace:
            t0 = time.perf_counter()
            call(r, self.index)
            untraced = time.perf_counter() - t0
        with self.maybe_traced(r.get("tag", r["engine"])):
            t0 = time.perf_counter()
            topk, _ = call(r, self.traced_index)
            elapsed = time.perf_counter() - t0
        if self.trace:
            self.overhead[r["engine"]].append((elapsed - untraced) * 1000)
        reply = {"ms": elapsed * 1000, "report": render_search_report(r["terms"], r["k"], r["m"], r["label"], topk)}
        if r.get("check"):
            reply["topk"] = plain(topk)
        return reply

    def features(self, r: dict) -> dict:
        times = []
        for _ in range(r["calls"]):
            with self.maybe_traced("probe"):
                t0 = time.perf_counter()
                entries = divsearch.top_features(r["term"], r["m"], self.traced_index)
                times.append((time.perf_counter() - t0) * 1000)
        return {"ms": times, "entries": [[e.feature, e.mi] for e in entries]}

    def finish(self, r: dict) -> dict:
        return {"trace": self.tracer.dump(), "overhead_ms": self.overhead}


def serve(argv: list[str]) -> int:
    trace = "--trace" in argv
    index = divsearch.load_index(argv[1])
    gc.collect()  # once: a full collection over the whole index costs more than most queries
    server = Server(index, trace)
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(getattr(server, request["op"])(request)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit({"setup": setup, "serve": serve}[sys.argv[1]](sys.argv[2:]))

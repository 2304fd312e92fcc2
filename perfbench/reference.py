"""Per-stage and per-engine reference figures for perfbench/README.md.

    python3 perfbench/reference.py

Times each pipeline stage once on the skewed corpus (seed 20250804, 1,200
sections, the corpus of the "Measured starting point" table), then the query
``hub0 hub1`` on every engine: baseline and anchor at (k, m) = (5, 5) and
(10, 20), parallel at (10, 20) with 1, 2 and 4 workers.  These are single
runs, the layout of the "Measured starting point" table in ROADMAP.md; the
benchmark proper is run.py.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import divsearch  # noqa: E402
from corpora import skewed_corpus  # noqa: E402

SEED = 20250804
SECTIONS = 1200


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - t0) * 1000


def main() -> int:
    corpus = skewed_corpus(SEED, SECTIONS)
    config = divsearch.IndexConfig(entity_labels=frozenset({"item"}))
    records, parse_ms = timed(divsearch.parse_corpus, corpus.xml, config)
    bundle, build_ms = timed(divsearch.build_index, records, config)
    del records
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        _, save_ms = timed(divsearch.save_index, bundle, tmp)
        index, load_ms = timed(divsearch.load_index, tmp)
    print(
        f"corpus: seed {SEED}, {SECTIONS} sections, {index.entity_count} entities,"
        f" {len(index.postings)} terms, {len(index.cooccur)} pairs, {len(corpus.xml)} bytes of XML"
    )
    print(f"parse / build / save / load ms: {parse_ms:.0f} / {build_ms:.0f} / {save_ms:.0f} / {load_ms:.0f}")
    query = ["hub0", "hub1"]
    for name, engine in (("baseline", divsearch.diversify_baseline), ("anchor", divsearch.diversify_anchored)):
        cells = []
        for k, m in ((5, 5), (10, 20)):
            (_, stats), ms = timed(engine, query, k, m, index)
            cells.append(f"k={k} m={m}: {ms:.0f} ms, {stats.nodes_visited} nodes visited")
        print(f"{name}: " + "; ".join(cells))
    cells = []
    for workers in (1, 2, 4):
        _, ms = timed(divsearch.diversify_parallel, query, 10, 20, index, workers=workers)
        cells.append(f"workers={workers}: {ms:.0f} ms")
    print("parallel k=10 m=20: " + "; ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())

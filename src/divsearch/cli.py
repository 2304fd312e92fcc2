"""Command-line interface: index building, feature inspection, search.

Report output is byte-stable for fixed inputs: keys appear in a fixed
order, floats use 12 significant digits, and run-dependent fields (worker
count, work counters, elapsed time) appear only when --stats is given.
``search --query`` and ``features --term`` read their words as the index
tokenizes text, stop words included, and read only the part of the index
those words need (``storage.load_for_query``).  ``search`` imports the
anchor or parallel engine only when ``--algo`` names it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path
from typing import Sequence

from .diversify import EvalStats, ScoredIntent, TopK, diversify_baseline
from .errors import DivSearchError, IndexFormatError, NoIntentError
from .features import top_features
from .indexing import DEFAULT_STOPWORDS, IndexConfig, index_corpus, is_token
from .slca import DiversifiedSet
from .storage import load_for_query, save_index


def _f(x: float) -> str:
    """Fixed 12-significant-digit float rendering for portable output."""
    return f"{x:.12g}"


def _j(value: object) -> str:
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _render_intent_json(entry: ScoredIntent) -> str:
    segments = ",".join(
        f'{{"keyword":{_j(s.keyword)},"feature":{_j(s.feature)}}}'
        for s in entry.intent.segments
    )
    results = ",".join(_j(str(d)) for d in entry.results)
    return (
        f'{{"segments":[{segments}]'
        f',"aggMi":{_f(entry.intent.agg_mi)}'
        f',"relevance":{_f(entry.relevance)}'
        f',"dif":{_f(entry.dif)}'
        f',"score":{_f(entry.score)}'
        f',"results":[{results}]}}'
    )


def render_search_report(
    query: Sequence[str],
    k: int,
    m: int,
    algo: str,
    topk: TopK,
    *,
    workers: int | None = None,
    stats: tuple[int, int, int] | None = None,
    elapsed_ms: int | None = None,
) -> str:
    fields = [
        f'"query":{_j(list(query))}',
        f'"k":{k}',
        f'"m":{m}',
        f'"algo":{_j(algo)}',
    ]
    if workers is not None:
        fields.append(f'"workers":{workers}')
    fields.append(
        '"intents":[%s]' % ",".join(_render_intent_json(e) for e in topk.entries)
    )
    fields.append(f'"phi":{_j([str(d) for d in topk.phi])}')
    if stats is not None:
        visited, pruned, skipped = stats
        fields.append(
            f'"stats":{{"nodesVisited":{visited}'
            f',"nodesPruned":{pruned},"areasSkipped":{skipped}}}'
        )
    if elapsed_ms is not None:
        fields.append(f'"elapsedMs":{elapsed_ms}')
    return "{%s}" % ",".join(fields)


def render_search_csv(topk: TopK) -> list[str]:
    lines = ["segments,aggMi,relevance,dif,score,results"]
    for entry in topk.entries:
        results = " ".join(str(d) for d in entry.results)
        lines.append(
            f"{entry.intent.label()},{_f(entry.intent.agg_mi)},{_f(entry.relevance)}"
            f",{_f(entry.dif)},{_f(entry.score)},{results}"
        )
    return lines


def _read_stopwords(path: str | None) -> frozenset[str]:
    if path is None:
        return DEFAULT_STOPWORDS
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        head = exc.object[: exc.start]  # its line ends as text mode reads them: LF, CR LF, CR
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DivSearchError(f"{path}:{line}: invalid UTF-8: {exc.reason}") from exc
    # a word that is not one token, such as "don't", can never match one
    return frozenset(word for word in text.lower().split() if is_token(word))


def cmd_index(args: argparse.Namespace) -> int:
    config = IndexConfig(
        entity_labels=frozenset(args.entity),
        window=args.window,
        stopwords=_read_stopwords(args.stopwords),
    )
    data = Path(args.input).read_bytes()
    bundle = index_corpus(data, config)
    try:
        save_index(bundle, args.out)
    except ValueError as exc:  # a bundle it cannot write, such as a label with a backslash
        raise DivSearchError(str(exc)) from exc
    print(
        f"entities={bundle.entity_count}"
        f" terms={len(bundle.postings)}"
        f" triplets={len(bundle.cooccur)}"
    )
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    terms, index = load_for_query(args.index, args.term)
    if len(terms) != 1:
        print("error: term must be one keyword", file=sys.stderr)
        return 2
    (term,) = terms
    entries = top_features(term, args.top, index)
    if args.format == "csv":
        print("feature,mi")
        for entry in entries:
            print(f"{entry.feature},{_f(entry.mi)}")
    else:
        rows = ",".join(
            f'{{"feature":{_j(e.feature)},"mi":{_f(e.mi)}}}' for e in entries
        )
        print(f'{{"term":{_j(term)},"features":[{rows}]}}')
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    keywords, index = load_for_query(args.index, args.query)
    if not keywords:
        print("error: query contains no keywords", file=sys.stderr)
        return 2

    if args.algo == "anchor":
        from .anchors import diversify_anchored as engine
    elif args.algo == "parallel":
        from .parallel import diversify_parallel

        engine = partial(diversify_parallel, workers=args.workers)
    else:
        engine = diversify_baseline
    started = time.perf_counter()
    try:
        topk, stats = engine(keywords, args.k, args.m, index, budget=args.budget)
    except NoIntentError:
        topk = TopK(k=args.k, entries=(), phi=DiversifiedSet())
        stats = EvalStats()  # nothing was evaluated
    elapsed_ms = int((time.perf_counter() - started) * 1000)

    if args.format == "csv":
        for line in render_search_csv(topk):
            print(line)
        return 0

    with_stats = args.stats
    report = render_search_report(
        keywords,
        args.k,
        args.m,
        args.algo,
        topk,
        workers=args.workers if with_stats and args.algo == "parallel" else None,
        stats=(
            (stats.nodes_visited, stats.nodes_pruned, stats.areas_skipped)
            if with_stats
            else None
        ),
        elapsed_ms=elapsed_ms if with_stats else None,
    )
    print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divsearch",
        description="Diversified keyword search over XML corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build and save an index from XML")
    p_index.add_argument("--input", required=True, help="XML corpus file")
    p_index.add_argument(
        "--entity", action="append", required=True, help="entity element name (repeatable)"
    )
    p_index.add_argument("--out", required=True, help="output index directory")
    p_index.add_argument("--window", type=_positive_int, default=3)
    p_index.add_argument("--stopwords", help="file of stop words replacing the default list")
    p_index.set_defaults(func=cmd_index)

    p_feat = sub.add_parser("features", help="show top MI features for a term")
    p_feat.add_argument("--index", required=True)
    p_feat.add_argument("--term", required=True)
    p_feat.add_argument("--top", type=_positive_int, default=10)
    p_feat.add_argument("--format", choices=("json", "csv"), default="json")
    p_feat.set_defaults(func=cmd_features)

    p_search = sub.add_parser("search", help="run diversified search")
    p_search.add_argument("--index", required=True)
    p_search.add_argument("--query", required=True)
    p_search.add_argument("--k", type=_positive_int, default=10)
    p_search.add_argument("--m", type=_positive_int, default=20)
    p_search.add_argument(
        "--algo", choices=("baseline", "anchor", "parallel"), default="baseline"
    )
    p_search.add_argument("--workers", type=_positive_int, default=4)
    p_search.add_argument("--budget", type=_positive_int, default=None)
    p_search.add_argument("--stats", action="store_true")
    p_search.add_argument("--format", choices=("json", "csv"), default="json")
    p_search.set_defaults(func=cmd_search)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DivSearchError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, IndexFormatError):  # the file, and the line if known
            message = f"{exc.path}:{exc.line}: {exc}" if exc.line else f"{exc.path}: {exc}"
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

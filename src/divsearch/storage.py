"""Index persistence: a small directory of JSON/JSONL files.

Layout (UTF-8, LF endings, fixed key order per line):

* ``manifest.json``   {"version":1,"entityCount":N,"window":W,"entityLabels":[...],"logBase":"e"}
* ``entities.jsonl``  one {"dewey","label"} per entity, document order
* ``postings.jsonl``  one {"term","entities"} per term, terms sorted
* ``cooccur.jsonl``   one {"a","b","count"} per pair, count desc then (a,b) asc
* ``stopwords.txt``   the stop words, ascending, one per line; an index
  without it has none

``load_index(save_index(b)) == b`` holds field for field; every writer choice
below (sorting, separators) exists to keep the bytes canonical.

In memory a posting holds entity ordinals; on disk it holds each entity's
Dewey text, so the files do not depend on that representation.  The writer
emits one canonical shape per file: compact separators, the key order above,
and a Dewey ID as ``str(DeweyId)``.  The loader reads that shape on a fast
path: a posting's Dewey text is looked up among the entities' own texts,
which gives its ordinal, and a cooccur line is matched by one regular
expression instead of ``json.loads``.  Any other valid JSON line (other
spacing or key order, escaped characters, ``"1.01"`` for ``1.1``) goes
through ``json.loads`` and the full checks, so it loads to the same bundle
or fails with the same message, file and line.

A loaded bundle shares objects between its parts: a cooccur key holds the
postings' own term strings.  The per-term pair lists
(``IndexBundle.neighbours``) and the entity table
(``IndexBundle.entity_table``) are not built here but on first use, as for a
bundle fresh from ``build_index``.
"""

from __future__ import annotations

import json
import math
import operator
import re
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

from .dewey import DeweyId
from .errors import IndexFormatError, IndexVersionError
from .indexing import EntityInfo, IndexBundle, IndexConfig, is_token

FORMAT_VERSION = 1

MANIFEST_FILE = "manifest.json"
ENTITIES_FILE = "entities.jsonl"
POSTINGS_FILE = "postings.jsonl"
COOCCUR_FILE = "cooccur.jsonl"
STOPWORDS_FILE = "stopwords.txt"

# The writer's cooccur line, with its "\n" when it has one.  A JSON string
# holding no '"', no '\' and no control character reads back as its raw
# text, so a match yields exactly what json.loads would; any other line goes
# through json.loads.
_JSON_STR = r'"([^"\\\x00-\x1f]*)"'
_COOCCUR_LINE = re.compile(r'\{"a":%s,"b":%s,"count":([1-9][0-9]*)\}\n?' % (_JSON_STR, _JSON_STR))


def _dump(obj: Any) -> str:
    # separators chosen for byte-stable, compact output
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


class _JsonText(dict):
    """``value -> _dump(value)``, computed once per distinct value."""

    def __missing__(self, value: Any) -> str:
        text = self[value] = _dump(value)
        return text


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    # every line carries its own "\n"; writelines streams a generator
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def _triplets(
    cooccur: dict[tuple[str, str], int], terms: list[str]
) -> Iterator[tuple[str, str, int]]:
    """Every (a, b, count), by count descending, then pair ascending.

    ``terms`` is sorted.  The sort key packs (-count, rank of a, rank of b)
    into one int, so the sort compares ints rather than tuples of strings.
    The sort runs here, before the caller writes anything.
    """
    rank = {term: i for i, term in enumerate(terms)}
    n = len(terms)
    nn = n * n
    try:
        keys = sorted([rank[a] * n + rank[b] - count * nn for (a, b), count in cooccur.items()])
    except KeyError as exc:
        raise ValueError(f"cooccur pair names a term without postings: {exc.args[0]!r}") from None

    def triplet(key: int) -> tuple[str, str, int]:
        neg_count, pair = divmod(key, nn)
        return terms[pair // n], terms[pair % n], -neg_count

    return map(triplet, keys)


def save_index(bundle: IndexBundle, directory: str | Path) -> None:
    """Write the index files, creating the directory if needed.

    Each line is assembled from the JSON text of its parts; a term or a label
    is encoded once however many lines name it, and so is each entity's
    Dewey text (digits and dots, which need no escaping).  The bytes equal
    those of one compact ``json.dumps`` per row.

    Raises ``ValueError``, before writing any file, if a cooccur pair names
    a term without postings or a stop word is not one token:
    :func:`load_index` would reject that index.
    """
    directory = Path(directory)
    terms = sorted(bundle.postings)
    triplets = _triplets(bundle.cooccur, terms)
    stopwords = sorted(bundle.config.stopwords)
    for word in stopwords:
        if not is_token(word):
            raise ValueError(f"stop word is not one token: {word!r}")
    directory.mkdir(parents=True, exist_ok=True)

    manifest = {
        "version": FORMAT_VERSION,
        "entityCount": bundle.entity_count,
        "window": bundle.config.window,
        "entityLabels": sorted(bundle.config.entity_labels),
        "logBase": "e",  # MI uses the natural log
    }
    _write_lines(directory / MANIFEST_FILE, [_dump(manifest) + "\n"])

    encoded = _JsonText()  # labels and terms
    texts = [str(e.dewey) for e in bundle.entities]  # by ordinal
    _write_lines(
        directory / ENTITIES_FILE,
        (
            '{"dewey":"%s","label":%s}\n' % (text, encoded[e.label])
            for text, e in zip(texts, bundle.entities)
        ),
    )

    _write_lines(
        directory / POSTINGS_FILE,
        (
            '{"term":%s,"entities":["%s"]}\n'
            % (encoded[term], '","'.join(map(texts.__getitem__, bundle.postings[term])))
            for term in terms
        ),
    )

    _write_lines(
        directory / COOCCUR_FILE,
        (
            '{"a":%s,"b":%s,"count":%d}\n' % (encoded[a], encoded[b], count)
            for a, b, count in triplets
        ),
    )

    _write_lines(directory / STOPWORDS_FILE, (word + "\n" for word in stopwords))


@contextmanager
def _reading(path: Path) -> Iterator[TextIO]:
    """``path`` open for reading; a read or decode error is an IndexFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise IndexFormatError(f"cannot read index file: {exc}", path=path.name) from exc
    except UnicodeDecodeError as exc:
        raise IndexFormatError(
            f"invalid UTF-8: {exc.reason}", path=path.name, line=_undecodable_line(path)
        ) from exc


def _iter_lines(path: Path) -> Iterator[tuple[int, str]]:
    with _reading(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.rstrip("\n")
            if not raw:
                raise _fail(path, lineno, "blank line")
            yield lineno, raw


def _undecodable_line(path: Path) -> int:
    """1-based number of the first line of ``path`` that is not UTF-8.

    Text-mode reads decode many lines at once, so the line being read when
    decoding fails need not be the one at fault.  Undecodable bytes become
    lone surrogates here, which do not encode back.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                return lineno
    return 0


def _decode(raw: str, path: Path, lineno: int) -> Any:
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise IndexFormatError(
            f"invalid JSON: {exc.msg}", path=path.name, line=lineno
        ) from exc


def _iter_jsonl(path: Path) -> Iterator[tuple[int, Any]]:
    for lineno, raw in _iter_lines(path):
        yield lineno, _decode(raw, path, lineno)


def _fail(path: Path, lineno: int, message: str) -> IndexFormatError:
    return IndexFormatError(message, path=path.name, line=lineno)


def _parse_dewey(text: Any, path: Path, lineno: int) -> DeweyId:
    if not isinstance(text, str):
        raise _fail(path, lineno, f"expected Dewey string, got {text!r}")
    try:
        return DeweyId.parse(text)
    except ValueError as exc:
        raise _fail(path, lineno, str(exc)) from exc


def _is_int(value: Any) -> bool:
    """True for a JSON integer; ``true`` and ``1.0`` compare equal to 1."""
    return type(value) is int


def _load_manifest(directory: Path) -> dict[str, Any]:
    path = directory / MANIFEST_FILE
    rows = list(_iter_jsonl(path))
    if len(rows) != 1 or not isinstance(rows[0][1], dict):
        raise _fail(path, len(rows), "manifest must be a single JSON object")
    manifest = rows[0][1]
    version = manifest.get("version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise IndexVersionError(
            f"unsupported index version {version!r} (expected {FORMAT_VERSION})",
            path=path.name,
            line=1,
        )
    labels = manifest.get("entityLabels")
    if (
        not _is_int(manifest.get("entityCount"))
        or manifest["entityCount"] < 1
        or not _is_int(manifest.get("window"))
        or manifest["window"] < 1
        or not isinstance(labels, list)
        or not labels
        or not all(isinstance(l, str) for l in labels)
        or manifest.get("logBase") != "e"
    ):
        raise _fail(path, 1, "manifest fields missing or invalid")
    return manifest


def load_index(directory: str | Path) -> IndexBundle:
    """Read and validate an index directory written by :func:`save_index`."""
    directory = Path(directory)
    manifest = _load_manifest(directory)

    labels = frozenset(manifest["entityLabels"])
    path = directory / ENTITIES_FILE
    entities: list[EntityInfo] = []
    # Dewey text as written -> the entity's ordinal; postings resolve through it
    by_text: dict[str, int] = {}
    for lineno, row in _iter_jsonl(path):
        if not isinstance(row, dict) or not isinstance(row.get("label"), str):
            raise _fail(path, lineno, "expected {dewey,label} object")
        if row["label"] not in labels:
            raise _fail(path, lineno, f"entity label {row['label']!r} not in the manifest")
        dewey = _parse_dewey(row.get("dewey"), path, lineno)
        if entities and dewey <= entities[-1].dewey:
            raise _fail(path, lineno, "entities not in document order")
        by_text[row["dewey"]] = len(entities)
        entities.append(EntityInfo(dewey, row["label"]))
    if len(entities) != manifest["entityCount"]:
        raise _fail(path, len(entities), "entity count does not match manifest")

    path = directory / POSTINGS_FILE
    postings: dict[str, tuple[int, ...]] = {}
    by_dewey: dict[DeweyId, int] | None = None
    last_term: str | None = None
    for lineno, row in _iter_jsonl(path):
        if (
            not isinstance(row, dict)
            or not isinstance(row.get("term"), str)
            or not isinstance(row.get("entities"), list)
            or not row["entities"]
        ):
            raise _fail(path, lineno, "expected {term,entities} object")
        term = row["term"]
        if last_term is not None and term <= last_term:
            raise _fail(path, lineno, "terms not sorted")
        last_term = term
        try:
            # one lookup parses the text, proves the entity known and gives
            # its ordinal; ordinals sort as the entities' Dewey IDs do
            ids = list(map(by_text.__getitem__, row["entities"]))
            order: list[Any] = ids
            unknown: list[DeweyId] = []
        except (KeyError, TypeError):
            # non-canonical text or an unknown entity: parse every entry
            order = [_parse_dewey(text, path, lineno) for text in row["entities"]]
            if by_dewey is None:
                by_dewey = {e.dewey: i for i, e in enumerate(entities)}
            ids = [by_dewey.get(dewey, -1) for dewey in order]
            unknown = [dewey for dewey, i in zip(order, ids) if i < 0]
        if any(map(operator.ge, order, islice(order, 1, None))):
            raise _fail(path, lineno, f"posting list for {term!r} not sorted")
        if unknown:
            raise _fail(path, lineno, f"posting references unknown entity {unknown[0]}")
        postings[term] = tuple(ids)

    path = directory / COOCCUR_FILE
    cooccur: dict[tuple[str, str], int] = {}
    # one lookup proves a term known and hands back the postings' own key,
    # so the pairs share the terms' strings
    known_term = {term: term for term in postings}.get
    last_count: float = math.inf  # no line before the first
    last_pair = ("", "")
    canonical = _COOCCUR_LINE.fullmatch
    with _reading(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            match = canonical(raw)
            if match is not None:
                a, b, digits = match.groups()
                count = int(digits)
            else:
                raw = raw.rstrip("\n")
                if not raw:
                    raise _fail(path, lineno, "blank line")
                row = _decode(raw, path, lineno)
                if (
                    not isinstance(row, dict)
                    or not isinstance(row.get("a"), str)
                    or not isinstance(row.get("b"), str)
                    or not _is_int(row.get("count"))
                ):
                    raise _fail(path, lineno, "expected {a,b,count} object")
                a, b, count = row["a"], row["b"], row["count"]
            if a >= b:
                raise _fail(path, lineno, "pair not in canonical order (a < b)")
            if count < 1:
                raise _fail(path, lineno, "count must be >= 1")
            a = known_term(a)
            b = known_term(b)
            if a is None or b is None:
                raise _fail(path, lineno, "pair references unknown term")
            pair = (a, b)
            # sorted means count descending, then pair ascending
            if count >= last_count and (count > last_count or pair <= last_pair):
                raise _fail(path, lineno, "triplets not sorted by count desc, pair asc")
            last_count = count
            last_pair = pair
            cooccur[pair] = count

    path = directory / STOPWORDS_FILE
    stopwords: list[str] = []
    if path.exists():
        for lineno, word in _iter_lines(path):
            if not is_token(word):
                raise _fail(path, lineno, f"stop word is not one token: {word!r}")
            if stopwords and word <= stopwords[-1]:
                raise _fail(path, lineno, "stop words not sorted")
            stopwords.append(word)

    config = IndexConfig(
        entity_labels=labels,
        window=manifest["window"],
        stopwords=frozenset(stopwords),
    )
    return IndexBundle(
        entities=tuple(entities), postings=postings, cooccur=cooccur, config=config
    )

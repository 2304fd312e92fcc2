"""Index persistence: a small directory of JSON/JSONL files.

Layout (UTF-8, LF endings, fixed key order per line):

* ``manifest.json``   {"version":1,"entityCount":N,"window":W,"entityLabels":[...],"logBase":"e"}
* ``entities.jsonl``  one {"dewey","label"} per entity, document order
* ``postings.jsonl``  one {"term","entities"} per term, terms sorted
* ``cooccur.jsonl``   one {"a","b","count"} per pair, count desc then (a,b) asc

``load_index(save_index(b)) == b`` holds field for field; every writer choice
below (sorting, separators) exists to keep the bytes canonical.

The writer emits one canonical shape per file: compact separators, the key
order above, and a Dewey ID as ``str(DeweyId)``.  The loader reads that shape
on a fast path: a posting's Dewey text is looked up among the entities' own
texts, and a cooccur line is matched by one regular expression instead of
``json.loads``.  Any other valid JSON line (other spacing or key order,
escaped characters, ``"1.01"`` for ``1.1``) goes through ``json.loads`` and
the full checks, so it loads to the same bundle or fails with the same
message, file and line.
"""

from __future__ import annotations

import json
import operator
import re
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Iterator

from .dewey import DeweyId
from .errors import IndexFormatError, IndexVersionError
from .indexing import EntityInfo, IndexBundle, IndexConfig

FORMAT_VERSION = 1

MANIFEST_FILE = "manifest.json"
ENTITIES_FILE = "entities.jsonl"
POSTINGS_FILE = "postings.jsonl"
COOCCUR_FILE = "cooccur.jsonl"

# The writer's cooccur line.  A JSON string holding no '"', no '\' and no
# control character reads back as its raw text, so a match yields exactly
# what json.loads would; any other line goes through json.loads.
_JSON_STR = r'"([^"\\\x00-\x1f]*)"'
_COOCCUR_LINE = re.compile(r'\{"a":%s,"b":%s,"count":([1-9][0-9]*)\}' % (_JSON_STR, _JSON_STR))


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
    """Write the four index files, creating the directory if needed.

    Each line is assembled from the JSON text of its parts; a term or a label
    is encoded once however many lines name it, and a Dewey ID's text (digits
    and dots) needs no escaping.  The bytes equal those of one compact
    ``json.dumps`` per row.

    Raises ``ValueError``, before writing any file, if a cooccur pair names
    a term without postings: :func:`load_index` would reject that index.
    """
    directory = Path(directory)
    terms = sorted(bundle.postings)
    triplets = _triplets(bundle.cooccur, terms)
    directory.mkdir(parents=True, exist_ok=True)

    manifest = {
        "version": FORMAT_VERSION,
        "entityCount": bundle.entity_count,
        "window": bundle.config.window,
        "entityLabels": sorted(bundle.config.entity_labels),
        "logBase": bundle.config.log_base,
    }
    _write_lines(directory / MANIFEST_FILE, [_dump(manifest) + "\n"])

    encoded = _JsonText()  # labels and terms
    _write_lines(
        directory / ENTITIES_FILE,
        ('{"dewey":"%s","label":%s}\n' % (e.dewey, encoded[e.label]) for e in bundle.entities),
    )

    _write_lines(
        directory / POSTINGS_FILE,
        (
            '{"term":%s,"entities":["%s"]}\n'
            % (encoded[term], '","'.join(map(str, bundle.postings[term])))
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


def _iter_lines(path: Path) -> Iterator[tuple[int, str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                raw = raw.rstrip("\n")
                if not raw:
                    raise IndexFormatError("blank line", path=path.name, line=lineno)
                yield lineno, raw
    except OSError as exc:
        raise IndexFormatError(f"cannot read index file: {exc}", path=path.name) from exc


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


def _load_manifest(directory: Path) -> dict[str, Any]:
    path = directory / MANIFEST_FILE
    rows = list(_iter_jsonl(path))
    if len(rows) != 1 or not isinstance(rows[0][1], dict):
        raise _fail(path, len(rows), "manifest must be a single JSON object")
    manifest = rows[0][1]
    version = manifest.get("version")
    if version != FORMAT_VERSION:
        raise IndexVersionError(
            f"unsupported index version {version!r} (expected {FORMAT_VERSION})",
            path=path.name,
            line=1,
        )
    labels = manifest.get("entityLabels")
    if (
        not isinstance(manifest.get("entityCount"), int)
        or manifest["entityCount"] < 1
        or not isinstance(manifest.get("window"), int)
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

    path = directory / ENTITIES_FILE
    entities: list[EntityInfo] = []
    # Dewey text as written -> its DeweyId; postings resolve through it
    by_text: dict[str, DeweyId] = {}
    for lineno, row in _iter_jsonl(path):
        if not isinstance(row, dict) or not isinstance(row.get("label"), str):
            raise _fail(path, lineno, "expected {dewey,label} object")
        dewey = _parse_dewey(row.get("dewey"), path, lineno)
        if entities and dewey <= entities[-1].dewey:
            raise _fail(path, lineno, "entities not in document order")
        entities.append(EntityInfo(dewey, row["label"]))
        by_text[row["dewey"]] = dewey
    if len(entities) != manifest["entityCount"]:
        raise _fail(path, len(entities), "entity count does not match manifest")

    path = directory / POSTINGS_FILE
    postings: dict[str, tuple[DeweyId, ...]] = {}
    known: set[DeweyId] | None = None
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
            # one lookup parses the text and proves the entity known
            ids = list(map(by_text.__getitem__, row["entities"]))
            unknown: list[DeweyId] = []
        except (KeyError, TypeError):
            # non-canonical text or an unknown entity: parse every entry
            ids = [_parse_dewey(text, path, lineno) for text in row["entities"]]
            if known is None:
                known = set(by_text.values())
            unknown = [dewey for dewey in ids if dewey not in known]
        if any(map(operator.ge, ids, islice(ids, 1, None))):
            raise _fail(path, lineno, f"posting list for {term!r} not sorted")
        if unknown:
            raise _fail(path, lineno, f"posting references unknown entity {unknown[0]}")
        postings[term] = tuple(ids)

    path = directory / COOCCUR_FILE
    cooccur: dict[tuple[str, str], int] = {}
    last_key: tuple[int, str, str] | None = None
    canonical = _COOCCUR_LINE.fullmatch
    for lineno, raw in _iter_lines(path):
        match = canonical(raw)
        if match is not None:
            a, b, digits = match.groups()
            count = int(digits)
        else:
            row = _decode(raw, path, lineno)
            if (
                not isinstance(row, dict)
                or not isinstance(row.get("a"), str)
                or not isinstance(row.get("b"), str)
                or not isinstance(row.get("count"), int)
            ):
                raise _fail(path, lineno, "expected {a,b,count} object")
            a, b, count = row["a"], row["b"], row["count"]
        if a >= b:
            raise _fail(path, lineno, "pair not in canonical order (a < b)")
        if count < 1:
            raise _fail(path, lineno, "count must be >= 1")
        if a not in postings or b not in postings:
            raise _fail(path, lineno, "pair references unknown term")
        key = (-count, a, b)
        if last_key is not None and key <= last_key:
            raise _fail(path, lineno, "triplets not sorted by count desc, pair asc")
        last_key = key
        cooccur[(a, b)] = count

    config = IndexConfig(
        entity_labels=frozenset(manifest["entityLabels"]),
        window=manifest["window"],
        stopwords=frozenset(),
        log_base=manifest["logBase"],
    )
    return IndexBundle(
        entities=tuple(entities), postings=postings, cooccur=cooccur, config=config
    )

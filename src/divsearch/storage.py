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
Dewey text, so the files do not depend on that representation.  Each JSONL
line has the writer's one shape: compact separators, the key order above, a
Dewey ID as ``str(DeweyId)``, a count in plain decimal, and a JSON escape
only where a string needs one.  The loader matches every line against that
shape and refuses any other; ``json.loads`` decodes only an escaped string
and the manifest, so a later version's manifest is still told by its version.

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
from typing import Any, Callable, Iterable, Iterator, TextIO

from .dewey import DeweyId, _trusted
from .errors import IndexFormatError, IndexVersionError
from .indexing import EntityInfo, IndexBundle, IndexConfig, is_token

FORMAT_VERSION = 1

MANIFEST_FILE = "manifest.json"
ENTITIES_FILE = "entities.jsonl"
POSTINGS_FILE = "postings.jsonl"
COOCCUR_FILE = "cooccur.jsonl"
STOPWORDS_FILE = "stopwords.txt"

# A JSON string, captured without its quotes: first with no escape, which
# reads back as its raw text, then with escapes.  Only a line that misses
# the first form is tried against the second, which is slower.
_PLAIN_STR = r'"([^"\\\x00-\x1f]*)"'
_ESCAPED_STR = r'"((?:[^"\\\x00-\x1f]|\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4}))*)"'
_DEWEY = r"[1-9][0-9]*(?:\.[1-9][0-9]*)*"
_is_dewey = re.compile(_DEWEY).fullmatch


def _grammar(pattern: str, shape: str) -> tuple[Callable, Callable, str]:
    """Escape-free and escaped matchers of the line ``pattern`` (``%(s)s`` a string, ``%(d)s``
    a Dewey ID, its "\\n" optional), and the message that refuses any other line."""
    plain, escaped = (
        re.compile(pattern % {"s": s, "d": _DEWEY} + r"\n?").fullmatch
        for s in (_PLAIN_STR, _ESCAPED_STR)
    )
    return plain, escaped, f"expected {shape}"


_ENTITY_LINE = _grammar(r'\{"dewey":"(%(d)s)","label":%(s)s\}', '{"dewey":"<dewey>","label":<string>}')
# a posting's list is matched loosely, each entry checked apart: under a
# repeated group the matcher's memory would grow with the line
_POSTING_LINE = _grammar(
    r'\{"term":%(s)s,"entities":\["([0-9.",]+)"\]\}', '{"term":<string>,"entities":["<dewey>",...]}'
)
_PAIR_LINE = _grammar(
    r'\{"a":%(s)s,"b":%(s)s,"count":([1-9][0-9]*)\}', '{"a":<string>,"b":<string>,"count":<count>}'
)
_TEXT_LINE = _grammar("(.+)", "")  # any line but a blank one


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


def _rows(path: Path, grammar: tuple[Callable, Callable, str]) -> Iterator[tuple[int, tuple]]:
    """Each line's number and its fields as ``grammar`` captures them."""
    plain, escaped, expected = grammar
    with _reading(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            match = plain(raw)
            if match is not None:
                yield lineno, match.groups()
            elif (match := escaped(raw)) is not None:
                yield lineno, tuple(json.loads(f'"{g}"') if "\\" in g else g for g in match.groups())
            else:
                raise _fail(path, lineno, "blank line" if raw == "\n" else expected)


def _fail(path: Path, lineno: int, message: str) -> IndexFormatError:
    return IndexFormatError(message, path=path.name, line=lineno)


def _dewey(text: str, path: Path, lineno: int) -> DeweyId:
    try:  # the grammar admits only positive components without leading zeros
        return _trusted(tuple(map(int, text.split("."))))
    except ValueError:  # a component past int()'s digit limit
        raise _fail(path, lineno, f"invalid Dewey ID {text!r}") from None


def _is_int(value: Any) -> bool:
    """True for a JSON integer; ``true`` and ``1.0`` compare equal to 1."""
    return type(value) is int


def _load_manifest(directory: Path) -> dict[str, Any]:
    path = directory / MANIFEST_FILE
    rows = []
    for lineno, (raw,) in _rows(path, _TEXT_LINE):
        try:
            rows.append(json.loads(raw))
        except ValueError as exc:  # a JSONDecodeError, or an int past int()'s digit limit
            raise _fail(path, lineno, f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
    if len(rows) != 1 or not isinstance(rows[0], dict):
        raise _fail(path, len(rows), "manifest must be a single JSON object")
    manifest = rows[0]
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
    for lineno, (text, label) in _rows(path, _ENTITY_LINE):
        if label not in labels:
            raise _fail(path, lineno, f"entity label {label!r} not in the manifest")
        dewey = _dewey(text, path, lineno)
        if entities and dewey <= entities[-1].dewey:
            raise _fail(path, lineno, "entities not in document order")
        by_text[text] = len(entities)
        entities.append(EntityInfo(dewey, label))
    if len(entities) != manifest["entityCount"]:
        raise _fail(path, len(entities), "entity count does not match manifest")

    path = directory / POSTINGS_FILE
    postings: dict[str, tuple[int, ...]] = {}
    last_term: str | None = None
    for lineno, (term, joined) in _rows(path, _POSTING_LINE):
        texts = joined.split('","')
        unknown = None
        try:
            # one lookup proves an entry an entity's Dewey text and gives its
            # ordinal; ordinals sort as the entities' Dewey IDs do
            order = ids = tuple(map(by_text.__getitem__, texts))
        except KeyError as exc:  # the first unknown entity; order is checked first
            if not all(map(_is_dewey, texts)):
                raise _fail(path, lineno, _POSTING_LINE[-1]) from None  # the shape message
            order, unknown = [_dewey(text, path, lineno) for text in texts], exc.args[0]
        if last_term is not None and term <= last_term:
            raise _fail(path, lineno, "terms not sorted")
        last_term = term
        if any(map(operator.ge, order, islice(order, 1, None))):
            raise _fail(path, lineno, f"posting list for {term!r} not sorted")
        if unknown is not None:
            raise _fail(path, lineno, f"posting references unknown entity {unknown}")
        postings[term] = ids

    path = directory / COOCCUR_FILE
    cooccur: dict[tuple[str, str], int] = {}
    # one lookup proves a term known and gives its posting length and the
    # postings' own key, so the pairs share the terms' strings
    known = {term: (term, len(ids)) for term, ids in postings.items()}
    last_count: float = math.inf  # no line before the first
    last_pair = ("", "")
    for lineno, (a, b, digits) in _rows(path, _PAIR_LINE):
        if a >= b:
            raise _fail(path, lineno, "pair not in canonical order (a < b)")
        try:
            (a, df_a), (b, df_b) = known[a], known[b]
        except KeyError:
            raise _fail(path, lineno, "pair references unknown term") from None
        try:
            count = int(digits)
        except ValueError:  # past int()'s digit limit, so past any posting length
            count = math.inf
        if count > df_a or count > df_b:  # a pair occurs only where both terms do
            term = a if count > df_a else b
            raise _fail(path, lineno, f"count exceeds the posting length of {term!r}")
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
        for lineno, (word,) in _rows(path, _TEXT_LINE):
            if not is_token(word):
                raise _fail(path, lineno, f"stop word is not one token: {word!r}")
            if stopwords and word <= stopwords[-1]:
                raise _fail(path, lineno, "stop words not sorted")
            stopwords.append(word)

    config = IndexConfig(entity_labels=labels, window=manifest["window"], stopwords=frozenset(stopwords))
    return IndexBundle(entities=tuple(entities), postings=postings, cooccur=cooccur, config=config)

"""Index persistence: a small directory of JSON/JSONL files.

Layout (UTF-8, LF endings, fixed key order per line; the loaders read CR LF
and a lone CR as LF too):

* ``manifest.json``   {"version":1,"entityCount":N,"window":W,"entityLabels":[...],"logBase":"e"}
* ``entities.jsonl``  one {"dewey","label"} per entity, document order
* ``postings.jsonl``  one {"term","entities"} per term, terms sorted
* ``cooccur.jsonl``   one {"a","b","count"} per pair, count desc then (a,b) asc
* ``stopwords.txt``   the stop words, ascending, one per line; an index
  without it has none

``load_index(save_index(b)) == b`` holds field for field; every writer choice
below (sorting, separators) exists to keep the bytes canonical.  A save
removes the old manifest first and writes the new one last, each file
renamed into place from a temporary name, so a save that fails leaves a
directory with no manifest, which no loader reads.

In memory a posting holds entity ordinals; on disk it holds each entity's
Dewey text, so the files do not depend on that representation.  Each JSONL
line has the writer's one shape: compact separators, the key order above, a
Dewey ID as ``dewey_text`` writes it, a count in plain decimal, and each
string raw, with no JSON escape.  No term the indexer makes needs one,
since each is one token, and a label, an element name, needs one only when
its namespace URI holds a character that JSON escapes; :func:`save_index`
refuses a term or label that needs one.  The loader matches every line
against that shape and refuses any other, an escaped string included;
``json.loads`` reads the manifest only, so a later version's manifest is
still told by its version.

:func:`load_index` reads and checks every line.  :func:`load_for_query`,
which ``divsearch search`` and ``divsearch features`` use, reads what one
query needs: every entity, the pairs that name a keyword, and the posting
lists of the keywords and of their pairs' other terms.  It checks that
every file is UTF-8, every manifest, stop-word and entity line, the shape
and term order of every postings line, and each pair and posting line it
uses in full; the lines it does not use it does not parse.

Every file is read in text mode through :func:`_open`, which names the line
of a UTF-8 fault.  The manifest, stop words and postings are read a line at
a time; entities.jsonl and, by :func:`load_for_query`, cooccur.jsonl are
read in blocks of whole lines, :func:`_blocks`.  Both readers read
entities.jsonl through :func:`_load_entities`, each check over a whole
block, and a refused block again line by line to name the faulty line.
Both read postings.jsonl through one pass, :func:`_read_postings`, and
check pairs through one function, :func:`_read_pairs`, so their grammars,
messages and checks are the same code; both refuse a pair listed twice.
:func:`load_for_query` holds one block of cooccur.jsonl at a time, so its
memory does not grow with the pair file.

A loaded bundle holds the entities' Dewey IDs, plain tuples of ints that
the garbage collector stops tracking, and their labels as two tuples by
ordinal, and shares objects between its parts: a cooccur key holds the
postings' own term strings, and ``labels`` the manifest's own strings, one
object per distinct label.  The flat layout of every term's pairs
(``IndexBundle.neighbours``), whose partners are those same strings, and
the entity table (``IndexBundle.entity_table``) are not built here but on
first use, as for a bundle fresh from ``build_index``.
"""

from __future__ import annotations

import io
import json
import math
import operator
import os
import re
from contextlib import contextmanager, suppress
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator, TextIO

from .dewey import dewey_text
from .errors import IndexFormatError, IndexVersionError
from .indexing import IndexBundle, IndexConfig, is_token, tokenize

FORMAT_VERSION = 1

MANIFEST_FILE = "manifest.json"
ENTITIES_FILE = "entities.jsonl"
POSTINGS_FILE = "postings.jsonl"
COOCCUR_FILE = "cooccur.jsonl"
STOPWORDS_FILE = "stopwords.txt"

# A JSON string with no escape, captured without its quotes: its raw text
_STR = r'"([^"\\\x00-\x1f]*)"'
_DEWEY = r"[1-9][0-9]*(?:\.[1-9][0-9]*)*"
_is_dewey = re.compile(_DEWEY).fullmatch
# what a JSON string escapes (RFC 8259, section 7), and what UTF-8 cannot
# encode: a lone surrogate
_unwritable = re.compile(r'["\\\x00-\x1f\ud800-\udfff]').search


def _grammar(pattern: str, shape: str) -> tuple[Callable, str]:
    """The matcher of the line ``pattern`` (``%(s)s`` a string, ``%(d)s`` a Dewey ID,
    its "\\n" optional), and the message that refuses any other line."""
    return re.compile(pattern % {"s": _STR, "d": _DEWEY} + r"\n?").fullmatch, f"expected {shape}"


_ENTITY = r'\{"dewey":"(%(d)s)","label":%(s)s\}'
_ENTITY_LINE = _grammar(_ENTITY, '{"dewey":"<dewey>","label":<string>}')
# the fields of each line of a chunk that _ENTITY_LINE matches: a match spans a whole line
_ENTITY_ROWS = re.compile("^%s$" % _ENTITY % {"s": _STR, "d": _DEWEY}, re.M).findall
# a posting's list is matched loosely, each entry checked apart: under a
# repeated group the matcher's memory would grow with the line
_POSTING_LINE = _grammar(
    r'\{"term":%(s)s,"entities":\["([0-9.",]+)"\]\}', '{"term":<string>,"entities":["<dewey>",...]}'
)
_PAIR_LINE = _grammar(
    r'\{"a":%(s)s,"b":%(s)s,"count":([1-9][0-9]*)\}', '{"a":<string>,"b":<string>,"count":<count>}'
)
_TEXT_LINE = _grammar("(.+)", "")  # any line but a blank one


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    # every line carries its own "\n"; writelines streams a generator
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def _triplets(
    cooccur: dict[tuple[str, str], int], postings: dict[str, tuple[int, ...]]
) -> Iterator[tuple[int, list[tuple[str, str]]]]:
    """Every pair by count descending, then pair ascending: (count, pairs) per count.

    One pass over ``cooccur`` checks each pair as :func:`load_index` would,
    before the caller writes anything, and puts the dict's own key tuple in
    a list per count, so the order costs a pointer per pair and no key
    object.  Each list is sorted as it is reached, by ``b`` and then, stably,
    by ``a``, which leaves it in (a, b) order; it is dropped once yielded.
    """
    buckets: dict[int, list[tuple[str, str]]] = {}
    for pair, count in cooccur.items():
        a, b = pair
        try:
            df_a, df_b = len(postings[a]), len(postings[b])
        except KeyError as exc:
            term = exc.args[0]
            raise ValueError(f"cooccur pair names a term without postings: {term!r}") from None
        if a >= b:
            raise ValueError(f"cooccur pair {(a, b)!r} not in canonical order (a < b)")
        if count.__class__ is not int:
            raise ValueError(f"cooccur pair {(a, b)!r}: count {count!r} is not an int")
        if count < 1:
            raise ValueError(f"cooccur pair {(a, b)!r}: count below 1")
        if count > df_a or count > df_b:
            term = a if count > df_a else b
            raise ValueError(
                f"cooccur pair {(a, b)!r}: count exceeds the posting length of {term!r}"
            )
        buckets.setdefault(count, []).append(pair)

    def ordered() -> Iterator[tuple[int, list[tuple[str, str]]]]:
        for count in sorted(buckets, reverse=True):
            pairs = buckets.pop(count)
            pairs.sort(key=operator.itemgetter(1))
            pairs.sort(key=operator.itemgetter(0))
            yield count, pairs

    return ordered()


def _refuse_unwritable(kind: str, texts: list[str]) -> None:
    """``ValueError`` naming the first of ``texts`` that an index file cannot hold raw."""
    for text in texts:
        if found := _unwritable(text):
            raise ValueError(
                f"{kind} {text!r} holds {found.group()!r}, which an index file cannot hold"
            )


def save_index(bundle: IndexBundle, directory: str | Path) -> None:
    """Write the index files, creating the directory if needed.

    A save replaces an index in place.  After its checks and before any
    write it removes the old ``manifest.json``; then it writes each file
    under a temporary name in the directory and renames it into place, the
    manifest last.  A failure at any write or rename leaves no manifest, so
    both loaders refuse the directory; the other files, old or new, stay,
    and the temporary file is removed where possible.  Not covered: a power
    loss, since no file is flushed to disk by ``fsync``; a reader running
    during a save; two saves into one directory at once.

    Each line is assembled from the raw text of its parts; each entity's
    Dewey text is made once however many lines name it.  No string needs a
    JSON escape, so the bytes equal those of one compact ``json.dumps`` per
    row.  The pairs are ordered in lists per count, :func:`_triplets`,
    which hold the bundle's own key tuples, so ordering them takes a
    pointer per pair; a list is formatted and dropped as it is written.

    Raises ``ValueError``, before writing any file, for a bundle that
    :func:`load_index` would reject or read back different, or that it
    cannot write: no entities; ``entities`` and ``labels`` of different
    lengths; an entity label outside ``config.entity_labels``; entities out
    of document order; a label or term that holds a character JSON would
    escape (``"``, ``\\`` or U+0000 to U+001F) or that UTF-8 cannot encode
    (a lone surrogate); a posting that is empty, not strictly ascending, or
    holds an ordinal outside the entities; a cooccur pair not in canonical
    order (a < b), naming a term without postings, or with a count that is
    not an int, below 1 or above either term's posting length; a stop word
    that is not one token.
    """
    directory = Path(directory)
    entities = bundle.entities
    if not entities:
        raise ValueError("no entities")
    if len(bundle.labels) != len(entities):
        raise ValueError(f"{len(entities)} entities but {len(bundle.labels)} labels")
    unknown = set(bundle.labels) - bundle.config.entity_labels
    if unknown:
        raise ValueError(f"entity label {min(unknown)!r} not in config.entity_labels")
    if any(map(operator.ge, entities, islice(entities, 1, None))):
        raise ValueError("entities not in document order")
    labels = sorted(bundle.config.entity_labels)
    _refuse_unwritable("label", labels)
    terms = sorted(bundle.postings)
    _refuse_unwritable("term", terms)
    for term, ids in bundle.postings.items():
        if not ids:
            raise ValueError(f"posting list for {term!r} is empty")
        if any(map(operator.ge, ids, islice(ids, 1, None))):
            raise ValueError(f"posting list for {term!r} not sorted")
        if ids[0] < 0 or ids[-1] >= len(entities):
            raise ValueError(f"posting list for {term!r} holds an ordinal outside the entities")
    buckets = _triplets(bundle.cooccur, bundle.postings)
    stopwords = sorted(bundle.config.stopwords)
    for word in stopwords:
        if not is_token(word):
            raise ValueError(f"stop word is not one token: {word!r}")
    directory.mkdir(parents=True, exist_ok=True)
    # the loaders read the manifest first: without one, no mix of files loads
    (directory / MANIFEST_FILE).unlink(missing_ok=True)

    manifest = {
        "version": FORMAT_VERSION,
        "entityCount": bundle.entity_count,
        "window": bundle.config.window,
        "entityLabels": labels,
        "logBase": "e",  # MI uses the natural log
    }
    texts = list(map(dewey_text, entities))  # by ordinal
    files = {
        ENTITIES_FILE: ('{"dewey":"%s","label":"%s"}\n' % row for row in zip(texts, bundle.labels)),
        POSTINGS_FILE: (
            '{"term":"%s","entities":["%s"]}\n'
            % (term, '","'.join(map(texts.__getitem__, bundle.postings[term])))
            for term in terms
        ),
        COOCCUR_FILE: (
            line
            for count, pairs in buckets
            for line in map(('{"a":"%%s","b":"%%s","count":%d}\n' % count).__mod__, pairs)
        ),
        STOPWORDS_FILE: (word + "\n" for word in stopwords),
        # separators chosen for byte-stable, compact output; written last
        MANIFEST_FILE: [json.dumps(manifest, separators=(",", ":"), ensure_ascii=False) + "\n"],
    }
    for name, lines in files.items():
        temp = directory / f".{name}.tmp"
        try:
            _write_lines(temp, lines)
            os.replace(temp, directory / name)
        except BaseException:
            with suppress(OSError):
                temp.unlink(missing_ok=True)
            raise


@contextmanager
def _open(path: Path, errors: str = "strict") -> Iterator[TextIO]:
    """``path`` open as UTF-8 text, CR LF and a lone CR each read as LF; a
    read or decode error is an IndexFormatError.

    Text mode decodes ahead of the line it returns, so a decode error does
    not tell its line: the file is read again, a line at a time with each
    undecodable byte kept as a surrogate, and the first line whose bytes do
    not decode is named, with the decoder's reason.
    """
    try:
        with open(path, "r", encoding="utf-8", errors=errors) as fh:
            yield fh
    except OSError as exc:
        raise IndexFormatError(f"cannot read index file: {exc}", path=path.name) from exc
    except UnicodeDecodeError:
        with _open(path, "surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise _fail(path, lineno, f"invalid UTF-8: {exc.reason}") from exc
        raise


@contextmanager
def _lines(path: Path) -> Iterator[Iterator[tuple[int, str]]]:
    """The numbered lines of ``path``, read as :func:`_open` reads them."""
    with _open(path) as fh:
        yield enumerate(fh, start=1)


_BLOCK = 1 << 15  # characters that the entity reader and the pair scan read at a time


def _blocks(path: Path) -> Iterator[tuple[str, int]]:
    """The text of ``path``, read as :func:`_open` reads it, in blocks of
    whole lines: each block and the number of lines before it.

    A block is ``_BLOCK`` characters and the rest of the line they end in;
    each ends with its last line's LF but the last block, which holds what
    follows the file's final LF, if anything does.
    """
    before = 0
    with _open(path) as fh:
        while block := fh.read(_BLOCK):
            block += fh.readline()
            yield block, before
            before += block.count("\n")


def _rows(
    path: Path, lines: Iterable[tuple[int, str]], grammar: tuple[Callable, str]
) -> Iterator[tuple[int, tuple]]:
    """The number and the fields of each of ``lines`` of ``path``, as ``grammar`` captures them."""
    matcher, expected = grammar
    for lineno, raw in lines:
        match = matcher(raw)
        if match is None:
            raise _fail(path, lineno, "blank line" if raw == "\n" else expected)
        yield lineno, match.groups()


def _fail(path: Path, lineno: int, message: str) -> IndexFormatError:
    return IndexFormatError(message, path=path.name, line=lineno)


def _dewey(text: str, path: Path, lineno: int) -> tuple[int, ...]:
    try:  # the grammar admits only positive components without leading zeros
        return tuple(map(int, text.split(".")))
    except ValueError:  # a component past int()'s digit limit
        raise _fail(path, lineno, f"invalid Dewey ID {text!r}") from None


def _is_int(value: Any) -> bool:
    """True for a JSON integer; ``true`` and ``1.0`` compare equal to 1."""
    return type(value) is int


def _load_manifest(directory: Path) -> dict[str, Any]:
    path = directory / MANIFEST_FILE
    rows = []
    with _lines(path) as lines:
        for lineno, (raw,) in _rows(path, lines, _TEXT_LINE):
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


def _load_entities(
    directory: Path, manifest: dict[str, Any]
) -> tuple[list[tuple[int, ...]], list[str], dict[str, int]]:
    """Every entity's Dewey ID and label, and its ordinal by its Dewey text as written.

    The lines are read a block at a time, by :func:`_blocks`, each read by
    :func:`_entity_chunk`, whose checks run over the whole block in C.  A
    block it refuses is read again line by line, split at LF alone as text
    mode splits it, by :func:`_check_entity_lines`, which finds the first
    faulty line and its message.
    """
    # one lookup proves a label the manifest's and gives the manifest's string
    known = {label: label for label in manifest["entityLabels"]}
    path = directory / ENTITIES_FILE
    entities: list[tuple[int, ...]] = []
    labels: list[str] = []
    # Dewey text as written -> the entity's ordinal; postings resolve through it
    by_text: dict[str, int] = {}
    for block, before in _blocks(path):
        last = entities[-1] if entities else None
        read = _entity_chunk(block, known, last)
        if read is None:
            lines = io.StringIO(block, newline="\n")  # not str.splitlines: a label may hold U+2028
            _check_entity_lines(path, enumerate(lines, before + 1), known, last)
            raise AssertionError(f"{path.name}: a block refused, but none of its lines")
        texts, names, deweys = read
        by_text.update(zip(texts, range(before, before + len(texts))))
        entities += deweys
        labels += names
    if len(entities) != manifest["entityCount"]:
        raise _fail(path, len(entities), "entity count does not match manifest")
    return entities, labels, by_text


def _entity_chunk(
    text: str, known: dict[str, str], last: tuple[int, ...] | None
) -> tuple[tuple[str, ...], list[str], list[tuple[int, ...]]] | None:
    """The Dewey texts, labels and Dewey IDs of the lines of ``text``, entity
    lines that follow one with the Dewey ID ``last``, if any.

    None if any line fails a check that :func:`_check_entity_lines` makes:
    its shape (a line that does not match adds no row), its label, a Dewey
    component past ``int()``'s digit limit, or the document order.
    """
    rows = _ENTITY_ROWS(text)
    if len(rows) != text.count("\n") + (not text.endswith("\n")):
        return None
    texts, labels = zip(*rows)
    try:
        labels = list(map(known.__getitem__, labels))
        # the grammar admits only positive components without leading zeros
        components = map(partial(map, int), map(operator.methodcaller("split", "."), texts))
        deweys = list(map(tuple, components))
    except (KeyError, ValueError):  # ValueError: a component past int()'s digit limit
        return None
    if last is not None and deweys[0] <= last:
        return None
    if any(map(operator.ge, deweys, islice(deweys, 1, None))):
        return None
    return texts, labels, deweys


def _check_entity_lines(
    path: Path, lines: Iterable[tuple[int, str]], known: dict[str, str], last: tuple | None
) -> None:
    """Check ``lines``, numbered entity lines that follow one with the Dewey
    ID ``last``, if any, one at a time; raise at the first fault."""
    for lineno, (text, label) in _rows(path, lines, _ENTITY_LINE):
        if label not in known:
            raise _fail(path, lineno, f"entity label {label!r} not in the manifest")
        dewey = _dewey(text, path, lineno)
        if last is not None and dewey <= last:
            raise _fail(path, lineno, "entities not in document order")
        last = dewey


def _read_postings(
    path: Path,
    lines: Iterable[tuple[int, str]],
    by_text: dict[str, int],
    wanted: Collection[str] | None = None,
    lengths: Collection[str] = (),
) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[str, int]]]:
    """Read ``lines``, postings.jsonl: the posting lists of the ``wanted``
    terms (of every term when None), each checked in full, and ``known`` for
    :func:`_read_pairs`.

    Every line's shape and the term order are checked.  ``known`` maps each
    term read in full to itself and its posting length, and each other
    ``lengths`` term to its entry count: its posting length, if its entries
    are Dewey IDs.
    """
    postings: dict[str, tuple[int, ...]] = {}
    known: dict[str, tuple[str, int]] = {}
    last_term: str | None = None
    for lineno, (term, joined) in _rows(path, lines, _POSTING_LINE):
        if last_term is not None and term <= last_term:
            raise _fail(path, lineno, "terms not sorted")
        last_term = term
        if wanted is not None and term not in wanted:
            if term in lengths:
                known[term] = (term, joined.count('","') + 1)
            continue
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
        if any(map(operator.ge, order, islice(order, 1, None))):
            raise _fail(path, lineno, f"posting list for {term!r} not sorted")
        if unknown is not None:
            raise _fail(path, lineno, f"posting references unknown entity {unknown}")
        postings[term] = ids
        known[term] = (term, len(ids))
    return postings, known


def _read_pairs(
    path: Path, rows: Iterable[tuple[int, tuple]], known: dict[str, tuple[str, int]]
) -> dict[tuple[str, str], int]:
    """The pairs of ``rows``, cooccur.jsonl lines in file order, each checked.

    ``known`` maps each term to the postings' own string and its posting
    length: one lookup proves a term known and gives both, so the pairs
    share the terms' strings.  A row's order is checked against the row
    before it when that row is the line just above it; no pair may be
    listed twice.
    """
    cooccur: dict[tuple[str, str], int] = {}
    last_lineno, last_count, last_pair = 0, math.inf, ("", "")  # no line before the first
    for lineno, (a, b, digits) in rows:
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
        if (
            count >= last_count
            and (count > last_count or pair <= last_pair)
            and lineno == last_lineno + 1
        ):
            raise _fail(path, lineno, "triplets not sorted by count desc, pair asc")
        if pair in cooccur:
            raise _fail(path, lineno, "pair listed twice")
        last_lineno, last_count, last_pair = lineno, count, pair
        cooccur[pair] = count
    return cooccur


def _load_stopwords(directory: Path) -> list[str]:
    path = directory / STOPWORDS_FILE
    stopwords: list[str] = []
    if path.exists():
        with _lines(path) as lines:
            for lineno, (word,) in _rows(path, lines, _TEXT_LINE):
                if not is_token(word):
                    raise _fail(path, lineno, f"stop word is not one token: {word!r}")
                if stopwords and word <= stopwords[-1]:
                    raise _fail(path, lineno, "stop words not sorted")
                stopwords.append(word)
    return stopwords


def _bundle(
    manifest: dict[str, Any],
    entities: list[tuple[int, ...]],
    labels: list[str],
    postings: dict[str, tuple[int, ...]],
    cooccur: dict[tuple[str, str], int],
    stopwords: list[str],
) -> IndexBundle:
    config = IndexConfig(
        entity_labels=frozenset(manifest["entityLabels"]),
        window=manifest["window"],
        stopwords=frozenset(stopwords),
    )
    return IndexBundle(tuple(entities), tuple(labels), postings, cooccur, config)


def load_index(directory: str | Path) -> IndexBundle:
    """Read and validate an index directory written by :func:`save_index`."""
    directory = Path(directory)
    manifest = _load_manifest(directory)
    entities, labels, by_text = _load_entities(directory, manifest)
    path = directory / POSTINGS_FILE
    with _lines(path) as lines:
        postings, known = _read_postings(path, lines, by_text)
    path = directory / COOCCUR_FILE
    with _lines(path) as lines:
        cooccur = _read_pairs(path, _rows(path, lines, _PAIR_LINE), known)
    return _bundle(manifest, entities, labels, postings, cooccur, _load_stopwords(directory))


def load_for_query(directory: str | Path, query: str) -> tuple[list[str], IndexBundle]:
    """The keywords of ``query`` and the part of the index in ``directory`` that
    a search for them reads.

    The keywords are ``query`` tokenized with the index's stop words, each
    word once, in the order it first occurs: a query is a set of words.  The
    bundle holds every entity, the pairs that name a keyword, and the
    posting lists of the keywords and of their pairs' other terms: all that
    ``top_features`` and the engines read of an index for these keywords,
    so they answer as on :func:`load_index`'s bundle.

    The checks: every file is UTF-8; the manifest, each stop word and each
    entity line are checked in full; every postings line is checked for its
    shape and the term order; each pair line and posting line the bundle
    holds is checked in full, a pair line's order against the lines just
    before and after it, and no pair read may be listed twice.
    :func:`load_index` makes the same checks, through the same code, on
    every line.

    cooccur.jsonl is scanned a block of about ``_BLOCK`` characters at a
    time, and only the lines read are kept, so the read's memory is one
    block and the keywords' pairs, whatever the size of the file.  No pair
    line is matched before the whole file is read: a UTF-8 fault anywhere
    in it is named before a fault in a line's grammar.
    """
    directory = Path(directory)
    manifest = _load_manifest(directory)
    stopwords = _load_stopwords(directory)
    keywords = list(dict.fromkeys(token for token, _ in tokenize(query, frozenset(stopwords))))
    entities, labels, by_text = _load_entities(directory, manifest)

    pairs_path = directory / COOCCUR_FILE
    rows, named = _keyword_pair_lines(pairs_path, frozenset(keywords))
    read = {term for _, (a, b, _) in rows for term in (a, b)}
    path = directory / POSTINGS_FILE
    with _lines(path) as lines:
        postings, known = _read_postings(path, lines, by_text, set(keywords).union(*named), read)
    cooccur = _read_pairs(pairs_path, rows, known)
    cooccur = {pair: count for pair, count in cooccur.items() if pair in named}
    return keywords, _bundle(manifest, entities, labels, postings, cooccur, stopwords)


# what precedes and what follows ':"<keyword>","' where a pair line names a
# keyword: {"a":"<keyword>","b": or ,"b":"<keyword>","count":
_NAMED_AS = {'{"a"': 'b":', ',"b"': 'count":'}


def _keyword_pair_lines(
    path: Path, keywords: frozenset[str]
) -> tuple[list[tuple[int, tuple]], set[tuple[str, str]]]:
    """The lines of ``path``, cooccur.jsonl, that a query for ``keywords`` reads.

    A line names a keyword as ``{"a":"<keyword>","b":`` or as
    ``,"b":"<keyword>","count":``.  Both forms hold ``:"<keyword>","``, so
    one ``str.find`` per keyword passes over each block of :func:`_blocks`,
    and a line is read where the text on either side of a find completes
    one of the forms.  A line that holds a backslash, an escape that might
    spell a keyword, is read too and so refused.  Each is read with the
    lines just before and after it, so that its order is checked on both
    sides.  Each block is searched with the last line of the block before
    it in front, so every line has the line before it in the same text; a
    find on a text's last line is found again in the next text, with the
    line after it.  Only one block is held at a time, and no line is
    matched before the whole file is read, so a UTF-8 fault anywhere in it
    is named first.  Returns each line's number and fields,
    in file order, and the pairs that name a keyword.
    """
    needles = ["\\"] + [':"%s","' % word for word in keywords]
    read: dict[int, str] = {}  # line number -> the line, its "\n" kept
    last = ""  # the last line of the block before
    for block, before in _blocks(path):
        text = last + block
        starts: set[int] = set()  # of the lines read
        for needle in needles:
            at = text.find(needle)
            while at >= 0:
                after = _NAMED_AS.get(text[max(at - 4, 0) : at])
                if needle != "\\" and not (after and text.startswith(after, at + len(needle))):
                    at = text.find(needle, at + 1)
                    continue
                start = text.rfind("\n", 0, at) + 1
                end = text.find("\n", at) + 1 or len(text)
                # the line before, the line and the line after, if the text holds it
                starts.update((text.rfind("\n", 0, max(start - 1, 0)) + 1, start, end))
                at = text.find(needle, end)
        starts.discard(len(text))
        lineno, counted = before or 1, 0  # text opens with line ``before``, or line 1
        for start in sorted(starts):
            lineno += text.count("\n", counted, start)
            counted = start
            read[lineno] = text[start : text.find("\n", start) + 1 or len(text)]
        last = text[text.rfind("\n", 0, len(text) - 1) + 1 :]

    rows = list(_rows(path, sorted(read.items()), _PAIR_LINE))
    named = {(a, b) for _, (a, b, _) in rows if a in keywords or b in keywords}
    return rows, named

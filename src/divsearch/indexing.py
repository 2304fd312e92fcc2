"""Corpus ingestion and index construction.

Parses an XML document, assigns Dewey IDs by tree position, collects the
configured entity elements as the statistical sample space, and builds the
two index structures every later stage runs on: entity-level postings
(term -> sorted entity ordinals, positions in ``IndexBundle.entities``) and
windowed term co-occurrence counts.  The entities' Dewey IDs live in the
bundle's ``entity_table``, built on first use.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from io import BytesIO
from typing import Sequence

from .dewey import DeweyId, EntityTable, _trusted
from .errors import CorpusParseError, EmptyCorpusError

# Small embedded English list; extend via IndexConfig.stopwords.
DEFAULT_STOPWORDS: frozenset[str] = frozenset(
    """
    a about above after again all an and any are as at be because been
    before being below between both but by can did do does down during
    each few for from further had has have having he her here hers him
    his how i if in into is it its just me more most my no nor not now
    of off on once only or other our out over own same she so some such
    than that the their them then there these they this those through
    to too under until up very was we were what when where which while
    who why will with you your
    """.split()
)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class IndexConfig:
    """Knobs for parsing and index construction; all of them are persisted."""

    entity_labels: frozenset[str]
    window: int = 3
    stopwords: frozenset[str] = DEFAULT_STOPWORDS

    def __post_init__(self) -> None:
        if not self.entity_labels:
            raise ValueError("entity_labels must be non-empty")
        if type(self.window) is not int or self.window < 1:
            raise ValueError("window must be an integer >= 1")


@dataclass(frozen=True)
class EntityInfo:
    """Persisted per-entity fields: position and element name."""

    dewey: DeweyId
    label: str


@dataclass
class EntityRecord:
    """An entity plus its token stream; tokens carry pre-filter positions."""

    dewey: DeweyId
    label: str
    tokens: tuple[tuple[str, int], ...] = ()


def tokenize(text: str, stopwords: frozenset[str]) -> tuple[tuple[str, int], ...]:
    """Lowercase, split on non-alphanumerics, drop stop words.

    Positions index the raw token stream before stop-word removal so that
    proximity windows measure original distances.
    """
    out: list[tuple[str, int]] = []
    for pos, match in enumerate(_TOKEN_RE.finditer(text.lower())):
        token = match.group()
        if token not in stopwords:
            out.append((token, pos))
    return tuple(out)


def is_token(word: str) -> bool:
    """True iff ``tokenize`` reads ``word`` as exactly itself, one token."""
    return tokenize(word, frozenset()) == ((word, 0),)


_DECLARED_ENCODING = re.compile(rb"<\?xml[^>]*?\sencoding\s*=\s*[\"']([A-Za-z][\w.-]*)")
_ASCII = "".join(map(chr, range(128)))


def _byte_offset(data: bytes, line: int, column: int) -> int:
    # Expat reports (1-based line, 0-based column in characters of the
    # declared encoding, UTF-8 by default).  One that changes ASCII gets no
    # offset, as UTF-16 and UTF-32 do (a zero byte among the first four).
    match = _DECLARED_ENCODING.match(data)
    encoding = match.group(1).decode() if match else "utf-8"
    try:
        ascii_safe = b"\0" not in data[:4] and _ASCII.encode(encoding) == _ASCII.encode()
    except (LookupError, UnicodeError):
        ascii_safe = False
    lines = data.split(b"\n")
    if not ascii_safe or line < 1 or line > len(lines):
        return -1
    offset = sum(len(l) + 1 for l in lines[: line - 1])
    text = lines[line - 1].decode(encoding, errors="surrogateescape")
    return offset + len(text[:column].encode(encoding, errors="surrogateescape"))


def parse_corpus(data: bytes, config: IndexConfig) -> list[EntityRecord]:
    """Extract entity records in document order.

    Dewey IDs are assigned to every element (root = 1); an element whose tag
    is in ``config.entity_labels`` becomes an EntityRecord whose tokens are
    drawn from all its descendant text.
    """
    records: list[EntityRecord] = []
    pending: dict[int, EntityRecord] = {}
    path: list[int] = []
    counters: list[int] = [0]
    try:
        for event, elem in ET.iterparse(BytesIO(data), events=("start", "end")):
            if event == "start":
                counters[-1] += 1
                path.append(counters[-1])
                counters.append(0)
                if elem.tag in config.entity_labels:
                    record = EntityRecord(_trusted(tuple(path)), elem.tag)
                    records.append(record)
                    pending[id(elem)] = record
            else:
                path.pop()
                counters.pop()
                record = pending.pop(id(elem), None)
                if record is not None:
                    record.tokens = tokenize(" ".join(elem.itertext()), config.stopwords)
    except ET.ParseError as exc:
        line, column = exc.position
        raise CorpusParseError(
            f"malformed XML: {exc}", byte_offset=_byte_offset(data, line, column)
        ) from exc
    except LookupError as exc:  # a declared encoding with no text codec
        if type(exc) is not LookupError:  # a KeyError or IndexError is a fault here
            raise
        raise CorpusParseError(f"malformed XML: {exc}", byte_offset=-1) from exc
    if not records:
        labels = ", ".join(sorted(config.entity_labels))
        raise EmptyCorpusError(f"no element matched entity labels: {labels}")
    return records


@dataclass(frozen=True)
class IndexBundle:
    """Immutable index: entities, postings, co-occurrence counts, config.

    A posting is a sorted tuple of entity ordinals: positions in
    ``entities``, which are in document order.
    """

    entities: tuple[EntityInfo, ...]
    postings: dict[str, tuple[int, ...]]
    cooccur: dict[tuple[str, str], int]
    config: IndexConfig

    @property
    def entity_count(self) -> int:
        return len(self.entities)

    @cached_property
    def neighbours(self) -> dict[str, list[tuple[str, str]]]:
        """term -> the keys of ``cooccur`` that name it, built on first use.

        One walk over ``cooccur``; the lists hold the dict's own key tuples.
        A bundle made by ``dataclasses.replace`` builds its own map.
        """
        lists: defaultdict[str, list[tuple[str, str]]] = defaultdict(list)
        for pair in self.cooccur:
            a, b = pair
            lists[a].append(pair)
            lists[b].append(pair)
        return dict(lists)

    @cached_property
    def entity_table(self) -> EntityTable:
        """The entities' Dewey IDs by ordinal, with O(1) shared depths.

        Built on first use, like ``neighbours``; the engines' node lists
        are ordinals into it.
        """
        return EntityTable(e.dewey for e in self.entities)

    def posting(self, term: str) -> tuple[int, ...]:
        return self.postings.get(term, ())

    def cooccur_count(self, x: str, y: str) -> int:
        if x > y:
            x, y = y, x
        return self.cooccur.get((x, y), 0)


def build_index(corpus: Sequence[EntityRecord], config: IndexConfig) -> IndexBundle:
    """Build postings and windowed co-occurrence counts from parsed entities.

    Co-occurrence is counted at entity granularity: a pair contributes 1 per
    entity in which its terms appear within ``config.window`` positions at
    least once, regardless of how many such placements exist.  ``corpus``
    is in document order, as ``parse_corpus`` returns it; an entity's
    ordinal in the postings is its position there.
    """
    if not corpus:
        raise EmptyCorpusError("cannot index an empty corpus")
    postings: dict[str, list[int]] = {}
    cooccur: dict[tuple[str, str], int] = {}
    for ordinal, record in enumerate(corpus):
        for term in sorted({token for token, _ in record.tokens}):
            postings.setdefault(term, []).append(ordinal)
        pairs: set[tuple[str, str]] = set()
        toks = record.tokens
        for i, (term_i, pos_i) in enumerate(toks):
            j = i + 1
            while j < len(toks) and toks[j][1] - pos_i <= config.window:
                term_j = toks[j][0]
                if term_j != term_i:
                    pairs.add((term_i, term_j) if term_i < term_j else (term_j, term_i))
                j += 1
        for pair in sorted(pairs):
            cooccur[pair] = cooccur.get(pair, 0) + 1
    entities = tuple(EntityInfo(r.dewey, r.label) for r in corpus)
    frozen = {term: tuple(ids) for term, ids in postings.items()}
    return IndexBundle(entities=entities, postings=frozen, cooccur=cooccur, config=config)


def index_corpus(data: bytes, config: IndexConfig) -> IndexBundle:
    """Convenience: parse then build in one call."""
    return build_index(parse_corpus(data, config), config)

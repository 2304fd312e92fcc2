"""Corpus ingestion and index construction.

Parses an XML document, assigns Dewey IDs by tree position, collects the
configured entity elements as the statistical sample space, and builds the
two index structures every later stage runs on: entity-level postings
(term -> sorted entity ordinals) and windowed term co-occurrence counts.
An entity is its Dewey ID, its ordinal its position in the document-ordered
``IndexBundle.entities``; ``IndexBundle.labels`` holds its element name at
that ordinal.  The tree the entities span, and the flat layout of every
term's pairs that feature mining walks, are built on first use.

:func:`index_corpus` (and so ``divsearch index``) builds in one pass: the
parser yields each entity's record once no enclosing entity is open, and
:func:`build_index` adds its postings and pairs and drops its tokens.  Its
memory is then what the postings and pairs hold, plus the records of one
outermost entity.  :func:`parse_corpus` returns the same records as a list.
"""

from __future__ import annotations

import re
import sys
from array import array
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from functools import cached_property
from io import BytesIO
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Any, Iterable, Iterator, NamedTuple

from .dewey import EntityTable
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


class IndexConfig(namedtuple("IndexConfig", "entity_labels window stopwords")):
    """Knobs for parsing and index construction; all of them are persisted."""

    __slots__ = ()

    def __new__(
        cls,
        entity_labels: frozenset[str],
        window: int = 3,
        stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    ) -> IndexConfig:
        if not entity_labels:
            raise ValueError("entity_labels must be non-empty")
        if type(window) is not int or window < 1:
            raise ValueError("window must be an integer >= 1")
        return super().__new__(cls, entity_labels, window, stopwords)


class EntityRecord(NamedTuple):
    """An entity plus its token stream; tokens carry pre-filter positions."""

    dewey: tuple[int, ...]  # a plain tuple
    label: str
    tokens: tuple[tuple[str, int], ...] = ()


def tokenize(text: str, stopwords: frozenset[str]) -> tuple[tuple[str, int], ...]:
    """Lowercase, split on non-alphanumerics, drop stop words.

    Positions index the raw token stream before stop-word removal so that
    proximity windows measure original distances.  Each token is interned:
    equal terms are one string across records, postings and pairs.
    """
    out: list[tuple[str, int]] = []
    for pos, match in enumerate(_TOKEN_RE.finditer(text.lower())):
        token = match.group()
        if token not in stopwords:
            out.append((sys.intern(token), pos))
    return tuple(out)


def is_token(word: str) -> bool:
    """True iff ``tokenize`` reads ``word`` as exactly itself, one token."""
    return tokenize(word, frozenset()) == ((word, 0),)


def _events(data: bytes) -> Iterator[tuple[str, Any]]:
    """``ElementTree.iterparse``'s start and end events of ``data``; a fault
    of the parse is a :class:`CorpusParseError`.

    Its byte offset is expat's ``ErrorByteIndex`` from a bare parse of
    ``data``, namespaces on as in ElementTree, made only then: -1 if that
    parse meets no fault, and for a declared encoding expat cannot read.
    Under an external DTD bare expat skips a general entity that no
    declaration defines, where ElementTree refuses it: the bare parse stops
    there, and the offset is the reference's own.
    """
    import xml.etree.ElementTree as ET  # only indexing parses XML: a search need not import it

    try:
        yield from ET.iterparse(BytesIO(data), events=("start", "end"))
    except ET.ParseError as exc:
        from xml.parsers import expat

        message = f"malformed XML: {exc}"
        parser = expat.ParserCreate(None, "}")

        def skipped(name: str, is_parameter_entity: int) -> None:
            if not is_parameter_entity:
                raise CorpusParseError(message, byte_offset=parser.CurrentByteIndex) from exc

        parser.SkippedEntityHandler = skipped
        try:
            parser.Parse(data, True)
        except expat.ExpatError:
            offset = parser.ErrorByteIndex
        else:
            offset = -1
        raise CorpusParseError(message, byte_offset=offset) from exc
    # no text codec (LookupError), a multi-byte one (ValueError), or one that
    # fails on the 256 byte values expat asks it for (UnicodeError)
    except (LookupError, ValueError) as exc:
        raise CorpusParseError(f"malformed XML: {exc}", byte_offset=-1) from exc


def _records(data: bytes, config: IndexConfig) -> Iterator[EntityRecord]:
    """Entity records in document order, each yielded once no entity is open.

    An entity takes its place in a buffer at its start tag, where its Dewey
    ID and so its ordinal are known, and its record at its end tag.  Records
    wait there while any entity is open and are yielded, in start-tag order,
    when the outermost one closes; so a caller may drop each record as it
    reads it.  Malformed XML raises :class:`CorpusParseError` (see
    :func:`_events`) when the parse reaches it, no entity
    :class:`EmptyCorpusError` at the end.
    """
    buffer: list = []  # records, and (dewey, label) of the entities still open
    pending: dict[int, int] = {}  # an open entity's element -> its place in the buffer
    # the Dewey path of the open elements, then how many children the innermost has so far
    counters: list[int] = [0]
    yielded = False
    for event, elem in _events(data):
        if event == "start":
            counters[-1] += 1
            if elem.tag in config.entity_labels:
                pending[id(elem)] = len(buffer)
                buffer.append((tuple(counters), elem.tag))
            counters.append(0)
        else:
            counters.pop()
            at = pending.pop(id(elem), None)
            if at is not None:
                tokens = tokenize(" ".join(elem.itertext()), config.stopwords)
                buffer[at] = EntityRecord(*buffer[at], tokens)
            if not pending:  # no open entity reads this element's text
                elem.clear()
                if buffer:
                    yield from buffer
                    buffer.clear()
                    yielded = True
    if not yielded:
        labels = ", ".join(sorted(config.entity_labels))
        raise EmptyCorpusError(f"no element matched entity labels: {labels}")


def parse_corpus(data: bytes, config: IndexConfig) -> list[EntityRecord]:
    """Extract entity records in document order.

    Dewey IDs are assigned to every element (root = 1); an element whose tag
    is in ``config.entity_labels`` becomes an EntityRecord whose tokens are
    drawn from all its descendant text.  The list holds every record at
    once; :func:`index_corpus` builds from the same records without it.
    """
    return list(_records(data, config))


class Neighbours(NamedTuple):
    """The (term, partner) entries of every pair, once under each of its terms.

    Entry i holds the pair's count at ``counts[i]``, the partner's posting
    length at ``lengths[i]`` and the partner at ``partners[i]``; a term's
    entries are ``spans[term]``, a ``(start, stop)`` range, and a term with
    no pair has none.  A walk down a term's entries reads two runs of 4-byte
    ints in order, and a partner's string only when it wants it.  An entry
    takes 16 bytes on a 64-bit build: two such ints and a list slot.
    """

    spans: dict[str, tuple[int, int]]
    counts: array
    lengths: array
    partners: list[str]


@dataclass(frozen=True)
class IndexBundle:
    """Immutable index: entities, their labels, postings, co-occurrence counts, config.

    ``entities`` holds the entities' Dewey IDs, plain tuples, in document
    order and ``labels`` each one's element name, both by ordinal.  A
    posting is a sorted tuple of entity ordinals.
    """

    entities: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    postings: dict[str, tuple[int, ...]]
    cooccur: dict[tuple[str, str], int]
    config: IndexConfig

    @property
    def entity_count(self) -> int:
        return len(self.entities)

    @cached_property
    def neighbours(self) -> Neighbours:
        """Every term's pairs, as one flat :class:`Neighbours` layout, built on first use.

        A term's entries are count-descending, pairs of equal count in
        ``cooccur``'s order (the sort is stable), so a walk down them meets
        the largest counts first.  One walk over ``cooccur``, sorted once;
        the partners are the pairs' own term strings, the postings' own
        objects, and a partner without postings has length 0.  A bundle
        made by ``dataclasses.replace`` builds its own layout.
        """
        partners: defaultdict[str, list[str]] = defaultdict(list)
        counts: defaultdict[str, list[int]] = defaultdict(list)
        for (a, b), count in sorted(self.cooccur.items(), key=itemgetter(1), reverse=True):
            partners[a].append(b)
            counts[a].append(count)
            partners[b].append(a)
            counts[b].append(count)
        stops = list(accumulate(map(len, partners.values())))
        flat = [*chain.from_iterable(partners.values())]
        size = {term: len(ids) for term, ids in self.postings.items()}
        return Neighbours(
            dict(zip(partners, zip([0, *stops], stops))),
            array("I", chain.from_iterable(counts.values())),  # the terms in partners' order
            array("I", map(size.get, flat, repeat(0))),
            flat,
        )

    @cached_property
    def entity_table(self) -> EntityTable:
        """The entities' Dewey IDs by ordinal, and the tree they span.

        Built, tree and all, on first use, like ``neighbours``; the engines'
        node lists are ordinals into it.  Its ``deweys`` is ``entities``
        itself.
        """
        return EntityTable(self.entities)

    def posting(self, term: str) -> tuple[int, ...]:
        return self.postings.get(term, ())

    def cooccur_count(self, x: str, y: str) -> int:
        if x > y:
            x, y = y, x
        return self.cooccur.get((x, y), 0)


def build_index(corpus: Iterable[EntityRecord], config: IndexConfig) -> IndexBundle:
    """Build postings and windowed co-occurrence counts from parsed entities.

    Co-occurrence is counted at entity granularity: a pair contributes 1 per
    entity in which its terms appear within ``config.window`` positions at
    least once, regardless of how many such placements exist.  ``corpus``
    is any iterable of records in document order, as ``parse_corpus``
    returns them, and is read once; an entity's ordinal in the postings is
    its position there.  No record is kept: the bundle holds each one's
    Dewey ID and label, and its tokens only as postings and pairs.
    """
    entities: list[tuple[int, ...]] = []
    labels: list[str] = []
    postings: dict[str, list[int]] = {}
    cooccur: dict[tuple[str, str], int] = {}
    for ordinal, record in enumerate(corpus):
        entities.append(record.dewey)
        labels.append(record.label)
        for term in {token for token, _ in record.tokens}:
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
        for pair in pairs:
            cooccur[pair] = cooccur.get(pair, 0) + 1
    if not entities:
        raise EmptyCorpusError("cannot index an empty corpus")
    frozen = {term: tuple(ids) for term, ids in postings.items()}
    return IndexBundle(tuple(entities), tuple(labels), frozen, cooccur, config)


def index_corpus(data: bytes, config: IndexConfig) -> IndexBundle:
    """Parse and build in one pass: ``build_index(parse_corpus(data, config), config)``.

    The records stream from the parser into :func:`build_index`, so no list
    of them is made and an entity's tokens are dropped once counted; only
    the records of one outermost entity, nested ones included, are held at
    a time.  The same errors are raised, from the same inputs.
    """
    return build_index(_records(data, config), config)

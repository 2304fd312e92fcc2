import random
import tracemalloc

import pytest

from divsearch.dewey import dewey_text
from divsearch.errors import CorpusParseError, EmptyCorpusError
from divsearch.indexing import (
    DEFAULT_STOPWORDS,
    IndexConfig,
    _records,
    build_index,
    index_corpus,
    is_token,
    parse_corpus,
    tokenize,
)
from helpers import Entities, brute_cooccur, ids, random_corpus_xml


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Query-Language, SYSTEM!", frozenset()) == (
            ("query", 0),
            ("language", 1),
            ("system", 2),
        )

    def test_positions_survive_stopword_removal(self):
        got = tokenize("database the query", frozenset({"the"}))
        assert got == (("database", 0), ("query", 2))

    def test_underscore_splits(self):
        assert tokenize("a_b", frozenset()) == (("a", 0), ("b", 1))

    def test_default_stopwords_filter_common_words(self):
        got = tokenize("the query of a database", DEFAULT_STOPWORDS)
        assert got == (("query", 1), ("database", 4))


class TestParseCorpus:
    def test_toy_records(self, toy_corpus):
        assert [(dewey_text(r.dewey), r.label) for r in toy_corpus] == [
            ("1.1", "paper"),
            ("1.2", "paper"),
            ("1.3", "paper"),
        ]

    def test_toy_tokens(self, toy_corpus):
        assert toy_corpus[0].tokens == (
            ("database", 0),
            ("system", 1),
            ("query", 2),
            ("language", 3),
        )

    def test_no_entities_raises(self):
        with pytest.raises(EmptyCorpusError):
            parse_corpus(b"<bib/>", IndexConfig(entity_labels=frozenset({"paper"})))

    def test_stopword_keeps_original_positions(self, toy_xml):
        config = IndexConfig(
            entity_labels=frozenset({"paper"}), stopwords=frozenset({"system"})
        )
        records = parse_corpus(toy_xml, config)
        assert records[0].tokens == (("database", 0), ("query", 2), ("language", 3))

    def test_malformed_xml_reports_byte_offset(self):
        data = b"<bib><paper>text</wrong></bib>"
        with pytest.raises(CorpusParseError) as exc_info:
            parse_corpus(data, IndexConfig(entity_labels=frozenset({"paper"})))
        assert exc_info.value.byte_offset >= 0
        assert exc_info.value.byte_offset < len(data)

    @pytest.mark.parametrize(
        "text, rest",
        [
            ("<a><é>x</é><b>y</c></a>", b"c></a>"),
            ("<a>\n<b>é</b><c>ü</d></a>", b"d></a>"),
        ],
    )
    def test_byte_offset_of_fault_after_multibyte_text(self, text, rest):
        # expat counts columns in characters; each non-ASCII one here is two bytes
        data = text.encode("utf-8")
        with pytest.raises(CorpusParseError) as exc_info:
            parse_corpus(data, IndexConfig(entity_labels=frozenset({"b"})))
        assert data[exc_info.value.byte_offset :] == rest

    @pytest.mark.parametrize(
        "data, offset, rest",
        [
            (b"<a>\r<b>x</b>\n<c>y</d></a>", 19, b"d></a>"),
            (b"<a>\r<b>x</b>\n<c>y</c>\n<d>\xc3\xa9</e>\n</a>\n", 29, b"e>\n</a>\n"),
        ],
        ids=["lone-cr", "lfs-after-the-cr"],
    )
    def test_byte_offset_after_a_lone_cr(self, data, offset, rest):
        # expat ends a line at a lone CR as at LF
        with pytest.raises(CorpusParseError) as exc_info:
            parse_corpus(data, IndexConfig(entity_labels=frozenset({"b"})))
        assert exc_info.value.byte_offset == offset
        assert data[offset:] == rest

    def test_byte_offset_follows_declared_encoding(self):
        # in Latin-1 each "é" is one byte, not the two it takes in UTF-8
        text = '<?xml version="1.0" encoding="ISO-8859-1"?><a><b>éé</b><c>y</d></a>'
        data = text.encode("latin-1")
        with pytest.raises(CorpusParseError) as exc_info:
            parse_corpus(data, IndexConfig(entity_labels=frozenset({"b"})))
        assert exc_info.value.byte_offset == 61
        assert data[exc_info.value.byte_offset :] == b"d></a>"

    @pytest.mark.parametrize(
        "data, rest",
        [
            (
                '<?xml version="1.0" encoding="UTF-16"?><a><b>y</c></a>'.encode("utf-16"),
                "c></a>".encode("utf-16-le"),
            ),
            # expat has no UTF-32: it reads the FF FE of its byte order mark
            # as UTF-16's and stops at the two NULs that end it
            ("<a><b>y</b></a>".encode("utf-32"), b"\x00\x00" + "<a><b>y</b></a>".encode("utf-32-le")),
        ],
        ids=["UTF-16", "UTF-32"],
    )
    def test_byte_offset_in_an_encoding_not_ascii_compatible(self, data, rest):
        with pytest.raises(CorpusParseError) as exc_info:
            parse_corpus(data, IndexConfig(entity_labels=frozenset({"b"})))
        assert data[exc_info.value.byte_offset :] == rest

    def test_byte_offset_of_utf16_declared_in_one_byte_text(self):
        # expat stops at the declared name
        data = b'<?xml version="1.0" encoding="UTF-16"?><a><b>y</c></a>'
        with pytest.raises(CorpusParseError) as exc_info:
            parse_corpus(data, IndexConfig(entity_labels=frozenset({"b"})))
        assert exc_info.value.byte_offset == 30
        assert data[30:] == b'UTF-16"?><a><b>y</c></a>'

    @pytest.mark.parametrize("encoding", ["x-no-such-codec", "base64"])
    def test_no_byte_offset_in_an_unusable_declared_encoding(self, encoding):
        # the encoding fault is named, not the later tag fault
        data = f'<?xml version="1.0" encoding="{encoding}"?><a><b>y</c></a>'.encode("ascii")
        for read in (parse_corpus, index_corpus):
            with pytest.raises(CorpusParseError, match="^malformed XML: ") as exc_info:
                read(data, IndexConfig(entity_labels=frozenset({"b"})))
            assert exc_info.value.byte_offset == -1
            assert isinstance(exc_info.value.__cause__, LookupError)

    @pytest.mark.parametrize(
        "data, offset",
        [
            (b"<a>\x00<b>y</b></a>", 3),
            # expat reads a NUL-led file as UTF-16BE, whose "<" is 00 3C,
            # and stops at its third character, bytes 4 and 5
            (b"\x00<a><b>y</c></a>", 4),
        ],
        ids=["nul-fourth", "nul-led"],
    )
    def test_byte_offset_with_a_nul_among_the_first_four_bytes(self, data, offset):
        with pytest.raises(CorpusParseError) as exc_info:
            parse_corpus(data, IndexConfig(entity_labels=frozenset({"b"})))
        assert exc_info.value.byte_offset == offset

    def test_byte_offset_of_an_unbound_prefix(self):
        # a fault only where namespaces are on, as ElementTree parses
        data = b"<a><b>y</b><x:c/></a>"
        with pytest.raises(CorpusParseError, match="^malformed XML: unbound prefix") as exc_info:
            parse_corpus(data, IndexConfig(entity_labels=frozenset({"b"})))
        assert data[exc_info.value.byte_offset :] == b"<x:c/></a>"

    def test_byte_offset_of_an_entity_only_elementtree_refuses(self):
        # with an external DTD expat skips an undefined entity; ElementTree refuses it
        data = b'<!DOCTYPE a SYSTEM "a.dtd"><a><b>&x;</b></a>'
        with pytest.raises(CorpusParseError, match="^malformed XML: undefined entity") as exc_info:
            parse_corpus(data, IndexConfig(entity_labels=frozenset({"b"})))
        assert exc_info.value.byte_offset == 33 and data[33:].startswith(b"&x;")

    @pytest.mark.parametrize(
        "doctype",
        [
            b'<!DOCTYPE a SYSTEM "a.dtd" [%q;]>',  # a parameter entity no declaration defines
            b'<!DOCTYPE a [<!ENTITY % p SYSTEM "p.ent"> %p;]>',  # one from a file not read
        ],
        ids=["undeclared", "external"],
    )
    def test_a_parameter_entity_does_not_stop_the_offset_parse(self, doctype):
        # ElementTree passes a parameter entity by, so the fault is the later tag's name
        data = doctype + b"<a><b>x</c></a>"
        with pytest.raises(CorpusParseError, match="^malformed XML: mismatched tag") as exc_info:
            parse_corpus(data, IndexConfig(entity_labels=frozenset({"b"})))
        assert data[exc_info.value.byte_offset :] == b"c></a>"
        data = doctype + b"<a><b>&x;</b></a>"  # a general entity after it still stops it
        with pytest.raises(CorpusParseError, match="^malformed XML: undefined entity") as exc_info:
            index_corpus(data, IndexConfig(entity_labels=frozenset({"b"})))
        assert data[exc_info.value.byte_offset :] == b"&x;</b></a>"

    @pytest.mark.parametrize(
        "encoding",
        [
            "x-no-such-codec",  # no codec
            "base64",  # "not a text encoding"
            # multi-byte codecs, which expat cannot take
            "shift_jis", "euc-jp", "gbk", "utf-7", "utf-16-le", "utf-16-be",
            "idna",  # a UnicodeError
            "punycode",  # a UnicodeDecodeError
        ],
    )
    def test_unusable_declared_encoding_is_a_parse_error(self, encoding):
        data = f'<?xml version="1.0" encoding="{encoding}"?><a><b>y</b></a>'.encode("ascii")
        for read in (parse_corpus, index_corpus):
            with pytest.raises(CorpusParseError, match="^malformed XML: ") as exc_info:
                read(data, IndexConfig(entity_labels=frozenset({"b"})))
            assert exc_info.value.byte_offset == -1
            assert isinstance(exc_info.value.__cause__, (LookupError, ValueError))

    def test_nested_entities_get_own_records(self):
        xml = b"<doc><item><t>alpha</t><item><t>beta</t></item></item></doc>"
        records = parse_corpus(xml, IndexConfig(entity_labels=frozenset({"item"})))
        assert [dewey_text(r.dewey) for r in records] == ["1.1", "1.1.2"]
        # outer entity text includes descendant text
        assert [t for t, _ in records[0].tokens] == ["alpha", "beta"]
        assert [t for t, _ in records[1].tokens] == ["beta"]

    def test_text_reaches_only_the_enclosing_entities(self):
        # parse_corpus clears an element once no open entity encloses it
        xml = (
            b"<doc>intro<sec>lead<item>one<b>bold</b>tail<item>inner</item>coda</item>"
            b"gap<item>two</item>end</sec>last</doc>"
        )
        records = parse_corpus(xml, IndexConfig(entity_labels=frozenset({"item"})))
        assert [dewey_text(r.dewey) for r in records] == ["1.1.1", "1.1.1.2", "1.1.2"]
        assert [[t for t, _ in r.tokens] for r in records] == [
            ["one", "bold", "tail", "inner", "coda"],
            ["inner"],
            ["two"],
        ]

    def test_attribute_values_ignored(self):
        xml = b'<doc><item kind="special"><t>alpha</t></item></doc>'
        records = parse_corpus(xml, IndexConfig(entity_labels=frozenset({"item"})))
        assert [t for t, _ in records[0].tokens] == ["alpha"]

    def test_multiple_entity_labels(self):
        xml = b"<doc><item>one</item><note>two</note></doc>"
        records = parse_corpus(
            xml, IndexConfig(entity_labels=frozenset({"item", "note"}))
        )
        assert [(dewey_text(r.dewey), r.label) for r in records] == [
            ("1.1", "item"),
            ("1.2", "note"),
        ]

    def test_deterministic(self):
        rng = random.Random(5)
        xml = random_corpus_xml(rng)
        config = IndexConfig(entity_labels=frozenset({"item"}))
        first = parse_corpus(xml, config)
        second = parse_corpus(xml, config)
        assert first == second


class TestBuildIndex:
    def test_toy_postings(self, toy_index):
        expected = {
            "database": ids("1.1", "1.2", "1.3"),
            "query": ids("1.1", "1.2"),
            "system": ids("1.1"),
            "language": ids("1.1"),
            "relational": ids("1.2"),
            "optimization": ids("1.2"),
            "image": ids("1.3"),
            "retrieval": ids("1.3"),
        }
        ents = Entities(toy_index.entity_table)
        assert {term: ents.deweys(p) for term, p in toy_index.postings.items()} == expected
        assert toy_index.entity_count == 3

    def test_window_3_links_positions_0_and_3(self, toy_index):
        # "database ... language" has distance exactly 3 in entity 1.1
        assert toy_index.cooccur_count("database", "language") == 1

    def test_window_1_recount(self, toy_corpus):
        config = IndexConfig(entity_labels=frozenset({"paper"}), window=1)
        index = build_index(toy_corpus, config)
        # adjacent in 1.2 only; distance 2 in 1.1 no longer qualifies
        assert index.cooccur_count("database", "query") == 1
        assert index.cooccur_count("database", "language") == 0

    def test_counts_entities_not_instances(self):
        # pair appears twice within one entity, once in another
        xml = b"<doc><item>ant bee ant bee</item><item>ant bee</item></doc>"
        config = IndexConfig(entity_labels=frozenset({"item"}), window=3)
        index = index_corpus(xml, config)
        assert index.cooccur_count("ant", "bee") == 2

    def test_same_term_never_pairs_with_itself(self):
        xml = b"<doc><item>ant ant ant</item></doc>"
        index = index_corpus(xml, IndexConfig(entity_labels=frozenset({"item"})))
        assert index.cooccur == {}

    def test_cooccur_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(25):
            xml = random_corpus_xml(rng, max_entities=30, vocab_size=12)
            window = rng.randint(1, 4)
            config = IndexConfig(entity_labels=frozenset({"item"}), window=window)
            records = parse_corpus(xml, config)
            index = build_index(records, config)
            assert index.cooccur == brute_cooccur(records, window)

    def test_postings_strictly_increasing(self):
        rng = random.Random(32)
        for _ in range(25):
            xml = random_corpus_xml(rng)
            index = index_corpus(xml, IndexConfig(entity_labels=frozenset({"item"})))
            for term, posting in index.postings.items():
                assert all(a < b for a, b in zip(posting, posting[1:])), term

    def test_one_string_per_term(self):
        """Equal terms are one object across records, postings keys and cooccur keys."""
        config = IndexConfig(entity_labels=frozenset({"item"}))
        records = parse_corpus(random_corpus_xml(random.Random(33), max_entities=30, vocab_size=12), config)
        index = build_index(records, config)
        terms = {term: term for term in index.postings}
        tokens = [token for record in records for token, _ in record.tokens]
        assert len(tokens) > len(terms)  # each term occurs more than once
        assert all(token is terms[token] for token in tokens)
        assert all(a is terms[a] and b is terms[b] for a, b in index.cooccur)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_index([], IndexConfig(entity_labels=frozenset({"item"})))


class TestIndexConfig:
    def test_requires_entity_labels(self):
        with pytest.raises(ValueError):
            IndexConfig(entity_labels=frozenset())

    def test_requires_positive_window(self):
        with pytest.raises(ValueError):
            IndexConfig(entity_labels=frozenset({"x"}), window=0)

    @pytest.mark.parametrize("window", [True, 1.0, 2.5, "3"])
    def test_window_must_be_an_int(self, window):
        """``save_index`` would write it and ``load_index`` refuse it."""
        with pytest.raises(ValueError, match="window must be an integer >= 1"):
            IndexConfig(entity_labels=frozenset({"x"}), window=window)

    def test_stopwords_take_part_in_equality(self):
        """The index stores its stop words, so they are part of the config."""
        a = IndexConfig(entity_labels=frozenset({"x"}), stopwords=frozenset({"s"}))
        b = IndexConfig(entity_labels=frozenset({"x"}), stopwords=frozenset())
        assert a != b
        assert a == IndexConfig(entity_labels=frozenset({"x"}), stopwords=frozenset({"s"}))


class TestIsToken:
    @pytest.mark.parametrize("word", ["the", "café", "x1", "2025"])
    def test_tokens(self, word):
        assert is_token(word)

    @pytest.mark.parametrize("word", ["", "The", "don't", "a b", "snake_case", "e-mail", "the\n"])
    def test_not_one_token(self, word):
        assert not is_token(word)

    def test_every_default_stop_word_is_a_token(self):
        assert all(is_token(word) for word in DEFAULT_STOPWORDS)


def flat_corpus_xml(entities: int, rng: random.Random) -> bytes:
    """``entities`` sibling items of 12 words each from 300 Zipf-weighted words."""
    words = [f"w{i:03d}" for i in range(300)]
    weights = [1.0 / (i + 1) for i in range(len(words))]
    items = (f"<item>{' '.join(rng.choices(words, weights=weights, k=12))}</item>" for _ in range(entities))
    return ("<doc>" + "".join(items) + "</doc>").encode()


def chain_xml(depth: int) -> bytes:
    """``depth`` items, each inside the one before, each with one word of its own."""
    return b"<doc>" + b"".join(b"<item>w%02d " % (i % 50) for i in range(depth)) + b"</item>" * depth + b"</doc>"


def assert_same_bundle(got, want):
    """Equal bundles, down to the order of the postings and cooccur keys."""
    assert got == want
    assert list(got.postings) == list(want.postings)
    assert list(got.cooccur.items()) == list(want.cooccur.items())


class TestOnePassBuild:
    """``index_corpus`` streams records from the parser into ``build_index``."""

    def test_equals_the_list_build_on_random_corpora(self):
        rng = random.Random(37)
        nested = 0
        for _ in range(240):
            xml = random_corpus_xml(rng, max_entities=rng.choice((5, 40, 120)), vocab_size=rng.choice((6, 20, 60)))
            labels = rng.choice(({"item"}, {"item", "sec"}, {"sec"}))
            config = IndexConfig(entity_labels=frozenset(labels), window=rng.randint(1, 4))
            records = parse_corpus(xml, config)
            want = build_index(records, config)
            assert_same_bundle(index_corpus(xml, config), want)
            assert_same_bundle(build_index(iter(records), config), want)
            nested += any(b.dewey[: len(a.dewey)] == a.dewey for a, b in zip(records, records[1:]))
        assert nested > 100

    def test_equals_the_list_build_on_a_300_level_chain(self):
        xml = chain_xml(300)
        config = IndexConfig(entity_labels=frozenset({"item"}))
        records = parse_corpus(xml, config)
        assert len(records) == 300 and len(records[-1].dewey) == 301
        want = build_index(records, config)
        assert_same_bundle(index_corpus(xml, config), want)
        assert_same_bundle(build_index(iter(records), config), want)

    def test_records_come_whole_and_in_start_tag_order(self):
        """Nested records come with their tokens, in start-tag order, each
        holding the text of its own subtree."""
        xml = b"<r><item>a <item>b <item>c</item></item> d</item><x>skip</x><item>e</item></r>"
        stream = _records(xml, IndexConfig(entity_labels=frozenset({"item"}), stopwords=frozenset()))
        got = [(dewey_text(r.dewey), " ".join(t for t, _ in r.tokens)) for r in stream]
        assert got == [("1.1", "a b c d"), ("1.1.1", "b c"), ("1.1.1.1", "c"), ("1.3", "e")]

    def test_reads_its_records_once(self):
        config = IndexConfig(entity_labels=frozenset({"item"}))
        records = parse_corpus(random_corpus_xml(random.Random(38)), config)
        reads = 0

        def once():
            nonlocal reads
            reads += 1
            yield from records

        assert build_index(once(), config) == build_index(records, config)
        assert reads == 1

    def test_no_matching_element_is_refused_by_the_parser(self):
        config = IndexConfig(entity_labels=frozenset({"item"}))
        with pytest.raises(EmptyCorpusError, match="^no element matched entity labels: item$"):
            index_corpus(b"<doc><sec>text</sec></doc>", config)

    @pytest.mark.parametrize("tail", [b"<item>x</wrong></doc>", b"<item>x", b"</doc><doc/>"])
    def test_malformed_xml_after_1000_entities(self, tail):
        xml = flat_corpus_xml(1200, random.Random(39))[: -len(b"</doc>")] + tail
        config = IndexConfig(entity_labels=frozenset({"item"}))
        faults = []
        for read in (parse_corpus, index_corpus):
            with pytest.raises(CorpusParseError) as exc_info:
                read(xml, config)
            faults.append((str(exc_info.value), exc_info.value.byte_offset))
        assert faults[0] == faults[1]
        assert faults[0][1] > len(xml) - len(tail) - 1

    def test_holds_less_than_the_list_of_records(self):
        """The one-pass build's transient memory is below what the records alone take."""
        xml = flat_corpus_xml(3000, random.Random(40))
        config = IndexConfig(entity_labels=frozenset({"item"}))
        index_corpus(xml, config)  # warm: the parser's imports and first-use caches
        tracemalloc.start()
        try:
            records = parse_corpus(xml, config)
            held = tracemalloc.get_traced_memory()[0]
            del records
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            bundle = index_corpus(xml, config)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bundle.entity_count == 3000
        assert peak - kept < (held - before) // 2, (peak - kept, held - before)

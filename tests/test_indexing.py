import random

import pytest

from divsearch.errors import CorpusParseError, EmptyCorpusError
from divsearch.indexing import (
    DEFAULT_STOPWORDS,
    IndexConfig,
    _byte_offset,
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
        assert [(str(r.dewey), r.label) for r in toy_corpus] == [
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

    def test_byte_offset_follows_declared_encoding(self):
        # in Latin-1 each "é" is one byte, not the two it takes in UTF-8
        text = '<?xml version="1.0" encoding="ISO-8859-1"?><a><b>éé</b><c>y</d></a>'
        data = text.encode("latin-1")
        with pytest.raises(CorpusParseError) as exc_info:
            parse_corpus(data, IndexConfig(entity_labels=frozenset({"b"})))
        assert exc_info.value.byte_offset == 61
        assert data[exc_info.value.byte_offset :] == b"d></a>"

    @pytest.mark.parametrize("encoding", ["UTF-16", "UTF-32"])
    def test_no_byte_offset_in_an_encoding_that_is_not_ascii_compatible(self, encoding):
        data = f'<?xml version="1.0" encoding="{encoding}"?><a><b>y</c></a>'.encode(encoding)
        with pytest.raises(CorpusParseError) as exc_info:
            parse_corpus(data, IndexConfig(entity_labels=frozenset({"b"})))
        assert exc_info.value.byte_offset == -1

    @pytest.mark.parametrize("encoding", ["x-no-such-codec", "UTF-16", "base64"])
    def test_no_byte_offset_in_an_unusable_declared_encoding(self, encoding):
        data = f'<?xml version="1.0" encoding="{encoding}"?><a><b>y</c></a>'.encode("ascii")
        assert _byte_offset(data, 1, 50) == -1

    @pytest.mark.parametrize("encoding", ["x-no-such-codec", "base64"])
    def test_unusable_declared_encoding_is_a_parse_error(self, encoding):
        # no codec, or one that is "not a text encoding": expat cannot read it
        data = f'<?xml version="1.0" encoding="{encoding}"?><a><b>y</b></a>'.encode("ascii")
        with pytest.raises(CorpusParseError, match="^malformed XML: ") as exc_info:
            parse_corpus(data, IndexConfig(entity_labels=frozenset({"b"})))
        assert exc_info.value.byte_offset == -1
        assert isinstance(exc_info.value.__cause__, LookupError)

    def test_nested_entities_get_own_records(self):
        xml = b"<doc><item><t>alpha</t><item><t>beta</t></item></item></doc>"
        records = parse_corpus(xml, IndexConfig(entity_labels=frozenset({"item"})))
        assert [str(r.dewey) for r in records] == ["1.1", "1.1.2"]
        # outer entity text includes descendant text
        assert [t for t, _ in records[0].tokens] == ["alpha", "beta"]
        assert [t for t, _ in records[1].tokens] == ["beta"]

    def test_attribute_values_ignored(self):
        xml = b'<doc><item kind="special"><t>alpha</t></item></doc>'
        records = parse_corpus(xml, IndexConfig(entity_labels=frozenset({"item"})))
        assert [t for t, _ in records[0].tokens] == ["alpha"]

    def test_multiple_entity_labels(self):
        xml = b"<doc><item>one</item><note>two</note></doc>"
        records = parse_corpus(
            xml, IndexConfig(entity_labels=frozenset({"item", "note"}))
        )
        assert [(str(r.dewey), r.label) for r in records] == [
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

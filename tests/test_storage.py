import dataclasses
import json
import os
import random
import re
import shutil
import sys
import tracemalloc
from pathlib import Path

import pytest

from divsearch.dewey import DeweyId
from divsearch.errors import IndexFormatError, IndexVersionError
from divsearch.indexing import DEFAULT_STOPWORDS, IndexBundle, IndexConfig, index_corpus
from divsearch.storage import (
    COOCCUR_FILE,
    ENTITIES_FILE,
    MANIFEST_FILE,
    POSTINGS_FILE,
    STOPWORDS_FILE,
    _triplets,
    load_for_query,
    load_index,
    save_index,
)
from conftest import DATA_DIR, GOLDEN_INDEX_DIR
from helpers import NON_ASCII_WORDS, Entities, fail_rename, fail_write, random_corpus_xml

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ALL_FILES = (MANIFEST_FILE, ENTITIES_FILE, POSTINGS_FILE, COOCCUR_FILE)
# the message that refuses a line of another shape than the writer's
SHAPE = {
    ENTITIES_FILE: 'expected {"dewey":"<dewey>","label":<string>}',
    POSTINGS_FILE: 'expected {"term":<string>,"entities":["<dewey>",...]}',
    COOCCUR_FILE: 'expected {"a":<string>,"b":<string>,"count":<count>}',
}


def _dump(obj):
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def reference_save(bundle, directory):
    """The index format stated plainly, one ``json.dumps`` per row.

    ``save_index`` builds its lines from cached pieces and must write these
    bytes exactly.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def write(name, rows):
        with open(directory / name, "w", encoding="utf-8", newline="\n") as fh:
            for row in rows:
                fh.write(_dump(row) + "\n")

    write(MANIFEST_FILE, [{
        "version": 1,
        "entityCount": bundle.entity_count,
        "window": bundle.config.window,
        "entityLabels": sorted(bundle.config.entity_labels),
        "logBase": "e",
    }])
    write(ENTITIES_FILE, [
        {"dewey": ".".join(map(str, dewey)), "label": label}
        for dewey, label in zip(bundle.entities, bundle.labels)
    ])
    write(POSTINGS_FILE, [
        {"term": term, "entities": [".".join(map(str, bundle.entities[i])) for i in bundle.postings[term]]}
        for term in sorted(bundle.postings)
    ])
    triplets = sorted(bundle.cooccur.items(), key=lambda kv: (-kv[1], kv[0]))
    write(COOCCUR_FILE, [{"a": a, "b": b, "count": count} for (a, b), count in triplets])


def raw_bundle():
    """A hand-built index whose terms and labels hold characters that JSON
    leaves raw: non-ASCII ones, U+2028 and U+007F among them."""
    one, two, three = DeweyId((1, 1)), DeweyId((1, 2)), DeweyId((1, 2, 1))
    terms = sorted(["naïve", "日本語", "𝔡𝔟", "del\x7f", "ab", "sep\u2028", "é", "plain"])
    postings = {term: (0, 2) if i % 2 else (1,) for i, term in enumerate(terms)}  # one, three / two
    cooccur = {
        (a, b): min(1 + (i * 7 + j) % 3, len(postings[a]), len(postings[b]))  # at most either df
        for i, a in enumerate(terms)
        for j, b in enumerate(terms)
        if a < b
    }
    return IndexBundle(
        entities=(one, two, three),
        labels=("item", "étiquette", "item"),
        postings=postings,
        cooccur=cooccur,
        config=IndexConfig(entity_labels=frozenset({"item", "étiquette"}), window=2),
    )


def _assert_same_bytes(bundle, tmp_path):
    save_index(bundle, tmp_path / "new")
    reference_save(bundle, tmp_path / "ref")
    for name in ALL_FILES:
        written = (tmp_path / "new" / name).read_bytes()
        assert written == (tmp_path / "ref" / name).read_bytes(), name


def _assert_fails_at(directory, filename, line, message):
    with pytest.raises(IndexFormatError) as exc_info:
        load_index(directory)
    assert (exc_info.value.path, exc_info.value.line) == (filename, line)
    assert str(exc_info.value) == message


def _corrupt(tmp_path, bundle, filename, mutate):
    """Save, rewrite one file through `mutate`, return the directory."""
    save_index(bundle, tmp_path)
    path = tmp_path / filename
    path.write_text(mutate(path.read_text(encoding="utf-8")), encoding="utf-8")
    return tmp_path


class TestRoundTrip:
    def test_toy_round_trip_is_identity(self, toy_index, tmp_path):
        save_index(toy_index, tmp_path)
        assert load_index(tmp_path) == toy_index

    def test_random_round_trips(self, tmp_path):
        rng = random.Random(81)
        for i in range(10):
            xml = random_corpus_xml(rng)
            window = rng.randint(1, 4)
            config = IndexConfig(entity_labels=frozenset({"item"}), window=window)
            bundle = index_corpus(xml, config)
            target = tmp_path / f"idx{i}"
            save_index(bundle, target)
            assert load_index(target) == bundle

    def test_toy_golden_bytes(self, toy_index, tmp_path):
        save_index(toy_index, tmp_path)
        for name in ALL_FILES:
            assert (tmp_path / name).read_bytes() == (
                GOLDEN_INDEX_DIR / name
            ).read_bytes(), name

    def test_load_golden_directory(self, toy_index):
        # the golden directory predates stopwords.txt, so it loads with none
        config = toy_index.config._replace(stopwords=frozenset())
        assert load_index(GOLDEN_INDEX_DIR) == dataclasses.replace(toy_index, config=config)


class TestFormat:
    def test_lf_line_endings_and_trailing_newline(self, toy_index, tmp_path):
        save_index(toy_index, tmp_path)
        for name in ALL_FILES:
            data = (tmp_path / name).read_bytes()
            assert b"\r" not in data
            assert data.endswith(b"\n")

    def test_manifest_key_order(self, toy_index, tmp_path):
        save_index(toy_index, tmp_path)
        text = (tmp_path / MANIFEST_FILE).read_text(encoding="utf-8").strip()
        assert (
            text
            == '{"version":1,"entityCount":3,"window":3,"entityLabels":["paper"],"logBase":"e"}'
        )

    def test_postings_terms_sorted(self, toy_index, tmp_path):
        save_index(toy_index, tmp_path)
        terms = [
            json.loads(line)["term"]
            for line in (tmp_path / POSTINGS_FILE).read_text(encoding="utf-8").splitlines()
        ]
        assert terms == sorted(terms)

    def test_cooccur_sorted_by_count_then_pair(self, toy_index, tmp_path):
        save_index(toy_index, tmp_path)
        rows = [
            json.loads(line)
            for line in (tmp_path / COOCCUR_FILE).read_text(encoding="utf-8").splitlines()
        ]
        keys = [(-r["count"], r["a"], r["b"]) for r in rows]
        assert keys == sorted(keys)


class TestLoadValidation:
    def test_version_mismatch(self, toy_index, tmp_path):
        directory = _corrupt(
            tmp_path, toy_index, MANIFEST_FILE, lambda t: t.replace('"version":1', '"version":99')
        )
        with pytest.raises(IndexVersionError):
            load_index(directory)

    @pytest.mark.parametrize("version, shown", [("true", "True"), ("1.0", "1.0")])
    def test_version_must_be_an_integer(self, toy_index, tmp_path, version, shown):
        directory = _corrupt(
            tmp_path, toy_index, MANIFEST_FILE, lambda t: t.replace('"version":1', f'"version":{version}')
        )
        with pytest.raises(IndexVersionError):
            load_index(directory)
        _assert_fails_at(
            directory, MANIFEST_FILE, 1, f"unsupported index version {shown} (expected 1)"
        )

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"entityCount":3', '"entityCount":true'),
            ('"window":3', '"window":true'),
            ('"logBase":"e"', '"logBase":"10"'),
        ],
        ids=["entity-count-true", "window-true", "log-base-10"],
    )
    def test_invalid_manifest_field(self, toy_index, tmp_path, old, new):
        directory = _corrupt(tmp_path, toy_index, MANIFEST_FILE, lambda t: t.replace(old, new))
        _assert_fails_at(directory, MANIFEST_FILE, 1, "manifest fields missing or invalid")

    def test_unsorted_posting_line(self, toy_index, tmp_path):
        directory = _corrupt(
            tmp_path,
            toy_index,
            POSTINGS_FILE,
            lambda t: t.replace('["1.1","1.2","1.3"]', '["1.2","1.1","1.3"]'),
        )
        with pytest.raises(IndexFormatError) as exc_info:
            load_index(directory)
        assert exc_info.value.path == POSTINGS_FILE
        assert exc_info.value.line == 1

    def test_invalid_json_reports_line(self, toy_index, tmp_path):
        directory = _corrupt(
            tmp_path, toy_index, ENTITIES_FILE, lambda t: t.replace('{"dewey":"1.3"', "oops", 1)
        )
        with pytest.raises(IndexFormatError) as exc_info:
            load_index(directory)
        assert exc_info.value.path == ENTITIES_FILE
        assert exc_info.value.line == 3

    def test_blank_line_is_corruption(self, toy_index, tmp_path):
        directory = _corrupt(tmp_path, toy_index, ENTITIES_FILE, lambda t: t + "\n")
        _assert_fails_at(directory, ENTITIES_FILE, 4, "blank line")

    def test_blank_line_in_cooccur(self, toy_index, tmp_path):
        directory = _corrupt(
            tmp_path, toy_index, COOCCUR_FILE, lambda t: t.replace("\n", "\n\n", 1)
        )
        _assert_fails_at(directory, COOCCUR_FILE, 2, "blank line")

    @pytest.mark.parametrize(
        "filename, mutate, line, reason",
        [
            (COOCCUR_FILE, lambda b: b + b"\xff\n", 15, "invalid start byte"),
            (ENTITIES_FILE, lambda b: b.replace(b"1.2", b"1.\xe92", 1), 2, "invalid continuation byte"),
            (POSTINGS_FILE, lambda b: b + b"\xc3", 9, "unexpected end of data"),
        ],
        ids=["appended-line", "mid-line", "truncated-at-end"],
    )
    def test_bytes_that_are_not_utf8(self, toy_index, tmp_path, filename, mutate, line, reason):
        save_index(toy_index, tmp_path)
        path = tmp_path / filename
        path.write_bytes(mutate(path.read_bytes()))
        _assert_fails_at(tmp_path, filename, line, f"invalid UTF-8: {reason}")

    def test_entities_out_of_document_order(self, toy_index, tmp_path):
        def swap(text):
            lines = text.splitlines()
            lines[0], lines[1] = lines[1], lines[0]
            return "\n".join(lines) + "\n"

        directory = _corrupt(tmp_path, toy_index, ENTITIES_FILE, swap)
        _assert_fails_at(directory, ENTITIES_FILE, 2, "entities not in document order")

    def test_entity_label_not_in_the_manifest(self, toy_index, tmp_path):
        directory = _corrupt(
            tmp_path, toy_index, ENTITIES_FILE, lambda t: t.replace('"paper"', '"nosuch"', 1)
        )
        _assert_fails_at(directory, ENTITIES_FILE, 1, "entity label 'nosuch' not in the manifest")

    @pytest.mark.parametrize(
        "filename, line, text",
        [(ENTITIES_FILE, 2, "1_2"), (ENTITIES_FILE, 2, " 1.2"), (POSTINGS_FILE, 1, "+1.2")],
    )
    def test_dewey_component_that_is_not_ascii_digits(self, toy_index, tmp_path, filename, line, text):
        directory = _corrupt(tmp_path, toy_index, filename, lambda t: t.replace('"1.2"', f'"{text}"', 1))
        _assert_fails_at(directory, filename, line, SHAPE[filename])

    def test_posting_referencing_unknown_entity(self, toy_index, tmp_path):
        directory = _corrupt(
            tmp_path, toy_index, POSTINGS_FILE, lambda t: t.replace('["1.3"]', '["7.7"]', 1)
        )
        _assert_fails_at(directory, POSTINGS_FILE, 2, "posting references unknown entity 7.7")

    def test_unsorted_check_precedes_unknown_entity(self, toy_index, tmp_path):
        directory = _corrupt(
            tmp_path, toy_index, POSTINGS_FILE, lambda t: t.replace('["1.3"]', '["7.7","1.1"]', 1)
        )
        _assert_fails_at(directory, POSTINGS_FILE, 2, "posting list for 'image' not sorted")

    def test_unparsable_posting_entry(self, toy_index, tmp_path):
        directory = _corrupt(
            tmp_path, toy_index, POSTINGS_FILE, lambda t: t.replace('["1.3"]', '["1.x"]', 1)
        )
        _assert_fails_at(directory, POSTINGS_FILE, 2, SHAPE[POSTINGS_FILE])

    def test_cooccur_unsorted(self, toy_index, tmp_path):
        def swap(text):
            lines = text.splitlines()
            lines[-1], lines[-2] = lines[-2], lines[-1]
            return "\n".join(lines) + "\n"

        directory = _corrupt(tmp_path, toy_index, COOCCUR_FILE, swap)
        _assert_fails_at(
            directory, COOCCUR_FILE, 14, "triplets not sorted by count desc, pair asc"
        )

    @pytest.mark.parametrize(
        "edit, line",
        [
            (lambda lines: lines.insert(0, lines.pop(1)), 2),  # count rises
            (lambda lines: lines.append(lines[0]), 15),  # count rises at the end
            (lambda lines: lines.insert(5, lines[4]), 6),  # tie, same pair
            (lambda lines: lines.insert(1, lines.pop(2)), 3),  # tie, smaller pair
        ],
        ids=["count-rises", "count-rises-last", "tie-equal-pair", "tie-smaller-pair"],
    )
    def test_cooccur_sort_order(self, toy_index, tmp_path, edit, line):
        def reorder(text):
            lines = text.splitlines()
            edit(lines)
            return "\n".join(lines) + "\n"

        directory = _corrupt(tmp_path, toy_index, COOCCUR_FILE, reorder)
        _assert_fails_at(
            directory, COOCCUR_FILE, line, "triplets not sorted by count desc, pair asc"
        )

    @pytest.mark.parametrize(
        "mutate, line, message",
        [
            (lambda b: b"\n" + b, 1, "blank line"),
            (lambda b: b + b"\n", 15, "blank line"),
            (lambda b: b.replace(b"\n", b"\n\r\n", 1), 2, "blank line"),
            (lambda b: b.replace(b"image", b"im\xe4ge", 1), 2, "invalid UTF-8: invalid continuation byte"),
            (lambda b: b.replace(b"system", b"syst\x80m"), 7, "invalid UTF-8: invalid start byte"),
        ],
        ids=["blank-first", "blank-last", "blank-crlf", "bad-byte-line-2", "bad-byte-line-7"],
    )
    def test_cooccur_blank_and_undecodable_lines(self, toy_index, tmp_path, mutate, line, message):
        save_index(toy_index, tmp_path)
        path = tmp_path / COOCCUR_FILE
        path.write_bytes(mutate(path.read_bytes()))
        _assert_fails_at(tmp_path, COOCCUR_FILE, line, message)

    def test_cooccur_bad_pair_order(self, toy_index, tmp_path):
        directory = _corrupt(
            tmp_path,
            toy_index,
            COOCCUR_FILE,
            lambda t: t.replace(
                '{"a":"database","b":"query","count":2}',
                '{"a":"query","b":"database","count":2}',
            ),
        )
        _assert_fails_at(directory, COOCCUR_FILE, 1, "pair not in canonical order (a < b)")

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"a":"database","b":"zzz","count":2}', "pair references unknown term"),
            ('{"a":"database","b":"query","count":0}', SHAPE[COOCCUR_FILE]),
            ('{"a":"database","b":"query","count":"2"}', SHAPE[COOCCUR_FILE]),
            ('{"a":"database","b":"query","count":true}', SHAPE[COOCCUR_FILE]),
            ('{"a":"database","b":"query","count":2', SHAPE[COOCCUR_FILE]),
            ('{"a":"database","b":"query","count":02}', SHAPE[COOCCUR_FILE]),
            ('{"a":"data\tbase","b":"query","count":2}', SHAPE[COOCCUR_FILE]),
            # a pair occurs in no more entities than either term: database
            # is in 3, query in 2, language in 1; checked before the order
            ('{"a":"database","b":"query","count":3}', "count exceeds the posting length of 'query'"),
            ('{"a":"language","b":"query","count":2}', "count exceeds the posting length of 'language'"),
        ],
    )
    def test_bad_cooccur_line(self, toy_index, tmp_path, line, message):
        directory = _corrupt(
            tmp_path,
            toy_index,
            COOCCUR_FILE,
            lambda t: t.replace('{"a":"database","b":"query","count":2}', line),
        )
        _assert_fails_at(directory, COOCCUR_FILE, 1, message)

    def test_entity_count_mismatch(self, toy_index, tmp_path):
        def drop_last(text):
            lines = text.splitlines()
            return "\n".join(lines[:-1]) + "\n"

        directory = _corrupt(tmp_path, toy_index, ENTITIES_FILE, drop_last)
        _assert_fails_at(directory, ENTITIES_FILE, 2, "entity count does not match manifest")

    def test_missing_file(self, toy_index, tmp_path):
        save_index(toy_index, tmp_path)
        (tmp_path / COOCCUR_FILE).unlink()
        with pytest.raises(IndexFormatError):
            load_index(tmp_path)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit")
    @pytest.mark.parametrize(
        "filename, old, new, line, message",
        [
            (MANIFEST_FILE, '"entityCount":3', '"entityCount":{}', 1, "invalid JSON: Exceeds the limit"),
            (ENTITIES_FILE, '"1.2"', '"1.2.{}"', 2, "invalid Dewey ID '1.2.999"),
            (COOCCUR_FILE, '"count":2', '"count":{}', 1, "count exceeds the posting length of 'database'"),
        ],
        ids=["manifest", "dewey", "count"],
    )
    def test_integer_past_the_digit_limit(self, toy_index, tmp_path, filename, old, new, line, message):
        new = new.format("9" * (sys.get_int_max_str_digits() + 1))
        directory = _corrupt(tmp_path, toy_index, filename, lambda t: t.replace(old, new, 1))
        with pytest.raises(IndexFormatError) as exc_info:
            load_index(directory)
        assert (exc_info.value.path, exc_info.value.line) == (filename, line)
        assert str(exc_info.value).startswith(message)


class TestWriterMatchesReference:
    def test_random_corpora(self, tmp_path):
        rng = random.Random(2375)
        for i in range(12):
            words = NON_ASCII_WORDS if i % 2 else None
            xml = random_corpus_xml(rng, words=words)
            config = IndexConfig(entity_labels=frozenset({"item"}), window=rng.randint(1, 4))
            _assert_same_bytes(index_corpus(xml, config), tmp_path / f"c{i}")

    def test_raw_terms_and_labels(self, tmp_path):
        bundle = raw_bundle()
        _assert_same_bytes(bundle, tmp_path)
        assert load_index(tmp_path / "new") == bundle

    def test_pair_naming_a_term_without_postings_is_refused(self, tmp_path):
        bundle = raw_bundle()
        orphaned = dataclasses.replace(bundle, cooccur={**bundle.cooccur, ("orphan", "plain"): 2})
        with pytest.raises(ValueError, match="'orphan'"):
            save_index(orphaned, tmp_path / "idx")
        assert not (tmp_path / "idx").exists()


class TestEntitiesAndLabels:
    """A bundle holds each entity as its Dewey ID, its label beside it at the same ordinal."""

    def test_labels_round_trip(self, tmp_path):
        bundle = raw_bundle()
        save_index(bundle, tmp_path)
        loaded = load_index(tmp_path)
        assert loaded == bundle
        assert loaded.entities == bundle.entities
        assert loaded.labels == ("item", "étiquette", "item")
        # equality compares the labels too
        assert loaded != dataclasses.replace(bundle, labels=("item", "item", "étiquette"))

    def test_loaded_labels_are_the_manifest_strings(self, toy_index, tmp_path):
        """One ``str`` per distinct label, however many entities carry it."""
        for name, bundle in [("raw", raw_bundle()), ("toy", toy_index)]:
            save_index(bundle, tmp_path / name)
            loaded = load_index(tmp_path / name)
            assert len(set(map(id, loaded.labels))) == len(set(loaded.labels)) < len(loaded.labels)
            # the config's labels come from the same manifest strings
            assert set(map(id, loaded.labels)) <= set(map(id, loaded.config.entity_labels))

    def test_entity_table_holds_the_bundle_tuple(self, toy_index, tmp_path):
        save_index(toy_index, tmp_path)
        for bundle in (toy_index, load_index(tmp_path)):
            assert all(type(dewey) is tuple for dewey in bundle.entities)
            assert len(bundle.labels) == len(bundle.entities)
            assert bundle.entity_table.deweys is bundle.entities


class TestBuiltIndexesHoldNoEscape:
    """The indexer writes no JSON escape, so refusing one refuses no index it builds."""

    def test_no_file_holds_a_backslash(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from corpora import longtail_corpus, skewed_corpus

        rng = random.Random("no-escape")
        corpora = [("toy", (DATA_DIR / "toy.xml").read_bytes(), "paper")]
        corpora += [
            (f"random{i}", random_corpus_xml(rng, words=NON_ASCII_WORDS if i % 2 else None), "item")
            for i in range(12)
        ]
        corpora += [
            ("skewed", skewed_corpus(20250804, sections=6).xml, "item"),
            ("longtail", longtail_corpus(20250804, sections=4).xml, "item"),
        ]
        for name, xml, label in corpora:
            config = IndexConfig(entity_labels=frozenset({label}), window=2)
            save_index(index_corpus(xml, config), tmp_path / name)
            for path in sorted((tmp_path / name).iterdir()):
                assert b"\\" not in path.read_bytes(), path


def _round_trips(bundle, directory):
    try:
        reference_save(bundle, directory)
        return load_index(directory) == bundle
    except (IndexError, IndexFormatError, UnicodeEncodeError):
        return False


def _term_spelled(term):
    """The change to ``TestSaveRefuses.GOOD`` that spells its term "b" as ``term``."""
    return {"postings": {"a": (0, 1), term: (1, 2)}, "cooccur": {("a", term): 1}}


def _label_spelled(label):
    """The change to ``TestSaveRefuses.GOOD`` that spells its label "item" as ``label``."""
    return {"labels": (label,) * 3, "config": IndexConfig(entity_labels=frozenset({label}))}


def _cannot_hold(kind, text, char):
    return re.escape(f"{kind} {text!r} holds {char!r}, which an index file cannot hold")


# characters that a JSON string escapes, and one that UTF-8 cannot encode
UNWRITABLE = {
    "quote": '"', "backslash": "\\", "tab": "\t", "lf": "\n", "ctl": "\x01", "surrogate": "\ud800"
}


class TestSaveRefuses:
    """``save_index`` refuses, before writing any file, a bundle that would not load back."""

    ENTITIES = tuple(DeweyId((1, j)) for j in (1, 2, 3))
    GOOD = IndexBundle(
        entities=ENTITIES,
        labels=("item",) * 3,
        postings={"a": (0, 1), "b": (1, 2)},
        cooccur={("a", "b"): 1},
        config=IndexConfig(entity_labels=frozenset({"item"})),
    )

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"cooccur": {("b", "a"): 1}}, "not in canonical order"),
            ({"cooccur": {("a", "a"): 1}}, "not in canonical order"),
            ({"cooccur": {("a", "b"): 0}}, "count below 1"),
            ({"postings": {"a": (0, 1), "b": (1, 2), "c": ()}}, "'c' is empty"),
            ({"postings": {"a": (1, 0), "b": (1, 2)}}, "'a' not sorted"),
            ({"labels": ("item", "other", "item")}, "'other' not in config.entity_labels"),
            ({"labels": ("item",) * 2}, "3 entities but 2 labels"),
            ({"labels": ("item",) * 4}, "3 entities but 4 labels"),
            ({"entities": (ENTITIES[1], ENTITIES[0], ENTITIES[2])}, "not in document order"),
            ({"postings": {"a": (-1,), "b": (1, 2)}}, "'a' holds an ordinal outside"),
            ({"postings": {"a": (0, 3), "b": (1, 2)}}, "'a' holds an ordinal outside"),
            ({"entities": (), "labels": (), "postings": {}, "cooccur": {}}, "no entities"),
            ({"cooccur": {("a", "b"): 1.5}}, r"\('a', 'b'\): count 1.5 is not an int"),
            *(
                case
                for char in UNWRITABLE.values()
                for case in [
                    (_term_spelled(f"b{char}"), _cannot_hold("term", f"b{char}", char)),
                    (_label_spelled(f"it{char}em"), _cannot_hold("label", f"it{char}em", char)),
                ]
            ),
        ],
        ids=[
            "reversed-pair", "self-pair", "zero-count", "empty-posting", "unsorted-posting",
            "label", "fewer-labels", "more-labels", "document-order", "negative-ordinal", "ordinal-past-the-end", "no-entities",
            "count-not-an-int", *(f"{name}-{kind}" for name in UNWRITABLE for kind in ("term", "label")),
        ],
    )
    def test_refused_before_any_file(self, tmp_path, change, message):
        save_index(self.GOOD, tmp_path / "good")
        assert load_index(tmp_path / "good") == self.GOOD
        bad = dataclasses.replace(self.GOOD, **change)
        with pytest.raises(ValueError, match=message):
            save_index(bad, tmp_path / "idx")
        assert not (tmp_path / "idx").exists()
        assert not _round_trips(bad, tmp_path / "ref")


# Two corpora of the same three entities in other words: a mix of their
# index files passes every check that a loader makes of a whole file
CORPUS_A = b"<r><item>alpha beta</item><item>beta gamma</item><item>alpha delta gamma</item></r>"
CORPUS_B = b"<r><item>zeta eta</item><item>eta theta</item><item>zeta iota theta</item></r>"
ITEMS = IndexConfig(entity_labels=frozenset({"item"}))
INDEX_FILES = {*ALL_FILES, STOPWORDS_FILE}


def _both_loaders(directory, query="zeta eta"):
    return [lambda: load_index(directory), lambda: load_for_query(directory, query)]


class TestSaveReplaces:
    """A save that fails at any write or rename leaves a directory no loader reads."""

    @pytest.mark.parametrize("over", [False, True], ids=["fresh", "over-an-index"])
    @pytest.mark.parametrize("fail", [fail_write, fail_rename], ids=["write", "rename"])
    @pytest.mark.parametrize("name", sorted(INDEX_FILES))
    def test_failed_save_is_refused(self, tmp_path, monkeypatch, name, fail, over):
        directory = tmp_path / "idx"
        if over:
            save_index(index_corpus(CORPUS_A, ITEMS), directory)
        new = index_corpus(CORPUS_B, ITEMS)
        with monkeypatch.context() as patch:
            fail(patch, name)
            with pytest.raises(OSError):
                save_index(new, directory)
        left = set(os.listdir(directory))
        assert MANIFEST_FILE not in left
        assert left <= INDEX_FILES  # no temporary file
        if over:
            assert left == INDEX_FILES - {MANIFEST_FILE}
        for load in _both_loaders(directory):
            with pytest.raises(IndexFormatError, match="^cannot read index file: ") as exc_info:
                load()
            assert exc_info.value.path == MANIFEST_FILE
        save_index(new, directory)
        assert load_index(directory) == new

    def test_a_refused_bundle_leaves_the_old_index(self, tmp_path):
        old = index_corpus(CORPUS_A, ITEMS)
        save_index(old, tmp_path)
        with pytest.raises(ValueError, match="not in document order"):
            save_index(dataclasses.replace(old, entities=old.entities[::-1]), tmp_path)
        assert load_index(tmp_path) == old
        assert set(os.listdir(tmp_path)) == INDEX_FILES


class TestMissingFile:
    @pytest.mark.parametrize("name", ALL_FILES)
    def test_both_loaders_refuse(self, toy_index, tmp_path, name):
        save_index(toy_index, tmp_path)
        (tmp_path / name).unlink()
        for load in _both_loaders(tmp_path, "database query"):
            with pytest.raises(IndexFormatError, match="^cannot read index file: ") as exc_info:
                load()
            assert (exc_info.value.path, exc_info.value.line) == (name, 0)


class TestStopWords:
    """``stopwords.txt``: the index's stop words, ascending, one per line."""

    def test_default_list_written_sorted(self, toy_index, tmp_path):
        save_index(toy_index, tmp_path)
        data = (tmp_path / STOPWORDS_FILE).read_bytes()
        assert data == "".join(w + "\n" for w in sorted(DEFAULT_STOPWORDS)).encode()
        assert len(data) == 496

    def test_custom_list_round_trips(self, tmp_path):
        stopwords = frozenset({"café", "zz", "a1"})
        config = IndexConfig(entity_labels=frozenset({"item"}), stopwords=stopwords)
        bundle = index_corpus("<doc><item>café crème zz</item></doc>".encode(), config)
        save_index(bundle, tmp_path)
        assert (tmp_path / STOPWORDS_FILE).read_text(encoding="utf-8") == "a1\ncafé\nzz\n"
        loaded = load_index(tmp_path)
        assert loaded.config.stopwords == stopwords
        assert loaded == bundle

    def test_empty_list_round_trips(self, tmp_path):
        config = IndexConfig(entity_labels=frozenset({"item"}), stopwords=frozenset())
        bundle = index_corpus(b"<doc><item>the cat</item></doc>", config)
        save_index(bundle, tmp_path)
        assert (tmp_path / STOPWORDS_FILE).read_bytes() == b""
        assert load_index(tmp_path) == bundle

    def test_index_without_the_file_has_no_stop_words(self, toy_index, tmp_path):
        save_index(toy_index, tmp_path)
        (tmp_path / STOPWORDS_FILE).unlink()
        loaded = load_index(tmp_path)
        assert loaded.config.stopwords == frozenset()
        assert load_index(GOLDEN_INDEX_DIR).config.stopwords == frozenset()

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("a\nthe\nof\n", 3, "stop words not sorted"),
            ("a\nthe\nthe\n", 3, "stop words not sorted"),
            ("a\nThe\n", 2, "stop word is not one token: 'The'"),
            ("don't\n", 1, "stop word is not one token: \"don't\""),
            ("a b\n", 1, "stop word is not one token: 'a b'"),
            ("a\n\nb\n", 2, "blank line"),
        ],
        ids=["descending", "repeated", "uppercase", "apostrophe", "two-words", "blank"],
    )
    def test_bad_file_names_file_and_line(self, toy_index, tmp_path, text, line, message):
        save_index(toy_index, tmp_path)
        (tmp_path / STOPWORDS_FILE).write_bytes(text.encode())
        _assert_fails_at(tmp_path, STOPWORDS_FILE, line, message)

    @pytest.mark.parametrize("word", ["The", "don't", ""])
    def test_save_refuses_a_stop_word_that_is_not_a_token(self, tmp_path, word):
        config = IndexConfig(entity_labels=frozenset({"item"}), stopwords=frozenset({"a", word}))
        bundle = index_corpus(b"<doc><item>the cat</item></doc>", config)
        with pytest.raises(ValueError, match="stop word is not one token"):
            save_index(bundle, tmp_path / "idx")
        assert not (tmp_path / "idx").exists()


class TestLoadAcceptsAnyValidJson:
    """Valid JSON in another shape than the writer's is refused at its line,
    a JSON escape inside a string included: the writer emits none."""

    @pytest.mark.parametrize(
        "filename, old, new",
        [
            (POSTINGS_FILE, '["1.1","1.2","1.3"]', '["1.01","1.2","1.3"]'),
            (ENTITIES_FILE, '"1.2"', '"1.02"'),
            (
                COOCCUR_FILE,
                '{"a":"database","b":"query","count":2}',
                '{"a": "database", "b": "query", "count": 2}',
            ),
            (
                COOCCUR_FILE,
                '{"a":"query","b":"system","count":1}',
                '{"count":1,"b":"system","a":"query"}',
            ),
        ],
    )
    def test_non_canonical_line(self, toy_index, tmp_path, filename, old, new):
        directory = _corrupt(tmp_path, toy_index, filename, lambda t: t.replace(old, new, 1))
        lines = (directory / filename).read_text(encoding="utf-8").splitlines()
        line = next(i for i, text in enumerate(lines, start=1) if new in text)
        _assert_fails_at(directory, filename, line, SHAPE[filename])

    def test_escaped_term_in_cooccur(self, tmp_path):
        config = IndexConfig(entity_labels=frozenset({"item"}))
        bundle = index_corpus(
            "<doc><item>café crème</item><item>café noir</item></doc>".encode(), config
        )
        directory = _corrupt(
            tmp_path, bundle, COOCCUR_FILE, lambda t: t.replace("é", "\\u00e9")
        )
        lines = (directory / COOCCUR_FILE).read_text(encoding="utf-8").splitlines()
        line = next(i for i, text in enumerate(lines, start=1) if "\\u00e9" in text)
        _assert_fails_at(directory, COOCCUR_FILE, line, SHAPE[COOCCUR_FILE])
        for query in ("café", "noir"):  # a backslash line is read for any query
            with pytest.raises(IndexFormatError) as exc_info:
                load_for_query(directory, query)
            refused = exc_info.value
            assert (refused.path, refused.line, str(refused)) == (
                COOCCUR_FILE, line, SHAPE[COOCCUR_FILE]
            )

    def test_cooccur_keys_are_the_postings_terms(self, tmp_path):
        config = IndexConfig(entity_labels=frozenset({"item"}))
        bundle = index_corpus(
            "<doc><item>café crème</item><item>café noir thé</item></doc>".encode(), config
        )
        save_index(bundle, tmp_path)
        loaded = load_index(tmp_path)
        assert loaded == bundle
        terms = {term: term for term in loaded.postings}
        assert all(terms[a] is a and terms[b] is b for a, b in loaded.cooccur)

    def test_json_decodes_only_the_manifest(self, tmp_path, monkeypatch):
        save_index(raw_bundle(), tmp_path)
        decoded = []
        json_loads = json.loads

        def loads(text):
            decoded.append(text)
            return json_loads(text)

        monkeypatch.setattr(json, "loads", loads)
        manifest = (tmp_path / MANIFEST_FILE).read_text(encoding="utf-8").rstrip("\n")
        assert load_index(tmp_path) == raw_bundle()
        assert decoded == [manifest]
        assert load_for_query(tmp_path, "plain é")[1].cooccur
        assert decoded == [manifest, manifest]

    def test_postings_share_the_entities_dewey_objects(self, toy_index, tmp_path):
        """Postings hold ordinals; through the table they are the entities' own IDs."""
        save_index(toy_index, tmp_path)
        loaded = load_index(tmp_path)
        ents = Entities(loaded.entity_table)
        entity_ids = set(map(id, loaded.entities))
        assert all(
            id(d) in entity_ids for ordinals in loaded.postings.values() for d in ents.deweys(ordinals)
        )
        assert loaded.postings == toy_index.postings


class TestOneByteEdits:
    """Seeded one-byte replacements, deletions and insertions of each file."""

    EDITS_PER_FILE = 250
    # JSON punctuation, digits and a few bytes that are not UTF-8 on their own
    ALPHABET = b'{}[]",:.\\ \n0129aeu\x00\x1f\x80\xc3\xff'

    @pytest.mark.parametrize("source", ["golden", "stopwords", "raw"])
    def test_load_returns_a_bundle_or_an_index_error(self, toy_index, tmp_path, source):
        directory = tmp_path / source
        if source == "golden":
            shutil.copytree(GOLDEN_INDEX_DIR, directory)
        else:
            save_index(toy_index if source == "stopwords" else raw_bundle(), directory)
        rng = random.Random(f"one-byte-{source}")
        loaded = refused = 0
        for path in sorted(directory.iterdir()):
            data = path.read_bytes()
            for _ in range(self.EDITS_PER_FILE):
                at = rng.randrange(len(data))
                byte = bytes([rng.choice(self.ALPHABET + data)])
                kind = rng.randrange(3)  # replace, delete, insert
                path.write_bytes(data[:at] + (byte if kind != 1 else b"") + data[at + (kind != 2):])
                try:
                    load_index(directory)
                    loaded += 1
                except IndexFormatError:  # IndexVersionError is one
                    refused += 1
            path.write_bytes(data)
        assert loaded > 0 and refused > 0


def _pair_order(cooccur):
    """The rows of cooccur.jsonl as the format states their order."""
    return [(a, b, count) for (a, b), count in sorted(cooccur.items(), key=lambda kv: (-kv[1], kv[0]))]


def _written_order(cooccur, postings):
    return [(a, b, count) for count, pairs in _triplets(cooccur, postings) for a, b in pairs]


class TestPairOrder:
    """``_triplets`` orders pairs by count descending, then (a, b) ascending."""

    TERMS = sorted({*NON_ASCII_WORDS, "a", "ab", "abc", "b", "B", "a0", "w1", "w10", "w2", "zz"})

    def bundle_parts(self, rng, counts):
        pairs = [(a, b) for i, a in enumerate(self.TERMS) for b in self.TERMS[i + 1 :]]
        pairs = rng.sample(pairs, min(len(pairs), len(counts)))
        cooccur = dict(zip(pairs, counts))
        postings = {term: tuple(range(max(counts))) for term in self.TERMS}
        return cooccur, postings

    def test_random_bundles(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(0, 150)
            counts = [rng.randint(1, rng.choice((1, 3, 40))) for _ in range(n)] or [1]
            cooccur, postings = self.bundle_parts(rng, counts)
            assert _written_order(cooccur, postings) == _pair_order(cooccur)

    @pytest.mark.parametrize("counts", [[5] * 150, list(range(150, 0, -1)), list(range(1, 151))], ids=["all-equal", "all-differ", "all-differ-ascending"])
    def test_equal_and_distinct_counts(self, counts):
        cooccur, postings = self.bundle_parts(random.Random(42), counts)
        assert len(cooccur) == 150
        assert _written_order(cooccur, postings) == _pair_order(cooccur)

    def test_random_corpora_write_the_stated_order(self, tmp_path):
        rng = random.Random(43)
        for i in range(30):
            bundle = index_corpus(random_corpus_xml(rng, words=NON_ASCII_WORDS + ["a", "b"]), IndexConfig(entity_labels=frozenset({"item"})))
            save_index(bundle, tmp_path / str(i))
            rows = [json.loads(line) for line in (tmp_path / str(i) / COOCCUR_FILE).read_text(encoding="utf-8").splitlines()]
            assert [(r["a"], r["b"], r["count"]) for r in rows] == _pair_order(bundle.cooccur)

    @pytest.mark.parametrize(
        "cooccur, message",
        [
            ({("a", "b"): 1, ("b", "a"): 1, ("c", "a"): 1}, r"pair \('b', 'a'\) not in canonical"),
            ({("a", "b"): 1, ("a", "c"): 0, ("b", "c"): 0}, r"pair \('a', 'c'\): count below 1"),
            ({("a", "b"): 1, ("a", "c"): 9, ("b", "c"): 9}, r"pair \('a', 'c'\): count exceeds the posting length of 'a'"),
            ({("a", "b"): 2, ("b", "c"): 1.0, ("a", "c"): 1.0}, r"pair \('b', 'c'\): count 1.0 is not an int"),
            ({("a", "b"): 1, ("x", "y"): 1, ("a", "z"): 1}, "without postings: 'x'"),
            ({("a", "b"): 1, ("c", "b"): 0, ("a", "c"): 0}, "not in canonical"),
            ({("a", "b"): 1, ("b", "c"): 5, ("c", "a"): 1}, "count exceeds the posting length of 'b'"),
        ],
        ids=["reversed", "zero", "too-large", "not-an-int", "unknown-term", "checks-in-order", "a-named-when-both-exceed"],
    )
    def test_refusal_names_the_first_faulty_pair_in_dict_order(self, tmp_path, cooccur, message):
        bundle = IndexBundle(
            entities=tuple(DeweyId((1, j)) for j in range(1, 5)),
            labels=("item",) * 4,
            postings={"a": (0, 1), "b": (0, 1, 2), "c": (0, 1, 2, 3)},
            cooccur=cooccur,
            config=IndexConfig(entity_labels=frozenset({"item"})),
        )
        with pytest.raises(ValueError, match=message):
            save_index(bundle, tmp_path / "idx")
        assert not (tmp_path / "idx").exists()

    def test_writer_memory_on_200k_pairs(self, tmp_path):
        """Ordering and writing 210,925 pairs holds under 4 MB beyond the bundle:
        a pointer per pair, not a sort key object."""
        terms = [f"w{i:04d}" for i in range(650)]
        bundle = IndexBundle(
            entities=(DeweyId((1, 1)), DeweyId((1, 2)), DeweyId((1, 3))),
            labels=("item",) * 3,
            postings={term: (0, 1, 2) for term in terms},
            cooccur={(a, b): 1 + (i * 7 + j) % 3 for i, a in enumerate(terms) for j, b in enumerate(terms) if i < j},
            config=IndexConfig(entity_labels=frozenset({"item"})),
        )
        assert len(bundle.cooccur) > 200_000
        save_index(bundle, tmp_path / "warm")
        tracemalloc.start()
        try:
            save_index(bundle, tmp_path / "idx")
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < 4 << 20, (peak, kept)
        assert (tmp_path / "idx" / COOCCUR_FILE).read_bytes() == (tmp_path / "warm" / COOCCUR_FILE).read_bytes()

import dataclasses
import json
import random
from pathlib import Path

import pytest

from divsearch.dewey import DeweyId
from divsearch.errors import IndexFormatError, IndexVersionError
from divsearch.indexing import EntityInfo, IndexBundle, IndexConfig, index_corpus
from divsearch.storage import (
    COOCCUR_FILE,
    ENTITIES_FILE,
    MANIFEST_FILE,
    POSTINGS_FILE,
    load_index,
    save_index,
)
from conftest import GOLDEN_INDEX_DIR
from helpers import random_corpus_xml

ALL_FILES = (MANIFEST_FILE, ENTITIES_FILE, POSTINGS_FILE, COOCCUR_FILE)

# Words the tokenizer keeps as they are: two-byte, three-byte and four-byte
# UTF-8 next to plain ASCII.
NON_ASCII_WORDS = ["café", "crème", "naïve", "straße", "日本語", "𝔡𝔟", "zoë", "w01", "ab", "ça"]


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
        "logBase": bundle.config.log_base,
    }])
    write(ENTITIES_FILE, [{"dewey": str(e.dewey), "label": e.label} for e in bundle.entities])
    write(POSTINGS_FILE, [
        {"term": term, "entities": [str(d) for d in bundle.postings[term]]}
        for term in sorted(bundle.postings)
    ])
    triplets = sorted(bundle.cooccur.items(), key=lambda kv: (-kv[1], kv[0]))
    write(COOCCUR_FILE, [{"a": a, "b": b, "count": count} for (a, b), count in triplets])


def escaped_bundle():
    """A hand-built index whose terms and labels all need JSON escapes."""
    one, two, three = DeweyId((1, 1)), DeweyId((1, 2)), DeweyId((1, 2, 1))
    terms = sorted(
        ['quo"te', "back\\slash", "tab\there", "new\nline", "ctl\x01", "sep\u2028", "é", "plain"]
    )
    postings = {term: (one, three) if i % 2 else (two,) for i, term in enumerate(terms)}
    cooccur = {
        (a, b): 1 + (i * 7 + j) % 3
        for i, a in enumerate(terms)
        for j, b in enumerate(terms)
        if a < b
    }
    return IndexBundle(
        entities=(EntityInfo(one, "item"), EntityInfo(two, 'la"bel'), EntityInfo(three, "item")),
        postings=postings,
        cooccur=cooccur,
        config=IndexConfig(entity_labels=frozenset({"item", 'la"bel'}), window=2),
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
        assert load_index(GOLDEN_INDEX_DIR) == toy_index


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
            for line in (tmp_path / POSTINGS_FILE).read_text().splitlines()
        ]
        assert terms == sorted(terms)

    def test_cooccur_sorted_by_count_then_pair(self, toy_index, tmp_path):
        save_index(toy_index, tmp_path)
        rows = [
            json.loads(line)
            for line in (tmp_path / COOCCUR_FILE).read_text().splitlines()
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

    def test_entities_out_of_document_order(self, toy_index, tmp_path):
        def swap(text):
            lines = text.splitlines()
            lines[0], lines[1] = lines[1], lines[0]
            return "\n".join(lines) + "\n"

        directory = _corrupt(tmp_path, toy_index, ENTITIES_FILE, swap)
        _assert_fails_at(directory, ENTITIES_FILE, 2, "entities not in document order")

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
        _assert_fails_at(directory, POSTINGS_FILE, 2, "invalid Dewey ID '1.x'")

    def test_cooccur_unsorted(self, toy_index, tmp_path):
        def swap(text):
            lines = text.splitlines()
            lines[-1], lines[-2] = lines[-2], lines[-1]
            return "\n".join(lines) + "\n"

        directory = _corrupt(tmp_path, toy_index, COOCCUR_FILE, swap)
        _assert_fails_at(
            directory, COOCCUR_FILE, 14, "triplets not sorted by count desc, pair asc"
        )

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
            ('{"a":"database","b":"query","count":0}', "count must be >= 1"),
            ('{"a":"database","b":"query","count":"2"}', "expected {a,b,count} object"),
            ('{"a":"database","b":"query","count":2', "invalid JSON: Expecting ',' delimiter"),
            ('{"a":"database","b":"query","count":02}', "invalid JSON: Expecting ',' delimiter"),
            ('{"a":"data\tbase","b":"query","count":2}', "invalid JSON: Invalid control character at"),
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


class TestWriterMatchesReference:
    def test_random_corpora(self, tmp_path):
        rng = random.Random(2375)
        for i in range(12):
            words = NON_ASCII_WORDS if i % 2 else None
            xml = random_corpus_xml(rng, words=words)
            config = IndexConfig(entity_labels=frozenset({"item"}), window=rng.randint(1, 4))
            _assert_same_bytes(index_corpus(xml, config), tmp_path / f"c{i}")

    def test_terms_and_labels_needing_escapes(self, tmp_path):
        bundle = escaped_bundle()
        _assert_same_bytes(bundle, tmp_path)
        assert load_index(tmp_path / "new") == bundle

    def test_pair_naming_a_term_without_postings_is_refused(self, tmp_path):
        bundle = escaped_bundle()
        orphaned = dataclasses.replace(bundle, cooccur={**bundle.cooccur, ("orphan", "plain"): 2})
        with pytest.raises(ValueError, match="'orphan'"):
            save_index(orphaned, tmp_path / "idx")
        assert not (tmp_path / "idx").exists()


class TestLoadAcceptsAnyValidJson:
    """Lines the writer never emits still load, to the same bundle."""

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
        assert new in (directory / filename).read_text(encoding="utf-8")
        assert load_index(directory) == toy_index

    def test_escaped_term_in_cooccur(self, tmp_path):
        config = IndexConfig(entity_labels=frozenset({"item"}))
        bundle = index_corpus(
            "<doc><item>café crème</item><item>café noir</item></doc>".encode(), config
        )
        directory = _corrupt(
            tmp_path, bundle, COOCCUR_FILE, lambda t: t.replace("é", "\\u00e9")
        )
        assert "\\u00e9" in (directory / COOCCUR_FILE).read_text(encoding="utf-8")
        assert load_index(directory) == bundle

    def test_postings_share_the_entities_dewey_objects(self, toy_index, tmp_path):
        save_index(toy_index, tmp_path)
        loaded = load_index(tmp_path)
        entity_ids = {id(e.dewey) for e in loaded.entities}
        assert all(id(d) in entity_ids for ids in loaded.postings.values() for d in ids)

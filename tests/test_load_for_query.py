"""``storage.load_for_query``: the part of an index that one query reads.

`divsearch search` and `divsearch features` read an index through it.  Each
of their reports must equal the report made on the whole index that
``load_index`` reads, and the scoped reader may accept an index that
``load_index`` refuses only where the fault lies outside what it reads.
"""

import contextlib
import dataclasses
import gc
import io
import random
import shutil

import pytest

from divsearch import cli, storage
from divsearch.diversify import diversify_baseline
from divsearch.dewey import DeweyId
from divsearch.errors import IndexFormatError, NoIntentError
from divsearch.indexing import IndexBundle, IndexConfig, index_corpus, tokenize
from divsearch.storage import COOCCUR_FILE, POSTINGS_FILE, load_for_query, load_index, save_index
from conftest import GOLDEN_INDEX_DIR
from helpers import NON_ASCII_WORDS, random_corpus_xml
from test_storage import SHAPE, raw_bundle

ENGINES = ("baseline", "anchor", "parallel")


def whole_index(directory, query):
    """``load_for_query`` as the whole index answers it."""
    index = load_index(directory)
    return list(dict.fromkeys(token for token, _ in tokenize(query, index.config.stopwords))), index


def restricted(bundle, keywords):
    """The part of ``bundle`` that ``load_for_query`` reads for ``keywords``."""
    cooccur = {pair: n for pair, n in bundle.cooccur.items() if set(pair) & set(keywords)}
    terms = set(keywords).union(*cooccur)
    postings = {term: ids for term, ids in bundle.postings.items() if term in terms}
    return dataclasses.replace(bundle, postings=postings, cooccur=cooccur)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def outputs(directory, query):
    """Each engine's search report, the CSV report, and each word's features."""
    search = ["search", "--index", str(directory), "--query", query, "--k", "3", "--m", "3"]
    argvs = [search + ["--algo", algo] for algo in ENGINES] + [search + ["--format", "csv"]]
    argvs += [["features", "--index", str(directory), "--term", word] for word in query.split()]
    return [run(argv) for argv in argvs]


def assert_same_outputs(monkeypatch, directory, queries):
    for query in queries:
        scoped = outputs(directory, query)
        with monkeypatch.context() as patched:
            patched.setattr(cli, "load_for_query", whole_index)
            whole = outputs(directory, query)
        assert scoped == whole, query
        assert any(code == 0 for code, _, _ in scoped), query


class TestSameReports:
    """Byte-identical to ``load_index`` plus the engine, for all three engines."""

    def test_golden_index(self, monkeypatch):
        assert_same_outputs(monkeypatch, GOLDEN_INDEX_DIR, [
            "database query",
            "Query, LANGUAGE!",
            "zzzz query",  # an unknown keyword
            "query query",  # a repeated keyword
            "database query Database",  # a repeated keyword, read once
            "database the query",  # no stopwords.txt: "the" is an unknown keyword
            "system optimization database",
        ])
        # a repeated word is read once, where it first occurs
        assert load_for_query(GOLDEN_INDEX_DIR, "database query Database")[0] == ["database", "query"]
        assert load_for_query(GOLDEN_INDEX_DIR, "query database query")[0] == ["query", "database"]

    def test_random_corpora(self, tmp_path, monkeypatch):
        rng = random.Random("load-for-query")
        config = IndexConfig(entity_labels=frozenset({"item"}), window=2)
        for i in range(12):
            words = NON_ASCII_WORDS if i % 3 == 0 else None
            bundle = index_corpus(random_corpus_xml(rng, words=words), config)
            directory = tmp_path / f"idx{i}"
            save_index(bundle, directory)
            a, b, c = (rng.choice(sorted(bundle.postings)) for _ in range(3))
            assert_same_outputs(monkeypatch, directory, [
                f"{a} {b}",
                f"{a} {b} {c}",
                f"{a} zzzz",  # an unknown keyword
                f"{b} {b}",  # a repeated keyword
                f"{a} the {c}",  # a stop word inside the query
            ])

    def test_keyword_without_pairs(self, tmp_path, monkeypatch):
        config = IndexConfig(entity_labels=frozenset({"item"}))
        bundle = index_corpus(
            b"<doc><item>solo</item><item>alpha beta</item><item>beta gamma alpha</item></doc>",
            config,
        )
        assert bundle.postings["solo"] and not any("solo" in pair for pair in bundle.cooccur)
        save_index(bundle, tmp_path)
        assert_same_outputs(monkeypatch, tmp_path, ["solo", "solo alpha", "alpha solo beta"])

    def test_escaped_terms(self, tmp_path, monkeypatch):
        save_index(raw_bundle(), tmp_path / "raw")
        queries = ["plain é", "é", "plain"]
        assert_same_outputs(monkeypatch, tmp_path / "raw", queries)
        keywords, part = load_for_query(tmp_path / "raw", "plain é")
        assert part == restricted(raw_bundle(), keywords)
        assert part.cooccur
        # a keyword spelled with a JSON escape is refused at its first line, by both readers
        for name in (POSTINGS_FILE, COOCCUR_FILE):
            directory = tmp_path / name
            shutil.copytree(tmp_path / "raw", directory)
            path = directory / name
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            at = next(i for i, text in enumerate(lines) if '"plain"' in text)
            lines[at] = lines[at].replace('"plain"', '"\\u0070lain"')
            path.write_text("".join(lines), encoding="utf-8")
            escaped = (name, at + 1, SHAPE[name])
            assert refusal(load_index, directory) == escaped
            for query in queries:
                assert refusal(load_for_query, directory, query) == escaped


def golden_copy(tmp_path, edit_pairs=None):
    directory = tmp_path / "idx"
    shutil.copytree(GOLDEN_INDEX_DIR, directory)
    if edit_pairs is not None:
        path = directory / COOCCUR_FILE
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(edit_pairs(lines)), encoding="utf-8")
    return directory


def refusal(load, *args):
    with pytest.raises(IndexFormatError) as exc_info:
        load(*args)
    return exc_info.value.path, exc_info.value.line, str(exc_info.value)


class TestChecks:
    UNSORTED = (COOCCUR_FILE, 9, "triplets not sorted by count desc, pair asc")

    def test_order_against_the_line_before(self, tmp_path):
        def swap(lines):  # (image,retrieval) after (language,query): line 9 is out of order
            lines[7], lines[8] = lines[8], lines[7]
            return lines

        directory = golden_copy(tmp_path, swap)
        assert refusal(load_index, directory) == self.UNSORTED
        assert refusal(load_for_query, directory, "image") == self.UNSORTED

    def test_order_against_the_line_after(self, tmp_path):
        def swap(lines):  # (database,system) after (image,retrieval): line 8, no "image" in it
            lines[6], lines[7] = lines[7], lines[6]
            return lines

        directory = golden_copy(tmp_path, swap)
        unsorted = (COOCCUR_FILE, 8, self.UNSORTED[2])
        assert refusal(load_index, directory) == unsorted
        assert refusal(load_for_query, directory, "image") == unsorted

    def test_order_not_checked_across_lines_not_read(self, tmp_path):
        def replace(lines):  # (image,system) on line 4: line 5 is out of order, line 8 is not
            lines[3] = '{"a":"image","b":"system","count":1}\n'
            return lines

        directory = golden_copy(tmp_path, replace)
        assert refusal(load_index, directory) == (COOCCUR_FILE, 5, self.UNSORTED[2])
        # "language" reads lines 2-4 and 8-11; line 8 follows line 4 in what is read
        keywords, part = load_for_query(directory, "language")
        assert part == restricted(load_index(GOLDEN_INDEX_DIR), keywords)

    def test_pair_listed_twice(self, tmp_path):
        def duplicate(lines):  # in order: only the listed-once rule refuses it
            return lines[:4] + ['{"a":"database","b":"query","count":1}\n'] + lines[4:]

        directory = golden_copy(tmp_path, duplicate)
        twice = (COOCCUR_FILE, 5, "pair listed twice")
        assert refusal(load_index, directory) == twice
        assert refusal(load_for_query, directory, "query") == twice

    def test_pair_listed_twice_far_apart(self, tmp_path):
        """Both copies name the keyword; the lines read around them are apart."""
        fillers = [f"f{i}" for i in range(6)]
        bundle = IndexBundle(
            entities=(DeweyId((1, 1)), DeweyId((1, 2))),
            labels=("item", "item"),
            postings={term: (0, 1) for term in [*fillers, "x", "y"]},
            cooccur={("x", "y"): 2, **{(a, b): 1 for a in fillers for b in fillers if a < b}},
            config=IndexConfig(entity_labels=frozenset({"item"})),
        )
        save_index(bundle, tmp_path)
        path = tmp_path / COOCCUR_FILE
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert (len(lines), lines[0]) == (16, '{"a":"x","b":"y","count":2}\n')
        path.write_text("".join(lines) + '{"a":"x","b":"y","count":1}\n', encoding="utf-8")
        twice = (COOCCUR_FILE, 17, "pair listed twice")
        assert refusal(load_index, tmp_path) == twice
        assert refusal(load_for_query, tmp_path, "x") == twice
        assert refusal(load_for_query, tmp_path, "zzzz y") == twice

    def test_crlf_line_ends_read_as_load_index_reads_them(self, tmp_path, monkeypatch):
        directory = golden_copy(tmp_path)
        for path in directory.iterdir():
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_index(directory) == load_index(GOLDEN_INDEX_DIR)
        assert_same_outputs(monkeypatch, directory, ["database query", "image"])

    @pytest.mark.parametrize(
        "filename, old, new, line, message",
        [
            (COOCCUR_FILE, '"query","count":2', '"query","count":3', 1,
             "count exceeds the posting length of 'query'"),
            (COOCCUR_FILE, '"a":"language","b":"query"', '"a":"query","b":"language"', 9,
             "pair not in canonical order (a < b)"),
            (POSTINGS_FILE, '"image"', '"zeta"', 3, "terms not sorted"),  # no pair of "query" names "image"
            (POSTINGS_FILE, '["1.1","1.2"]', '["1.1","1.4"]', 5, "posting references unknown entity 1.4"),
            (POSTINGS_FILE, '"relational","entities":["1.2"]', '"relational","entities":["1.2.x"]', 6,
             'expected {"term":<string>,"entities":["<dewey>",...]}'),
        ],
    )
    def test_same_refusal_as_load_index(self, tmp_path, filename, old, new, line, message):
        directory = golden_copy(tmp_path)
        path = directory / filename
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
        assert refusal(load_index, directory) == (filename, line, message)
        assert refusal(load_for_query, directory, "query") == (filename, line, message)

    def test_unknown_partner(self, tmp_path):
        def misspell(lines):
            lines[8] = lines[8].replace('"language"', '"lang"')
            return lines

        directory = golden_copy(tmp_path, misspell)
        unknown = (COOCCUR_FILE, 9, "pair references unknown term")
        assert refusal(load_index, directory) == unknown
        assert refusal(load_for_query, directory, "query") == unknown
        # lines 4-6 and 11-14 name "relational" or lie next to one that does: line 9 is not read
        keywords, part = load_for_query(directory, "relational")
        assert part == restricted(load_index(GOLDEN_INDEX_DIR), keywords)


class TestEntities:
    """The scoped reader reads every entity and label, as ``load_index`` does."""

    def test_labels_round_trip(self, tmp_path):
        bundle = raw_bundle()
        save_index(bundle, tmp_path)
        for query in ["plain", "zzzz"]:
            _, part = load_for_query(tmp_path, query)
            assert part.entities == bundle.entities
            assert part.labels == bundle.labels == ("item", "étiquette", "item")

    def test_labels_are_the_manifest_strings(self, tmp_path):
        save_index(raw_bundle(), tmp_path)
        _, part = load_for_query(tmp_path, "plain")
        assert len(set(map(id, part.labels))) == 2
        assert set(map(id, part.labels)) <= set(map(id, part.config.entity_labels))

    def test_entity_table_holds_the_bundle_tuple(self):
        _, part = load_for_query(GOLDEN_INDEX_DIR, "database query")
        assert part.entity_table.deweys is part.entities

    def test_a_load_leaves_the_collector_few_objects(self, tmp_path):
        """Entities and tree nodes are plain tuples of ints, which a collection
        stops tracking: a load and its tree leave far fewer tracked objects
        than one per entity, which a ``DeweyId`` per entity would leave."""
        entities = tuple((1, s, 1, i) for s in range(1, 201) for i in range(1, 101))
        n = len(entities)
        postings = {"w0": tuple(range(0, n, 2)), "w1": tuple(range(0, n, 3)), "w2": tuple(range(1, n, 5))}
        pairs = {("w0", "w1"): 100, ("w1", "w2"): 50}
        config = IndexConfig(frozenset({"item"}))
        save_index(IndexBundle(entities, ("item",) * n, postings, pairs, config), tmp_path)
        gc.collect()
        before = len(gc.get_objects())
        _, part = load_for_query(tmp_path, "w0 w1")
        assert len(part.entity_table.nodes) == n + 1 + 2 * 200  # the root, each (1, s) and (1, s, 1)
        gc.collect()
        assert len(gc.get_objects()) - before < n // 100


class TestSaveThenLoad:
    def test_every_bundle_save_accepts_loads_back(self, tmp_path):
        """``save_index`` refuses, before writing, any bundle ``load_index`` would refuse."""
        rng = random.Random("save-then-load")
        words = sorted(NON_ASCII_WORDS + ["w02", "w03", "x"])
        saved = refused = 0
        for i in range(80):
            entities = tuple(DeweyId((1, j)) for j in range(1, rng.randint(2, 6)))
            terms = rng.sample(words, rng.randint(2, 6))
            postings = {
                term: tuple(sorted(rng.sample(range(len(entities)), rng.randint(1, len(entities)))))
                for term in terms
            }
            pairs = [(a, b) for a in terms for b in terms if a < b]
            cooccur = {pair: rng.randint(1, 4) for pair in rng.sample(pairs, rng.randint(0, len(pairs)))}
            bundle = IndexBundle(
                entities=entities,
                labels=("item",) * len(entities),
                postings=postings,
                cooccur=cooccur,
                config=IndexConfig(entity_labels=frozenset({"item"})),
            )
            directory = tmp_path / f"idx{i}"
            try:
                save_index(bundle, directory)
            except ValueError as exc:
                assert "count exceeds the posting length of" in str(exc)
                assert not directory.exists()
                refused += 1
                continue
            saved += 1
            assert load_index(directory) == bundle
            for query in [*terms, " ".join(terms[:2]), "zzzz"]:
                keywords, part = load_for_query(directory, query)
                assert keywords == query.split()
                assert part == restricted(bundle, keywords)
        assert saved > 10 and refused > 10


def report(keywords, index):
    try:
        topk, _ = diversify_baseline(keywords, 3, 3, index)
    except NoIntentError:
        return "no intent"
    return cli.render_search_report(keywords, 3, 3, "baseline", topk)


def scoped_report(directory, query):
    return report(*load_for_query(directory, query))


def report_without_refused_lines(path, directory, query):
    """``load_index``'s report once the lines of ``path`` it refuses are removed,
    one at a time: a line split in two by an edit is refused twice."""
    for _ in range(3):
        try:
            return report(*whole_index(directory, query))
        except IndexFormatError as exc:
            if exc.path != path.name or not exc.line:
                return None
            lines = path.read_bytes().split(b"\n")
            path.write_bytes(b"\n".join(lines[: exc.line - 1] + lines[exc.line :]))
    return None


class TestOneByteEdits:
    """Seeded one-byte replacements, deletions and insertions of each file.

    For each edit the scoped reader refuses the index, or gives the report
    of ``load_index``'s bundle when that loads.  When ``load_index`` refuses
    a line that the scoped reader does not read, the scoped report is that
    of an index that agrees with the edited one on every line the query
    reads: the intact index, or the edited one without the lines
    ``load_index`` refuses.  A pair line whose keyword an edit misspells or
    splits is such a line.
    """

    EDITS_PER_FILE = 60
    ALPHABET = b'{}[]",:.\\ \n0129aeu\x00\x1f\x80\xc3\xff'

    # characters read at a time: 7 and 64 put block edges inside entities.jsonl and cooccur.jsonl
    @pytest.mark.parametrize("block", [7, 64, storage._BLOCK])
    @pytest.mark.parametrize(
        "source, query, seen",
        [
            ("golden", "database query", {"without the lines"}),
            ("stopwords", "image", {"as intact", "without the lines"}),  # 4 of 14 pair lines read
            ("raw", "plain é", set()),
        ],
    )
    def test_scoped_report_or_an_index_error(self, toy_index, tmp_path, monkeypatch, source, query, seen, block):
        monkeypatch.setattr(storage, "_BLOCK", block)
        directory = tmp_path / source
        if source == "golden":
            shutil.copytree(GOLDEN_INDEX_DIR, directory)
        else:
            save_index(toy_index if source == "stopwords" else raw_bundle(), directory)
        intact = scoped_report(directory, query)
        assert intact == report(*whole_index(directory, query)) != "no intent"
        rng = random.Random(f"one-byte-scoped-{source}")
        outcomes = {"refused": 0, "as loaded": 0, "as intact": 0, "without the lines": 0}
        for path in sorted(directory.iterdir()):
            data = path.read_bytes()
            for _ in range(self.EDITS_PER_FILE):
                at = rng.randrange(len(data))
                byte = bytes([rng.choice(self.ALPHABET + data)])
                kind = rng.randrange(3)  # replace, delete, insert
                edited = data[:at] + (byte if kind != 1 else b"") + data[at + (kind != 2):]
                path.write_bytes(edited)
                try:
                    scoped = scoped_report(directory, query)
                except IndexFormatError:
                    outcomes["refused"] += 1
                    continue
                try:
                    whole = report(*whole_index(directory, query))
                except IndexFormatError:
                    if scoped == intact:
                        outcomes["as intact"] += 1
                        continue
                    without = report_without_refused_lines(path, directory, query)
                    assert scoped == without, (path.name, at, kind, byte)
                    outcomes["without the lines"] += 1
                else:
                    assert scoped == whole, (path.name, at, kind, byte)
                    outcomes["as loaded"] += 1
            path.write_bytes(data)
        assert all(outcomes[name] for name in {"refused", "as loaded", *seen}), outcomes

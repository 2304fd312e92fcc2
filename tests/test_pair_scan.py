"""The pair lines a query reads: one ``bytes.find`` pass per keyword.

``storage._keyword_pair_lines`` finds ``:"<keyword>","`` and reads a line
where the bytes on either side complete ``{"a":"<keyword>","b":`` or
``,"b":"<keyword>","count":``; a line with a backslash is read too.  These
tests hold the lines it reads to a search for those two forms and the
backslash, on random indexes and on lines that hold the one needle under
another key.
"""

import random

import pytest

from divsearch.errors import IndexFormatError
from divsearch.indexing import IndexConfig, index_corpus
from divsearch import storage
from divsearch.storage import COOCCUR_FILE, _keyword_pair_lines, load_for_query, load_index, save_index
from helpers import NON_ASCII_WORDS, random_corpus_xml
from test_load_for_query import golden_copy, report, restricted, scoped_report

CONFIG = IndexConfig(entity_labels=frozenset({"item"}))
# edits to the keys around a keyword, each leaving a line the grammar refuses
SPOILS = [
    (b'{"a"', b'{"x"'), (b'"b":', b'"c":'), (b'"count"', b'"counts"'), (b',"b"', b' "b"'), (b'":"', b'": "')
]


def lines_naming(data, keywords):
    """The numbers of the lines a query reads: each line that holds one of the
    two forms for a keyword, or a backslash, and the lines beside it."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # the final "\n" ends the last line
    needles = [b"\\"]
    for word in keywords:
        raw = word.encode()
        needles += [b'{"a":"%s","b":' % raw, b',"b":"%s","count":' % raw]
    hits = {i for i, line in enumerate(lines) if any(needle in line for needle in needles)}
    near = {j for i in hits for j in (i - 1, i, i + 1) if 0 <= j < len(lines)}
    return sorted(j + 1 for j in near)


def read_lines(directory, keywords):
    """The numbers of the lines the scan hands to the line grammar, and the file's bytes."""
    data = (directory / COOCCUR_FILE).read_bytes()
    read = []

    def rows(path, lines, grammar):
        read.extend(lineno for lineno, _ in lines)
        return iter(())

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(storage, "_rows", rows)
        _keyword_pair_lines(directory / COOCCUR_FILE, data, frozenset(keywords))
    return read, data


class TestLinesRead:
    def test_random_indexes(self, tmp_path):
        rng = random.Random("pair-scan")
        for i in range(120):
            words = NON_ASCII_WORDS if i % 3 == 0 else None
            bundle = index_corpus(random_corpus_xml(rng, words=words), CONFIG)
            directory = tmp_path / f"c{i}"
            save_index(bundle, directory)
            terms = sorted(bundle.postings)
            queries = [[rng.choice(terms)], rng.sample(terms, min(3, len(terms))), ["zzzz"]]
            for keywords in queries:
                read, data = read_lines(directory, keywords)
                assert read == lines_naming(data, keywords), (i, keywords)
                _, part = load_for_query(directory, " ".join(keywords))
                assert part == restricted(bundle, keywords)
            # keys misspelt around a keyword: the bytes beside each find decide
            path = directory / COOCCUR_FILE
            lines = path.read_bytes().split(b"\n")
            for _ in range(min(4, len(lines) - 1)):
                at = rng.randrange(len(lines) - 1)
                old, new = rng.choice(SPOILS)
                lines[at] = lines[at].replace(old, new)
            path.write_bytes(b"\n".join(lines))
            for keywords in queries:
                read, data = read_lines(directory, keywords)
                assert read == lines_naming(data, keywords), (i, keywords)

    @pytest.mark.parametrize(
        "line",
        [
            '{"x":"query","b":"zeta","count":1}',  # the needle under another key
            '{"a":"query","c":"zeta","count":1}',  # an "a" value, then another key
            '{"a":"alpha","b":"query","counts":1}',  # a "b" value, then another key
            '["a":"query","b":"zeta","count":1}',
        ],
    )
    def test_needle_under_another_key(self, tmp_path, line):
        """Only the two forms are read, as a search for them reads: such a
        line is not read for the query, and ``load_index`` refuses it."""
        directory = golden_copy(tmp_path)
        path = directory / COOCCUR_FILE
        intact = scoped_report(directory, "query")
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(4, line + "\n")  # line 5: lines 4 and 6 name no "query"
        path.write_text("".join(lines), encoding="utf-8")
        assert ':"query","' in line
        with pytest.raises(IndexFormatError) as exc_info:
            load_index(directory)
        assert (exc_info.value.path, exc_info.value.line) == (COOCCUR_FILE, 5)
        read, data = read_lines(directory, ["query"])
        assert 5 not in read
        assert read == lines_naming(data, ["query"])
        assert scoped_report(directory, "query") == intact

    def test_either_form_is_read(self, tmp_path):
        """A line that names the keyword in either form is read, and refused
        when another part of it is damaged."""
        for i, line in enumerate(
            ['{"a":"query","b":"zeta","count":x}', '{"a":"alpha","b":"query","count":0}']
        ):
            directory = golden_copy(tmp_path / f"c{i}")
            path = directory / COOCCUR_FILE
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            lines.append(line + "\n")
            path.write_text("".join(lines), encoding="utf-8")
            with pytest.raises(IndexFormatError) as exc_info:
                report(*load_for_query(directory, "query"))
            assert (exc_info.value.path, exc_info.value.line) == (COOCCUR_FILE, len(lines))

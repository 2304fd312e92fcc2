"""The pair lines a query reads: one ``str.find`` pass per keyword and block.

``storage._keyword_pair_lines`` finds ``:"<keyword>","`` in each block of
``storage._blocks`` and reads a line where the text on either side
complete ``{"a":"<keyword>","b":`` or ``,"b":"<keyword>","count":``; a line
with a backslash is read too.  These tests hold the lines it reads to a
search for those two forms and the backslash over the whole file, on random
indexes at several block sizes, at block edges, and on lines that hold the
one needle under another key; and they bound the memory the scan holds.
"""

import random
import tracemalloc

import pytest

from divsearch.errors import IndexFormatError
from divsearch.indexing import IndexBundle, IndexConfig, index_corpus
from divsearch import storage
from divsearch.dewey import DeweyId
from divsearch.storage import COOCCUR_FILE, _blocks, _keyword_pair_lines, load_for_query, load_index, save_index
from helpers import NON_ASCII_WORDS, random_corpus_xml
from test_load_for_query import golden_copy, report, restricted, scoped_report, whole_index

CONFIG = IndexConfig(entity_labels=frozenset({"item"}))
# edits to the keys around a keyword, each leaving a line the grammar refuses
SPOILS = [
    (b'{"a"', b'{"x"'), (b'"b":', b'"c":'), (b'"count"', b'"counts"'), (b',"b"', b' "b"'), (b'":"', b'": "')
]
# characters read at a time: one cuts a block at almost every line; the default
# holds each small file whole
BLOCKS = (1, 7, 64, 4096, storage._BLOCK)


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
    path = directory / COOCCUR_FILE
    read = []

    def rows(path, lines, grammar):
        read.extend(lineno for lineno, _ in lines)
        return iter(())

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(storage, "_rows", rows)
        _keyword_pair_lines(path, frozenset(keywords))
    return read, path.read_bytes()


class TestLinesRead:
    def test_random_indexes(self, tmp_path, monkeypatch):
        rng = random.Random("pair-scan")
        for i in range(120):
            words = NON_ASCII_WORDS if i % 3 == 0 else None
            bundle = index_corpus(random_corpus_xml(rng, words=words), CONFIG)
            directory = tmp_path / f"c{i}"
            save_index(bundle, directory)
            terms = sorted(bundle.postings)
            queries = [[rng.choice(terms)], rng.sample(terms, min(3, len(terms))), ["zzzz"]]
            for keywords in queries:
                for block in BLOCKS:
                    monkeypatch.setattr(storage, "_BLOCK", block)
                    read, data = read_lines(directory, keywords)
                    assert read == lines_naming(data, keywords), (i, keywords, block)
                    _, part = load_for_query(directory, " ".join(keywords))
                    assert part == restricted(bundle, keywords), (i, keywords, block)
            # keys misspelt around a keyword: the bytes beside each find decide
            path = directory / COOCCUR_FILE
            lines = path.read_bytes().split(b"\n")
            for _ in range(min(4, len(lines) - 1)):
                at = rng.randrange(len(lines) - 1)
                old, new = rng.choice(SPOILS)
                lines[at] = lines[at].replace(old, new)
            path.write_bytes(b"\n".join(lines))
            for keywords in queries:
                for block in BLOCKS:
                    monkeypatch.setattr(storage, "_BLOCK", block)
                    read, data = read_lines(directory, keywords)
                    assert read == lines_naming(data, keywords), (i, keywords, block)

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


def every_pair(terms):
    """An index of two entities that both hold each of ``terms``, which are sorted,
    with a pair for every two of them."""
    return IndexBundle(
        entities=(DeweyId((1, 1)), DeweyId((1, 2))),
        labels=("item", "item"),
        postings={term: (0, 1) for term in terms},
        cooccur={(a, b): 1 + (i + j) % 2 for i, a in enumerate(terms) for j, b in enumerate(terms) if i < j},
        config=CONFIG,
    )


def block_edges(path):
    """The numbers of the lines that begin a block of ``_blocks``, and of those that end one."""
    firsts, lasts = set(), set()
    for text, before in _blocks(path):
        firsts.add(before + 1)
        lasts.add(before + len(text.splitlines()))
    return firsts, lasts


def every_block_size(monkeypatch, path):
    """Each block size from one byte to more than the file, set in turn."""
    for block in range(1, path.stat().st_size + 2):
        monkeypatch.setattr(storage, "_BLOCK", block)
        yield block


def refused(load, *args):
    """The file, line and message of the ``IndexFormatError`` that ``load(*args)`` raises."""
    with pytest.raises(IndexFormatError) as exc_info:
        load(*args)
    return exc_info.value.path, exc_info.value.line, str(exc_info.value)


class TestBlockEdges:
    """At every block size the scan reads the lines a search of the whole file
    reads, and a query's report or refusal is the same."""

    def test_hit_on_the_first_and_on_the_last_line_of_a_block(self, tmp_path, monkeypatch):
        directory = golden_copy(tmp_path)
        path = directory / COOCCUR_FILE
        intact = scoped_report(directory, "image")
        hits = {2, 8}  # the lines that name "image"; the file has 14
        first = last = False
        for block in every_block_size(monkeypatch, path):
            read, data = read_lines(directory, ["image"])
            assert read == lines_naming(data, ["image"]) == [1, 2, 3, 7, 8, 9], block
            assert scoped_report(directory, "image") == intact, block
            firsts, lasts = block_edges(path)
            first |= bool(hits & (firsts - {1}))
            last |= bool(hits & (lasts - {14}))
        assert first and last

    @pytest.mark.parametrize("query", ["image", "system"])
    def test_order_checked_across_an_edge(self, tmp_path, monkeypatch, query):
        """Lines 7 and 8 swapped: line 8 is out of order.  For "image" it is
        the line after a hit, for "system" the hit after its line before."""
        directory = golden_copy(tmp_path, lambda lines: lines[:6] + [lines[7], lines[6]] + lines[8:])
        want = (COOCCUR_FILE, 8, "triplets not sorted by count desc, pair asc")
        for block in every_block_size(monkeypatch, directory / COOCCUR_FILE):
            assert refused(load_for_query, directory, query) == want, block

    @pytest.mark.parametrize(
        "endings", [[b"\r\n"], [b"\r"], [b"\r\n", b"\r", b"\n"]], ids=["crlf", "cr", "mixed"]
    )
    def test_cr_lf_and_a_lone_cr_at_an_edge(self, tmp_path, monkeypatch, endings):
        """Every block size ends some read at each CR, the one before an LF
        and a lone one alike."""
        directory = golden_copy(tmp_path)
        path = directory / COOCCUR_FILE
        intact = scoped_report(directory, "query")
        data = path.read_bytes()
        lines = data.split(b"\n")[:-1]
        path.write_bytes(b"".join(line + endings[i % len(endings)] for i, line in enumerate(lines)))
        for block in every_block_size(monkeypatch, path):
            assert "".join(text for text, _ in _blocks(path)).encode() == data
            read, _ = read_lines(directory, ["query"])
            assert read == lines_naming(data, ["query"]), block
            assert scoped_report(directory, "query") == intact, block

    def test_bytes_not_utf8_in_a_later_block(self, tmp_path, monkeypatch):
        """Line 12 holds a byte that is not UTF-8 and line 1, which the query
        reads, breaks the grammar: the UTF-8 fault is named, by line, as when
        the file is read whole, by both loaders."""
        path = golden_copy(tmp_path) / COOCCUR_FILE
        lines = path.read_bytes().split(b"\n")
        lines[0] = lines[0].replace(b'"count":2', b'"count":x')
        lines[11] = lines[11].replace(b"relational", b"relation\xe4l")
        path.write_bytes(b"\n".join(lines))
        want = (COOCCUR_FILE, 12, "invalid UTF-8: invalid continuation byte")
        for block in (7, 64, 200, storage._BLOCK):
            monkeypatch.setattr(storage, "_BLOCK", block)
            assert refused(load_for_query, path.parent, "query") == want, block
            assert refused(load_index, path.parent) == want, block
        assert len(b"\n".join(lines[:11])) > 64  # at 64, line 12 lies in a later block

    def test_line_longer_than_a_block(self, tmp_path, monkeypatch):
        long = "w" * 3000
        bundle = every_pair(["alpha", "beta", long, "zeta"])
        save_index(bundle, tmp_path)
        for block in BLOCKS:
            monkeypatch.setattr(storage, "_BLOCK", block)
            for keywords in ([long], ["beta"], ["zeta", long]):
                read, data = read_lines(tmp_path, keywords)
                assert read == lines_naming(data, keywords), (block, keywords)
                assert load_for_query(tmp_path, " ".join(keywords)) == (keywords, restricted(bundle, keywords))

    def test_no_final_lf(self, tmp_path, monkeypatch):
        directory = golden_copy(tmp_path)
        path = directory / COOCCUR_FILE
        intact = scoped_report(directory, "query")
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        for block in every_block_size(monkeypatch, path):
            read, data = read_lines(directory, ["query"])
            assert read == lines_naming(data, ["query"]), block
            assert read[-1] == 14
            assert scoped_report(directory, "query") == intact, block

    def test_empty_file(self, tmp_path):
        directory = golden_copy(tmp_path)
        path = directory / COOCCUR_FILE
        path.write_bytes(b"")
        assert list(_blocks(path)) == []
        assert _keyword_pair_lines(path, frozenset({"query"})) == ([], set())
        assert scoped_report(directory, "query") == report(*whole_index(directory, "query"))


class TestMemory:
    def test_the_scan_holds_a_block_not_the_file(self, tmp_path):
        """A 5 MB pair file: what ``load_for_query`` allocates beyond what it
        returns stays far below the file's size."""
        save_index(every_pair([f"w{i:04d}" for i in range(540)]), tmp_path)
        size = (tmp_path / COOCCUR_FILE).stat().st_size
        assert size > 5_000_000
        tracemalloc.start()
        try:
            part = load_for_query(tmp_path, "w0001 w0002")
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(part[1].cooccur) == 2 * 539 - 1
        assert peak - kept < size // 5, (peak, kept)

    def test_a_utf8_fault_on_the_last_line(self, tmp_path):
        """A 5 MB pair file whose last line holds a byte that is not UTF-8:
        both loaders name that line, and ``load_for_query``, which reads the
        file again a line at a time to find it, holds far less than the file."""
        save_index(every_pair([f"w{i:04d}" for i in range(540)]), tmp_path)
        path = tmp_path / COOCCUR_FILE
        data = path.read_bytes()
        cut = data.rindex(b"\n", 0, len(data) - 1) + 1
        path.write_bytes(data[:cut] + data[cut:].replace(b'"a":"w', b'"a":"\xe4w'))
        lineno, size = data.count(b"\n"), len(data)
        del data
        want = (COOCCUR_FILE, lineno, "invalid UTF-8: invalid continuation byte")
        assert refused(load_index, tmp_path) == want
        tracemalloc.start()
        try:
            assert refused(load_for_query, tmp_path, "w0001 w0002") == want
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < size // 5, (peak, kept)

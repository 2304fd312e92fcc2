"""Entities read in chunks, and the tree built from them.

Both loaders read ``entities.jsonl`` a chunk of lines at a time, each chunk
checked by passes over all its lines; a chunk that fails a check is read
again line by line to find the faulty line.  These tests hold what the
loaders read, and the tree ``EntityTable`` builds from it, to a plain
reading of the file and to the tree as ``EntityTable`` documents it: on
random nested corpora read in chunks of a few lines, on a 300-level chain
and on an index whose entity file spans several chunks.  Each refusal keeps
the line and message of the line-by-line reading, a fault after the first
chunk and an order break on a chunk boundary included.
"""

import json
import random
import sys

import pytest

from divsearch import storage
from divsearch.dewey import DeweyId, EntityTable
from divsearch.errors import IndexFormatError
from divsearch.indexing import IndexBundle, IndexConfig, index_corpus
from divsearch.storage import ENTITIES_FILE, load_for_query, load_index, save_index
from helpers import random_corpus_xml
from test_ordinals import deep_chain
from test_storage import SHAPE

CONFIG = IndexConfig(entity_labels=frozenset({"item"}))


def plain_reading(directory):
    """Each entity line read on its own: Dewey IDs, labels, ordinals by Dewey text."""
    rows = [json.loads(line) for line in (directory / ENTITIES_FILE).read_text(encoding="utf-8").splitlines()]
    deweys = tuple(DeweyId(map(int, row["dewey"].split("."))) for row in rows)
    return deweys, tuple(row["label"] for row in rows), {row["dewey"]: i for i, row in enumerate(rows)}


def documented_tree(deweys):
    """``nodes`` and ``up`` as ``EntityTable`` states them: entity i is
    node i; walking each entity's prefixes upward, each prefix not yet
    numbered takes the next number."""
    number = {v: i for i, v in enumerate(deweys)}
    nodes, up = list(deweys), [None] * len(deweys)
    for i, v in enumerate(deweys):
        child = i
        for depth in range(len(v) - 1, 0, -1):
            parent = v[:depth]
            seen = parent in number
            if not seen:
                number[parent] = len(nodes)
                nodes.append(DeweyId(parent))
                up.append(None)
            up[child] = number[parent]
            if seen:
                break
            child = number[parent]
    return nodes, up


def tree(table):
    return table.nodes, table.up


def assert_read_as_plain(directory, query):
    """Both loaders read the entities as a plain reading does, and the scoped
    reader's table and postings equal those built from the whole index."""
    deweys, labels, by_text = plain_reading(directory)
    whole = load_index(directory)
    keywords, part = load_for_query(directory, query)
    for bundle in (whole, part):
        assert bundle.entities == deweys and bundle.labels == labels
        assert all(type(dewey) is tuple for dewey in bundle.entities)
    assert tree(part.entity_table) == tree(EntityTable(whole.entities)) == documented_tree(deweys)
    assert part.entity_table.deweys is part.entities
    for term, ordinals in part.postings.items():  # resolved through the text map
        assert ordinals == whole.postings[term]
    texts = {i: text for text, i in by_text.items()}
    path = directory / storage.POSTINGS_FILE
    for line in path.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        if row["term"] in part.postings:
            assert [texts[i] for i in part.postings[row["term"]]] == row["entities"]
    return keywords


def chunk_lengths(path):
    """The number of lines in each chunk the loaders read of the file at ``path``."""
    return [text.count("\n") for text, _ in storage._blocks(path)]


def many_entities():
    """An index of 2,400 entities, nested ones among them: its entity file
    spans three chunks of the default size."""
    entities = sorted(
        {DeweyId((1, sec, item)) for sec in range(1, 41) for item in range(1, 51)}
        | {DeweyId((1, sec, item, 1)) for sec in range(1, 41) for item in range(1, 51, 5)}
    )
    return IndexBundle(
        entities=tuple(entities),
        labels=("item",) * len(entities),
        postings={"x": (0, len(entities) - 1), "y": tuple(range(0, len(entities), 7))},
        cooccur={("x", "y"): 1},
        config=CONFIG,
    )


class TestSameEntitiesAndTree:
    def test_random_corpora_in_small_chunks(self, tmp_path, monkeypatch):
        rng = random.Random("entity-chunks")
        nested = 0
        for i in range(300):
            bundle = index_corpus(random_corpus_xml(rng, max_entities=rng.choice((5, 40, 120))), CONFIG)
            directory = tmp_path / f"c{i}"
            save_index(bundle, directory)
            # 1 reads a line a chunk; the default reads each file whole
            monkeypatch.setattr(storage, "_BLOCK", rng.choice((1, 40, 300, 1 << 15)))
            query = " ".join(rng.sample(sorted(bundle.postings), min(2, len(bundle.postings))))
            assert_read_as_plain(directory, query)
            assert load_index(directory) == bundle
            n = len(bundle.entities)
            nested += any(x is not None and x < n for x in bundle.entity_table.up[:n])
        assert nested > 100  # corpora with an entity whose parent is an entity

    def test_chain_300_levels_deep(self, tmp_path, monkeypatch):
        rng = random.Random(72)
        entities = tuple(deep_chain(300, rng))
        bundle = IndexBundle(entities, ("item",) * len(entities), {"x": (0, len(entities) - 1)}, {}, CONFIG)
        save_index(bundle, tmp_path)
        for chunk in (1 << 15, 1000):
            monkeypatch.setattr(storage, "_BLOCK", chunk)
            assert_read_as_plain(tmp_path, "x")

    def test_more_than_one_chunk(self, tmp_path):
        bundle = many_entities()
        save_index(bundle, tmp_path)
        assert len(chunk_lengths(tmp_path / ENTITIES_FILE)) == 3
        assert assert_read_as_plain(tmp_path, "x y") == ["x", "y"]


def edited(tmp_path, edit):
    """The 2,400-entity index with its entity lines passed through ``edit``."""
    save_index(many_entities(), tmp_path)
    path = tmp_path / ENTITIES_FILE
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")
    return tmp_path


def refusals(directory):
    """The file, line and message with which each loader refuses ``directory``."""
    found = []
    for load in (load_index, lambda d: load_for_query(d, "x")):
        with pytest.raises(IndexFormatError) as exc_info:
            load(directory)
        found.append((exc_info.value.path, exc_info.value.line, str(exc_info.value)))
    assert found[0] == found[1]
    return found[0]


class TestRefusalsAfterTheFirstChunk:
    """A faulty line in the second chunk is named with the line-by-line message."""

    @pytest.fixture()
    def first(self, tmp_path):
        """The number of lines in the first chunk of the intact entity file."""
        save_index(many_entities(), tmp_path / "intact")
        return chunk_lengths(tmp_path / "intact" / ENTITIES_FILE)[0]

    def replaced(self, tmp_path, lineno, old, new):
        def edit(lines):
            assert old in lines[lineno - 1]
            lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
            return lines

        return edited(tmp_path / "edited", edit)

    def test_line_of_another_shape(self, tmp_path, first):
        directory = self.replaced(tmp_path, first + 7, '"label"', '"lab"')
        assert refusals(directory) == (ENTITIES_FILE, first + 7, SHAPE[ENTITIES_FILE])

    def test_blank_line(self, tmp_path, first):
        def blank(lines):
            return lines[: first + 3] + ["\n"] + lines[first + 3 :]

        directory = edited(tmp_path / "edited", blank)
        assert refusals(directory) == (ENTITIES_FILE, first + 4, "blank line")

    def test_label_not_in_the_manifest(self, tmp_path, first):
        directory = self.replaced(tmp_path, first + 2, '"item"', '"nosuch"')
        assert refusals(directory) == (ENTITIES_FILE, first + 2, "entity label 'nosuch' not in the manifest")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit")
    def test_component_past_the_digit_limit(self, tmp_path, first):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        directory = self.replaced(tmp_path, first + 9, '","label"', f'.{digits}","label"')
        path, line, message = refusals(directory)
        assert (path, line) == (ENTITIES_FILE, first + 9)
        assert message.startswith("invalid Dewey ID '1.")

    def test_out_of_order_inside_the_chunk(self, tmp_path, first):
        def swap(lines):
            lines[first + 4], lines[first + 5] = lines[first + 5], lines[first + 4]
            return lines

        refused = refusals(edited(tmp_path / "edited", swap))
        assert refused == (ENTITIES_FILE, first + 6, "entities not in document order")

    def test_first_fault_wins(self, tmp_path, first):
        """Two faults in one chunk: the earlier line is named."""

        def edit(lines):
            lines[first + 12] = lines[first + 12].replace('"item"', '"nosuch"')
            lines[first + 10] = lines[first + 10].replace('"label"', '"lab"')
            return lines

        refused = refusals(edited(tmp_path / "edited", edit))
        assert refused == (ENTITIES_FILE, first + 11, SHAPE[ENTITIES_FILE])

    def test_entity_count(self, tmp_path, first):
        directory = edited(tmp_path / "edited", lambda lines: lines[:-1])
        count = many_entities().entity_count
        assert refusals(directory) == (ENTITIES_FILE, count - 1, "entity count does not match manifest")


class TestOrderAcrossTheChunkBoundary:
    """The first line of a chunk is checked against the last line of the one before."""

    def boundary(self, directory):
        lengths = chunk_lengths(directory / ENTITIES_FILE)
        assert len(lengths) > 1
        return lengths[0]

    def test_swapped_across_the_boundary(self, tmp_path):
        save_index(many_entities(), tmp_path / "intact")
        last = self.boundary(tmp_path / "intact")

        def swap(lines):
            assert len(lines[last - 1]) == len(lines[last])  # the boundary stays put
            lines[last - 1], lines[last] = lines[last], lines[last - 1]
            return lines

        directory = edited(tmp_path / "swapped", swap)
        assert self.boundary(directory) == last
        assert refusals(directory) == (ENTITIES_FILE, last + 1, "entities not in document order")

    def test_repeated_across_the_boundary(self, tmp_path):
        save_index(many_entities(), tmp_path / "intact")
        last = self.boundary(tmp_path / "intact")

        def repeat(lines):
            assert len(lines[last - 1]) == len(lines[last])
            lines[last] = lines[last - 1]
            return lines

        directory = edited(tmp_path / "repeated", repeat)
        assert self.boundary(directory) == last
        assert refusals(directory) == (ENTITIES_FILE, last + 1, "entities not in document order")


class TestLineEndsInsideALabel:
    """A label's namespace URI may hold U+0085 or U+2028, which ``str.splitlines``
    takes for line ends and text mode does not: a block refused is read again
    split at LF alone, so the line named is the file's."""

    LABELS = ("{urn:a\u2028b}item", "{urn:c\x85d}item")

    def test_shape_fault_on_line_201_of_300(self, tmp_path, monkeypatch):
        entities = tuple(DeweyId((1, i)) for i in range(1, 301))
        bundle = IndexBundle(
            entities=entities,
            labels=tuple(self.LABELS[i % 2] for i in range(len(entities))),
            postings={"x": (0, len(entities) - 1)},
            cooccur={},
            config=IndexConfig(entity_labels=frozenset(self.LABELS)),
        )
        save_index(bundle, tmp_path)
        assert load_index(tmp_path) == bundle
        path = tmp_path / ENTITIES_FILE
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[200] = lines[200].replace('"label"', '"lab"')
        path.write_text("\n".join(lines), encoding="utf-8")
        for block in (1, 100, 4096, 1 << 15):
            monkeypatch.setattr(storage, "_BLOCK", block)
            assert refusals(tmp_path) == (ENTITIES_FILE, 201, SHAPE[ENTITIES_FILE]), block

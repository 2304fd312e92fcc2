"""Shared oracles and random-data generators for the test suite.

The oracles deliberately avoid the production algorithms: SLCA coverage is
decided by prefix-closure sets over an explicit tree, co-occurrence by a
quadratic positional scan, MI by direct entity counting.
"""

from __future__ import annotations

import errno
import math
import os
import random
import sys
from bisect import bisect_left
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

from divsearch import intents, storage
from divsearch.dewey import DeweyId, EntityTable
from divsearch.indexing import EntityRecord
from divsearch.slca import DiversifiedSet, proper_ancestors

# Words the tokenizer keeps as they are: two-byte, three-byte and four-byte
# UTF-8 next to plain ASCII.
NON_ASCII_WORDS = ["café", "crème", "naïve", "straße", "日本語", "𝔡𝔟", "zoë", "w01", "ab", "ça"]


def d(text: str) -> DeweyId:
    """The Dewey ID of dot-separated decimal text, checked by the constructor."""
    return DeweyId(map(int, text.split(".")))


def ids(*texts: str) -> tuple[DeweyId, ...]:
    return tuple(map(d, texts))


def cover_sets(lists, table: EntityTable) -> list[frozenset]:
    """Each ordinal list's cover set, as a resolved segment carries it: its
    members and their proper ancestors."""
    return [proper_ancestors(lst, table).union(lst) for lst in lists]


class Entities:
    """An entity table with its Dewey IDs mapped to ordinals and back.

    The engines' node lists hold entity ordinals, and their results and
    pools tree numbers; tests state their nodes as Dewey IDs and translate
    through this map both ways.
    """

    def __init__(self, table: EntityTable) -> None:
        self.table = table
        self._ordinal = {v: i for i, v in enumerate(table.deweys)}
        self._number: dict[DeweyId, int] | None = None

    @classmethod
    def of_tree(cls, nodes: Iterable[DeweyId]) -> "Entities":
        """A table of the given nodes, in document order, duplicates dropped."""
        return cls(EntityTable(sorted(set(nodes))))

    def ordinals(self, nodes: Iterable[DeweyId]) -> tuple[int, ...]:
        return tuple(self._ordinal[v] for v in nodes)

    def deweys(self, ordinals: Iterable[int]) -> tuple[DeweyId, ...]:
        return tuple(self.table.deweys[i] for i in ordinals)

    def numbers(self, nodes: Iterable[DeweyId]) -> tuple[int, ...]:
        """The tree numbers of nodes at or above an entity."""
        if self._number is None:
            self._number = {v: x for x, v in enumerate(self.table.nodes)}
        return tuple(self._number[v] for v in nodes)

    def pool(self, members: Iterable[DeweyId]) -> DiversifiedSet:
        """A pool of tree numbers holding the antichain ``members``, all of intent 0."""
        pool = DiversifiedSet()
        pool.apply(pool.preview(self.numbers(members), self.table), 0)
        return pool


def common_prefix_len(a: DeweyId, b: DeweyId) -> int:
    """The number of leading components a and b share: their LCA's depth."""
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def subtree_bound(a: DeweyId) -> DeweyId:
    """Smallest ID following a's entire subtree in document order.

    Every x with a <= x < subtree_bound(a) is a or a descendant of a, and
    nothing else is; this turns subtree membership into range queries over
    sorted lists.
    """
    return DeweyId(tuple(a[:-1]) + (a[-1] + 1,))


def is_ancestor_or_self(a: DeweyId, b: DeweyId) -> bool:
    """True iff a's subtree contains b: a is a prefix of b, or b itself."""
    return len(a) <= len(b) and b[: len(a)] == tuple(a)


def scan_span(table: EntityTable, node: DeweyId) -> tuple[int, int]:
    """(lo, hi) of the entities in node's subtree, by a scan of the table."""
    inside = [i for i, v in enumerate(table.deweys) if is_ancestor_or_self(node, v)]
    lo = sum(1 for v in table.deweys if v < node)
    assert inside == list(range(lo, lo + len(inside)))
    return lo, lo + len(inside)


def prefix_bounds(
    nodes: Iterable[DeweyId], table: EntityTable
) -> tuple[tuple[DeweyId, int, int], ...]:
    """Every distinct prefix of the nodes, in document order, with its entity span.

    A node is a prefix of itself; each prefix p comes as ``(p, lo, hi)``,
    ``scan_span`` of it in ``table``.
    """
    prefixes = {DeweyId(v[:plen]) for v in nodes for plen in range(1, len(v) + 1)}
    return tuple((p, *scan_span(table, p)) for p in sorted(prefixes))


def scan_layout(
    table: EntityTable, members: Sequence[DeweyId]
) -> tuple[tuple[int, ...], tuple[int, ...], set[int]]:
    """A pool layout of the members, ``(cuts, hidden, prefixes)``, by scans of the table.

    Per member in document order its ``scan_span`` ``(lo, hi)`` gives the
    cuts ``lo``, ``lo + 1`` if it is an entity and ``lo`` if not, and
    ``hi``; hidden are the entities that are proper prefixes of a member;
    the prefixes are the tree numbers of every prefix of a member.
    """
    cuts: list[int] = []
    for node in sorted(members):
        lo, hi = scan_span(table, node)
        cuts += (lo, lo + (node in table.deweys), hi)
    hidden = tuple(
        i
        for i, v in enumerate(table.deweys)
        if any(len(v) < len(node) and is_ancestor_or_self(v, node) for node in members)
    )
    number = {v: x for x, v in enumerate(table.nodes)}
    prefixes = {number[v[:n]] for v in members for n in range(1, len(v) + 1)}
    return tuple(cuts), hidden, prefixes


def contains_anchor(node: DeweyId, anchors: Sequence[DeweyId]) -> bool:
    """True iff node is an ancestor of or equal to some anchor."""
    i = bisect_left(anchors, node)
    return i < len(anchors) and anchors[i] < subtree_bound(node)


def random_tree(rng: random.Random, max_nodes: int = 200) -> list[DeweyId]:
    """Grow a random tree by attaching children to random existing nodes."""
    nodes = [DeweyId((1,))]
    child_count: dict[DeweyId, int] = {nodes[0]: 0}
    for _ in range(rng.randint(0, max_nodes - 1)):
        parent = nodes[rng.randrange(len(nodes))]
        child_count[parent] += 1
        child = DeweyId(tuple(parent) + (child_count[parent],))
        child_count[child] = 0
        nodes.append(child)
    return nodes


def random_lists(
    rng: random.Random, tree: Sequence[DeweyId], max_lists: int = 4
) -> list[tuple[DeweyId, ...]]:
    """Sorted duplicate-free node lists drawn from the tree; rarely empty."""
    lists: list[tuple[DeweyId, ...]] = []
    for _ in range(rng.randint(1, max_lists)):
        if rng.random() < 0.05:
            lists.append(())
            continue
        size = rng.randint(1, max(1, len(tree) // 2))
        lists.append(tuple(sorted(rng.sample(list(tree), min(size, len(tree))))))
    return lists


def slca_oracle(
    tree: Sequence[DeweyId], lists: Sequence[Sequence[DeweyId]]
) -> tuple[DeweyId, ...]:
    """Test every tree node for subtree coverage; keep the minimal covers."""
    if not lists or any(not lst for lst in lists):
        return ()
    closures = []
    for lst in lists:
        closure: set[tuple[int, ...]] = set()
        for v in lst:
            for t in range(1, len(v) + 1):
                closure.add(tuple(v[:t]))
        closures.append(closure)
    covered = sorted(
        v for v in tree if all(tuple(v) in closure for closure in closures)
    )
    out = []
    for idx, p in enumerate(covered):
        bound = subtree_bound(p)
        if idx + 1 < len(covered) and covered[idx + 1] < bound:
            continue  # a covered node lies strictly inside p's subtree
        out.append(p)
    return tuple(out)


def random_corpus_xml(
    rng: random.Random,
    max_entities: int = 40,
    vocab_size: int = 20,
    words: Sequence[str] | None = None,
) -> bytes:
    """A small nested corpus; "item" entities may contain item children.

    ``words`` replaces the default ``w00 w01 ...`` vocabulary.
    """
    if words is None:
        words = [f"w{i:02d}" for i in range(vocab_size)]
    weights = [1.0 / (i + 1) for i in range(len(words))]
    target = rng.randint(3, max_entities)
    parts = ["<doc>"]
    emitted = 0

    def sample_text() -> str:
        return " ".join(rng.choices(words, weights=weights, k=rng.randint(2, 8)))

    def emit_item(depth: int) -> None:
        nonlocal emitted
        if emitted >= target:
            return
        emitted += 1
        parts.append(f"<item><t>{sample_text()}</t>")
        while depth < 3 and emitted < target and rng.random() < 0.25:
            emit_item(depth + 1)
        parts.append("</item>")

    while emitted < target:
        parts.append("<sec>")
        for _ in range(rng.randint(1, 6)):
            emit_item(1)
        parts.append("</sec>")
    parts.append("</doc>")
    return "".join(parts).encode("utf-8")


def brute_cooccur(
    records: Sequence[EntityRecord], window: int
) -> dict[tuple[str, str], int]:
    """Entity-level pair counts by quadratic scan over token positions."""
    counts: dict[tuple[str, str], int] = {}
    for record in records:
        found: set[tuple[str, str]] = set()
        toks = record.tokens
        for ti, pi in toks:
            for tj, pj in toks:
                if ti != tj and abs(pi - pj) <= window:
                    found.add((ti, tj) if ti < tj else (tj, ti))
        for pair in found:
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def brute_mi(x: str, y: str, records: Sequence[EntityRecord], window: int) -> float:
    """MI recomputed from raw token streams, no index structures."""
    n = len(records)
    nx = ny = nxy = 0
    for record in records:
        pos_x = [p for t, p in record.tokens if t == x]
        pos_y = [p for t, p in record.tokens if t == y]
        nx += bool(pos_x)
        ny += bool(pos_y)
        if any(abs(px - py) <= window for px in pos_x for py in pos_y):
            nxy += 1
    if nxy == 0:
        return 0.0
    pxy, px, py = nxy / n, nx / n, ny / n
    return pxy * math.log(pxy / (px * py))


def random_antichain(
    rng: random.Random, max_size: int = 8, max_depth: int = 4, fanout: int = 5
) -> tuple[DeweyId, ...]:
    """Random mutually incomparable nodes (ancestors win over descendants)."""
    raw: set[tuple[int, ...]] = set()
    for _ in range(rng.randint(0, max_size)):
        depth = rng.randint(1, max_depth)
        raw.add(tuple(rng.randint(1, fanout) for _ in range(depth)))
    out: list[DeweyId] = []
    for v in sorted(raw):
        if out and v[: len(out[-1])] == tuple(out[-1]):
            continue
        out.append(DeweyId(v))
    return tuple(out)


def patch_everywhere(monkeypatch, original, replacement):
    """Swap ``original`` in every ``divsearch`` namespace, as the tracer does."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "divsearch"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def count_intersections(monkeypatch) -> list[tuple[str, str]]:
    """Record the key of every ``intents.segment_node_list`` call from now on."""
    calls: list[tuple[str, str]] = []
    original = intents.segment_node_list

    def counting(keyword, feature, index):
        calls.append((keyword, feature))
        return original(keyword, feature, index)

    patch_everywhere(monkeypatch, original, counting)
    return calls


def fail_write(monkeypatch, name: str) -> None:
    """Make ``save_index``'s write of the index file ``name`` run out of disk
    space after its first line, whatever temporary name it writes under."""
    original = storage._write_lines

    def write(path, lines):
        if name not in Path(path).name:
            return original(path, lines)

        def first_line_then_full():
            yield from islice(lines, 1)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        original(path, first_line_then_full())

    monkeypatch.setattr(storage, "_write_lines", write)


def fail_rename(monkeypatch, name: str) -> None:
    """Make every ``os.replace`` onto a file called ``name`` fail."""
    original = os.replace

    def replace(src, dst):
        if Path(dst).name == name:
            raise OSError(errno.EIO, os.strerror(errno.EIO), str(dst))
        return original(src, dst)

    monkeypatch.setattr(os, "replace", replace)

"""Shared oracles and random-data generators for the test suite.

The oracles deliberately avoid the production algorithms: SLCA coverage is
decided by prefix-closure sets over an explicit tree, co-occurrence by a
quadratic positional scan, MI by direct entity counting.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from divsearch.dewey import DeweyId, subtree_bound
from divsearch.indexing import EntityRecord


def d(text: str) -> DeweyId:
    return DeweyId.parse(text)


def ids(*texts: str) -> tuple[DeweyId, ...]:
    return tuple(DeweyId.parse(t) for t in texts)


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

"""Answer checks computed from the generator's own data, not the program's.

Node lists come from the generator's token streams, SLCA sets from prefix
closures over its Dewey paths, and MI from a scan over its entities; none
of them uses divsearch's parser, index or search code.
"""

from __future__ import annotations

import math
from collections import Counter

Path = tuple[int, ...]


def slca_oracle(lists: list[list[Path]]) -> list[Path]:
    """Minimal nodes whose subtree holds a member of every list.

    A node covers a list iff it is a prefix of some member, so the covering
    nodes are the intersection of the lists' prefix closures.
    """
    if not lists or any(not lst for lst in lists):
        return []
    covered = None
    for lst in lists:
        closure = {v[:t] for v in lst for t in range(1, len(v) + 1)}
        covered = closure if covered is None else covered & closure
    ordered = sorted(covered)
    return [
        p
        for i, p in enumerate(ordered)
        if i + 1 == len(ordered) or ordered[i + 1][: len(p)] != p
    ]


def is_antichain(nodes: list[Path]) -> bool:
    """Strictly in document order with no node inside the one before it.

    In document order a node's descendants directly follow it, so testing
    neighbours covers every pair.
    """
    return all(a < b and b[: len(a)] != a for a, b in zip(nodes, nodes[1:]))


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def check_topk(topk: dict, k: int, postings: dict[str, list[Path]]) -> list[str]:
    """Property and oracle checks on one engine result; returns the faults.

    ``topk`` is the result as plain data: ``{"entries": [{"label",
    "segments": [[keyword, feature], ...], "results", "relevance", "dif",
    "score"}, ...], "phi"}`` with Dewey IDs as lists of ints.
    """
    faults = []
    entries = topk["entries"]
    if len(entries) > k:
        faults.append(f"{len(entries)} entries for k={k}")
    scores = [e["score"] for e in entries]
    if scores != sorted(scores, reverse=True):
        faults.append("entries not sorted by score")
    for entry in entries:
        label = entry["label"]
        lists = []
        likelihood = 1.0
        for keyword, feature in entry["segments"]:
            nodes = postings.get(keyword, [])
            if feature is not None:
                members = set(postings.get(feature, []))
                nodes = [v for v in nodes if v in members]
                likelihood *= len(nodes) / len(members)
            lists.append(nodes)
        oracle = slca_oracle(lists)
        if not set(map(tuple, entry["results"])) <= set(oracle):
            faults.append(f"{label}: result outside the oracle SLCA set")
        if not _close(entry["relevance"], likelihood * len(oracle)):
            faults.append(f"{label}: relevance {entry['relevance']} != {likelihood} x {len(oracle)}")
        if not 0.0 < entry["dif"] <= 1.0:
            faults.append(f"{label}: dif {entry['dif']} outside (0, 1]")
        if not _close(entry["score"], entry["relevance"] * entry["dif"]):
            faults.append(f"{label}: score != relevance x dif")
    if not is_antichain([tuple(v) for v in topk["phi"]]):
        faults.append("phi is not an antichain in document order")
    return faults


class MiOracle:
    """Top MI features by direct entity scan over generated token streams."""

    def __init__(self, entities, window: int = 3) -> None:
        self.entities = entities
        self.window = window
        self.df = Counter(term for _, tokens in entities for term in set(tokens))

    def top(self, term: str, m: int) -> list[tuple[str, float]]:
        joint: Counter[str] = Counter()
        for _, tokens in self.entities:
            spots = [p for p, t in enumerate(tokens) if t == term]
            if not spots:
                continue
            near = {
                tokens[q]
                for p in spots
                for q in range(max(0, p - self.window), min(len(tokens), p + self.window + 1))
            }
            near.discard(term)
            joint.update(near)
        n = len(self.entities)
        px = self.df[term] / n
        scored = []
        for other, count in joint.items():
            pxy = count / n
            mi = pxy * math.log(pxy / (px * (self.df[other] / n)))
            if mi > 0.0:
                scored.append((other, mi))
        scored.sort(key=lambda fm: (-fm[1], fm[0]))
        return scored[:m]

    def check(self, term: str, m: int, got: list[tuple[str, float]]) -> list[str]:
        want = self.top(term, m)
        if [f for f, _ in got] != [f for f, _ in want] or not all(
            _close(g, w) for (_, g), (_, w) in zip(got, want)
        ):
            return [f"top_features({term!r}) differs from the MI oracle"]
        return []

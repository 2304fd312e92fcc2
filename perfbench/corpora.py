"""Seeded corpus generators for the benchmark workloads.

Each generator returns the XML bytes the program indexes together with the
generator's own view of every entity (Dewey path and token stream), so the
oracles can check the program's answers without going through its parser
or its index.  Every generated word is lowercase alphanumeric and none is a
stop word, so a token's position in the stream equals its position after
the program's tokenizer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate


@dataclass(frozen=True)
class Corpus:
    xml: bytes
    entity_label: str
    # (Dewey path, tokens in document order), one per entity, document order.
    entities: tuple[tuple[tuple[int, ...], tuple[str, ...]], ...]

    def postings(self) -> dict[str, list[tuple[int, ...]]]:
        """term -> Dewey paths of the entities containing it, document order."""
        out: dict[str, list[tuple[int, ...]]] = {}
        for dewey, tokens in self.entities:
            for term in set(tokens):
                out.setdefault(term, []).append(dewey)
        return out


# --- hub / cli: the skewed corpus of the acceptance gate -------------------

HUBS = [f"hub{i}" for i in range(8)]
CTX = [f"ctx{i:02d}" for i in range(40)]


def skewed_corpus(seed: int, sections: int) -> Corpus:
    """Byte-for-byte the ``skewed_corpus_xml`` generator of the test suite.

    ``tests/test_acceptance.py`` builds it from ``random.Random(seed)``;
    the random calls below are the same, in the same order.  Each item
    holds one or two hub terms, 2-3 words from each hub's own 5-word
    context slice, and with probability 0.3 one word from any slice.
    """
    rng = random.Random(seed)
    hub_weights = [1.0 / (i + 1) for i in range(len(HUBS))]
    parts = ["<doc>"]
    entities = []
    for sec in range(1, sections + 1):
        parts.append("<sec>")
        for item in range(1, rng.randint(70, 100) + 1):
            hubs = rng.choices(HUBS, weights=hub_weights, k=rng.randint(1, 2))
            words = list(dict.fromkeys(hubs))
            for hub in words[:]:
                slice_lo = HUBS.index(hub) * 5
                words += rng.choices(CTX[slice_lo : slice_lo + 5], k=rng.randint(2, 3))
            if rng.random() < 0.3:
                words.append(rng.choice(CTX))
            rng.shuffle(words)
            parts.append(f"<item>{' '.join(words)}</item>")
            entities.append(((1, sec, item), tuple(words)))
        parts.append("</sec>")
    parts.append("</doc>")
    return Corpus("".join(parts).encode(), "item", tuple(entities))


# --- longtail: large vocabulary, Zipf inside topic clusters ----------------

TOPICS = 64
TOPIC_WORDS = 270
GENERAL_WORDS = 400


def topic_word(topic: int, rank: int) -> str:
    return f"t{topic:02d}w{rank:03d}"


def general_word(rank: int) -> str:
    return f"g{rank:03d}"


def longtail_corpus(seed: int, sections: int) -> Corpus:
    """At 320 sections, ~16k entities over ~16k terms with ~240k co-occurring pairs.

    Every section has a home topic, and every topic is home to as many
    sections as any other, give or take one, so a topic's frequency does not
    swing from seed to seed.  An item draws 6-10 words from one topic's
    vocabulary (its section's topic with probability 0.7, else a
    uniformly chosen one) and 2-4 words from a shared general vocabulary,
    both by Zipf rank (weight 1/rank).  Topic words therefore co-occur with
    their own cluster, which gives them positive MI, while general words
    co-occur with everything and score near zero.
    """
    rng = random.Random(seed)
    topic_vocab = [
        [topic_word(t, r) for r in range(1, TOPIC_WORDS + 1)] for t in range(TOPICS)
    ]
    general = [general_word(r) for r in range(1, GENERAL_WORDS + 1)]
    topic_cum = list(accumulate(1.0 / r for r in range(1, TOPIC_WORDS + 1)))
    general_cum = list(accumulate(1.0 / r for r in range(1, GENERAL_WORDS + 1)))
    homes = [sec % TOPICS for sec in range(sections)]
    rng.shuffle(homes)
    parts = ["<doc>"]
    entities = []
    for sec, home in enumerate(homes, start=1):
        parts.append("<sec>")
        for item in range(1, rng.randint(40, 60) + 1):
            topic = home if rng.random() < 0.7 else rng.randrange(TOPICS)
            words = rng.choices(topic_vocab[topic], cum_weights=topic_cum, k=rng.randint(6, 10))
            words += rng.choices(general, cum_weights=general_cum, k=rng.randint(2, 4))
            rng.shuffle(words)
            parts.append(f"<item>{' '.join(words)}</item>")
            entities.append(((1, sec, item), tuple(words)))
        parts.append("</sec>")
    parts.append("</doc>")
    return Corpus("".join(parts).encode(), "item", tuple(entities))

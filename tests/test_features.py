import dataclasses
import math
import random
import sys
from array import array
from pathlib import Path

import pytest

from divsearch.errors import NoIntentError
from divsearch.features import FeatureEntry, build_matrix, mutual_information, top_features
from divsearch.indexing import IndexConfig, build_index, index_corpus, parse_corpus
from divsearch.storage import load_for_query, load_index, save_index
from helpers import NON_ASCII_WORDS, brute_mi, random_corpus_xml

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (1/3) * ln((1/3) / ((1/3) * (2/3))), frozen from independent evaluation
MI_RELATIONAL_QUERY = 0.13515503603605478


class TestMutualInformation:
    def test_relational_query(self, toy_index):
        got = mutual_information("relational", "query", toy_index)
        assert got == MI_RELATIONAL_QUERY
        assert got == pytest.approx((1 / 3) * math.log(1.5), abs=1e-15)

    def test_ubiquitous_term_scores_zero(self, toy_index):
        # Prob(database) = 1, so the log argument collapses to 1
        assert mutual_information("database", "query", toy_index) == 0.0

    def test_never_cooccurring_pair_is_zero(self, toy_index):
        assert mutual_information("language", "image", toy_index) == 0.0

    def test_unknown_term_is_zero(self, toy_index):
        assert mutual_information("zzz", "query", toy_index) == 0.0

    def test_identical_terms_rejected(self, toy_index):
        with pytest.raises(ValueError):
            mutual_information("query", "query", toy_index)

    def test_symmetry_exact_on_toy(self, toy_index):
        terms = sorted(toy_index.postings)
        for x in terms:
            for y in terms:
                if x != y:
                    assert mutual_information(x, y, toy_index) == mutual_information(
                        y, x, toy_index
                    )

    def test_matches_brute_force_scan(self):
        rng = random.Random(51)
        for _ in range(15):
            xml = random_corpus_xml(rng, max_entities=30, vocab_size=12)
            window = rng.randint(1, 4)
            config = IndexConfig(entity_labels=frozenset({"item"}), window=window)
            records = parse_corpus(xml, config)
            index = build_index(records, config)
            for x, y in index.cooccur:
                want = brute_mi(x, y, records, window)
                assert mutual_information(x, y, index) == pytest.approx(want, abs=1e-12)


class TestTopFeatures:
    def test_ties_break_by_feature_name(self, toy_index):
        # all four partners of "query" share the same MI score
        got = top_features("query", 2, toy_index)
        assert [(e.feature, e.mi) for e in got] == [
            ("language", MI_RELATIONAL_QUERY),
            ("optimization", MI_RELATIONAL_QUERY),
        ]

    def test_full_partner_list_includes_relational(self, toy_index):
        got = top_features("query", 10, toy_index)
        assert [e.feature for e in got] == [
            "language",
            "optimization",
            "relational",
            "system",
        ]
        assert all(e.mi == MI_RELATIONAL_QUERY for e in got)

    def test_unknown_keyword_empty(self, toy_index):
        assert top_features("unknownterm", 5, toy_index) == ()

    def test_m_larger_than_partner_count(self, toy_index):
        assert len(top_features("image", 50, toy_index)) == 1  # retrieval only

    def test_zero_mi_partners_excluded(self, toy_index):
        # database co-occurs with everything but all scores are 0
        assert top_features("database", 10, toy_index) == ()

    def test_m_must_be_positive(self, toy_index):
        with pytest.raises(ValueError):
            top_features("query", 0, toy_index)

    def test_columns_sorted_and_positive(self):
        rng = random.Random(52)
        for _ in range(10):
            xml = random_corpus_xml(rng)
            config = IndexConfig(entity_labels=frozenset({"item"}))
            index = build_index(parse_corpus(xml, config), config)
            for term in sorted(index.postings):
                column = top_features(term, 5, index)
                keys = [(-e.mi, e.feature) for e in column]
                assert keys == sorted(keys)
                assert all(e.mi > 0 for e in column)
                assert all(e.feature != term for e in column)

    def test_deterministic(self, toy_corpus, toy_config, toy_index):
        rebuilt = build_index(toy_corpus, toy_config)
        assert top_features("query", 4, rebuilt) == top_features("query", 4, toy_index)


def full_scan_top_features(keyword, m, index):
    """The reference column: walk every pair of the index, score the ones
    naming ``keyword``.  ``top_features`` must return exactly this, floats
    included."""
    if m < 1:
        raise ValueError("m must be >= 1")
    entries = []
    for a, b in index.cooccur:
        if a == keyword:
            partner = b
        elif b == keyword:
            partner = a
        else:
            continue
        mi = mutual_information(keyword, partner, index)
        if mi > 0.0:
            entries.append(FeatureEntry(keyword, partner, mi))
    entries.sort(key=lambda e: (-e.mi, e.feature))
    return tuple(entries[:m])


class CountingPairs(dict):
    """A cooccur dict that counts the pairs of every walk over it."""

    def __init__(self, data):
        super().__init__(data)
        self.walked = 0

    def __iter__(self):
        self.walked += len(self)
        return super().__iter__()

    def keys(self):
        self.walked += len(self)
        return super().keys()

    def values(self):
        self.walked += len(self)
        return super().values()

    def items(self):
        self.walked += len(self)
        return super().items()


class CountingColumn(array):
    """A layout's counts column that counts the entries a walk reads from it,
    one by one, also through a slice."""

    reads = 0

    def __getitem__(self, key):
        got = super().__getitem__(key)
        if isinstance(key, slice):
            return self._walk(got)
        self.reads += 1
        return got

    def _walk(self, entries):
        for count in entries:
            self.reads += 1
            yield count


def counting_reads(index):
    """A copy of ``index`` sharing its layout of pairs, built here, whose
    counts column counts the entries read from it."""
    counted = dataclasses.replace(index)
    layout = index.neighbours
    vars(counted)["neighbours"] = layout._replace(counts=CountingColumn("I", layout.counts))
    return counted


def assert_layout(index):
    """Every pair of ``index`` once under each of its terms, count-descending
    and then in ``cooccur``'s order, with its count, the partner's posting
    length and the postings' own partner string; returns how many entries
    tie with the one before them."""
    cooccur = index.cooccur
    place = {pair: i for i, pair in enumerate(cooccur)}
    own = {id(term) for term in index.postings}
    layout = index.neighbours
    assert len(layout.counts) == len(layout.lengths) == len(layout.partners) == 2 * len(cooccur)
    assert layout.counts.typecode == layout.lengths.typecode == "I"
    spans = sorted(layout.spans.values())
    assert [start for start, _ in spans] == [0] + [stop for _, stop in spans[:-1]]
    assert spans[-1][1] == len(layout.partners) and all(start < stop for start, stop in spans)
    listed = []
    ties = 0
    for term, (start, stop) in layout.spans.items():
        keys = [(term, p) if term < p else (p, term) for p in layout.partners[start:stop]]
        listed += keys
        assert list(layout.counts[start:stop]) == [cooccur[key] for key in keys]
        assert keys == sorted(keys, key=lambda key: (-cooccur[key], place[key]))
        ties += len(keys) - len(set(layout.counts[start:stop]))
    assert sorted(listed) == sorted(list(cooccur) * 2)
    assert all(id(partner) in own for partner in layout.partners)
    assert list(layout.lengths) == [len(index.postings[p]) for p in layout.partners]
    return ties


class TestAgainstFullScan:
    def test_random_corpora_built_and_loaded(self, tmp_path):
        rng = random.Random(4417)
        seen = {"unknown": 0, "no pairs": 0, "m below column": 0, "m past partners": 0}
        for i in range(200):
            words = NON_ASCII_WORDS if i % 2 else None
            xml = random_corpus_xml(rng, max_entities=rng.randint(3, 40), words=words)
            # an entity holding one word only: a known term with no pair
            xml = xml.replace(b"</doc>", b"<sec><item><t>solo</t></item></sec></doc>")
            config = IndexConfig(entity_labels=frozenset({"item"}), window=rng.randint(1, 4))
            built = build_index(parse_corpus(xml, config), config)
            save_index(built, tmp_path / f"idx{i}")
            loaded = load_index(tmp_path / f"idx{i}")
            for index in (built, loaded):
                for term in sorted(index.postings) + ["unknown", "w99", "ça"]:
                    partners = sum(term in pair for pair in index.cooccur)
                    column = full_scan_top_features(term, partners + 1, index)
                    if term not in index.postings:
                        seen["unknown"] += 1
                    elif not partners:
                        seen["no pairs"] += 1
                    for m in {1, 2, rng.randint(1, 8), partners, partners + 3} - {0}:
                        got = top_features(term, m, index)
                        want = full_scan_top_features(term, m, index)
                        assert got == want, (i, term, m)
                        assert [e.mi for e in got] == [e.mi for e in want]
                        seen["m below column"] += m < len(column)
                        seen["m past partners"] += m > partners
        assert all(count > 100 for count in seen.values()), seen


class TestCountBoundStop:
    def test_random_corpora_equal_the_full_scan(self, tmp_path):
        rng = random.Random(30)
        ties = stops = walks = cases = 0
        for i in range(300):
            xml = random_corpus_xml(rng, max_entities=rng.randint(3, 50), vocab_size=rng.randint(3, 40))
            config = IndexConfig(entity_labels=frozenset({"item"}), window=rng.randint(1, 6))
            built = build_index(parse_corpus(xml, config), config)  # pairs in insertion order
            save_index(built, tmp_path / f"idx{i}")
            loaded = load_index(tmp_path / f"idx{i}")  # pairs count descending
            for index in (built, loaded):
                counted = counting_reads(index)
                column = counted.neighbours.counts
                for term in sorted(index.postings):
                    start, stop = index.neighbours.spans.get(term, (0, 0))
                    pairs = stop - start
                    # the full scan cuts its sorted column at m: one uncut column serves every m
                    full = full_scan_top_features(term, pairs + 1, index)
                    for m in (1, 2, 3, 5, 50):
                        want = full[:m]
                        assert top_features(term, m, index) == want, (i, term, m)
                        column.reads = 0
                        assert top_features(term, m, counted) == want, (i, term, m)
                        cases += 1
                        ties += len(full) > m and full[m].mi == full[m - 1].mi
                        assert column.reads <= pairs
                        stops += column.reads < pairs
                        walks += column.reads == pairs > 0
        assert ties > 100 and stops > 100 and walks > 100, (cases, ties, stops, walks)

    def test_the_stop_reads_less_of_a_general_term(self):
        sys.path.insert(0, str(PERFBENCH))
        try:
            from corpora import longtail_corpus
        finally:
            sys.path.remove(str(PERFBENCH))
        config = IndexConfig(entity_labels=frozenset({"item"}))
        index = counting_reads(index_corpus(longtail_corpus(6000, 40).xml, config))
        start, stop = index.neighbours.spans["g001"]
        column = top_features("g001", 20, index)
        reads = index.neighbours.counts.reads
        assert reads < (stop - start) / 2, (reads, stop - start)
        assert len(column) == 20
        assert column == full_scan_top_features("g001", 20, index)


class TestNoPairScan:
    def test_only_the_first_call_walks_the_pairs(self, toy_index):
        pairs = CountingPairs(toy_index.cooccur)
        index = dataclasses.replace(toy_index, cooccur=pairs)
        first = top_features("query", 3, index)
        assert pairs.walked <= len(pairs)
        walked = pairs.walked
        for term in sorted(index.postings) + ["unknown"]:
            for m in (1, 5, 50):
                assert top_features(term, m, index) == full_scan_top_features(term, m, toy_index)
        assert top_features("query", 3, index) == first
        assert pairs.walked == walked

    @pytest.mark.parametrize(
        "kind", ["toy", "build_index", "load_index", "load_for_query", "replace"]
    )
    def test_layout_lists_each_pair_under_both_terms(self, kind, toy_index, tmp_path):
        xml = random_corpus_xml(random.Random(8), max_entities=40, vocab_size=12)
        config = IndexConfig(entity_labels=frozenset({"item"}), window=4)
        built = build_index(parse_corpus(xml, config), config)
        counts = list(built.cooccur.values())
        assert counts != sorted(counts, reverse=True)  # insertion order: the layout needs a sort
        save_index(built, tmp_path / "idx")
        if kind == "toy":
            index = toy_index
        elif kind == "build_index":
            index = built
        elif kind == "load_index":
            index = load_index(tmp_path / "idx")
        elif kind == "load_for_query":
            index = load_for_query(tmp_path / "idx", "w00 w03 w07")[1]
            assert len(index.cooccur) < len(built.cooccur)
        else:  # pairs in name order
            index = dataclasses.replace(built, cooccur=dict(sorted(built.cooccur.items())))
        ties = assert_layout(index)
        assert ties > 10 or kind == "toy"

    def test_replaced_cooccur_gets_its_own_neighbours(self, toy_index):
        assert top_features("image", 5, toy_index)  # fills the cache of toy_index
        other = {pair: count for pair, count in toy_index.cooccur.items() if "image" not in pair}
        other[("language", "relational")] = 1
        replaced = dataclasses.replace(toy_index, cooccur=other)
        assert "image" not in replaced.neighbours.spans
        start, stop = replaced.neighbours.spans["language"]
        assert "relational" in replaced.neighbours.partners[start:stop]
        assert_layout(replaced)
        for term in sorted(toy_index.postings):
            for m in (1, 50):
                assert top_features(term, m, replaced) == full_scan_top_features(term, m, replaced)
        assert top_features("image", 5, replaced) == ()
        assert top_features("image", 5, toy_index) != ()

    def test_partner_without_postings_fails_as_the_full_scan(self, toy_index):
        ghost = dataclasses.replace(toy_index, cooccur={**toy_index.cooccur, ("ghost", "query"): 9})
        start, stop = ghost.neighbours.spans["query"]
        assert (ghost.neighbours.partners[start], ghost.neighbours.lengths[start]) == ("ghost", 0)
        with pytest.raises(ZeroDivisionError):
            full_scan_top_features("query", 5, ghost)
        with pytest.raises(ZeroDivisionError):
            top_features("query", 5, ghost)


class TestBuildMatrix:
    def test_toy_two_columns(self, toy_index):
        matrix = build_matrix(["database", "query"], 3, toy_index)
        assert matrix.keywords == ("database", "query")
        assert matrix.columns[0] == ()  # no positive-MI partner
        assert [e.feature for e in matrix.columns[1]] == [
            "language",
            "optimization",
            "relational",
        ]

    def test_all_unknown_keywords_raise(self, toy_index):
        with pytest.raises(NoIntentError):
            build_matrix(["unknown1", "unknown2"], 3, toy_index)

    def test_empty_query_rejected(self, toy_index):
        with pytest.raises(ValueError):
            build_matrix([], 3, toy_index)

    def test_keyword_order_preserved(self, toy_index):
        matrix = build_matrix(["query", "database"], 2, toy_index)
        assert matrix.keywords == ("query", "database")

    def test_feature_may_equal_other_query_keyword(self, toy_index):
        matrix = build_matrix(["relational", "query"], 10, toy_index)
        assert "query" in [e.feature for e in matrix.columns[0]]

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN_INDEX_DIR
from divsearch.cli import main

GOLDEN_IDX = str(GOLDEN_INDEX_DIR)

GOLDEN_REPORT = (
    '{"query":["database","query"],"k":2,"m":2,"algo":"baseline","intents":['
    '{"segments":[{"keyword":"database","feature":null},'
    '{"keyword":"query","feature":"language"}],'
    '"aggMi":0.135155036036,"relevance":1,"dif":1,"score":1,"results":["1.1"]},'
    '{"segments":[{"keyword":"database","feature":null},'
    '{"keyword":"query","feature":"optimization"}],'
    '"aggMi":0.135155036036,"relevance":1,"dif":0.5,"score":0.5,"results":["1.2"]}],'
    '"phi":["1.1","1.2"]}'
)

GOLDEN_CSV = (
    "segments,aggMi,relevance,dif,score,results\n"
    "database query:language,0.135155036036,1,1,1,1.1\n"
    "database query:optimization,0.135155036036,1,0.5,0.5,1.2\n"
)


def search_args(*extra: str) -> list[str]:
    return ["search", "--index", GOLDEN_IDX, "--query", "database query", *extra]


class TestIndexCommand:
    def test_builds_and_reports(self, toy_xml_path, tmp_path, capsys):
        out_dir = tmp_path / "idx"
        rc = main(
            ["index", "--input", str(toy_xml_path), "--entity", "paper", "--out", str(out_dir)]
        )
        assert rc == 0
        assert capsys.readouterr().out == "entities=3 terms=8 triplets=14\n"
        for name in ("manifest.json", "entities.jsonl", "postings.jsonl", "cooccur.jsonl"):
            assert (out_dir / name).read_bytes() == (GOLDEN_INDEX_DIR / name).read_bytes()

    def test_missing_entity_flag_is_usage_error(self, toy_xml_path, tmp_path, capsys):
        rc = main(["index", "--input", str(toy_xml_path), "--out", str(tmp_path / "idx")])
        assert rc == 2
        assert "--entity" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(
            ["index", "--input", str(tmp_path / "nope.xml"), "--entity", "paper",
             "--out", str(tmp_path / "idx")]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_xml(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<bib><paper>")
        rc = main(["index", "--input", str(bad), "--entity", "paper", "--out", str(tmp_path / "idx")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unusable_declared_encoding(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b'<?xml version="1.0" encoding="x-no-such"?><a><b>y</b></a>')
        out_dir = tmp_path / "idx"
        rc = main(["index", "--input", str(bad), "--entity", "b", "--out", str(out_dir)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: malformed XML: unknown encoding: x-no-such\n"
        assert not out_dir.exists()

    def test_stopwords_file_that_is_not_utf8(self, toy_xml_path, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_bytes(b"the\ncaf\xe9 the\n")
        out_dir = tmp_path / "idx"
        rc = main(
            ["index", "--input", str(toy_xml_path), "--entity", "paper",
             "--out", str(out_dir), "--stopwords", str(stop)]
        )
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {stop}:2: invalid UTF-8: invalid continuation byte\n")
        assert not out_dir.exists()

    def test_custom_stopwords_replace_defaults(self, toy_xml_path, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_text("Database\n", encoding="utf-8")
        out_dir = tmp_path / "idx"
        rc = main(
            ["index", "--input", str(toy_xml_path), "--entity", "paper",
             "--out", str(out_dir), "--stopwords", str(stop)]
        )
        assert rc == 0
        assert capsys.readouterr().out == "entities=3 terms=7 triplets=7\n"
        assert b"database" not in (out_dir / "postings.jsonl").read_bytes()

    def test_window_flag(self, toy_xml_path, tmp_path, capsys):
        rc = main(
            ["index", "--input", str(toy_xml_path), "--entity", "paper",
             "--out", str(tmp_path / "idx"), "--window", "1"]
        )
        assert rc == 0
        assert capsys.readouterr().out == "entities=3 terms=8 triplets=8\n"


class TestFeaturesCommand:
    def test_json_output(self, capsys):
        rc = main(["features", "--index", GOLDEN_IDX, "--term", "query", "--top", "2"])
        assert rc == 0
        assert capsys.readouterr().out == (
            '{"term":"query","features":['
            '{"feature":"language","mi":0.135155036036},'
            '{"feature":"optimization","mi":0.135155036036}]}\n'
        )

    def test_csv_output(self, capsys):
        rc = main(
            ["features", "--index", GOLDEN_IDX, "--term", "query", "--top", "2",
             "--format", "csv"]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            "feature,mi\nlanguage,0.135155036036\noptimization,0.135155036036\n"
        )

    def test_unknown_term_is_empty_not_an_error(self, capsys):
        rc = main(["features", "--index", GOLDEN_IDX, "--term", "zzz"])
        assert rc == 0
        assert capsys.readouterr().out == '{"term":"zzz","features":[]}\n'

    def test_term_is_lowercased(self, capsys):
        rc = main(["features", "--index", GOLDEN_IDX, "--term", "QUERY", "--top", "1"])
        assert rc == 0
        assert '"term":"query"' in capsys.readouterr().out

    def test_term_is_tokenized_like_a_query(self, capsys):
        """``query.`` is the keyword ``query``, as ``search`` reads it."""
        rc = main(["features", "--index", GOLDEN_IDX, "--term", "Query.", "--top", "2"])
        assert rc == 0
        punctuated = capsys.readouterr().out
        main(["features", "--index", GOLDEN_IDX, "--term", "query", "--top", "2"])
        assert punctuated == capsys.readouterr().out
        assert punctuated.startswith('{"term":"query","features":[{"feature":"language"')

    @pytest.mark.parametrize("term", ["query language", "...", ""])
    def test_term_must_be_one_keyword(self, capsys, term):
        rc = main(["features", "--index", GOLDEN_IDX, "--term", term])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: term must be one keyword\n"

    def test_stop_word_is_no_keyword(self, toy_xml_path, tmp_path, capsys):
        """The loaded index's stop words are dropped from the term, as from a query."""
        out_dir = str(tmp_path / "idx")
        main(["index", "--input", str(toy_xml_path), "--entity", "paper", "--out", out_dir])
        assert (tmp_path / "idx" / "stopwords.txt").exists()
        capsys.readouterr()
        assert main(["features", "--index", out_dir, "--term", "the"]) == 2
        assert capsys.readouterr() == ("", "error: term must be one keyword\n")
        assert main(["search", "--index", out_dir, "--query", "the"]) == 2
        capsys.readouterr()
        assert main(["features", "--index", out_dir, "--term", "the query"]) == 0
        with_stop_word = capsys.readouterr().out
        main(["features", "--index", out_dir, "--term", "query"])
        assert with_stop_word == capsys.readouterr().out

    def test_corrupt_index(self, tmp_path, capsys):
        broken = tmp_path / "idx"
        shutil.copytree(GOLDEN_INDEX_DIR, broken)
        with (broken / "postings.jsonl").open("a", encoding="utf-8") as handle:
            handle.write("not json\n")
        rc = main(["features", "--index", str(broken), "--term", "query"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        # the index is read before the term, as search reads it before the query
        assert main(["features", "--index", str(broken), "--term", "query language"]) == 1
        assert capsys.readouterr() == ("", "error: postings.jsonl:9: invalid JSON: Expecting value\n")


class TestSearchCommand:
    def test_golden_json_report(self, capsys):
        rc = main(search_args("--k", "2", "--m", "2"))
        assert rc == 0
        assert capsys.readouterr().out == GOLDEN_REPORT + "\n"

    def test_csv_format(self, capsys):
        rc = main(search_args("--k", "2", "--m", "2", "--format", "csv"))
        assert rc == 0
        assert capsys.readouterr().out == GOLDEN_CSV

    def test_all_algorithms_agree(self, capsys):
        reports = {}
        for extra in ((), ("--algo", "anchor"), ("--algo", "parallel", "--workers", "3")):
            rc = main(search_args("--k", "4", "--m", "4", *extra))
            assert rc == 0
            reports[extra] = json.loads(capsys.readouterr().out)
        baseline = reports[()]
        for extra, report in reports.items():
            assert report["intents"] == baseline["intents"]
            assert report["phi"] == baseline["phi"]
            assert report["algo"] == (extra[1] if extra else "baseline")

    def test_plain_report_has_only_stable_fields(self, capsys):
        main(search_args("--k", "2", "--m", "2", "--algo", "parallel"))
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["query", "k", "m", "algo", "intents", "phi"]

    def test_stats_fields_for_baseline(self, capsys):
        rc = main(search_args("--k", "2", "--m", "2", "--stats"))
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["query", "k", "m", "algo", "intents", "phi", "stats", "elapsedMs"]
        assert report["stats"] == {"nodesVisited": 8, "nodesPruned": 0, "areasSkipped": 0}
        assert isinstance(report["elapsedMs"], int)

    def test_stats_fields_for_parallel(self, capsys):
        rc = main(
            search_args("--k", "2", "--m", "2", "--algo", "parallel", "--workers", "2", "--stats")
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == [
            "query", "k", "m", "algo", "workers", "intents", "phi", "stats", "elapsedMs",
        ]
        assert report["workers"] == 2
        # parallel scores as baseline does: the same counters
        assert report["stats"] == {"nodesVisited": 8, "nodesPruned": 0, "areasSkipped": 0}

    def test_empty_query_is_usage_error(self, capsys):
        rc = main(["search", "--index", GOLDEN_IDX, "--query", "!!!"])
        assert rc == 2
        assert "no keywords" in capsys.readouterr().err

    def test_zero_k_is_usage_error(self, capsys):
        rc = main(search_args("--k", "0"))
        assert rc == 2
        capsys.readouterr()

    def test_unknown_terms_give_empty_report(self, capsys):
        rc = main(["search", "--index", GOLDEN_IDX, "--query", "zzz yyy"])
        assert rc == 0
        assert capsys.readouterr().out == (
            '{"query":["zzz","yyy"],"k":10,"m":20,"algo":"baseline","intents":[],"phi":[]}\n'
        )

    @pytest.mark.parametrize("algo", ["baseline", "anchor", "parallel"])
    def test_unknown_terms_with_stats_report_zero_work(self, capsys, algo):
        argv = ["search", "--index", GOLDEN_IDX, "--query", "zzzz", "--algo", algo]
        rc = main([*argv, "--workers", "3", "--stats"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        keys = ["query", "k", "m", "algo", "intents", "phi", "stats", "elapsedMs"]
        if algo == "parallel":
            keys.insert(4, "workers")
        assert list(report) == keys
        assert report["stats"] == {"nodesVisited": 0, "nodesPruned": 0, "areasSkipped": 0}
        assert (report["intents"], report["phi"]) == ([], [])
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            f'{{"query":["zzzz"],"k":10,"m":20,"algo":"{algo}","intents":[],"phi":[]}}\n'
        )

    def test_budget_limits_intents(self, capsys):
        rc = main(search_args("--k", "2", "--m", "2", "--budget", "1"))
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["intents"]) == 1

    def test_query_is_tokenized_and_lowercased(self, capsys):
        rc = main(["search", "--index", GOLDEN_IDX, "--query", "Database, QUERY!", "--k", "2", "--m", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["query"] == ["database", "query"]
        assert capsys.readouterr().out == ""

    def test_repeat_runs_are_byte_identical(self, capsys):
        outputs = []
        for _ in range(3):
            rc = main(search_args("--k", "3", "--m", "4", "--algo", "parallel", "--workers", "6"))
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1

    def test_corrupt_index(self, tmp_path, capsys):
        broken = tmp_path / "idx"
        shutil.copytree(GOLDEN_INDEX_DIR, broken)
        manifest = broken / "manifest.json"
        text = manifest.read_text(encoding="utf-8").replace('"version":1', '"version":99')
        manifest.write_text(text, encoding="utf-8")
        rc = main(["search", "--index", str(broken), "--query", "database"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_index_error_without_a_line_names_only_the_file(self, tmp_path, capsys):
        broken = tmp_path / "idx"
        shutil.copytree(GOLDEN_INDEX_DIR, broken)
        (broken / "manifest.json").write_bytes(b"")
        rc = main(["search", "--index", str(broken), "--query", "database"])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: manifest.json: manifest must be a single JSON object\n")


    def test_index_bytes_that_are_not_utf8(self, tmp_path, capsys):
        broken = tmp_path / "idx"
        shutil.copytree(GOLDEN_INDEX_DIR, broken)
        with (broken / "cooccur.jsonl").open("ab") as handle:
            handle.write(b"\xff\n")
        rc = main(["search", "--index", str(broken), "--query", "database"])
        assert rc == 1
        assert capsys.readouterr().err == "error: cooccur.jsonl:15: invalid UTF-8: invalid start byte\n"

class TestStopWordQueries:
    """Query tokens are filtered by the stop words the index stores."""

    @pytest.fixture()
    def built_idx(self, toy_xml_path, tmp_path, capsys):
        out_dir = tmp_path / "idx"
        rc = main(["index", "--input", str(toy_xml_path), "--entity", "paper", "--out", str(out_dir)])
        assert rc == 0
        capsys.readouterr()
        return str(out_dir)

    def search(self, capsys, idx, query, *extra):
        rc = main(["search", "--index", idx, "--query", query, "--k", "4", "--m", "4", *extra])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    @pytest.mark.parametrize(
        "extra", [(), ("--algo", "anchor"), ("--algo", "parallel", "--workers", "3")]
    )
    def test_stop_word_inside_query_is_dropped(self, built_idx, capsys, extra):
        rc, plain, _ = self.search(capsys, built_idx, "database query", *extra)
        assert rc == 0
        assert json.loads(plain)["intents"]
        for query in ("database the query", "The database OF query a", "database, the query."):
            rc, out, _ = self.search(capsys, built_idx, query, *extra)
            assert rc == 0
            assert out == plain

    def test_custom_stop_words_are_stored_and_applied(self, toy_xml_path, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_text("Language don't\nimage\n", encoding="utf-8")
        out_dir = tmp_path / "idx"
        rc = main(["index", "--input", str(toy_xml_path), "--entity", "paper",
                   "--out", str(out_dir), "--stopwords", str(stop)])
        assert rc == 0
        capsys.readouterr()
        assert (out_dir / "stopwords.txt").read_text(encoding="utf-8") == "image\nlanguage\n"
        rc, out, _ = self.search(capsys, str(out_dir), "database language the")
        assert rc == 0
        assert json.loads(out)["query"] == ["database", "the"]

    def test_toy_index_without_stop_word_file_is_unchanged(self, capsys):
        assert not (GOLDEN_INDEX_DIR / "stopwords.txt").exists()
        rc, out, _ = self.search(capsys, GOLDEN_IDX, "database the query")
        assert rc == 0
        assert out == (
            '{"query":["database","the","query"],"k":4,"m":4,"algo":"baseline",'
            '"intents":[],"phi":[]}\n'
        )

    @pytest.mark.parametrize("query", ["the", "The OF a", "the, of!"])
    def test_query_of_only_stop_words_is_usage_error(self, built_idx, capsys, query):
        rc, out, err = self.search(capsys, built_idx, query)
        assert rc == 2
        assert out == ""
        assert err == "error: query contains no keywords\n"

    @pytest.mark.parametrize(
        "text, message",
        [("the\na\n", "stop words not sorted"), ("a\nThe\n", "stop word is not one token: 'The'")],
    )
    def test_bad_stop_word_file_is_data_error(self, built_idx, capsys, text, message):
        (Path(built_idx) / "stopwords.txt").write_text(text, encoding="utf-8")
        rc, out, err = self.search(capsys, built_idx, "database query")
        assert rc == 1
        assert out == ""
        assert err == f"error: stopwords.txt:2: {message}\n"


class TestModuleEntryPoint:
    def test_python_dash_m_matches_in_process(self):
        proc = subprocess.run(
            [sys.executable, "-m", "divsearch",
             "search", "--index", GOLDEN_IDX, "--query", "database query",
             "--k", "2", "--m", "2"],
            capture_output=True,
            text=True,
            encoding="utf-8",
        )
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_REPORT + "\n"

"""Tests for the benchmark harness and workloads."""

import pytest

from repro.bench.harness import INDEX_KINDS, Report, build_index, time_call
from repro.bench.workloads import TABLE3_QUERIES
from repro.doc.model import XmlNode
from repro.query.xpath import parse_xpath


def tiny_corpus():
    docs = []
    for loc in ["boston", "newyork"]:
        root = XmlNode("p")
        root.element("s", text=loc)
        docs.append(root)
    return docs


class TestBuildIndex:
    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_every_kind_builds_and_answers(self, kind):
        index = build_index(kind, tiny_corpus())
        assert index.query("/p/s[text='boston']") == [0]
        assert index.query("/p") == [0, 1]

    def test_vist_defaults_to_no_refcounts(self):
        index = build_index("vist", tiny_corpus())
        assert index.track_refs is False

    def test_vist_refcounts_can_be_enabled(self):
        index = build_index("vist", tiny_corpus(), track_refs=True)
        index.remove(0)
        assert index.query("/p") == [1]

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            build_index("btree-of-doom", tiny_corpus())

    def test_build_index_cache_on_by_default(self):
        index = build_index("vist", tiny_corpus())
        assert index.postings is not None


class TestTiming:
    def test_time_call_returns_result(self):
        seconds, value = time_call(lambda: 41 + 1)
        assert value == 42
        assert seconds >= 0


class TestReport:
    def test_render_alignment(self):
        report = Report("exp", "a title", ["col_a", "b"], paper_note="note!")
        report.add("x", 1.23456)
        report.add("longer-label", 7)
        text = report.render()
        lines = text.splitlines()
        assert lines[0] == "== exp: a title =="
        assert "paper: note!" in lines[1]
        assert "col_a" in lines[2]
        assert "1.2346" in text  # floats rendered at 4 decimals
        assert "longer-label" in text

    def test_emit_rewrites_the_transcript(self, tmp_path, capsys):
        report = Report("myexp", "t", ["h"])
        report.add("row1")
        report.emit(directory=str(tmp_path))
        report.emit(directory=str(tmp_path))
        out = capsys.readouterr().out
        assert out.count("row1") == 2  # both runs printed
        content = (tmp_path / "myexp.txt").read_text()
        assert content.count("row1") == 1  # one run leaves one table
        assert content.count("== myexp") == 1

    def test_empty_report_renders_headers(self):
        report = Report("e", "t", ["only", "headers"])
        assert "only" in report.render()

    def test_bar_column(self):
        report = Report("e", "t", ["n", "time"], bar_column=1)
        report.add(1, 0.5)
        report.add(2, 1.0)
        report.add(3, 0.25)
        lines = report.render().splitlines()
        bars = [line.count("▌") for line in lines[2:]]
        assert bars[1] == max(bars)  # the 1.0 row gets the longest bar
        assert all(b >= 1 for b in bars)

    def test_bar_column_handles_zeroes(self):
        report = Report("e", "t", ["n", "time"], bar_column=1)
        report.add(1, 0.0)
        assert "▌" in report.render()  # min one tick, no division by zero


class TestWorkloads:
    def test_table3_has_eight_queries(self):
        assert len(TABLE3_QUERIES) == 8
        assert [q.qid for q in TABLE3_QUERIES] == [f"Q{i}" for i in range(1, 9)]

    def test_datasets_split_as_in_paper(self):
        dblp = [q for q in TABLE3_QUERIES if q.dataset == "dblp"]
        xmark = [q for q in TABLE3_QUERIES if q.dataset == "xmark"]
        assert len(dblp) == 5 and len(xmark) == 3

    def test_all_queries_parse(self):
        for query in TABLE3_QUERIES:
            assert parse_xpath(query.xpath) is not None

"""Coverage for smaller API surfaces: add_all, match stats, pager stacking."""

import pytest

from repro.doc.model import XmlDocument, XmlNode
from repro.index.matching import SequenceMatcher
from repro.index.vist import VistIndex
from repro.sequence.transform import SequenceEncoder
from repro.storage.bptree import BPlusTree
from repro.storage.wal import WalPager


def docs(n=3):
    out = []
    for i in range(n):
        root = XmlNode("r")
        root.element("a", text=f"v{i}")
        out.append(root)
    return out


class TestAddAll:
    def test_returns_ids_in_order(self):
        index = VistIndex(SequenceEncoder())
        ids = index.add_all(docs(4))
        assert ids == [0, 1, 2, 3]
        assert len(index) == 4

    def test_accepts_documents_and_nodes(self):
        index = VistIndex(SequenceEncoder())
        mixed = [docs(1)[0], XmlDocument(docs(1)[0], name="wrapped")]
        ids = index.add_all(mixed)
        assert ids == [0, 1]


class TestMatchStats:
    def test_stats_populated_after_match(self):
        from repro.query.xpath import parse_xpath

        index = VistIndex(SequenceEncoder())
        index.add_all(docs(5))
        matcher = SequenceMatcher(index)
        (alt,) = index.translator.translate(parse_xpath("/r/a"))
        finals = matcher.final_scopes(alt)
        assert matcher.stats.final_nodes == len(finals)
        assert matcher.stats.range_queries >= 2  # one per query item
        assert matcher.stats.candidates >= 1
        assert matcher.stats.search_states >= 1

    def test_stats_reset_between_matches(self):
        from repro.query.xpath import parse_xpath

        index = VistIndex(SequenceEncoder())
        index.add_all(docs(5))
        matcher = SequenceMatcher(index)
        (hit,) = index.translator.translate(parse_xpath("/r/a"))
        (miss,) = index.translator.translate(parse_xpath("/zzz"))
        matcher.final_scopes(hit)
        busy = matcher.stats.candidates
        matcher.final_scopes(miss)
        assert matcher.stats.candidates < busy
        assert matcher.stats.final_nodes == 0


class TestPagerStacking:
    def test_tree_over_wal_pager(self, tmp_path):
        """A tree straight on the WAL pager: checkpoint is the commit."""
        wal = WalPager(tmp_path / "w.db", page_size=512)
        tree = BPlusTree(wal)
        for i in range(200):
            tree.insert(f"k{i:04d}".encode(), b"v")
        tree.checkpoint()  # dirty nodes -> wal overlay -> commit
        tree.close()
        wal.close()

        reopened = WalPager(tmp_path / "w.db")
        tree2 = BPlusTree(reopened)
        assert len(tree2) == 200
        assert tree2.get(b"k0123") == b"v"
        reopened.close()

    def test_vist_over_buffered_wal(self, tmp_path):
        index = VistIndex(SequenceEncoder(), pager=WalPager(tmp_path / "v.db"))
        ids = index.add_all(docs(10))
        index.flush()
        assert index.query("/r/a[text='v3']") == [ids[3]]
        index.close()


class TestCliEdges:
    def test_stats_on_fresh_db(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["stats", str(tmp_path / "empty-db")]) == 0
        assert "documents: 0" in capsys.readouterr().out

    def test_query_on_empty_db(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["query", str(tmp_path / "db"), "/a/b"]) == 0
        assert "0 match(es)" in capsys.readouterr().out

    def test_unparseable_xml_reports_error(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.xml"
        bad.write_text("<oops>")
        assert main(["index", str(tmp_path / "db"), str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

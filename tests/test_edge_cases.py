"""Additional edge-case coverage across modules."""

import pytest

from repro.doc.model import XmlNode
from repro.doc.parser import parse_document, parse_fragment
from repro.errors import PageError
from repro.index.vist import VistIndex
from repro.sequence.encoding import Item, StructureEncodedSequence
from repro.sequence.transform import SequenceEncoder
from repro.storage.wal import WalPager


class TestParserEdges:
    def test_doctype_with_internal_subset(self):
        doc = parse_document(
            "<!DOCTYPE r [ <!ELEMENT r (a)> <!ENTITY x 'y'> ]><r><a/></r>"
        )
        assert doc.root.label == "r"

    def test_nested_brackets_in_doctype(self):
        doc = parse_document("<!DOCTYPE r [ [nested] ]><r/>")
        assert doc.root.label == "r"

    def test_deeply_nested_document(self):
        text = "<a>" * 80 + "</a>" * 80
        node = parse_fragment(text)
        assert node.depth() == 80

    def test_unicode_content(self):
        node = parse_fragment("<名前 属性='値'>テキスト</名前>")
        assert node.label == "名前"
        assert node.attributes["属性"] == "値"
        assert node.text == "テキスト"

    def test_crlf_whitespace(self):
        node = parse_fragment("<a\r\n  x='1'\r\n>\r\n<b/>\r\n</a>")
        assert node.attributes == {"x": "1"}
        assert node.children[0].label == "b"

    def test_comment_with_dashes_inside_content(self):
        node = parse_fragment("<a><!-- a - b -- c --><b/></a>")
        assert [c.label for c in node.children] == ["b"]


class TestUnicodeEndToEnd:
    def test_index_and_query_unicode(self):
        index = VistIndex(SequenceEncoder())
        doc = XmlNode("книга")
        doc.element("автор", text="Пушкин")
        doc_id = index.add(doc)
        assert index.query("/книга/автор[text='Пушкин']") == [doc_id]
        assert index.query("/книга/автор[text='Гоголь']") == []

    def test_unicode_survives_persistence_roundtrip(self):
        index = VistIndex(SequenceEncoder())
        doc = XmlNode("r")
        doc.element("t", text="naïve — résumé")
        doc_id = index.add(doc)
        seq = index.load_sequence(doc_id)
        assert seq == SequenceEncoder().encode_node(doc)


class TestWalEdges:
    def test_rollback_after_allocate_recycles_page(self, tmp_path):
        pager = WalPager(tmp_path / "w.db", page_size=256)
        pager.commit()
        before = pager.page_count
        pager.allocate()
        pager.rollback()
        assert pager.page_count == before
        pid = pager.allocate()  # the rolled-back id is reissued
        assert pid == before + 1
        pager.close()

    def test_read_out_of_range(self, tmp_path):
        pager = WalPager(tmp_path / "w.db", page_size=256)
        with pytest.raises(PageError):
            pager.read(99)
        with pytest.raises(PageError):
            pager.write(99, b"x")
        pager.close()

    def test_empty_commit_is_noop(self, tmp_path):
        import os

        pager = WalPager(tmp_path / "w.db", page_size=256)
        pager.commit()
        pager.commit()
        assert not os.path.exists(pager.journal_path)
        pager.close()


class TestSequenceEdges:
    def test_single_node_document(self):
        index = VistIndex(SequenceEncoder())
        doc_id = index.add(XmlNode("lonely"))
        assert index.query("/lonely") == [doc_id]
        assert index.load_sequence(doc_id) == StructureEncodedSequence(
            [Item("lonely", ())]
        )

    def test_identical_documents_distinct_ids(self):
        index = VistIndex(SequenceEncoder())
        doc = XmlNode("r")
        doc.element("a")
        ids = [index.add(doc) for _ in range(5)]
        assert len(set(ids)) == 5
        assert index.query("/r/a") == ids

    def test_very_wide_document(self):
        index = VistIndex(SequenceEncoder())
        wide = XmlNode("r")
        for i in range(300):
            wide.element(f"c{i:03d}")
        doc_id = index.add(wide)
        assert index.query("/r/c123") == [doc_id]
        assert index.query("/r/c299") == [doc_id]

    def test_many_distinct_values_under_one_path(self):
        """Stress the value λ-chain: hundreds of distinct values share one
        virtual-trie parent."""
        index = VistIndex(SequenceEncoder())
        ids = []
        for i in range(200):
            doc = XmlNode("r")
            doc.element("v", text=f"value-{i}")
            ids.append(index.add(doc))
        assert index.query("/r/v[text='value-137']") == [ids[137]]
        assert index.query("/r/v") == ids

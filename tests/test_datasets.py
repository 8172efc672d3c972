"""Tests for the three dataset generators."""

import pytest

from repro.datasets.dblp import MAIER_KEY, DblpConfig, DblpGenerator
from repro.datasets.synthetic import SyntheticConfig, SyntheticGenerator
from repro.datasets.xmark import TARGET_DATE, XmarkConfig, XmarkGenerator
from repro.doc.model import XmlDocument
from repro.errors import DatasetError
from repro.index.vist import VistIndex
from repro.sequence.transform import SequenceEncoder


class TestSynthetic:
    def test_document_size(self):
        gen = SyntheticGenerator(SyntheticConfig(doc_size=30, seed=1))
        doc = gen.document()
        assert doc.size() == 30

    def test_height_bound(self):
        gen = SyntheticGenerator(SyntheticConfig(height=3, fanout=2, doc_size=7, seed=1))
        for doc in gen.documents(20):
            assert doc.depth() <= 3

    def test_fanout_bound(self):
        gen = SyntheticGenerator(SyntheticConfig(height=4, fanout=2, doc_size=10, seed=3))
        for doc in gen.documents(20):
            for node in doc.preorder():
                assert len(node.children) <= 2

    def test_labels_are_child_positions(self):
        gen = SyntheticGenerator(SyntheticConfig(fanout=3, seed=5))
        doc = gen.document()
        for node in doc.preorder():
            if node.label != "r":
                assert node.label in {"e0", "e1", "e2"}

    def test_reproducible_with_seed(self):
        a = SyntheticGenerator(SyntheticConfig(seed=9)).document()
        b = SyntheticGenerator(SyntheticConfig(seed=9)).document()
        assert a == b

    def test_statistics_collected(self):
        gen = SyntheticGenerator(SyntheticConfig(doc_size=20, seed=2))
        list(gen.documents(10))
        assert gen.stats.documents == 10
        assert gen.stats.expected_fanout("r") > 0

    def test_queries_are_subtrees(self):
        gen = SyntheticGenerator(SyntheticConfig(seed=4))
        query = gen.query(size=5)
        count = sum(1 for _ in query.preorder())
        assert count == 5
        assert query.label == "r"

    def test_sequence_length_matches_doc_size(self):
        gen = SyntheticGenerator(SyntheticConfig(doc_size=30, seed=6))
        encoder = SequenceEncoder()
        seq = encoder.encode_node(gen.document())
        assert len(seq) == 30  # structural nodes only, no values

    def test_invalid_configs(self):
        with pytest.raises(DatasetError):
            SyntheticConfig(height=0)
        with pytest.raises(DatasetError):
            SyntheticConfig(fanout=0)
        with pytest.raises(DatasetError):
            SyntheticConfig(height=2, fanout=2, doc_size=100)

    def test_some_queries_match_indexed_documents(self):
        cfg = SyntheticConfig(height=4, fanout=3, doc_size=12, seed=11)
        gen = SyntheticGenerator(cfg)
        index = VistIndex(SequenceEncoder())
        for doc in gen.documents(50):
            index.add(doc)
        hits = sum(
            1 for q in gen.queries(20, size=3) if index.query(q)
        )
        assert hits > 0


class TestDblp:
    def test_record_shape(self):
        gen = DblpGenerator(DblpConfig(seed=1))
        records = list(gen.records(50))
        assert len(records) == 50
        for record in records:
            assert record.label in {
                "article", "inproceedings", "book", "incollection", "phdthesis"
            }
            assert "key" in record.attributes
            labels = {c.label for c in record.children}
            assert "author" in labels and "title" in labels and "year" in labels

    def test_maier_book_planted(self):
        gen = DblpGenerator(DblpConfig(seed=1))
        first = next(iter(gen.records(5)))
        assert first.attributes["key"] == MAIER_KEY

    def test_no_planting_when_disabled(self):
        gen = DblpGenerator(DblpConfig(seed=1, plant_targets=False))
        keys = [r.attributes["key"] for r in gen.records(20)]
        assert MAIER_KEY not in keys

    def test_depth_at_most_6(self):
        gen = DblpGenerator(DblpConfig(seed=2))
        for record in gen.records(50):
            assert XmlDocument(record).root.expanded().depth() <= 6

    def test_average_sequence_length_near_paper(self):
        """DBLP sequences average ≈ 31 items in the paper; stay in range."""
        gen = DblpGenerator(DblpConfig(seed=3))
        encoder = SequenceEncoder()
        lengths = [len(encoder.encode_node(r)) for r in gen.records(200)]
        mean = sum(lengths) / len(lengths)
        assert 10 <= mean <= 40

    def test_david_rate_controls_selectivity(self):
        low = DblpGenerator(DblpConfig(seed=4, david_rate=0.0, plant_targets=False))
        authors = [
            c.text
            for r in low.records(100)
            for c in r.children
            if c.label == "author"
        ]
        assert "David" not in authors

    def test_table3_queries_have_answers(self):
        gen = DblpGenerator(DblpConfig(seed=5, david_rate=0.05))
        index = VistIndex(SequenceEncoder())
        for record in gen.records(150):
            index.add(record)
        assert index.query("/inproceedings/title")
        assert index.query("/book/author[text='David']")
        assert index.query("/*/author[text='David']")
        assert index.query("//author[text='David']")
        assert index.query(f"/book[key='{MAIER_KEY}']/author") == [0]


class TestXmark:
    def test_record_kinds(self):
        gen = XmarkGenerator(XmarkConfig(seed=1))
        kinds = set()
        for record in gen.records(80):
            assert record.label == "site"
            node = record
            while node.children:
                node = node.children[0]
                kinds.add(node.label)
        assert {"item", "person", "open_auction", "closed_auction"} <= kinds

    def test_single_kind(self):
        gen = XmarkGenerator(XmarkConfig(seed=2))
        for record in gen.records(20, kind="item"):
            assert any(True for _ in record.find_all("item"))

    def test_unknown_kind(self):
        gen = XmarkGenerator()
        with pytest.raises(DatasetError):
            gen.record("widget", 0)

    def test_table3_queries_have_answers(self):
        cfg = XmarkConfig(
            seed=3, us_rate=0.5, target_date_rate=0.3, pocatello_rate=0.3,
            person1_rate=0.3,
        )
        gen = XmarkGenerator(cfg)
        index = VistIndex(SequenceEncoder())
        for record in gen.records(300):
            index.add(record)
        q6 = index.query(
            f"/site//item[location='US']/mail/date[text='{TARGET_DATE}']"
        )
        q7 = index.query("/site//person/*/city[text='Pocatello']")
        q8 = index.query(
            f"//closed_auction[*[person='person1']]/date[text='{TARGET_DATE}']"
        )
        assert q6, "Q6 should have matches at these rates"
        assert q7, "Q7 should have matches at these rates"
        assert q8, "Q8 should have matches at these rates"

    def test_queries_agree_with_verification(self):
        gen = XmarkGenerator(XmarkConfig(seed=4, target_date_rate=0.3, person1_rate=0.2))
        index = VistIndex(SequenceEncoder())
        for record in gen.records(150):
            index.add(record)
        for expr in [
            f"/site//item[location='US']/mail/date[text='{TARGET_DATE}']",
            "/site//person/*/city[text='Pocatello']",
        ]:
            raw = index.query(expr)
            verified = index.query(expr, verify=True)
            assert set(verified) <= set(raw)
            assert verified == index.query(expr, verify=True)

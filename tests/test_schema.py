"""Tests for the generators' schemas and for corpus statistics."""

import pytest

from repro.datasets.schema import ChildSpec, Occurs, Schema
from repro.doc.model import XmlDocument, XmlNode
from repro.doc.stats import CorpusStats
from repro.errors import SchemaError


class TestSchemaConstruction:
    def test_element_and_lookup(self):
        s = Schema("root")
        s.element("root", [ChildSpec("a"), ChildSpec("b", Occurs.MANY)])
        decl = s.require("root")
        assert decl.child("a").occurs == Occurs.ONE
        assert decl.child("b").repeatable
        assert s.get("missing") is None
        with pytest.raises(SchemaError):
            s.require("missing")

    def test_duplicate_child_rejected(self):
        s = Schema("r")
        with pytest.raises(SchemaError):
            s.element("r", [ChildSpec("a"), ChildSpec("a")])

    def test_prob_defaults_follow_cardinality(self):
        assert ChildSpec("x", Occurs.ONE).prob == 1.0
        assert ChildSpec("x", Occurs.OPT).prob == 0.5
        assert ChildSpec("x", Occurs.PLUS).prob == 1.0

    def test_prob_validation(self):
        with pytest.raises(SchemaError):
            ChildSpec("x", prob=1.5)
        with pytest.raises(SchemaError):
            ChildSpec("x", mean_repeats=0.5)

    def test_repeat_continue_prob(self):
        spec = ChildSpec("x", Occurs.MANY, mean_repeats=4.0)
        assert spec.repeat_continue_prob() == pytest.approx(0.75)
        assert ChildSpec("y").repeat_continue_prob() == 0.0

    def test_occurrence_prob_lookup(self):
        s = Schema("purchase")
        s.element("purchase", [ChildSpec("seller"), ChildSpec("buyer")])
        s.element("seller", [ChildSpec("item", Occurs.MANY)])
        assert s.occurrence_prob("purchase", "seller") == 1.0
        assert 0 < s.occurrence_prob("seller", "item") < 1.0
        assert s.occurrence_prob("seller", "undeclared") == 0.1
        assert s.occurrence_prob("nowhere", "x") == 0.5  # default


class TestCorpusStats:
    def make_doc(self) -> XmlDocument:
        root = XmlNode("purchase")
        seller = root.element("seller", ID="s1")
        seller.element("item").element("name", text="cpu")
        seller.element("item").element("name", text="disk")
        return XmlDocument(root)

    def test_observe_counts(self):
        stats = CorpusStats()
        stats.observe(self.make_doc())
        assert stats.documents == 1
        assert stats.nodes > 5
        assert stats.max_depth >= 4

    def test_expected_fanout(self):
        stats = CorpusStats()
        stats.observe(self.make_doc())
        assert stats.expected_fanout("seller") == pytest.approx(3.0)  # ID + 2 items
        assert stats.expected_fanout("unseen", default=7.0) == 7.0

    def test_distinct_values(self):
        stats = CorpusStats()
        stats.observe(self.make_doc())
        assert stats.distinct_values("name") == 2
        assert stats.distinct_values("unseen", default=9) == 9

    def test_mean_nodes(self):
        stats = CorpusStats()
        assert stats.mean_nodes_per_document() == 0.0
        stats.observe(self.make_doc())
        stats.observe(self.make_doc())
        assert stats.mean_nodes_per_document() == stats.nodes / 2

    def test_labels_listing(self):
        stats = CorpusStats()
        stats.observe(self.make_doc())
        assert "seller" in stats.labels()
        assert "item" in stats.labels()

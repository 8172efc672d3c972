"""Tests for the baseline indexes: labels, joins, and full-query agreement
with ViST on every query shape the paper benchmarks."""

import random

import pytest

from repro.baselines.apex import ApexIndex
from repro.baselines.joins import merge_doc_ids, structural_semijoin
from repro.baselines.labels import Occurrence, sequence_occurrences
from repro.baselines.nodeindex import XissIndex
from repro.baselines.pathindex import PathIndex
from repro.doc.model import XmlNode
from repro.index.vist import VistIndex
from repro.sequence.transform import SequenceEncoder
from tests.conftest import (
    build_figure3_record,
    build_record,
)


class TestOccurrenceLabels:
    def test_simple_tree(self):
        root = XmlNode("a")
        root.element("b", text="v")
        root.element("c")
        seq = SequenceEncoder().encode_node(root)
        # preorder: a, b, h(v), c
        occs = sequence_occurrences(seq, doc_id=7)
        by_symbol = {sym: occ for sym, _, occ in occs}
        a = by_symbol["a"]
        b = by_symbol["b"]
        c = by_symbol["c"]
        assert a == Occurrence(7, 0, 3, 0)
        assert b == Occurrence(7, 1, 2, 1)
        assert c == Occurrence(7, 3, 3, 1)
        assert a.contains(b) and a.contains(c)
        assert a.is_parent_of(b)
        assert not b.contains(c)

    def test_value_leaf_is_its_own_subtree(self):
        root = XmlNode("a", text="v")
        seq = SequenceEncoder().encode_node(root)
        occs = sequence_occurrences(seq, doc_id=0)
        (_, _, a), (_, _, leaf) = occs
        assert leaf.start == leaf.end == 1
        assert a.is_parent_of(leaf)

    def test_deep_nesting_ends(self):
        root = XmlNode("a")
        root.element("b").element("c")
        root.element("d")
        seq = SequenceEncoder().encode_node(root)
        occs = {sym: occ for sym, _, occ in sequence_occurrences(seq, 0)}
        assert occs["a"].end == 3
        assert occs["b"].end == 2
        assert occs["c"].end == 2  # c is b's only child; subtree = itself


class TestStructuralJoin:
    def occ(self, doc, start, end, level):
        return Occurrence(doc, start, end, level)

    def test_ancestor_descendant(self):
        anc = [self.occ(0, 0, 10, 0), self.occ(1, 0, 10, 0)]
        desc = [self.occ(0, 5, 5, 3)]
        assert structural_semijoin(anc, desc) == [anc[0]]

    def test_parent_child_level_filter(self):
        anc = [self.occ(0, 0, 10, 0)]
        grandchild = [self.occ(0, 5, 5, 2)]
        child = [self.occ(0, 4, 6, 1)]
        assert structural_semijoin(anc, grandchild, parent_child=True) == []
        assert structural_semijoin(anc, child, parent_child=True) == anc

    def test_parent_child_skips_nonmatching_then_finds(self):
        anc = [self.occ(0, 0, 10, 0)]
        inner = [self.occ(0, 2, 2, 3), self.occ(0, 5, 5, 1)]
        assert structural_semijoin(anc, inner, parent_child=True) == anc

    def test_empty_inputs(self):
        assert structural_semijoin([], [self.occ(0, 1, 1, 1)]) == []
        assert structural_semijoin([self.occ(0, 0, 1, 0)], []) == []

    def test_doc_boundary(self):
        anc = [self.occ(0, 0, 10, 0)]
        desc = [self.occ(1, 5, 5, 1)]
        assert structural_semijoin(anc, desc) == []

    def test_merge_doc_ids(self):
        occs = [self.occ(3, 0, 1, 0), self.occ(1, 0, 1, 0), self.occ(3, 2, 2, 1)]
        assert merge_doc_ids(occs) == {1, 3}


BASELINE_FACTORIES = {"path": PathIndex, "xiss": XissIndex, "apex": ApexIndex}


@pytest.fixture(params=sorted(BASELINE_FACTORIES))
def baseline(request):
    encoder = SequenceEncoder()
    return BASELINE_FACTORIES[request.param](encoder)


class TestBaselineQueries:
    @pytest.fixture
    def loaded(self, baseline):
        ids = {}
        ids["fig3"] = baseline.add(build_figure3_record())
        ids["bos_ny"] = baseline.add(build_record("boston", "newyork", ["intel"]))
        ids["bos_la"] = baseline.add(build_record("boston", "losangeles", ["amd"]))
        ids["sf_ny"] = baseline.add(
            build_record("sanfrancisco", "newyork", ["intel", "ibm"])
        )
        return baseline, ids

    def test_single_path(self, loaded):
        index, ids = loaded
        got = index.query("/P/S/I/M")
        assert got == sorted([ids["fig3"], ids["bos_ny"], ids["bos_la"], ids["sf_ny"]])

    def test_path_with_value(self, loaded):
        index, ids = loaded
        assert index.query("/P/S/L[text='boston']") == sorted(
            [ids["fig3"], ids["bos_ny"], ids["bos_la"]]
        )

    def test_branching(self, loaded):
        index, ids = loaded
        got = index.query("/P[S[L='boston']]/B[L='newyork']")
        assert got == sorted([ids["fig3"], ids["bos_ny"]])

    def test_star(self, loaded):
        index, ids = loaded
        got = index.query("/P/*[L='newyork']")
        assert got == sorted([ids["fig3"], ids["bos_ny"], ids["sf_ny"]])

    def test_dslash(self, loaded):
        index, ids = loaded
        got = index.query("/P//I[M='part#2']")
        assert got == [ids["fig3"]]

    def test_leading_dslash(self, loaded):
        index, ids = loaded
        got = index.query("//L[text='boston']")
        assert got == sorted([ids["fig3"], ids["bos_ny"], ids["bos_la"]])

    def test_no_match(self, loaded):
        index, _ = loaded
        assert index.query("/P/S/I[M='nope']") == []
        assert index.query("/Z") == []

    def test_join_counters_track_effort(self, loaded):
        index, _ = loaded
        before = index.join_count
        index.query("/P[S[L='boston']]/B[L='newyork']")
        assert index.join_count > before

    def test_raw_path_uses_no_joins_on_pathindex(self, loaded):
        index, _ = loaded
        if not isinstance(index, PathIndex):
            pytest.skip("path-index-specific")
        before = index.join_count
        index.query("/P/S/L[text='boston']")
        assert index.join_count == before  # single lookup, no joins


class TestBaselinesAgreeWithVist:
    """Randomised agreement: both baselines return exactly ViST's verified
    results (baselines are join-based, hence exact — no false positives)."""

    LABELS = ["a", "b", "c"]
    VALUES = ["x", "y"]

    def random_doc(self, rng: random.Random) -> XmlNode:
        root = XmlNode("r")
        nodes = [root]
        for _ in range(rng.randint(1, 9)):
            parent = rng.choice(nodes)
            child = parent.element(rng.choice(self.LABELS))
            if rng.random() < 0.4:
                child.text = rng.choice(self.VALUES)
            nodes.append(child)
        return root

    QUERIES = [
        "/r/a",
        "/r/a/b",
        "/r[a]/b",
        "/r//c",
        "/r/*/b",
        "//b[text='x']",
        "/r[a/b]/c",
        "/r/a[text='y']",
        "/r//b[text='x']",
    ]

    def test_agreement(self):
        rng = random.Random(7)
        docs = [self.random_doc(rng) for _ in range(30)]
        vist = VistIndex(SequenceEncoder())
        path = PathIndex(SequenceEncoder())
        xiss = XissIndex(SequenceEncoder())
        apex = ApexIndex(SequenceEncoder())
        for doc in docs:
            vist.add(doc)
            path.add(doc)
            xiss.add(doc)
            apex.add(doc)
        for expr in self.QUERIES:
            truth = vist.query(expr, verify=True)
            assert path.query(expr) == truth, expr
            assert xiss.query(expr) == truth, expr
            assert apex.query(expr) == truth, expr

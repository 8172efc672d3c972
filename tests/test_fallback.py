"""Tests for the footnote-2 fallback: relax → raw match → verify."""

import pytest

from repro.doc.model import XmlNode
from repro.errors import TranslationError
from repro.index.naive import NaiveIndex
from repro.index.vist import VistIndex
from repro.query.translate import MAX_ALTERNATIVES, relax_query_tree
from repro.query.xpath import parse_xpath
from repro.sequence.transform import SequenceEncoder
from repro.testing.reference import reference_results

# five same-label branches: 5! = 120 permutations > the cap of 24
WIDE_QUERY = "/A[B/C][B/D][B/E][B/F]/B/G"


def doc_with(*grandchildren: str) -> XmlNode:
    a = XmlNode("A")
    for label in grandchildren:
        a.element("B").element(label)
    return a


class TestRelaxQueryTree:
    def test_same_label_branches_collapse(self):
        root = parse_xpath(WIDE_QUERY)
        relaxed = relax_query_tree(root)
        b_children = [c for c in relaxed.children if c.label == "B"]
        assert len(b_children) == 1

    def test_largest_branch_survives(self):
        root = parse_xpath("/A[B/C/D/E]/B")  # first branch is deeper
        relaxed = relax_query_tree(root)
        (branch,) = relaxed.children
        assert branch.children  # the deep branch, not the bare /B

    def test_relaxation_preserves_values(self):
        root = parse_xpath("/A[text='v']/B[text='w']")
        relaxed = relax_query_tree(root)
        assert relaxed.value == "v"
        assert relaxed.children[0].value == "w"

    def test_wildcards_deduplicated(self):
        # wildcard-only siblings: the largest wildcard branch survives
        root = parse_xpath("/A[*[x]][*/y/z]")
        relaxed = relax_query_tree(root)
        stars = [c for c in relaxed.children if c.is_wildcard]
        assert len(stars) == 1
        assert len(relaxed.children) == 1

    def test_wildcard_branch_dropped_beside_concrete_sibling(self):
        """A wildcard branch may bind the same node as a concrete sibling
        (its items land *inside* the sibling's subtree in document
        order), so relaxation must drop it, not try to place it."""
        root = parse_xpath("/A[*[x]][*[y]]/B")
        relaxed = relax_query_tree(root)
        assert [c.label for c in relaxed.children] == ["B"]

    def test_relaxed_is_weaker(self):
        """Every doc matching the original matches the relaxed query."""
        from repro.index.verification import verify_document
        from repro.sequence.vocabulary import ValueHasher

        encoder = SequenceEncoder()
        original = parse_xpath(WIDE_QUERY)
        relaxed = relax_query_tree(original)
        hasher = ValueHasher()
        full = doc_with("C", "D", "E", "F", "G")
        partial = doc_with("C", "D")
        for doc in (full, partial):
            seq = encoder.encode_node(doc)
            if verify_document(seq, original, hasher):
                assert verify_document(seq, relaxed, hasher)


class TestQueryFallback:
    def make_index(self) -> VistIndex:
        return VistIndex(SequenceEncoder())

    def test_translation_error_without_fallback(self):
        index = self.make_index()
        index.add(doc_with("C", "D", "E", "F", "G"))
        with pytest.raises(TranslationError, match=f"cap {MAX_ALTERNATIVES}"):
            index.query(WIDE_QUERY, fallback=False)

    def test_fallback_returns_exact_results(self):
        index = self.make_index()
        yes = index.add(doc_with("C", "D", "E", "F", "G"))
        index.add(doc_with("C", "D", "E", "F"))  # missing G
        index.add(doc_with("G"))
        assert index.query(WIDE_QUERY) == [yes]

    def test_fallback_matches_unconstrained_translator(self):
        """The fallback result equals the reference evaluator's answer,
        which no translation cap bounds."""
        index = self.make_index()
        docs = [
            doc_with("C", "D", "E", "F", "G"),
            doc_with("G", "F", "E", "D", "C"),
            doc_with("C", "G"),
            doc_with("C", "D", "F", "G"),
            doc_with("C", "D", "E", "F", "G", "G"),
        ]
        assert index.add_all(docs) == list(range(len(docs)))
        want = reference_results(docs, parse_xpath(WIDE_QUERY), index.encoder.hasher)
        assert want == [0, 1, 4]
        assert index.query(WIDE_QUERY) == want
        assert index.query(WIDE_QUERY, verify=True) == want

    def test_fallback_applies_to_naive_index_too(self):
        index = NaiveIndex(SequenceEncoder())
        yes = index.add(doc_with("C", "D", "E", "F", "G"))
        index.add(doc_with("C"))
        assert index.query(WIDE_QUERY) == [yes]

    def test_small_queries_unaffected(self):
        index = self.make_index()
        doc_id = index.add(doc_with("C", "D"))
        assert index.query("/A[B/C]/B/D") == [doc_id]

"""Tests for query translation — reproduces paper Table 2 exactly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TranslationError
from repro.query.ast import Dslash, QueryNode, Star
from repro.query.translate import MAX_ALTERNATIVES, QueryTranslator, raw_is_exact
from repro.query.xpath import parse_xpath
from repro.testing.generator import DocQueryGenerator


@pytest.fixture
def translator():
    return QueryTranslator()


def shapes(seq):
    """(symbol, prefix-shape) pairs where wildcards render as '*' / '//'."""
    out = []
    for item in seq:
        prefix = tuple(
            "*" if isinstance(t, Star) else "//" if isinstance(t, Dslash) else t
            for t in item.prefix
        )
        out.append((item.symbol, prefix))
    return out


class TestTable2:
    def test_q1_single_path(self, translator):
        (seq,) = translator.translate(parse_xpath("/P/S/I/M"))
        assert shapes(seq) == [
            ("P", ()),
            ("S", ("P",)),
            ("I", ("P", "S")),
            ("M", ("P", "S", "I")),
        ]

    def test_q2_branching(self, translator):
        h = translator.encoder.hasher
        (seq,) = translator.translate(
            parse_xpath("/P[S[L='boston']]/B[L='newyork']")
        )
        # Table 2 spells Q2 in the drawing's order, S first; the data
        # transform sorts siblings by label, so B comes first here
        assert shapes(seq) == [
            ("P", ()),
            ("B", ("P",)),
            ("L", ("P", "B")),
            (h("newyork"), ("P", "B", "L")),
            ("S", ("P",)),
            ("L", ("P", "S")),
            (h("boston"), ("P", "S", "L")),
        ]

    def test_q3_star(self, translator):
        h = translator.encoder.hasher
        (seq,) = translator.translate(parse_xpath("/P/*[L='boston']"))
        assert shapes(seq) == [
            ("P", ()),
            ("L", ("P", "*")),
            (h("boston"), ("P", "*", "L")),
        ]

    def test_q4_dslash(self, translator):
        h = translator.encoder.hasher
        (seq,) = translator.translate(parse_xpath("/P//I[M='part#1']"))
        assert shapes(seq) == [
            ("P", ()),
            ("I", ("P", "//")),
            ("M", ("P", "//", "I")),
            (h("part#1"), ("P", "//", "I", "M")),
        ]

    def test_wildcard_tokens_share_identity(self, translator):
        (seq,) = translator.translate(parse_xpath("/P/*[L='boston']"))
        star_of_l = seq[1].prefix[1]
        star_of_value = seq[2].prefix[1]
        assert isinstance(star_of_l, Star)
        assert star_of_l == star_of_value  # same wildcard node => same wid


class TestQ5Permutations:
    def test_same_label_branches_expand(self, translator):
        seqs = translator.translate(parse_xpath("/A[B/C]/B/D"))
        assert len(seqs) == 2
        rendered = {tuple(shapes(s)) for s in seqs}
        assert (
            ("A", ()),
            ("B", ("A",)),
            ("C", ("A", "B")),
            ("B", ("A",)),
            ("D", ("A", "B")),
        ) in rendered
        assert (
            ("A", ()),
            ("B", ("A",)),
            ("D", ("A", "B")),
            ("B", ("A",)),
            ("C", ("A", "B")),
        ) in rendered

    def test_identical_branches_dedupe(self, translator):
        seqs = translator.translate(parse_xpath("/A[B/C]/B/C"))
        assert len(seqs) == 1

    def test_three_way_permutation(self, translator):
        seqs = translator.translate(parse_xpath("/A[B/C][B/D]/B/E"))
        assert len(seqs) == 6

    def test_alternative_cap(self, translator):
        # four same-label branches make 4! = 24 sequences, at the cap;
        # five make 120, past it
        assert MAX_ALTERNATIVES == 24
        four = translator.translate(parse_xpath("/A[B/C][B/D][B/E]/B/F"))
        assert len(four) == MAX_ALTERNATIVES
        with pytest.raises(TranslationError, match="120 sequence alternatives"):
            translator.translate(parse_xpath("/A[B/C][B/D][B/E][B/F]/B/G"))


class TestWildcardBranchPlacement:
    def test_q8_style_wildcard_branch_floats(self, translator):
        """A wildcard branch may fall before or after concrete siblings."""
        seqs = translator.translate(parse_xpath("/c[*[p='x']]/d"))
        assert len(seqs) == 2
        orders = set()
        for seq in seqs:
            labels = [s for s, _ in shapes(seq)]
            orders.add(tuple(str(l) for l in labels[1:2]))
        # one alternative emits p-under-* first, the other emits d first
        first_symbols = {shapes(seq)[1][0] for seq in seqs}
        assert first_symbols == {"p", "d"}

    def test_cap_stops_the_placement_enumeration(self, translator):
        """Ten wildcard branches would place 10! ways; the cap refuses at
        the fifth branch (5! = 120), before enumerating the rest."""
        query = parse_xpath("/r" + "".join(f"[*/x{i}]" for i in range(10)))
        with pytest.raises(TranslationError, match="expands to 120 sequence"):
            translator.translate(query)

    def test_wildcard_value_predicate_emits_placeholder_item(self, translator):
        h = translator.encoder.hasher
        q = QueryNode("a")
        q.add(QueryNode("*", value="x"))
        (seq,) = translator.translate(q)
        assert shapes(seq) == [("a", ()), (h("x"), ("a", "*"))]


class TestSiblingOrderConsistency:
    def test_branches_follow_label_order(self, translator):
        """Branch order in the query matches the data transform's order."""
        (seq,) = translator.translate(parse_xpath("/P[S]/B"))
        labels = [s for s, _ in shapes(seq)]
        assert labels == ["P", "B", "S"]

    def test_lexicographic_without_schema(self, translator):
        (seq,) = translator.translate(parse_xpath("/r[z]/a"))
        labels = [item.symbol for item in seq]
        assert labels == ["r", "a", "z"]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_concrete_children_of_a_star_keep_label_order(self, translator, k):
        """Sibling order does not depend on the parent's label, so the
        branches of a ``*`` node have one order: the same as under any
        concrete parent."""
        labels = ["year", "url", "title", "pages", "author"][:k]
        steps = "".join(f"[{label}]" for label in labels)
        (seq,) = translator.translate(parse_xpath(f"/dblp/*{steps}"))
        assert [s for s, _ in shapes(seq)] == ["dblp"] + sorted(labels)
        (concrete,) = translator.translate(parse_xpath(f"/dblp/article{steps}"))
        assert [s for s, _ in shapes(concrete)] == ["dblp", "article"] + sorted(labels)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_raw_exact_queries_translate_to_one_sequence(self, seed):
        """A query whose raw answer is exact has exactly one sequence: no
        same-label or wildcard branch leaves an order open."""
        translator = QueryTranslator()
        generator = DocQueryGenerator(seed)
        corpus = generator.corpus(4)
        for _ in range(8):
            query = generator.query(corpus)
            if raw_is_exact(query):
                assert len(translator.translate(query)) == 1, query.to_xpath()

    def test_min_prefix_len(self, translator):
        (seq,) = translator.translate(parse_xpath("/P//I"))
        item = seq[1]
        assert item.min_prefix_len == 1  # 'P' counts, '//' may be empty
        assert not item.is_exact_len
        (seq2,) = translator.translate(parse_xpath("/P/*/L"))
        assert seq2[1].min_prefix_len == 2
        assert seq2[1].is_exact_len


@pytest.mark.parametrize(
    "xpath",
    [
        "/dblp/*[author][title][year][pages][url]",
        "/dblp/*[author][key][pages][title][year]",
    ],
)
def test_five_branch_star_answers_on_dblp(xpath):
    """Five concrete branches under ``*`` translate to one sequence, not
    5! = 120 orderings past the cap, and answer the reference, raw and
    exact, on DBLP records kept under their ``dblp`` spine."""
    from repro.datasets.dblp import DblpConfig, DblpGenerator
    from repro.doc.model import XmlNode
    from repro.index.vist import VistIndex
    from repro.testing.reference import reference_results

    docs = []
    for record in DblpGenerator(DblpConfig(seed=4)).records(80):
        spine = XmlNode("dblp")
        spine.add(record)
        docs.append(spine)
    index = VistIndex()
    assert index.add_all(docs) == list(range(len(docs)))
    query = parse_xpath(xpath)
    assert len(index.translator.translate(query)) == 1
    want = reference_results(docs, query, index.encoder.hasher)
    assert index.query(xpath, fallback=False) == want
    assert index.query(xpath, verify=True) == want
    if "url" not in xpath:
        assert len(want) > 10

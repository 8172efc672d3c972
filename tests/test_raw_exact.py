"""Exact mode that answers from the index: the ``raw_is_exact``
classifier, the routing it drives in ``query(verify=True)``, and what
stays true of the queries that still verify."""

import random

import pytest

from repro.dbdir import close_index, open_index
from repro.doc.model import XmlNode
from repro.doc.parser import parse_document
from repro.errors import CorruptionError, QueryError
from repro.index.naive import NaiveIndex
from repro.index.rist import RistIndex
from repro.index.verification import find_result_nodes, verify_document
from repro.index.vist import VistIndex
from repro.obs.trace import QueryTrace
from repro.query.ast import QueryNode
from repro.query.translate import raw_is_exact
from repro.query.xpath import parse_xpath
from repro.sequence.transform import SequenceEncoder
from repro.storage.docstore import MemoryDocStore
from repro.testing.generator import DocQueryGenerator
from repro.testing.reference import reference_results

HASHER = SequenceEncoder().hasher


def raw_answer(index, query):
    """Plain subsequence matching, with none of ``query()``'s routing
    (``query(verify=False)`` verifies ``/a/*`` on its own); ``None`` for
    a query with no sequence form (all-wildcard, or past the cap)."""
    found: set[int] = set()
    try:
        alternatives = index.translator.translate(query)
    except QueryError:  # TranslationError is one
        return None
    for alternative in alternatives:
        found |= index.match_sequence(alternative)
    return sorted(found)


def build(docs, factory=VistIndex, **kwargs):
    index = factory(SequenceEncoder(), **kwargs)
    roots = [parse_document(d).root if isinstance(d, str) else d for d in docs]
    assert index.add_all(roots) == list(range(len(roots)))
    return index, roots


# -- the rule, clause by clause ------------------------------------------------

# query the rule refuses -> a document on which raw matching is wrong for it
COUNTER_EXAMPLES = {
    # a non-root node with two constraints: two B's share the path A/B
    "/A/B[C][D]": "<A><B><C/></B><B><D/></B></A>",
    # ... also under a `//` root, which binds no node at all
    "//a[b][c]": "<r><a><b/></a><a><c/></a></r>",
    # a value and a child are two constraints too
    "/r/b[text='v']/d": "<r><b>v</b><b><d/></b></r>",
    # same-label branches: raw wants two a's, XPath is happy with one
    "/r[a/c]/a/d": "<r><a><c/><d/></a></r>",
    # a wildcard branch may bind the node its sibling binds
    "/r[*/b][a/c]": "<r><a><b/><c/></a></r>",
    # a childless wildcard vanishes in translation
    "/a/*": "<a/>",
}

POSITIVES = [
    "/r[a='v']/b",
    "/*[a='v']/b",
    "//a/b[text='v']",
    "/r//a/*/c[text='v']",
    "/r[text='v'][a][b/c]",
]


@pytest.mark.parametrize("xpath", sorted(COUNTER_EXAMPLES))
def test_each_clause_has_a_counter_example(xpath):
    query = parse_xpath(xpath)
    assert not raw_is_exact(query)
    index, roots = build([COUNTER_EXAMPLES[xpath]])
    assert raw_answer(index, query) != reference_results(roots, query, HASHER)
    # which is why exact mode still verifies it
    assert index.query(query, verify=True) == reference_results(roots, query, HASHER)
    assert not index.explain(query).raw_exact


def test_other_refusals():
    for xpath in ["/*", "//*", "/*[text='v']", "/a[b>'3']", "/a/b[text!='v']"]:
        assert not raw_is_exact(parse_xpath(xpath)), xpath
    assert not raw_is_exact(QueryNode("a", [QueryNode("//")]))  # a childless `//`
    two_under_dslash = parse_xpath("//a")
    two_under_dslash.add(QueryNode("b"))  # a `//` root with two children
    assert not raw_is_exact(two_under_dslash)


@pytest.mark.parametrize("xpath", POSITIVES)
def test_pinned_positives(xpath):
    query = parse_xpath(xpath)
    assert raw_is_exact(query)
    docs = [
        "<r><a>v</a><b/></r>",
        "<r><a>w</a><b/></r>",
        "<r><a>v</a></r>",
        "<q><a>v</a><b>v</b></q>",
        "<r><x><a><y><c>v</c></y></a></x></r>",
        "<r><a><c>v</c></a></r>",
        "<r>v<a/><b><c/></b></r>",
        "<r>v<a/><b/><c/></r>",
        "<x><a><b>v</b></a></x>",
        "<a><b>v</b></a>",
    ]
    index, roots = build(docs)
    want = reference_results(roots, query, HASHER)
    assert want, "the corpus must hold an answer"
    assert raw_answer(index, query) == want
    assert index.query(query, verify=True) == want


def planted_corpus(seed: int, count: int = 40) -> list[XmlNode]:
    """The corpora of benchmarks/bench_false_positives.py: true matches of
    /A/B[C][D] among documents that meet it only across two B's."""
    rng = random.Random(seed)
    docs = []
    for _ in range(count):
        a = XmlNode("A")
        if rng.random() < 0.3:
            b = a.element("B")
            b.element("C")
            b.element("D")
        else:
            a.element("B").element("C")
            a.element("B").element("D")
        docs.append(a)
    return docs


PLANTED_QUERIES = ["/A/B[C][D]", "/A/B/C", "/A[B/C]/B/D", "//B[C]", "/A/B[C]", "/*/B/D", "//D"]


def sweep(seeds) -> tuple[int, int, int]:
    """``raw_is_exact(q)`` implies raw answer == reference answer, over
    generator queries on small-alphabet corpora; returns how many were
    (drawn, classified raw-exact, not classified and in fact inexact)."""
    drawn = classified = inexact_others = 0
    for seed in seeds:
        labels = ("a", "b", "c") if seed % 2 else ("a", "b", "c", "d")
        generator = DocQueryGenerator(seed, labels=labels)
        corpus = generator.corpus(6, 12)
        index, _ = build(corpus)
        for _ in range(10):
            query = generator.query(corpus)
            drawn += 1
            want = reference_results(corpus, query, HASHER)
            raw = raw_answer(index, query)
            if raw_is_exact(query):
                classified += 1
                assert raw == want, (seed, query.to_xpath())
            elif raw is not None and raw != want:
                inexact_others += 1
    return drawn, classified, inexact_others


def test_raw_exact_queries_equal_the_reference_first_seeds():
    _, classified, _ = sweep(range(30))
    assert classified >= 90


@pytest.mark.slow
def test_raw_exact_queries_equal_the_reference_sweep():
    """On corpora built to break raw matching — and the classifier says
    yes often enough to matter (always answering "verify" passes the
    implication)."""
    drawn, classified, inexact_others = sweep(range(520))
    for seed in range(5):
        corpus = planted_corpus(seed)
        index, _ = build(corpus)
        for xpath in PLANTED_QUERIES:
            query = parse_xpath(xpath)
            if raw_is_exact(query):
                want = reference_results(corpus, query, HASHER)
                assert raw_answer(index, query) == want, (seed, xpath)
    assert drawn >= 5000
    assert classified >= 0.3 * drawn, (classified, drawn)
    assert inexact_others > 0  # the corpora do break raw matching


# -- routing: what query(verify=True) reads ------------------------------------


class CountingDocStore(MemoryDocStore):
    def __init__(self) -> None:
        super().__init__()
        self.gets: list[int] = []

    def get(self, doc_id: int) -> bytes:
        self.gets.append(doc_id)
        return super().get(doc_id)


TWIG_DOCS = [
    "<A><B><C/><D/></B></A>",
    "<A><B><C/></B><B><D/></B></A>",
    "<A><B><C/></B></A>",
    "<A><B><D/><C/></B><B/></A>",
    "<A><B><C/></B><B><D/></B><B/></A>",
]


@pytest.mark.parametrize("factory", [VistIndex, RistIndex, NaiveIndex])
def test_docstore_reads_follow_the_routing(factory):
    store = CountingDocStore()
    index, roots = build(TWIG_DOCS, factory, docstore=store)
    store.gets.clear()
    for xpath in ["/A/B/C", "/A[B]", "//D", "/*/B/D"]:
        query = parse_xpath(xpath)
        assert index.query(query, verify=True) == reference_results(roots, query, HASHER)
        assert store.gets == [], xpath
    # a twig: one read per candidate, in ascending id order
    twig = parse_xpath("/A/B[C][D]")
    assert index.query(twig, verify=True) == [0, 3]
    assert store.gets == [0, 1, 3, 4] == raw_answer(index, twig)
    # relaxed candidates and `/a/*` keep verifying too
    for xpath, candidates in [("/A[B/C]/B/D", [0, 1, 2, 3, 4]), ("/A/B/*", [0, 1, 2, 3, 4])]:
        store.gets.clear()
        query = parse_xpath(xpath)
        assert index.query(query, verify=True) == reference_results(roots, query, HASHER)
        assert store.gets == candidates, xpath
    # raw mode never consults the classifier, nor the docstore
    store.gets.clear()
    assert index.query(twig) == [0, 1, 3, 4]
    assert store.gets == []


def test_routing_counters_trace_and_plan():
    index, _ = build(TWIG_DOCS)
    trace = QueryTrace()
    index.query("/A/B/C", verify=True, trace=trace)
    (span,) = trace.roots
    assert span.meta["verify"] == "skipped: raw-exact"
    assert "verify" not in [child.name for child in span.children]
    trace = QueryTrace()
    index.query("/A/B[C][D]", verify=True, trace=trace)
    (span,) = trace.roots
    assert "verify" not in span.meta
    verify_span = span.children[-1]
    assert verify_span.name == "verify" and verify_span.meta == {"candidates": 4, "verified": 2}
    index.query("/A/B/C")  # raw: not an exact-mode query at all
    index.query("/A/B/*")  # auto-verified: exact without being asked
    queries = index.metrics.snapshot()["queries"]
    assert queries["total"] == 4
    assert queries["exact"] == 3
    assert queries["verify_skipped"] == 1
    assert queries["verified_candidates"] == 4 + 5
    assert "exact from the index (no verification)" in str(index.explain("/A/B/C"))
    assert "no verification" not in str(index.explain("/A/B[C][D]"))


def test_explain_flag_prints_the_routing(tmp_path, capsys):
    from repro.cli import main

    xml = tmp_path / "a.xml"
    xml.write_text("<A><B><C/></B></A>")
    db = str(tmp_path / "db")
    main(["index", db, str(xml)])
    capsys.readouterr()
    assert main(["query", db, "/A/B/C", "--verify", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "exact from the index (no verification)" in out
    assert "verify=skipped: raw-exact" in out


# -- a damaged docstore record ---------------------------------------------------


def test_flipped_docstore_byte_is_never_answered_silently(tmp_path):
    index = open_index(tmp_path)
    roots = [parse_document(d).root for d in TWIG_DOCS]
    index.add_all(roots)
    offset = index.docstore._offsets[1]  # the record of doc 1, a twig candidate
    close_index(index)
    with open(tmp_path / "docs.dat", "r+b") as fh:
        fh.seek(offset + 12)  # past the record header, inside the payload
        byte = fh.read(1)
        fh.seek(offset + 12)
        fh.write(bytes([byte[0] ^ 0xFF]))
    index = open_index(tmp_path)
    try:
        # answered from the index: the damaged record is not on the path
        path = parse_xpath("/A/B/C")
        assert index.query(path, verify=True) == reference_results(roots, path, HASHER)
        assert index.health.ok
        # the twig must load doc 1: loud, or degraded and still right
        twig = parse_xpath("/A/B[C][D]")
        try:
            got = index.query(twig, verify=True)
        except CorruptionError:
            return
        assert not index.health.ok
        assert got == [0, 3]
    finally:
        index.docstore.close()
        index.source_store.close()
        index._pager.close()


# -- query_nodes: one load per candidate ------------------------------------------


def test_result_nodes_are_empty_exactly_when_verification_rejects():
    """What lets query_nodes take candidates instead of verified answers."""
    encoder = SequenceEncoder()
    accepted = 0
    for seed in range(60):
        generator = DocQueryGenerator(seed)
        corpus = generator.corpus(5, 10)
        sequences = [encoder.encode_node(doc) for doc in corpus]
        for _ in range(6):
            query = generator.query(corpus)
            for sequence in sequences:
                ok = verify_document(sequence, query, encoder.hasher)
                accepted += ok
                assert (find_result_nodes(sequence, query, encoder.hasher) != []) == ok, (
                    seed, query.to_xpath(),
                )
    assert accepted > 100


def test_query_nodes_loads_each_candidate_once():
    store = CountingDocStore()
    index, _ = build(TWIG_DOCS, docstore=store)
    store.gets.clear()
    assert index.query_nodes("/A/B[C][D]") == {0: [1], 3: [1]}
    assert store.gets == [0, 1, 3, 4]
    store.gets.clear()
    assert sorted(index.query_nodes("/A/B/D")) == [0, 1, 3, 4]
    assert store.gets == [0, 1, 3, 4]


# -- the payload decoder the verifier reads ------------------------------------------


def test_remove_still_reads_its_labels_from_the_payload():
    index, _ = build(TWIG_DOCS)
    payload = index.docstore.get(1)
    sequence, labels = index._parse_payload(payload)
    assert len(labels) == len(sequence) == 5
    assert index._payload_to_sequence(payload) == sequence == index.load_sequence(1)
    index.remove(1)
    assert index.query("/A/B[C][D]", verify=True) == [0, 3]
    assert index.query("/A/B/C", verify=True) == [0, 2, 3, 4]

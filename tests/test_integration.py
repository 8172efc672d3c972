"""Cross-module integration and property tests.

These exercise the whole pipeline — documents → sequences → dynamic
labelling → B+Trees → matching — under random workloads, persistence
cycles, and injected storage corruption.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.doc.model import XmlNode
from repro.errors import CodecError, PageError, StorageError
from repro.index.naive import NaiveIndex
from repro.index.vist import VistIndex
from repro.sequence.transform import SequenceEncoder
from repro.storage.docstore import FileDocStore
from repro.storage.wal import WalPager

LABELS = ["a", "b", "c"]
VALUES = ["x", "y"]
QUERIES = [
    "/r/a",
    "/r//b",
    "/r/*/c",
    "/r[a]/b",
    "//c[text='x']",
    "/r/a[text='y']",
]


def random_doc(rng: random.Random) -> XmlNode:
    root = XmlNode("r")
    nodes = [root]
    for _ in range(rng.randint(1, 7)):
        parent = rng.choice(nodes)
        child = parent.element(rng.choice(LABELS))
        if rng.random() < 0.4:
            child.text = rng.choice(VALUES)
        nodes.append(child)
    return root


def oracle_results(live_docs: dict[int, XmlNode], expr: str) -> list[int]:
    """Ground truth for *raw* ViST semantics: the naïve trie algorithm."""
    naive = NaiveIndex(SequenceEncoder())
    mapping = {}
    for doc_id, doc in sorted(live_docs.items()):
        mapping[naive.add(doc)] = doc_id
    return sorted(mapping[n] for n in naive.query(expr))


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "remove", "query"]), st.randoms(use_true_random=False)),
        min_size=1,
        max_size=25,
    )
)
def test_stateful_add_remove_query_matches_oracle(ops):
    """Random interleavings of add/remove/query agree with the naïve
    oracle over the live documents at every query point."""
    index = VistIndex(SequenceEncoder())
    live: dict[int, XmlNode] = {}
    for op, rng in ops:
        if op == "add" or not live:
            doc = random_doc(rng)
            live[index.add(doc)] = doc
        elif op == "remove":
            victim = rng.choice(sorted(live))
            index.remove(victim)
            del live[victim]
        else:
            expr = rng.choice(QUERIES)
            assert index.query(expr) == oracle_results(live, expr), expr
    # final full check over every query
    for expr in QUERIES:
        assert index.query(expr) == oracle_results(live, expr), expr


class TestPersistenceCycles:
    def test_results_survive_multiple_reopen_cycles(self, tmp_path):
        rng = random.Random(11)
        docs = [random_doc(rng) for _ in range(30)]
        expected = {}

        index = VistIndex(
            SequenceEncoder(),
            docstore=FileDocStore(tmp_path / "docs.dat"),
            pager=WalPager(tmp_path / "vist.db"),
        )
        for doc in docs[:10]:
            index.add(doc)
        for expr in QUERIES:
            expected[expr] = index.query(expr)
        index.flush()
        index.close()
        index.docstore.close()

        for round_no in range(3):
            index = VistIndex(
                SequenceEncoder(),
                docstore=FileDocStore(tmp_path / "docs.dat"),
                pager=WalPager(tmp_path / "vist.db"),
            )
            for expr in QUERIES:
                assert index.query(expr) == expected[expr], (round_no, expr)
            for doc in docs[10 + round_no * 5 : 15 + round_no * 5]:
                index.add(doc)
            for expr in QUERIES:
                expected[expr] = index.query(expr)
            index.flush()
            index.close()
            index.docstore.close()

    def test_buffered_file_index_equals_memory_index(self, tmp_path):
        rng = random.Random(12)
        docs = [random_doc(rng) for _ in range(40)]
        mem = VistIndex(SequenceEncoder())
        on_file = VistIndex(
            SequenceEncoder(),
            pager=WalPager(tmp_path / "v.db", page_size=1024),
            max_label=1 << 64,
        )
        for doc in docs:
            mem.add(doc)
            on_file.add(doc)
        for expr in QUERIES:
            assert mem.query(expr) == on_file.query(expr), expr

    def test_remove_survives_reopen(self, tmp_path):
        encoder = SequenceEncoder()
        index = VistIndex(
            encoder,
            docstore=FileDocStore(tmp_path / "docs.dat"),
            pager=WalPager(tmp_path / "vist.db"),
        )
        doc = XmlNode("r")
        doc.element("a", text="y")
        keep = XmlNode("r")
        keep.element("b")
        gone_id = index.add(doc)
        keep_id = index.add(keep)
        index.flush()
        index.close()
        index.docstore.close()

        index = VistIndex(
            encoder,
            docstore=FileDocStore(tmp_path / "docs.dat"),
            pager=WalPager(tmp_path / "vist.db"),
        )
        index.remove(gone_id)
        assert index.query("/r/a[text='y']") == []
        assert index.query("/r/b") == [keep_id]
        index.flush()
        index.close()
        index.docstore.close()

        index = VistIndex(
            encoder,
            docstore=FileDocStore(tmp_path / "docs.dat"),
            pager=WalPager(tmp_path / "vist.db"),
        )
        assert index.query("/r/a[text='y']") == []
        assert index.query("/r/b") == [keep_id]


class TestFailureInjection:
    def test_corrupt_page_file_detected(self, tmp_path):
        path = tmp_path / "vist.db"
        pager = WalPager(path)
        index = VistIndex(SequenceEncoder(), pager=pager)
        index.add(XmlNode("r", text="v"))
        index.flush()
        index.close()
        # clobber the magic number
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(PageError):
            WalPager(path)

    def test_truncated_docstore_detected(self, tmp_path):
        path = tmp_path / "docs.dat"
        store = FileDocStore(path)
        store.add(b"a perfectly fine payload")
        store.close()
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(StorageError):
            FileDocStore(path)

    def test_garbage_node_state_detected(self):
        from repro.labeling.dynamic import NodeState

        with pytest.raises(CodecError):
            NodeState.from_bytes(5, b"\x00\x01")

    def test_oversized_document_rejected_atomically(self):
        from repro.errors import KeyTooLargeError

        index = VistIndex(SequenceEncoder())
        deep = XmlNode("segment" + "x" * 33)
        node = deep
        for i in range(1, 25):
            node = node.element(f"segment{'x' * 25}{i:08d}")
        entries_before = len(index.tree)
        docs_before = len(index.docstore)
        with pytest.raises(KeyTooLargeError):
            index.add(deep)
        # nothing was half-written
        assert len(index.tree) == entries_before
        assert len(index.docstore) == docs_before

    def test_index_still_usable_after_rejected_add(self):
        from repro.errors import KeyTooLargeError

        index = VistIndex(SequenceEncoder())
        ok = XmlNode("r")
        ok.element("a")
        good_id = index.add(ok)
        deep = XmlNode("x" * 1000)  # 2**128 labels leave room for 925 characters
        with pytest.raises(KeyTooLargeError):
            index.add(deep)
        assert index.query("/r/a") == [good_id]

"""RIST-specific tests: finalize, trie release, sizes, label reuse."""

import pytest

from repro.errors import IndexStateError
from repro.index.rist import RistIndex
from repro.index.vist import VistIndex
from repro.sequence.transform import SequenceEncoder
from tests.conftest import build_figure3_record, build_record


def make_index() -> RistIndex:
    return RistIndex(SequenceEncoder())


class TestLifecycle:
    def test_finalize_is_idempotent(self):
        index = make_index()
        index.add(build_figure3_record())
        index.finalize()
        entries = len(index.tree)
        index.finalize()
        assert len(index.tree) == entries

    def test_query_triggers_finalize(self):
        index = make_index()
        doc_id = index.add(build_figure3_record())
        assert index.query("/P/S") == [doc_id]  # no explicit finalize()

    def test_release_trie_frees_memory_keeps_queries(self):
        index = make_index()
        doc_id = index.add(build_record("boston", "newyork", ["intel"]))
        index.release_trie()
        assert index.trie is None
        assert index.trie_node_count() == 0
        assert index.query("/P[S[L='boston']]") == [doc_id]

    def test_release_then_finalize_raises(self):
        index = make_index()
        index.add(build_figure3_record())
        index.release_trie()
        index.trie = None
        index._root_scope = None  # simulate a stale handle
        with pytest.raises(IndexStateError):
            index.finalize()

    def test_remove_unsupported(self):
        index = make_index()
        doc_id = index.add(build_figure3_record())
        with pytest.raises(IndexStateError):
            index.remove(doc_id)


class TestStats:
    def test_index_stats_and_trie_count(self):
        index = make_index()
        for loc in ["boston", "austin"]:
            index.add(build_record(loc, "newyork", ["intel"]))
        index.finalize()
        stats = index.index_stats()
        assert stats["combined"].entries > 10
        assert stats["docid"].entries == 2
        assert index.trie_node_count() > 10

    def test_shared_sequences_share_trie_nodes(self):
        index = make_index()
        index.add(build_record("boston", "newyork", ["intel"]))
        index.add(build_record("boston", "newyork", ["intel"]))
        index.finalize()
        # identical records share every trie node: one entry per node,
        # plus the max-depth metadata entry
        assert index.trie_node_count() + 1 == index.index_stats()["combined"].entries
        assert index.index_stats()["docid"].entries == 2


class TestEquivalenceWithVist:
    QUERIES = [
        "/P/S/I/M",
        "/P[S[L='boston']]/B[L='newyork']",
        "/P/*[L='boston']",
        "/P//I[M='intel']",
    ]

    def test_same_results_as_vist(self):
        encoder = SequenceEncoder()
        rist = RistIndex(encoder)
        vist = VistIndex(encoder)
        docs = [
            build_figure3_record(),
            build_record("boston", "newyork", ["intel", "amd"]),
            build_record("austin", "boston", []),
        ]
        for doc in docs:
            rist.add(doc)
            vist.add(doc)
        for expr in self.QUERIES:
            assert rist.query(expr) == vist.query(expr), expr

"""ViST-specific tests: dynamic insertion, deletion, underflow, persistence."""

import pytest

from repro.doc.model import XmlNode
from repro.errors import IndexStateError, ScopeUnderflowError
from repro.index.rist import RistIndex
from repro.index.store import RESERVED_KEYS, ROOT_KEY
from repro.index.vist import VistIndex
from repro.labeling.dynamic import LambdaAllocator
from repro.sequence.transform import SequenceEncoder
from repro.storage.docstore import FileDocStore
from repro.storage.wal import WalPager
from repro.testing.invariants import assert_invariants
from tests.conftest import build_figure3_record, build_record


def make_index(**kwargs) -> VistIndex:
    return VistIndex(SequenceEncoder(), **kwargs)


class TestFigure3:
    def test_stored_in_label_order(self):
        """The Figure 3 record is stored with its siblings in label order
        (paper Section 2 without a DTD): B before S under P, and a query
        written in the drawing's order, S first, still finds it."""
        index = make_index()
        doc_id = index.add(build_figure3_record())
        labels = [i.symbol for i in index.load_sequence(doc_id) if not i.is_value]
        assert labels == list("PBLNSIIMMNINLN")
        assert index.query("/P[S[L='boston']]/B[L='newyork']") == [doc_id]
        assert index.query("/P/*[L='newyork']") == [doc_id]


class TestDynamicInsertion:
    def test_insert_then_query_interleaved(self):
        index = make_index()
        a = index.add(build_record("boston", "newyork", ["intel"]))
        assert index.query("/P[S[L='boston']]") == [a]
        b = index.add(build_record("boston", "austin", ["amd"]))
        got = index.query("/P[S[L='boston']]")
        assert got == sorted([a, b])

    def test_rist_rejects_insert_after_query(self):
        index = RistIndex(SequenceEncoder())
        index.add(build_record("boston", "newyork", ["intel"]))
        index.query("/P")
        with pytest.raises(IndexStateError):
            index.add(build_record("boston", "austin", ["amd"]))

    def test_shared_node_survives_removing_either(self):
        """The (P, ()) node is shared by both documents: removing either
        keeps it for the other, removing both reclaims it."""
        from repro.index.store import decode_node_key

        def p_nodes(index):
            return [
                key
                for key, _ in index.tree.items()
                if key not in RESERVED_KEYS and decode_node_key(key)[0] == "P"
            ]

        for first in (0, 1):
            index = make_index()
            ids = [
                index.add(build_record("boston", "newyork", ["intel"])),
                index.add(build_record("boston", "newyork", ["amd"])),
            ]
            shared = p_nodes(index)
            assert len(shared) == 1
            survivor = ids[1 - first]
            index.remove(ids[first])
            assert p_nodes(index) == shared
            assert index.query("/P[S[L='boston']]") == [survivor]
            assert_invariants(index)
            index.remove(survivor)
            assert p_nodes(index) == []
            assert_invariants(index)

    def test_empty_sequence_rejected(self):
        from repro.sequence.encoding import StructureEncodedSequence

        index = make_index()
        with pytest.raises(IndexStateError):
            index.add_sequence(StructureEncodedSequence([]))

    def test_labels_unique_without_refcounting(self):
        """Regression: parents whose child counts advance must be written
        back even though no document count is stored on them, or later
        insertions reuse the same scopes and labels collide across
        nodes."""
        from repro.index.store import ROOT_KEY, decode_node_key

        index = make_index()
        for loc in ["boston", "austin", "dallas", "miami"]:
            index.add(build_record(loc, "newyork", ["intel", "amd"]))
            index.add(build_figure3_record())
        labels = [
            decode_node_key(key)[2]
            for key, _ in index.tree.items()
            if key != ROOT_KEY and decode_node_key(key)[2] != 0
        ]
        assert len(labels) == len(set(labels))

    def test_query_results_match_naive_without_refcounting(self):
        from repro.index.naive import NaiveIndex
        from repro.sequence.transform import SequenceEncoder as SE

        vist = make_index()
        naive = NaiveIndex(SE())
        for loc in ["boston", "austin", "boston", "dallas"]:
            record = build_record(loc, "newyork", ["intel"])
            vist.add(record)
            naive.add(record)
        for expr in ["/P[S[L='boston']]", "/P//I[M='intel']", "/P/*[L='newyork']"]:
            assert vist.query(expr) == naive.query(expr)

    def test_insertion_order_does_not_change_results(self):
        docs = [
            build_record("boston", "newyork", ["intel", "amd"]),
            build_record("austin", "boston", []),
            build_figure3_record(),
            build_record("newyork", "newyork", ["ibm"]),
        ]
        queries = ["/P[S[L='boston']]", "/P//I[M='intel']", "/P/*[L='newyork']"]

        def results(order):
            index = make_index()
            names = {}
            for i in order:
                names[index.add(docs[i])] = i
            return [
                sorted(names[d] for d in index.query(q)) for q in queries
            ]

        assert results([0, 1, 2, 3]) == results([3, 2, 1, 0]) == results([2, 0, 3, 1])


class TestDeletion:
    def test_remove_hides_document(self):
        index = make_index()
        a = index.add(build_record("boston", "newyork", ["intel"]))
        b = index.add(build_record("boston", "austin", ["intel"]))
        index.remove(a)
        assert index.query("/P//I[M='intel']") == [b]
        assert len(index) == 1

    def test_remove_reclaims_unshared_entries(self):
        from repro.index.store import META_FORMAT_KEY, META_MAX_DEPTH_KEY

        index = make_index()
        a = index.add(build_record("boston", "newyork", ["intel"]))
        index.remove(a)
        # only the root state, the format stamp and the max-depth metadata survive
        remaining = {k for k, _ in index.tree.items()}
        assert remaining == {ROOT_KEY, META_FORMAT_KEY, META_MAX_DEPTH_KEY}
        assert len(index.docid_tree) == 0

    def test_remove_keeps_shared_entries(self):
        index = make_index()
        a = index.add(build_record("boston", "newyork", ["intel"]))
        b = index.add(build_record("boston", "newyork", ["intel"]))
        index.remove(a)
        assert index.query("/P[S[L='boston']]") == [b]

    def test_reinsert_after_remove(self):
        index = make_index()
        a = index.add(build_record("boston", "newyork", ["intel"]))
        index.remove(a)
        c = index.add(build_record("boston", "newyork", ["intel"]))
        assert index.query("/P[S[L='boston']]") == [c]

    def test_remove_unknown_doc(self):
        index = make_index()
        with pytest.raises(Exception):
            index.remove(12345)


class TestWritePattern:
    """What an add and a remove write to the combined tree.  Liveness is
    not stored, so an add puts only the parent whose child count moved
    (and a lender), and a remove only deletes."""

    def test_adds_put_one_parent_and_removes_only_delete(self):
        from collections import Counter

        from repro.datasets.dblp import DblpConfig, DblpGenerator
        from repro.index.store import node_key

        records = list(DblpGenerator(DblpConfig(seed=36)).records(2000))
        index = VistIndex(SequenceEncoder())
        index.add_batch(records[:1600], durability="none")
        tree = index.tree
        puts, inserts, deletes = [], [], []
        nested = [0]  # put() deletes and inserts: log the put only

        def counting(log, method):
            def wrapper(key, *args, **kwargs):
                if key not in RESERVED_KEYS and not nested[0]:
                    log.append(key)
                nested[0] += 1
                try:
                    return method(key, *args, **kwargs)
                finally:
                    nested[0] -= 1

            return wrapper

        tree.put = counting(puts, tree.put)
        tree.insert = counting(inserts, tree.insert)
        tree.delete = counting(deletes, tree.delete)
        added = []
        for record in records[1600:]:
            puts.clear()
            borrows = index.underflow_count
            added.append(index.add(record))
            assert len(puts) <= 1 + index.underflow_count - borrows
        assert not deletes

        paths = {
            doc_id: index._parse_payload(index.docstore.get(doc_id))
            for doc_id in index.docstore.ids()
        }
        traversals = Counter(n for _seq, labels in paths.values() for n in labels)
        removed = 0
        for doc_id in added[::4] + list(range(0, 1600, 16)):
            puts.clear()
            deletes.clear()
            sequence, labels = paths.pop(doc_id)
            traversals.subtract(labels)
            index.remove(doc_id)
            assert not puts
            dead = {
                node_key(item.symbol, item.prefix, n)
                for item, n in zip(sequence, labels)
                if not traversals[n]
            }
            assert sorted(deletes) == sorted(dead)
            removed += len(dead)
        assert removed  # the removals did reclaim nodes
        assert_invariants(index)


class TestScopeUnderflow:
    def chain_doc(self, depth: int) -> XmlNode:
        root = XmlNode("c0")
        node = root
        for i in range(1, depth):
            node = node.element(f"c{i}")
        node.text = "leaf"
        return root

    def test_deep_chain_triggers_borrowing(self):
        # a tiny root scope forces underflow quickly
        index = VistIndex(
            SequenceEncoder(),
            allocator=LambdaAllocator(reserve_divisor=2),
            max_label=1 << 24,
        )
        doc_id = index.add(self.chain_doc(24))
        assert index.underflow_count >= 1
        assert index.query("/c0/c1/c2") == [doc_id]
        deep_path = "/" + "/".join(f"c{i}" for i in range(24))
        assert index.query(deep_path) == [doc_id]

    def test_borrowed_nodes_not_shared(self):
        index = VistIndex(
            SequenceEncoder(),
            allocator=LambdaAllocator(reserve_divisor=2),
            max_label=1 << 24,
        )
        a = index.add(self.chain_doc(24))
        b = index.add(self.chain_doc(24))  # identical structure
        assert index.underflow_count >= 2
        deep_path = "/" + "/".join(f"c{i}" for i in range(24))
        assert index.query(deep_path) == sorted([a, b])

    def test_borrowed_docs_can_be_removed(self):
        index = VistIndex(
            SequenceEncoder(),
            allocator=LambdaAllocator(reserve_divisor=2),
            max_label=1 << 24,
        )
        a = index.add(self.chain_doc(24))
        b = index.add(self.chain_doc(20))
        index.remove(a)
        assert index.query("/c0/c1") == [b]

    @pytest.mark.parametrize("batched", [False, True])
    def test_borrow_unmakes_the_nodes_it_abandons(self, batched):
        """Nodes an insert created below its lender are traversed by no
        document; none may stay on the tree, or it would outlive its
        parent once the borrowing document is removed."""
        index = VistIndex(
            SequenceEncoder(),
            allocator=LambdaAllocator(reserve_divisor=2),
            max_label=1 << 24,
        )
        docs = [self.chain_doc(depth) for depth in (24, 20, 24, 22)]
        if batched:
            ids = index.add_batch(docs, batch_size=2, durability="none")
        else:
            ids = [index.add(doc) for doc in docs]
        assert index.underflow_count >= 2
        assert_invariants(index)  # every entry is traversed by a document
        for doc_id in ids:
            index.remove(doc_id)
            assert_invariants(index)
        assert all(key in RESERVED_KEYS for key, _ in index.tree.items())

    def test_total_exhaustion_raises(self):
        index = VistIndex(
            SequenceEncoder(),
            allocator=LambdaAllocator(reserve_divisor=2),
            max_label=64,
        )
        with pytest.raises(ScopeUnderflowError):
            for i in range(200):
                index.add(self.chain_doc(12))

    def test_no_underflow_with_roomy_scope(self):
        index = make_index()
        for loc in ["boston", "austin", "dallas"]:
            index.add(build_record(loc, "newyork", ["intel", "amd"]))
        assert index.underflow_count == 0


class TestPersistence:
    def test_reopen_from_disk(self, tmp_path):
        pager_path = tmp_path / "vist.db"
        docs_path = tmp_path / "docs.dat"
        encoder = SequenceEncoder()

        index = VistIndex(
            encoder,
            docstore=FileDocStore(docs_path),
            pager=WalPager(pager_path),
        )
        a = index.add(build_record("boston", "newyork", ["intel"]))
        index.flush()
        index.close()
        index.docstore.close()

        reopened = VistIndex(
            encoder,
            docstore=FileDocStore(docs_path),
            pager=WalPager(pager_path),
        )
        assert reopened.query("/P[S[L='boston']]") == [a]
        # dynamic insertion continues across sessions
        b = reopened.add(build_record("boston", "austin", ["amd"]))
        assert reopened.query("/P[S[L='boston']]") == sorted([a, b])
        reopened.close()
        reopened.docstore.close()

    def test_index_stats_shape(self):
        index = make_index()
        for loc in ["boston", "austin"]:
            index.add(build_record(loc, "newyork", ["intel"]))
        stats = index.index_stats()
        assert stats["combined"].entries > 10
        assert stats["docid"].entries == 2

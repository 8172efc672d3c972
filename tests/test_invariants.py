"""Invariant checkers: green on healthy indexes, loud on corruption.

The positive tests cover fresh, reopened, mutated and underflow-stressed
indexes; the negative tests corrupt live structures in memory and assert
the matching checker reports a violation (a checker that cannot fail
checks nothing).
"""

import pytest

from repro.doc.model import XmlNode
from repro.index.store import RESERVED_KEYS, decode_node_key, label_key, node_key
from repro.index.vist import VistIndex
from repro.labeling.dynamic import NodeState
from repro.sequence.transform import SequenceEncoder
from repro.storage.bptree import BPlusTree, _Internal, _Leaf
from repro.storage.pager import MemoryPager
from repro.storage.wal import WalPager
from repro.testing.generator import DocQueryGenerator
from repro.testing.invariants import (
    assert_invariants,
    check_bptree,
    check_index,
    check_posting_coherence,
    check_vist_documents,
    check_vist_scopes,
)


def small_corpus(seed: int = 3, count: int = 12) -> list[XmlNode]:
    return DocQueryGenerator(seed).corpus(count, 10)


def build_index(**kwargs) -> VistIndex:
    index = VistIndex(SequenceEncoder(), **kwargs)
    index.add_all(small_corpus())
    return index


def first_leaf(tree: BPlusTree) -> _Leaf:
    node = tree._node(tree._root_pid)
    while isinstance(node, _Internal):
        node = tree._node(node.children[0])
    return node


class TestHealthyIndexes:
    def test_fresh_index_all_green(self):
        index = build_index()
        index.query("//a", verify=True)  # warm the posting cache
        reports = assert_invariants(index)
        assert all(report.ok for report in reports)
        assert sum(report.checked for report in reports) > 0
        names = {report.name for report in reports}
        assert names == {
            "bptree:combined",
            "bptree:docid",
            "vist:scopes",
            "vist:documents",
            "postings:coherence",
        }

    def test_after_removals_green(self):
        index = build_index()
        for doc_id in list(index.docstore.ids())[::2]:
            index.remove(doc_id)
        assert_invariants(index)

    def test_reopened_index_green(self, tmp_path):
        db = tmp_path / "inv.db"
        index = VistIndex(SequenceEncoder(), pager=WalPager(db))
        docs = small_corpus()
        index.add_all(docs)
        index.flush()
        payloads = [index.docstore.get(d) for d in index.docstore.ids()]
        index.tree.close()
        index.docid_tree.close()
        index._pager.close()

        reopened = VistIndex(SequenceEncoder(), pager=WalPager(db))
        # the default in-memory docstore does not survive reopen; refill
        # it so the document checker has payloads to compare against
        for payload in payloads:
            reopened.docstore.add(payload)
        try:
            assert_invariants(reopened)
        finally:
            reopened.close()

    def test_underflow_borrowing_still_green(self):
        # a tiny label space forces reserve borrowing (private chains)
        index = VistIndex(SequenceEncoder(), max_label=1 << 24)
        index.add_all(small_corpus(seed=5, count=10))
        assert index.underflow_count > 0
        assert_invariants(index)


class TestBPlusTreeCorruption:
    def make_tree(self) -> BPlusTree:
        tree = BPlusTree(MemoryPager(page_size=256))
        for i in range(200):
            tree.insert(f"k{i:05d}".encode(), str(i).encode())
        assert check_bptree(tree).ok
        return tree

    def test_out_of_order_leaf_detected(self):
        tree = self.make_tree()
        leaf = first_leaf(tree)
        leaf.entries[0], leaf.entries[1] = leaf.entries[1], leaf.entries[0]
        report = check_bptree(tree)
        assert not report.ok
        assert any("out of order" in v for v in report.violations)

    def test_count_mismatch_detected(self):
        tree = self.make_tree()
        tree._count += 1
        report = check_bptree(tree)
        assert any("count mismatch" in v for v in report.violations)

    def test_broken_leaf_chain_detected(self):
        tree = self.make_tree()
        first_leaf(tree).next = 0
        report = check_bptree(tree)
        assert any("leaf chain broken" in v for v in report.violations)

    def test_separator_bound_violation_detected(self):
        tree = self.make_tree()
        leaf = first_leaf(tree)
        # a key far past every separator, smuggled into the leftmost leaf
        leaf.entries.append((b"zzzzzz", b"x"))
        report = check_bptree(tree)
        assert any("separator bound" in v for v in report.violations)

    def test_front_coding_drift_detected(self):
        """The accounting the page layout relies on: a drift would
        otherwise surface only as a failed commit."""
        tree = self.make_tree()
        leaf = first_leaf(tree)
        leaf._used += 1
        report = check_bptree(tree)
        assert any("accounts" in v and "encodes to" in v for v in report.violations)

        tree = self.make_tree()
        leaf = first_leaf(tree)
        leaf.shared[0] = 1
        leaf.shared[2] -= 1
        report = check_bptree(tree)
        assert any("first cell shares 1 bytes" in v for v in report.violations)
        assert any("cell 2 shares" in v for v in report.violations)


def _tamper_node(index: VistIndex, mutate) -> None:
    """Decode one non-root combined-tree entry, mutate it, write it back."""
    for key, value in index.tree.items():
        if key in RESERVED_KEYS:
            continue
        _symbol, _prefix, n = decode_node_key(key)
        state = NodeState.from_bytes(n, value)
        mutate(state)
        index.tree.put(key, state.to_bytes())
        return
    raise AssertionError("index has no tamperable entries")


class TestVistCorruption:
    def test_missing_parent_detected(self):
        index = build_index()

        def orphan(state: NodeState) -> None:
            state.parent_n = 10**15  # no such node

        _tamper_node(index, orphan)
        report = check_vist_scopes(index)
        assert any("missing parent" in v for v in report.violations)

    def test_dead_node_detected(self):
        """A node planted in free space of a live parent's scope, with no
        DocId key under it, is dead — ``remove`` would reclaim it — and a
        traversed node whose scope lost its DocId key is reported too."""
        index = build_index()
        for key, value in index.tree.items():
            if key in RESERVED_KEYS:
                continue
            symbol, prefix, n = decode_node_key(key)
            # place() on a fresh decode carves the parent's next free
            # child scope without touching the stored state
            scope = index.allocator.place(NodeState.from_bytes(n, value), None, None)
            if scope is not None:
                break
        dead = NodeState(scope, parent_n=n)
        index.tree.insert(node_key(symbol, prefix, scope.n), dead.to_bytes())
        assert check_vist_scopes(index).ok  # well-formed, only dead
        report = check_vist_documents(index)
        assert any(
            v.startswith(f"node {scope.n} ") and "no document traverses" in v
            for v in report.violations
        )

        index = build_index()
        _sequence, labels = index._parse_payload(index.docstore.get(0))
        index.docid_tree.delete(label_key(labels[-1]))
        report = check_vist_documents(index)
        assert any(
            v.startswith(f"node {labels[-1]} ") and "holds no DocId key" in v
            for v in report.violations
        )

    def test_stale_posting_cache_detected(self):
        index = build_index()
        index.query("//a", verify=True)
        assert index.postings is not None and index.postings._groups
        key = next(iter(index.postings._groups))
        group = index.postings._groups[key]
        assert len(group)
        group.ends = group.ends[:-1]
        report = check_posting_coherence(index)
        assert not report.ok


class TestCheckIndexDispatch:
    def test_reports_cover_all_layers(self):
        index = build_index(posting_cache_size=0)
        names = [report.name for report in check_index(index)]
        assert "postings:coherence" not in names  # cache disabled
        assert "vist:scopes" in names

    def test_assert_invariants_raises_with_summary(self):
        index = build_index()

        def orphan(state: NodeState) -> None:
            state.parent_n = 10**15

        _tamper_node(index, orphan)
        with pytest.raises(AssertionError, match="vist:scopes"):
            assert_invariants(index)


class TestCliCheck:
    def test_check_command_green_and_red(self, tmp_path, capsys):
        from repro.cli import main

        xml = tmp_path / "doc.xml"
        xml.write_text("<r><a>one</a><b k='2'>two</b></r>")
        db = tmp_path / "db"
        assert main(["index", str(db), str(xml)]) == 0
        assert main(["check", str(db)]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out

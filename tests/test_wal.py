"""Crash-safety tests for the write-ahead-logged pager."""

import os

import pytest

from repro.errors import PageError
from repro.storage.bptree import BPlusTree
from repro.storage.wal import WalPager


class TestBasicPagerBehaviour:
    def test_pager_contract(self, tmp_path):
        pager = WalPager(tmp_path / "w.db", page_size=256)
        a = pager.allocate()
        pager.write(a, b"hello")
        assert pager.read(a)[:5] == b"hello"
        pager.set_metadata(b"meta")
        assert pager.get_metadata() == b"meta"
        pager.free(a)
        assert pager.allocate() == a  # recycled
        pager.close()

    def test_commit_then_reopen(self, tmp_path):
        pager = WalPager(tmp_path / "w.db", page_size=256)
        pid = pager.allocate()
        pager.write(pid, b"durable")
        pager.set_metadata(b"m1")
        pager.commit()
        pager.close()
        again = WalPager(tmp_path / "w.db")
        assert again.read(pid)[:7] == b"durable"
        assert again.get_metadata() == b"m1"
        again.close()

    def test_rollback_discards_changes(self, tmp_path):
        pager = WalPager(tmp_path / "w.db", page_size=256)
        pid = pager.allocate()
        pager.write(pid, b"keep")
        pager.commit()
        pager.write(pid, b"drop")
        pager.set_metadata(b"drop-meta")
        pager.rollback()
        assert pager.read(pid)[:4] == b"keep"
        assert pager.get_metadata() == b""
        pager.close()

    def test_dirty_page_count(self, tmp_path):
        pager = WalPager(tmp_path / "w.db", page_size=256)
        assert pager.dirty_page_count == 0
        pid = pager.allocate()
        pager.write(pid, b"x")
        assert pager.dirty_page_count == 2  # page + header
        pager.commit()
        assert pager.dirty_page_count == 0
        pager.close()


class TestCrashRecovery:
    def populate(self, path):
        pager = WalPager(path, page_size=256)
        pid = pager.allocate()
        pager.write(pid, b"v1")
        pager.commit()
        return pager, pid

    def test_crash_after_journal_before_apply(self, tmp_path):
        """Journal written + fsynced, main file untouched: replay wins."""
        path = tmp_path / "w.db"
        pager, pid = self.populate(path)
        pager.write(pid, b"v2")
        pager._write_journal()  # step 1 of commit only — simulated crash here
        pager._file.close()

        recovered = WalPager(path)
        assert recovered.read(pid)[:2] == b"v2"
        assert not os.path.exists(recovered.journal_path)
        recovered.close()

    def test_crash_during_journal_write(self, tmp_path):
        """A torn journal (no commit marker) is discarded: old state wins."""
        path = tmp_path / "w.db"
        pager, pid = self.populate(path)
        pager.write(pid, b"v2")
        pager._write_journal()
        # chop the tail: the commit marker (and some bytes) never hit disk
        with open(pager.journal_path, "r+b") as journal:
            journal.truncate(os.path.getsize(pager.journal_path) - 11)
        pager._file.close()

        recovered = WalPager(path)
        assert recovered.read(pid)[:2] == b"v1"
        assert not os.path.exists(recovered.journal_path)
        recovered.close()

    def test_corrupted_journal_body_discarded(self, tmp_path):
        path = tmp_path / "w.db"
        pager, pid = self.populate(path)
        pager.write(pid, b"v2")
        pager._write_journal()
        raw = bytearray((tmp_path / "w.db.wal").read_bytes())
        raw[40] ^= 0xFF  # flip a bit inside the body: CRC must catch it
        (tmp_path / "w.db.wal").write_bytes(bytes(raw))
        pager._file.close()

        recovered = WalPager(path)
        assert recovered.read(pid)[:2] == b"v1"
        recovered.close()

    def test_replay_is_idempotent(self, tmp_path):
        """Crash after apply but before journal removal: replay re-applies."""
        path = tmp_path / "w.db"
        pager, pid = self.populate(path)
        pager.write(pid, b"v2")
        pager._write_journal()
        pager._apply_overlay()  # applied, but journal still on disk
        pager._file.close()

        recovered = WalPager(path)
        assert recovered.read(pid)[:2] == b"v2"
        recovered.close()


class TestBPlusTreeOnWal:
    def test_checkpoint_is_a_transaction(self, tmp_path):
        path = tmp_path / "w.db"
        pager = WalPager(path, page_size=256)
        tree = BPlusTree(pager)
        for i in range(150):
            tree.insert(f"k{i:04d}".encode(), b"v")
        tree.checkpoint()  # flush + pager.sync => commit
        # more inserts, never committed
        for i in range(150, 200):
            tree.insert(f"k{i:04d}".encode(), b"v")
        tree.flush()
        pager._file.close()  # crash: flush wrote the overlay, not the disk

        recovered = WalPager(path)
        tree2 = BPlusTree(recovered)
        assert len(tree2) == 150
        assert tree2.get(b"k0149") == b"v"
        assert tree2.get(b"k0150") is None
        recovered.close()

    def test_vist_index_on_wal_pager(self, tmp_path):
        from repro.doc.model import XmlNode
        from repro.index.vist import VistIndex
        from repro.sequence.transform import SequenceEncoder

        pager = WalPager(tmp_path / "vist.db")
        index = VistIndex(SequenceEncoder(), pager=pager)
        doc = XmlNode("r")
        doc.element("a", text="x")
        doc_id = index.add(doc)
        index.flush()  # commits through pager.sync()
        index.close()

        reopened = VistIndex(SequenceEncoder(), pager=WalPager(tmp_path / "vist.db"))
        assert reopened.query("/r/a[text='x']") == [doc_id]
        reopened.close()

    def test_min_page_size_enforced(self, tmp_path):
        with pytest.raises(PageError):
            WalPager(tmp_path / "w.db", page_size=32)

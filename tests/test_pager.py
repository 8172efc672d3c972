"""Tests for the page storage layer (the memory and the file pager)."""

import pytest

from repro.errors import PageError
from repro.storage.pager import MemoryPager
from repro.storage.wal import WalPager


@pytest.fixture(params=["memory", "wal"])
def pager(request, tmp_path):
    if request.param == "memory":
        p = MemoryPager(page_size=256)
    else:
        p = WalPager(tmp_path / "pages.db", page_size=256)
    yield p
    p.close()


class TestPagerContract:
    def test_allocate_returns_distinct_ids(self, pager):
        ids = [pager.allocate() for _ in range(10)]
        assert len(set(ids)) == 10
        assert all(i >= 1 for i in ids)

    def test_fresh_page_is_zeroed(self, pager):
        pid = pager.allocate()
        assert pager.read(pid) == b"\x00" * pager.page_size

    def test_write_read_roundtrip(self, pager):
        pid = pager.allocate()
        payload = bytes(range(200))
        pager.write(pid, payload)
        data = pager.read(pid)
        assert data[:200] == payload
        assert len(data) == pager.page_size

    def test_write_pads_short_payload(self, pager):
        pid = pager.allocate()
        pager.write(pid, b"xy")
        assert pager.read(pid)[:3] == b"xy\x00"

    def test_write_rejects_oversized(self, pager):
        pid = pager.allocate()
        with pytest.raises(PageError):
            pager.write(pid, b"z" * (pager.page_size + 1))

    def test_freed_page_is_recycled(self, pager):
        pid = pager.allocate()
        pager.write(pid, b"dead")
        pager.free(pid)
        again = pager.allocate()
        assert again == pid
        assert pager.read(again) == b"\x00" * pager.page_size

    def test_metadata_roundtrip(self, pager):
        assert pager.get_metadata() == b""
        pager.set_metadata(b"root=42")
        assert pager.get_metadata() == b"root=42"

    def test_read_unknown_page(self, pager):
        with pytest.raises(PageError):
            pager.read(999)

    def test_many_pages(self, pager):
        payloads = {}
        for i in range(50):
            pid = pager.allocate()
            payloads[pid] = bytes([i]) * 100
            pager.write(pid, payloads[pid])
        for pid, payload in payloads.items():
            assert pager.read(pid)[:100] == payload


class TestMemoryPager:
    def test_live_page_count(self):
        p = MemoryPager()
        a = p.allocate()
        p.allocate()
        assert p.live_page_count == 2
        p.free(a)
        assert p.live_page_count == 1
        assert p.page_count == 2

    def test_closed_pager_rejects_ops(self):
        p = MemoryPager()
        p.close()
        with pytest.raises(PageError):
            p.allocate()

    def test_min_page_size(self):
        with pytest.raises(PageError):
            MemoryPager(page_size=16)


class TestFilePager:
    """The one file pager, :class:`WalPager`, across close and reopen."""

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "p.db"
        p = WalPager(path, page_size=256)
        pid = p.allocate()
        p.write(pid, b"persisted")
        p.set_metadata(b"meta!")
        p.close()

        q = WalPager(path)
        assert q.page_size == 256
        assert q.read(pid)[:9] == b"persisted"
        assert q.get_metadata() == b"meta!"
        q.close()

    def test_freelist_persists(self, tmp_path):
        path = tmp_path / "p.db"
        p = WalPager(path, page_size=256)
        a = p.allocate()
        p.allocate()
        p.free(a)
        p.close()

        q = WalPager(path)
        assert q.allocate() == a
        q.close()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"not a page file, definitely" * 20)
        with pytest.raises(PageError):
            WalPager(path)

    def test_metadata_too_large(self, tmp_path):
        p = WalPager(tmp_path / "p.db", page_size=256)
        with pytest.raises(PageError):
            p.set_metadata(b"x" * 300)
        p.close()

    def test_rejects_a_v1_page_file_by_name(self, tmp_path):
        path = tmp_path / "old.db"
        p = WalPager(path, page_size=256)
        p.close()
        raw = bytearray(path.read_bytes())
        raw[:8] = b"ViSTPGR1"
        path.write_bytes(bytes(raw))
        with pytest.raises(PageError, match="legacy v1 page file"):
            WalPager(path)

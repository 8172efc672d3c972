"""Tests for the document stores."""

import pytest

from repro.errors import StorageError
from repro.storage.docstore import FileDocStore, MemoryDocStore


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        s = MemoryDocStore()
    else:
        s = FileDocStore(tmp_path / "docs.dat")
    yield s
    s.close()


class TestDocStoreContract:
    def test_add_assigns_dense_ids(self, store):
        assert store.add(b"first") == 0
        assert store.add(b"second") == 1
        assert store.add(b"third") == 2

    def test_get_roundtrip(self, store):
        doc_id = store.add(b"payload bytes \x00\xff")
        assert store.get(doc_id) == b"payload bytes \x00\xff"

    def test_len_and_contains(self, store):
        a = store.add(b"aaaa")
        store.add(b"bbbb")
        assert len(store) == 2
        assert a in store
        assert 99 not in store

    def test_remove(self, store):
        a = store.add(b"aaaa")
        b = store.add(b"bbbb")
        store.remove(a)
        assert a not in store
        assert len(store) == 1
        assert store.get(b) == b"bbbb"
        with pytest.raises(StorageError):
            store.get(a)
        with pytest.raises(StorageError):
            store.remove(a)

    def test_burn_assigns_an_id_that_reads_as_deleted(self, store):
        a = store.add(b"aaaa")
        burned = store.burn()
        b = store.add(b"bbbb")
        assert (a, burned, b) == (0, 1, 2)
        assert burned not in store and len(store) == 2
        assert store.id_bound == 3
        with pytest.raises(StorageError):
            store.get(burned)

    def test_ids_iterates_live_only(self, store):
        ids = [store.add(f"doc{i:02d}".encode()) for i in range(5)]
        store.remove(ids[1])
        store.remove(ids[3])
        assert list(store.ids()) == [ids[0], ids[2], ids[4]]

    def test_get_unknown(self, store):
        with pytest.raises(StorageError):
            store.get(42)


class TestFileDocStore:
    def test_reopen_preserves_docs_and_tombstones(self, tmp_path):
        path = tmp_path / "docs.dat"
        s = FileDocStore(path)
        ids = [s.add(f"document number {i}".encode()) for i in range(4)]
        s.remove(ids[2])
        assert s.burn() == 4
        s.close()

        r = FileDocStore(path)
        assert len(r) == 3
        assert 4 not in r and r.id_bound == 5
        assert r.get(ids[0]) == b"document number 0"
        assert ids[2] not in r
        # New ids continue after the highest ever assigned.
        assert r.add(b"new doc") == 5
        r.close()

    def test_closed_store_rejects_ops(self, tmp_path):
        s = FileDocStore(tmp_path / "docs.dat")
        s.close()
        with pytest.raises(StorageError):
            s.add(b"late")

    def test_large_payload(self, tmp_path):
        s = FileDocStore(tmp_path / "docs.dat")
        blob = bytes(range(256)) * 1000
        doc_id = s.add(blob)
        assert s.get(doc_id) == blob
        s.close()

    def test_a_removal_reaches_the_file_at_write_tombstones(self, tmp_path):
        """remove() is immediate for readers; the on-disk tombstone waits
        for write_tombstones() (an index calls it after its commit)."""
        path = tmp_path / "docs.dat"
        s = FileDocStore(path)
        ids = [s.add(f"payload {i}".encode()) for i in range(3)]
        s.flush()
        before = path.read_bytes()
        s.remove(ids[1])
        assert ids[1] not in s and len(s) == 2
        with pytest.raises(StorageError, match="was deleted"):
            s.remove(ids[1])
        assert path.read_bytes() == before
        s.write_tombstones()
        assert path.read_bytes() != before
        s.write_tombstones()  # nothing queued: a no-op
        s.close()
        r = FileDocStore(path)
        assert list(r.ids()) == [ids[0], ids[2]]
        r.close()

    def test_rejects_a_v1_record_file_by_name(self, tmp_path):
        path = tmp_path / "docs.dat"
        path.write_bytes(b"\x03\x00\x00\x00abc")  # v1: [len][payload], no magic
        with pytest.raises(StorageError, match="legacy v1"):
            FileDocStore(path)

"""Document store: document id → serialized document payload.

ViST's DocId B+Tree maps scope labels to document *ids*; something still
has to map ids back to documents — for returning results, for the
post-verification filter (:mod:`repro.index.verification`) and for
deletion (re-deriving the sequence of the document being removed).

:class:`DocStore` assigns dense integer ids and keeps payloads either in
memory or in an append-only record file with a rebuilt offset table on
open.  Payloads are opaque bytes; the index layer stores the document's
structure-encoded sequence plus its original text through
:mod:`repro.sequence.encoding` codecs.

On-disk format (v2)
-------------------
Since format v2 the file opens with an 8-byte magic (``ViSTDOC2``) and
every record is ``[len:u32][crc:u32][payload]`` — the CRC
(:mod:`repro.storage.checksums`) covers the payload and is verified on
every :meth:`FileDocStore.get`, raising
:class:`~repro.errors.CorruptRecordError` on mismatch.  The docstore is
the salvage path's source of truth, so it must be able to *prove* its
records are intact.  Tombstoning a record rewrites its length word as
the tombstone marker and its CRC word as the relocated payload length
(``[0xFFFFFFFF][len]``), so any record — including an empty one — can be
deleted in place.  Files of the pre-checksum v1 format (no magic,
``[len][payload]`` records) are refused, not migrated.

A tombstone is *queued* by :meth:`FileDocStore.remove` — the id is gone
for every reader at once — and written in place by
:meth:`FileDocStore.write_tombstones`.  :class:`~repro.index.vist.VistIndex`
calls that only after the pager commit that detached the documents, so a
crash can never leave a tombstone whose index entries survive
(DESIGN.md §6, "One durability story").
"""

from __future__ import annotations

import os
import struct
import threading
from typing import Iterator, Optional

from repro.errors import CorruptRecordError, StorageError
from repro.storage.checksums import page_checksum

_LEN_FMT = "<I"
_LEN_SIZE = struct.calcsize(_LEN_FMT)
_TOMBSTONE = 0xFFFFFFFF
_DOC_MAGIC = b"ViSTDOC2"
_RECORD_HEADER = 2 * _LEN_SIZE  # length word + crc (or relocated length)

__all__ = ["DocStore", "MemoryDocStore", "FileDocStore"]


class DocStore:
    """Abstract id → payload store with dense integer ids."""

    def add(self, payload: bytes) -> int:
        """Store a payload and return its new document id."""
        raise NotImplementedError

    def get(self, doc_id: int) -> bytes:
        """Return the payload for ``doc_id``; raises for unknown/deleted ids."""
        raise NotImplementedError

    def remove(self, doc_id: int) -> None:
        """Delete a document (its id is never reused)."""
        raise NotImplementedError

    def burn(self) -> int:
        """Assign the next id to no document: a positional placeholder
        that reads as deleted from the start.  No index ever held it, so
        unlike a :meth:`remove` there is no commit for it to wait on."""
        raise NotImplementedError

    def __contains__(self, doc_id: int) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def ids(self) -> Iterator[int]:
        """Iterate live document ids in ascending order."""
        raise NotImplementedError

    @property
    def id_bound(self) -> int:
        """One past the highest id ever assigned (live or tombstoned)."""
        raise NotImplementedError

    def pop_last(self, doc_id: int) -> None:
        """Undo the most recent :meth:`add` — ``doc_id`` must be the last
        id assigned and still live.  Unlike :meth:`remove` the id is
        un-assigned (the next add reuses it), which is exactly what an
        insert rollback needs to keep ids dense."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources.  Idempotent."""

    def __enter__(self) -> "DocStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class MemoryDocStore(DocStore):
    """Dict-backed store for tests and ephemeral indexes."""

    def __init__(self) -> None:
        self._docs: dict[int, bytes] = {}
        self._next_id = 0

    def add(self, payload: bytes) -> int:
        doc_id = self._next_id
        self._next_id += 1
        self._docs[doc_id] = bytes(payload)
        return doc_id

    def get(self, doc_id: int) -> bytes:
        try:
            return self._docs[doc_id]
        except KeyError:
            raise StorageError(f"unknown document id {doc_id}") from None

    def remove(self, doc_id: int) -> None:
        if doc_id not in self._docs:
            raise StorageError(f"unknown document id {doc_id}")
        del self._docs[doc_id]

    def burn(self) -> int:
        doc_id = self._next_id
        self._next_id += 1
        return doc_id

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._docs

    def __len__(self) -> int:
        return len(self._docs)

    def ids(self) -> Iterator[int]:
        return iter(sorted(self._docs))

    @property
    def id_bound(self) -> int:
        return self._next_id

    def pop_last(self, doc_id: int) -> None:
        if doc_id != self._next_id - 1 or doc_id not in self._docs:
            raise StorageError(
                f"pop_last: {doc_id} is not the last live document "
                f"(next id {self._next_id})"
            )
        del self._docs[doc_id]
        self._next_id -= 1


class FileDocStore(DocStore):
    """Append-only record file with an in-memory offset table.

    Deleting rewrites the record's length word as a tombstone marker and
    its CRC word as the relocated payload length; the payload bytes stay
    in the file (bounded waste; :meth:`compact` reclaims them).  The
    rewrite waits for :meth:`write_tombstones` or :meth:`close`.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        existing = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        self._file = open(self.path, "r+b" if existing else "w+b")
        # seek+read/seek+write on the shared handle are two-step critical
        # sections; verified queries load payloads from worker threads, so
        # every record access funnels through this lock (RLock: compact()
        # re-enters via get())
        self._io_lock = threading.RLock()
        self._offsets: list[Optional[int]] = []
        self._live = 0
        # record offsets removed in memory whose tombstones are not on disk
        self._unwritten: list[int] = []
        self._closed = False
        if existing:
            self._rebuild_offsets()
        else:
            self._file.write(_DOC_MAGIC)

    def _rebuild_offsets(self) -> None:
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        self._file.seek(0)
        magic = self._file.read(len(_DOC_MAGIC))
        if magic != _DOC_MAGIC:
            raise StorageError(
                f"{self.path}: bad docstore magic {magic!r}: not a v2 record "
                "file (legacy v1 files, without checksums, are not read)"
            )
        pos = len(_DOC_MAGIC)
        while pos < size:
            header = self._file.read(_RECORD_HEADER)
            if len(header) != _RECORD_HEADER:
                raise StorageError(f"{self.path}: truncated record header at {pos}")
            length, second = struct.unpack("<2I", header)
            if length == _TOMBSTONE:
                # second word is the relocated payload length
                self._offsets.append(None)
                pos += _RECORD_HEADER + second
            else:
                self._offsets.append(pos)
                self._live += 1
                pos += _RECORD_HEADER + length
            self._file.seek(pos)
        if pos != size:
            raise StorageError(
                f"{self.path}: truncated record file (expected {pos} bytes, "
                f"found {size})"
            )

    def add(self, payload: bytes) -> int:
        self._ensure_open()
        with self._io_lock:
            self._file.seek(0, os.SEEK_END)
            pos = self._file.tell()
            self._file.write(struct.pack(_LEN_FMT, len(payload)))
            self._file.write(struct.pack(_LEN_FMT, page_checksum(payload)))
            self._file.write(payload)
            doc_id = len(self._offsets)
            self._offsets.append(pos)
            self._live += 1
            return doc_id

    def get(self, doc_id: int) -> bytes:
        self._ensure_open()
        offset = self._offset(doc_id)
        with self._io_lock:
            self._file.seek(offset)
            length, stored = struct.unpack("<2I", self._file.read(_RECORD_HEADER))
            if length == _TOMBSTONE:
                raise StorageError(f"document {doc_id} was deleted")
            payload = self._file.read(length)
        if len(payload) != length:
            raise StorageError(
                f"{self.path}: truncated payload for doc {doc_id} at offset "
                f"{offset} (wanted {length} bytes, got {len(payload)})"
            )
        computed = page_checksum(payload)
        if stored != computed:
            raise CorruptRecordError(self.path, doc_id, stored, computed, offset)
        return payload

    def remove(self, doc_id: int) -> None:
        """Delete ``doc_id`` now; queue its on-disk tombstone."""
        self._ensure_open()
        with self._io_lock:
            self._unwritten.append(self._offset(doc_id))
            self._offsets[doc_id] = None
            self._live -= 1

    def burn(self) -> int:
        self._ensure_open()
        with self._io_lock:
            self._file.seek(0, os.SEEK_END)
            self._file.write(struct.pack("<2I", _TOMBSTONE, 0))
            self._offsets.append(None)
            return len(self._offsets) - 1

    def write_tombstones(self) -> None:
        """Write every queued tombstone in place.

        Rewriting a record that is already a tombstone is a no-op, so a
        removal replayed after a crash is harmless."""
        self._ensure_open()
        with self._io_lock:
            for offset in self._unwritten:
                self._file.seek(offset)
                (length,) = struct.unpack(_LEN_FMT, self._file.read(_LEN_SIZE))
                if length != _TOMBSTONE:
                    self._file.seek(offset)
                    self._file.write(struct.pack("<2I", _TOMBSTONE, length))
            self._unwritten.clear()
            self._file.flush()

    def __contains__(self, doc_id: int) -> bool:
        return 0 <= doc_id < len(self._offsets) and self._offsets[doc_id] is not None

    def __len__(self) -> int:
        return self._live

    def ids(self) -> Iterator[int]:
        return (i for i, off in enumerate(self._offsets) if off is not None)

    @property
    def id_bound(self) -> int:
        return len(self._offsets)

    @property
    def byte_size(self) -> int:
        """Current file length — the durable-commit watermark the index
        records so crash recovery can truncate uncommitted appends."""
        self._ensure_open()
        with self._io_lock:
            self._file.seek(0, os.SEEK_END)
            return self._file.tell()

    def pop_last(self, doc_id: int) -> None:
        self._ensure_open()
        with self._io_lock:
            if doc_id != len(self._offsets) - 1 or self._offsets[doc_id] is None:
                raise StorageError(
                    f"pop_last: {doc_id} is not the last live document "
                    f"(id bound {len(self._offsets)})"
                )
            offset = self._offsets.pop()
            self._live -= 1
            self._file.truncate(offset)

    def truncate_to(self, byte_size: int) -> int:
        """Drop every record past ``byte_size``; returns how many.

        Crash recovery: appends after the last durable commit are cut
        off wholesale and the offset table rebuilt from the survivors.
        ``byte_size`` must fall on a record boundary of the current file
        (it always does when it came from :attr:`byte_size`).
        """
        self._ensure_open()
        with self._io_lock:
            if byte_size < len(_DOC_MAGIC):
                raise StorageError(
                    f"{self.path}: cannot truncate below the magic "
                    f"({byte_size} bytes)"
                )
            self._file.seek(0, os.SEEK_END)
            if byte_size >= self._file.tell():
                return 0
            before = len(self._offsets)
            self._file.truncate(byte_size)
            self._offsets = []
            self._live = 0
            self._rebuild_offsets()
            return before - len(self._offsets)

    def flush(self, *, fsync: bool = False) -> None:
        """Push buffered appends to the OS (and optionally to disk)."""
        self._ensure_open()
        with self._io_lock:
            self._file.flush()
            if fsync:
                os.fsync(self._file.fileno())

    def compact(self) -> int:
        """Reclaim tombstoned payload space; returns bytes saved.

        Live records are rewritten into a fresh file and the original is
        replaced atomically.  Document ids are positional, so deleted
        records leave an 8-byte tombstone skeleton behind — bounded waste
        per deletion instead of the full payload.
        """
        self._ensure_open()
        with self._io_lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        tmp_path = self.path + ".compact"
        new_offsets: list[Optional[int]] = []
        with open(tmp_path, "w+b") as out:
            out.write(_DOC_MAGIC)
            for doc_id, offset in enumerate(self._offsets):
                pos = out.tell()
                if offset is None:
                    out.write(struct.pack(_LEN_FMT, _TOMBSTONE))
                    out.write(struct.pack(_LEN_FMT, 0))
                    new_offsets.append(None)
                else:
                    payload = self.get(doc_id)
                    out.write(struct.pack(_LEN_FMT, len(payload)))
                    out.write(struct.pack(_LEN_FMT, page_checksum(payload)))
                    out.write(payload)
                    new_offsets.append(pos)
            new_size = out.tell()
        self._file.seek(0, os.SEEK_END)
        old_size = self._file.tell()
        self._file.close()
        os.replace(tmp_path, self.path)
        self._file = open(self.path, "r+b")
        self._offsets = new_offsets
        self._unwritten.clear()  # the rewrite carries every tombstone
        return old_size - new_size

    def close(self) -> None:
        if self._closed:
            return
        self.write_tombstones()
        self._file.close()
        self._closed = True

    def _offset(self, doc_id: int) -> int:
        if not 0 <= doc_id < len(self._offsets):
            raise StorageError(f"unknown document id {doc_id}")
        offset = self._offsets[doc_id]
        if offset is None:
            raise StorageError(f"document {doc_id} was deleted")
        return offset

    def _ensure_open(self) -> None:
        if self._closed:
            raise StorageError("document store is closed")

"""Crash-safe page storage: the write-ahead-logged file pager.

:class:`WalPager` is the one file pager: every DBDIR's ``vist.db`` opens
through it, so every writer — ``repro ingest``, ``index``, ``remove``,
salvage's rebuild and every shard worker — gets the atomic, durable
commits the paper's Berkeley DB substrate provided.  All mutations
(page writes, allocations, frees, metadata updates) accumulate in an
in-memory overlay; :meth:`WalPager.commit` makes them durable with the
classic redo protocol:

1. every dirty page (including the rebuilt header page) is appended to a
   journal file (the page file's path plus :data:`JOURNAL_SUFFIX`),
   sealed with a CRC32 and a commit marker, and fsynced;
2. the pages are applied to the main file and fsynced;
3. the journal is deleted.

A crash before the marker lands leaves the main file untouched (the torn
journal is discarded on the next open); a crash after it is repaired by
replaying the journal.  ``sync()`` is an alias for ``commit()``, so a
B+Tree ``checkpoint()`` over a ``WalPager`` is a durable transaction
boundary.  Apart from a new file's first header, nothing is written
outside a commit, and a session that changed nothing commits nothing —
closing a read-only session never touches the files.

The main file uses the checksummed slot layout of
:mod:`repro.storage.pager`: every page applied to it carries a CRC
trailer, verified on read — :class:`~repro.errors.CorruptPageError`
surfaces flipped bits at first touch.  Raw reads retry with exponential
backoff on :class:`~repro.errors.TransientIOError` / ``OSError``
(:data:`READ_ATTEMPTS` tries), so a flaky-disk blip is distinguished
from persistent damage: a fault that survives every attempt escapes
as-is, one that clears mid-way is invisible.  Fault harnesses
(:mod:`repro.testing.faults`) inject through the overridable
:meth:`WalPager._read_raw` primitive and the five durability primitives
of the commit.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib

from repro.errors import CorruptPageError, PageError, TransientIOError
from repro.storage.checksums import pack_trailer, verify_trailer
from repro.storage.pager import (
    DEFAULT_PAGE_SIZE,
    Pager,
    pack_header_page,
    page_offset,
    peek_header,
    slot_size,
    unpack_header_page,
)

_WAL_MAGIC = b"ViSTWAL2"
_WAL_HEADER_FMT = "<8sII"  # magic, page_size, page count
_WAL_COMMIT = b"COMMITOK"
_NIL = 0  # page id 0 is the header, so 0 doubles as the nil pointer
_HEADER_PEEK = 64  # enough bytes to cover the fixed pager-header fields

JOURNAL_SUFFIX = ".wal"
READ_ATTEMPTS = 3
_RETRY_BASE_DELAY = 0.001  # seconds; doubles per attempt

__all__ = ["WalPager", "JOURNAL_SUFFIX", "READ_ATTEMPTS"]


class WalPager(Pager):
    """The file pager: checksummed page slots plus a redo journal."""

    def __init__(
        self, path: str | os.PathLike, page_size: int = DEFAULT_PAGE_SIZE
    ) -> None:
        if page_size < 128:
            raise PageError(f"page size {page_size} is too small (min 128)")
        self.path = os.fspath(path)
        self.journal_path = self.path + JOURNAL_SUFFIX
        self.read_count = 0
        # seek() then read()/write() on the one shared handle is a two-step
        # critical section: concurrent queries miss the node cache into
        # read(), and an interleaved seek hands a reader another page's
        # slot — with a valid CRC, so silently.
        self._io_lock = threading.Lock()
        existing = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        self._file = open(self.path, "r+b" if existing else "w+b")
        self._closed = False
        self._recover()
        self._freed: set[int] = set()
        if os.path.getsize(self.path) > 0:
            self._load_durable_header()
        else:
            self.page_size = page_size
            self._npages = 0
            self._freelist = _NIL
            self._meta = b""
            payload = pack_header_page(page_size, 0, _NIL, b"")
            self._file.write(payload + pack_trailer(payload))
            self._file.flush()
        self._overlay: dict[int, bytes] = {}
        self._header_dirty = False
        self._walk_freelist()

    def _load_durable_header(self) -> None:
        page_size = peek_header(self._read(0, _HEADER_PEEK), self.path)
        self.page_size = page_size
        raw = self._read(0, slot_size(page_size))
        if len(raw) < slot_size(page_size):
            raise PageError(
                f"{self.path}: truncated header slot (wanted "
                f"{slot_size(page_size)} bytes, got {len(raw)})"
            )
        payload, trailer = raw[:page_size], raw[page_size:]
        ok, stored, computed = verify_trailer(payload, trailer)
        if not ok:
            raise CorruptPageError(self.path, 0, stored, computed, offset=0)
        _, self._npages, self._freelist, self._meta = unpack_header_page(
            payload, self.path
        )

    def _walk_freelist(self) -> None:
        """Materialise the freed-page set from the freelist chain."""
        self._freed.clear()
        pid = self._freelist
        while pid != _NIL:
            if pid < 1 or pid > self._npages or pid in self._freed:
                raise PageError(
                    f"{self.path}: corrupt freelist chain at page {pid} "
                    f"(range 1..{self._npages}, {len(self._freed)} walked)"
                )
            self._freed.add(pid)
            (pid,) = struct.unpack_from("<Q", self._read_page(pid))

    # ------------------------------------------------------------------
    # Pager interface (all mutations land in the overlay)

    def allocate(self) -> int:
        self._ensure_open()
        if self._freelist != _NIL:
            pid = self._freelist
            raw = self._read_page(pid)
            (self._freelist,) = struct.unpack_from("<Q", raw)
            self._freed.discard(pid)
        else:
            self._npages += 1
            pid = self._npages
        self._overlay[pid] = b"\x00" * self.page_size
        self._header_dirty = True
        return pid

    def _check_range(self, page_id: int) -> None:
        if page_id < 1 or page_id > self._npages:
            raise PageError(
                f"{self.path}: page {page_id} out of range (1..{self._npages})"
            )

    def _check_live(self, page_id: int) -> None:
        self._check_range(page_id)
        if page_id in self._freed:
            raise PageError(f"{self.path}: page {page_id} is freed")

    def _read_page(self, page_id: int) -> bytes:
        """Read one page (overlay first, then checksummed main slot)."""
        cached = self._overlay.get(page_id)
        if cached is not None:
            return cached
        offset = page_offset(page_id, self.page_size)
        raw = self._read(offset, slot_size(self.page_size))
        if len(raw) != slot_size(self.page_size):
            # allocated after the last commit but never written back: the
            # main file has no bytes for it yet
            return b"\x00" * self.page_size
        payload, trailer = raw[: self.page_size], raw[self.page_size :]
        ok, stored, computed = verify_trailer(payload, trailer)
        if not ok:
            raise CorruptPageError(
                self.path, page_id, stored, computed, offset=offset
            )
        return payload

    def read(self, page_id: int) -> bytes:
        self._ensure_open()
        self.read_count += 1
        self._check_live(page_id)
        return self._read_page(page_id)

    def write(self, page_id: int, data: bytes) -> None:
        self._ensure_open()
        self._check_live(page_id)
        self._overlay[page_id] = self._check_data(data)

    def free(self, page_id: int) -> None:
        self._ensure_open()
        self._check_live(page_id)
        self._overlay[page_id] = struct.pack("<Q", self._freelist) + b"\x00" * (
            self.page_size - 8
        )
        self._freelist = page_id
        self._freed.add(page_id)
        self._header_dirty = True

    def get_metadata(self) -> bytes:
        self._ensure_open()
        return self._meta

    def set_metadata(self, blob: bytes) -> None:
        self._ensure_open()
        # raises now, not at commit, when the blob outgrows the header page
        pack_header_page(self.page_size, self._npages, self._freelist, blob)
        self._meta = bytes(blob)
        self._header_dirty = True

    @property
    def page_count(self) -> int:
        return self._npages

    def sync(self) -> None:
        self.commit()

    def close(self) -> None:
        if self._closed:
            return
        self.commit()
        self._file.close()
        self._closed = True

    def abandon(self) -> None:
        """Drop the file handle *without* committing.

        Models a process death for crash-consistency harnesses: buffered
        mutations are lost, the on-disk files are left exactly as the last
        durability primitive left them, and the pager becomes unusable.
        """
        if self._closed:
            return
        self._file.close()
        self._closed = True

    # ------------------------------------------------------------------
    # the redo protocol

    def commit(self) -> None:
        """Make every buffered mutation durable (atomically)."""
        self._ensure_open()
        if not self._overlay and not self._header_dirty:
            return
        self._write_journal()
        self._apply_overlay()
        self._clear_journal()

    def rollback(self) -> None:
        """Discard every mutation since the last commit."""
        self._ensure_open()
        self._overlay.clear()
        self._header_dirty = False
        self._load_durable_header()
        self._walk_freelist()

    @property
    def dirty_page_count(self) -> int:
        """Pages buffered since the last commit (plus the header)."""
        return len(self._overlay) + (1 if self._header_dirty else 0)

    # -- internals (split out so tests can inject crashes between steps) --

    def _journal_entries(self) -> list[tuple[int, bytes]]:
        header = pack_header_page(
            self.page_size, self._npages, self._freelist, self._meta
        )
        entries = [(0, header)]
        entries.extend(sorted(self._overlay.items()))
        return entries

    def _write_journal(self) -> None:
        entries = self._journal_entries()
        crc = 0
        with open(self.journal_path, "wb") as journal:
            self._journal_write(
                journal,
                struct.pack(_WAL_HEADER_FMT, _WAL_MAGIC, self.page_size, len(entries)),
            )
            for pid, data in entries:
                record = struct.pack("<Q", pid) + data
                crc = zlib.crc32(record, crc)
                self._journal_write(journal, record)
            self._journal_write(journal, struct.pack("<I", crc))
            self._journal_write(journal, _WAL_COMMIT)
            self._journal_sync(journal)

    def _apply_overlay(self) -> None:
        for pid, data in self._journal_entries():
            self._main_write(pid, data, self.page_size)
        self._main_sync()
        self._overlay.clear()
        self._header_dirty = False

    def _clear_journal(self) -> None:
        self._journal_unlink()

    # -- reads ----------------------------------------------------------

    def _read_raw(self, offset: int, length: int) -> bytes:
        """The raw read primitive (fault harnesses override it)."""
        with self._io_lock:
            self._file.seek(offset)
            return self._file.read(length)

    def _read(self, offset: int, length: int) -> bytes:
        """:meth:`_read_raw` with exponential backoff over transient faults."""
        for attempt in range(READ_ATTEMPTS - 1):
            try:
                return self._read_raw(offset, length)
            except (TransientIOError, OSError):
                time.sleep(_RETRY_BASE_DELAY * (2**attempt))
        try:
            return self._read_raw(offset, length)
        except TransientIOError:
            raise  # persisted through every retry: genuinely down
        except OSError as exc:
            raise PageError(
                f"{self.path}: I/O error at offset {offset} after "
                f"{READ_ATTEMPTS} attempt(s): {exc}"
            ) from exc

    # -- durability primitives ------------------------------------------
    # Every byte the redo protocol makes durable flows through these five
    # methods, in commit order: journal writes, journal fsync, main-file
    # writes, main-file fsync, journal unlink.  Crash-consistency
    # harnesses (repro.testing.faults) subclass WalPager and override
    # them to enumerate and kill every write/fsync boundary.

    def _journal_write(self, journal, data: bytes) -> None:
        journal.write(data)

    def _journal_sync(self, journal) -> None:
        journal.flush()
        os.fsync(journal.fileno())

    def _main_write(self, page_id: int, data: bytes, page_size: int) -> None:
        with self._io_lock:
            self._file.seek(page_offset(page_id, page_size))
            self._file.write(data + pack_trailer(data))

    def _main_sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def _journal_unlink(self) -> None:
        if os.path.exists(self.journal_path):
            os.remove(self.journal_path)

    def _recover(self) -> None:
        """Replay a committed journal; discard a torn one."""
        if not os.path.exists(self.journal_path):
            return
        try:
            entries, page_size = self._read_journal()
        except PageError:
            os.remove(self.journal_path)  # torn write: pre-commit crash
            return
        for pid, data in entries:
            self._main_write(pid, data, page_size)
        self._main_sync()
        self._journal_unlink()

    def _read_journal(self) -> tuple[list[tuple[int, bytes]], int]:
        with open(self.journal_path, "rb") as journal:
            blob = journal.read()
        header_size = struct.calcsize(_WAL_HEADER_FMT)
        if len(blob) < header_size + 4 + len(_WAL_COMMIT):
            raise PageError(f"{self.journal_path}: journal too short")
        magic, page_size, count = struct.unpack_from(_WAL_HEADER_FMT, blob)
        if magic != _WAL_MAGIC:
            raise PageError(f"{self.journal_path}: bad journal magic {magic!r}")
        if not blob.endswith(_WAL_COMMIT):
            raise PageError(f"{self.journal_path}: journal missing commit marker")
        body = blob[header_size : -len(_WAL_COMMIT) - 4]
        (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - len(_WAL_COMMIT) - 4)
        if zlib.crc32(body) != stored_crc:
            raise PageError(f"{self.journal_path}: journal checksum mismatch")
        record_size = 8 + page_size
        if len(body) != count * record_size:
            raise PageError(
                f"{self.journal_path}: journal body size mismatch "
                f"({len(body)} bytes for {count} record(s) of {record_size})"
            )
        entries = []
        for i in range(count):
            offset = i * record_size
            (pid,) = struct.unpack_from("<Q", body, offset)
            entries.append((pid, body[offset + 8 : offset + record_size]))
        return entries, page_size

    def _ensure_open(self) -> None:
        if self._closed:
            raise PageError("pager is closed")

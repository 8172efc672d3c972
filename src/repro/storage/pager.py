"""Fixed-size page storage underneath the B+Tree.

A :class:`Pager` hands out page ids, reads and writes fixed-size pages, and
persists a small metadata blob (used by the B+Tree for its root pointer and
entry count).  Two implementations exist:

* :class:`MemoryPager` — pages live in a dict; fast, used for tests and for
  benchmark runs that do not need durability.
* :class:`~repro.storage.wal.WalPager` — the one file pager.  Pages live
  in a single file and every mutation reaches it through a redo journal
  at commit, so a crash never leaves a torn file.

The pager deliberately knows nothing about B+Tree node layout; it deals in
opaque ``bytes`` of exactly ``page_size``.

On-disk format (v2)
-------------------
Page 0 is a header page holding the magic number (``ViSTPGR2``), the page
size, the page count, the free-list head and the user metadata blob; data
pages start at id 1.  Freed pages are chained through their first 8 bytes
and reused before the file grows.  Every on-disk page slot is
``page_size + 4`` bytes: the logical page payload followed by a CRC
trailer (:mod:`repro.storage.checksums`).  The trailer is stamped on
every write and verified on every read; a mismatch raises
:class:`~repro.errors.CorruptPageError` with the file path, page id,
byte offset and both checksums, so a single flipped bit surfaces at the
first touch instead of as a garbled B+Tree node (or a silently wrong
answer).  The *logical* ``page_size`` visible to clients is unchanged —
checksums are transparent to the B+Tree.

Files of the pre-checksum format (magic ``ViSTPGR1``) are refused with
an error that names them; they are not migrated, since such a tree also
predates the current entry format.  The layout helpers below are shared
by the file pager, scrub and salvage.
"""

from __future__ import annotations

import struct

from repro.errors import PageError
from repro.storage.checksums import CHECKSUM_SIZE

DEFAULT_PAGE_SIZE = 4096

_MAGIC_V1 = b"ViSTPGR1"
_MAGIC_V2 = b"ViSTPGR2"
_HEADER_FMT = "<8sIQQI"  # magic, page_size, npages, freelist head, meta length
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)

__all__ = [
    "Pager",
    "MemoryPager",
    "DEFAULT_PAGE_SIZE",
    "pack_header_page",
    "unpack_header_page",
    "peek_header",
    "slot_size",
    "page_offset",
]


def slot_size(page_size: int) -> int:
    """On-disk bytes per page slot: the payload plus its CRC trailer."""
    return page_size + CHECKSUM_SIZE


def page_offset(page_id: int, page_size: int) -> int:
    """Byte offset of page ``page_id``'s slot in a page file."""
    return page_id * slot_size(page_size)


def pack_header_page(
    page_size: int, npages: int, freelist: int, meta: bytes
) -> bytes:
    """Serialize a header-page *payload*.

    Returns exactly ``page_size`` bytes; the caller appends the CRC
    trailer when writing the slot to disk.
    """
    header = struct.pack(_HEADER_FMT, _MAGIC_V2, page_size, npages, freelist, len(meta))
    blob = header + meta
    if len(blob) > page_size:
        raise PageError(
            f"metadata blob of {len(meta)} bytes does not fit in the "
            f"{page_size}-byte header page"
        )
    return blob + b"\x00" * (page_size - len(blob))


def _check_magic(magic: bytes, path: str) -> None:
    if magic == _MAGIC_V2:
        return
    if magic == _MAGIC_V1:
        raise PageError(
            f"{path}: legacy v1 page file (magic {_MAGIC_V1!r}, no checksums); "
            "this build neither reads nor migrates it — its tree also predates "
            "the current entry format"
        )
    raise PageError(f"{path}: bad magic {magic!r}, not a repro page file")


def unpack_header_page(raw: bytes, path: str) -> tuple[int, int, int, bytes]:
    """Parse a header-page payload into ``(page_size, npages, freelist, meta)``.

    ``raw`` must hold at least the fixed header fields; the meta blob is
    sliced out of whatever follows.
    """
    if len(raw) < _HEADER_SIZE:
        raise PageError(
            f"{path}: file too small to hold a pager header "
            f"({len(raw)} < {_HEADER_SIZE} bytes)"
        )
    magic, page_size, npages, freelist, meta_len = struct.unpack_from(_HEADER_FMT, raw)
    _check_magic(magic, path)
    if _HEADER_SIZE + meta_len > page_size:
        raise PageError(
            f"{path}: corrupt header (meta length {meta_len} exceeds page "
            f"size {page_size})"
        )
    if _HEADER_SIZE + meta_len > len(raw):
        raise PageError(
            f"{path}: truncated header (need {_HEADER_SIZE + meta_len} bytes, "
            f"have {len(raw)})"
        )
    return page_size, npages, freelist, raw[_HEADER_SIZE : _HEADER_SIZE + meta_len]


def peek_header(raw: bytes, path: str) -> int:
    """Parse just the page size from the fixed header fields.

    Unlike :func:`unpack_header_page` this needs only ``_HEADER_SIZE``
    bytes — enough to decide the slot size before reading the full
    header slot.
    """
    if len(raw) < _HEADER_SIZE:
        raise PageError(
            f"{path}: file too small to hold a pager header "
            f"({len(raw)} < {_HEADER_SIZE} bytes)"
        )
    magic, page_size = struct.unpack_from("<8sI", raw)
    _check_magic(magic, path)
    return page_size


class Pager:
    """Abstract page store.  Concrete pagers implement the I/O primitives."""

    page_size: int
    read_count: int = 0  # cumulative read() calls, for query page budgets

    def allocate(self) -> int:
        """Return the id of a fresh (or recycled) zeroed page."""
        raise NotImplementedError

    def read(self, page_id: int) -> bytes:
        """Return the ``page_size`` bytes of page ``page_id``."""
        raise NotImplementedError

    def write(self, page_id: int, data: bytes) -> None:
        """Replace page ``page_id``.  ``data`` may be shorter; it is padded."""
        raise NotImplementedError

    def free(self, page_id: int) -> None:
        """Release a page for reuse."""
        raise NotImplementedError

    def get_metadata(self) -> bytes:
        """Return the user metadata blob."""
        raise NotImplementedError

    def set_metadata(self, blob: bytes) -> None:
        """Persist the user metadata blob."""
        raise NotImplementedError

    @property
    def page_count(self) -> int:
        """Number of pages ever allocated (including freed ones)."""
        raise NotImplementedError

    def sync(self) -> None:
        """Flush buffered writes to the backing store."""

    def close(self) -> None:
        """Flush and release resources.  Idempotent."""

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _check_data(self, data: bytes) -> bytes:
        if len(data) > self.page_size:
            raise PageError(
                f"page payload of {len(data)} bytes exceeds page size {self.page_size}"
            )
        if len(data) < self.page_size:
            data = data + b"\x00" * (self.page_size - len(data))
        return data


class MemoryPager(Pager):
    """In-memory pager; the default backend for benchmarks and tests."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size < 128:
            raise PageError(f"page size {page_size} is too small (min 128)")
        self.page_size = page_size
        self.read_count = 0
        self._pages: dict[int, bytes] = {}
        self._free: list[int] = []
        self._next_id = 1
        self._meta = b""
        self._closed = False

    def allocate(self) -> int:
        self._ensure_open()
        if self._free:
            pid = self._free.pop()
        else:
            pid = self._next_id
            self._next_id += 1
        self._pages[pid] = b"\x00" * self.page_size
        return pid

    def _check_live(self, page_id: int) -> None:
        if page_id in self._pages:
            return
        if page_id in self._free:
            raise PageError(f"page {page_id} is freed")
        raise PageError(f"page {page_id} out of range (1..{self._next_id - 1})")

    def read(self, page_id: int) -> bytes:
        # hot path: one dict hit; misses fall through to diagnosis
        self.read_count += 1
        try:
            return self._pages[page_id]
        except KeyError:
            self._ensure_open()
            self._check_live(page_id)
            raise  # unreachable: _check_live always raises here

    def write(self, page_id: int, data: bytes) -> None:
        if page_id not in self._pages:
            self._ensure_open()
            self._check_live(page_id)
        self._pages[page_id] = self._check_data(data)

    def free(self, page_id: int) -> None:
        self._ensure_open()
        self._check_live(page_id)
        del self._pages[page_id]
        self._free.append(page_id)

    def get_metadata(self) -> bytes:
        self._ensure_open()
        return self._meta

    def set_metadata(self, blob: bytes) -> None:
        self._ensure_open()
        self._meta = bytes(blob)

    @property
    def page_count(self) -> int:
        return self._next_id - 1

    @property
    def live_page_count(self) -> int:
        """Pages currently holding data (allocated minus freed)."""
        return len(self._pages)

    def close(self) -> None:
        self._closed = True
        self._pages = {}  # closed reads must miss the hot path and raise

    def _ensure_open(self) -> None:
        if self._closed:
            raise PageError("pager is closed")

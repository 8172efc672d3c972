"""A paged B+Tree with duplicate keys, range scans and deletion.

This is the reproduction's stand-in for the Berkeley DB B+Trees the paper
builds ViST on.  Keys and values are opaque byte strings; the *sort unit*
is the ``(key, value)`` pair (Berkeley DB's ``DUPSORT`` mode), which is
exactly what the ViST DocId B+Tree needs (many document ids under one
label) and makes unique-key trees a trivial special case.

Layout
------
Every node occupies one page of the underlying
:class:`~repro.storage.pager.Pager`:

* leaf page:     ``[0x01][n:u16][next:u64]`` then ``n`` cells of
  ``(klen:u16, vlen:u16, key, value)``;
* internal page: ``[0x02][n:u16][child0:u64]`` then ``n`` cells of
  ``(klen:u16, vlen:u16, key, value, child:u64)`` — separators are full
  pairs so duplicate keys route deterministically.

Several logical trees can share one pager: each tree occupies a *slot* in
the pager's metadata blob holding its root page id and entry count.

Concurrency and caching
-----------------------
Nodes are decoded once and kept in memory — the one cache between a tree
and its page file, counted where the work happens
(:attr:`BPlusTree.cache_hits` / :attr:`BPlusTree.cache_misses`; a miss is
exactly one pager read).  The cache is unbounded: an open tree keeps
every page it has touched decoded until :meth:`BPlusTree.close`, and
:meth:`BPlusTree.checkpoint` with ``clear_cache=True`` is the one release
valve, at a quiescent point.  It is never stale, because the tree is
**single-writer** and nodes are mutated in place: mutation is serialised
by the owning index's readers–writer lock
(:class:`repro.exec.locks.RWLock`), the same operating envelope the
paper's experiments use.  Dirty nodes are written back on
:meth:`BPlusTree.flush` / :meth:`BPlusTree.close` or on an explicit
:meth:`BPlusTree.checkpoint`.  A leaf "decode" is just a one-pass
cell-offset table over the page buffer
(:func:`repro.kernels.leaf_cell_offsets`) — keys and values are sliced
out on access, so a point lookup touches O(log n) cells of a page instead
of materialising all of them; scans and mutation paths materialise the
entry list once and keep it.  Concurrent *readers* share the cache
without a lock: two of them missing the same page both decode it and one
copy wins the dict slot, and the leaf-chain walk in
:meth:`BPlusTree._seek` recovers a reader that landed on a leaf a split
has since divided.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import DuplicateEntryError, KeyTooLargeError, PageError, StorageError
from repro.kernels import leaf_cell_offsets
from repro.obs.metrics import MetricSet
from repro.storage.pager import MemoryPager, Pager

_LEAF = 0x01
_INTERNAL = 0x02
_LEAF_HEADER = 1 + 2 + 8
_INTERNAL_HEADER = 1 + 2 + 8
_LEAF_CELL_OVERHEAD = 4
_INTERNAL_CELL_OVERHEAD = 12
_SLOT_FMT = "<QQ"  # root pid, entry count
_SLOT_SIZE = struct.calcsize(_SLOT_FMT)
_META_FMT = "<H"  # number of slots

Pair = tuple[bytes, bytes]


__all__ = [
    "BPlusTree",
    "TreeStats",
    "decode_slot_directory",
    "reachable_page_ids",
]


def decode_slot_directory(meta: bytes) -> list[tuple[int, int]]:
    """Parse a pager metadata blob into ``(root_pid, count)`` slot entries.

    This is the inverse of the blob :meth:`BPlusTree._store_slot` writes;
    the scrub reachability walk uses it to find every tree root in a page
    file without opening the trees.
    """
    if not meta:
        return []
    (nslots,) = struct.unpack_from(_META_FMT, meta)
    header = struct.calcsize(_META_FMT)
    need = header + nslots * _SLOT_SIZE
    if len(meta) < need:
        raise PageError(
            f"slot directory truncated: {nslots} slot(s) need {need} bytes, "
            f"blob has {len(meta)}"
        )
    return [
        struct.unpack_from(_SLOT_FMT, meta, header + i * _SLOT_SIZE)
        for i in range(nslots)
    ]


def reachable_page_ids(meta: bytes, read_page) -> set[int]:
    """Every page id reachable from the slot directory's tree roots.

    ``read_page(pid)`` must return the raw node payload of page ``pid``.
    The walk decodes only node kinds and internal-cell child pointers, so
    it works on raw file bytes without a pager; a malformed node raises
    :class:`~repro.errors.PageError` naming the page.
    """
    live: set[int] = set()
    for root_pid, _count in decode_slot_directory(meta):
        if root_pid == 0:
            continue
        stack = [root_pid]
        while stack:
            pid = stack.pop()
            if pid in live:  # shared page or cycle: visit once
                continue
            live.add(pid)
            data = read_page(pid)
            if not data:
                raise PageError(f"page {pid}: empty node payload")
            kind = data[0]
            if kind == _LEAF:
                continue
            if kind != _INTERNAL:
                raise PageError(f"page {pid} has unknown node type {kind:#x}")
            (n,) = struct.unpack_from("<H", data, 1)
            stack.append(struct.unpack_from("<Q", data, 3)[0])
            off = _INTERNAL_HEADER
            for _ in range(n):
                klen, vlen = struct.unpack_from("<HH", data, off)
                off += 4 + klen + vlen
                stack.append(struct.unpack_from("<Q", data, off)[0])
                off += 8
    return live


@dataclass
class TreeStats(MetricSet):
    """Size/shape statistics for one tree (used by the Figure 11 benches)."""

    entries: int
    height: int
    leaf_pages: int
    internal_pages: int
    page_size: int
    used_bytes: int

    @property
    def total_pages(self) -> int:
        return self.leaf_pages + self.internal_pages

    @property
    def total_bytes(self) -> int:
        return self.total_pages * self.page_size


class _Node:
    __slots__ = ("pid",)


class _Leaf(_Node):
    """A leaf node, eager or *lazy*.

    Lazy leaves (decoded from a page) carry the raw page buffer plus a flat
    cell-offset table instead of a materialised entry list; the read-path
    accessors (:meth:`count`, :meth:`key_at`, :meth:`pair_at`,
    :meth:`bisect_entries`) slice cells out of the buffer on demand.
    Reading :attr:`entries` materialises the full list once and caches it
    (``_raw``/``_offsets`` are deliberately *not* cleared then: a reader
    racing the materialisation keeps valid offsets).  Assigning
    ``entries`` — the structural-rewrite paths — drops the raw view, so
    a mutated leaf can never serve stale page bytes.
    """

    __slots__ = ("_entries", "next", "_used", "_raw", "_offsets")

    def __init__(
        self,
        pid: int,
        entries: Optional[list[Pair]],
        next_pid: int,
        *,
        raw: Optional[bytes] = None,
        offsets=None,
        used: Optional[int] = None,
    ) -> None:
        self.pid = pid
        self._entries = entries
        self.next = next_pid
        # cached used_bytes: insert/delete maintain it by delta (the hot
        # paths), structural rewrites reset it to None for a lazy recount
        self._used: Optional[int] = used
        self._raw = raw
        self._offsets = offsets

    @property
    def entries(self) -> list[Pair]:
        entries = self._entries
        if entries is None:
            raw, offs = self._raw, self._offsets
            entries = [
                (
                    raw[offs[j] : offs[j] + offs[j + 1]],
                    raw[offs[j] + offs[j + 1] : offs[j] + offs[j + 1] + offs[j + 2]],
                )
                for j in range(0, len(offs), 3)
            ]
            self._entries = entries
        return entries

    @entries.setter
    def entries(self, entries: list[Pair]) -> None:
        self._entries = entries
        self._raw = None
        self._offsets = None

    @property
    def count(self) -> int:
        entries = self._entries
        if entries is not None:
            return len(entries)
        return len(self._offsets) // 3

    def key_at(self, i: int) -> bytes:
        entries = self._entries
        if entries is not None:
            return entries[i][0]
        offs = self._offsets
        j = 3 * i
        base = offs[j]
        return self._raw[base : base + offs[j + 1]]

    def pair_at(self, i: int) -> Pair:
        entries = self._entries
        if entries is not None:
            return entries[i]
        offs = self._offsets
        j = 3 * i
        base = offs[j]
        ksplit = base + offs[j + 1]
        return self._raw[base:ksplit], self._raw[ksplit : ksplit + offs[j + 2]]

    def bisect_entries(self, bound: Pair) -> int:
        """``bisect_left(self.entries, bound)`` without materialising."""
        entries = self._entries
        if entries is not None:
            return bisect_left(entries, bound)
        raw, offs = self._raw, self._offsets
        bkey, bval = bound
        lo, hi = 0, len(offs) // 3
        while lo < hi:
            mid = (lo + hi) >> 1
            j = 3 * mid
            base = offs[j]
            ksplit = base + offs[j + 1]
            key = raw[base:ksplit]
            if key < bkey or (
                key == bkey and raw[ksplit : ksplit + offs[j + 2]] < bval
            ):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def used_bytes(self) -> int:
        if self._used is None:
            self._used = _LEAF_HEADER + sum(
                _LEAF_CELL_OVERHEAD + len(k) + len(v) for k, v in self.entries
            )
        return self._used


class _Internal(_Node):
    __slots__ = ("seps", "children", "_used")

    def __init__(self, pid: int, seps: list[Pair], children: list[int]) -> None:
        self.pid = pid
        self.seps = seps
        self.children = children
        self._used: Optional[int] = None

    def used_bytes(self) -> int:
        if self._used is None:
            self._used = _INTERNAL_HEADER + sum(
                _INTERNAL_CELL_OVERHEAD + len(k) + len(v) for k, v in self.seps
            )
        return self._used


class BPlusTree:
    """B+Tree over a pager slot.  See the module docstring for semantics."""

    def __init__(self, pager: Optional[Pager] = None, slot: int = 0) -> None:
        self._pager = pager if pager is not None else MemoryPager()
        self._slot = slot
        self._capacity = self._pager.page_size
        self._max_cell = max(16, self._capacity // 4)
        self._min_fill = self._capacity // 4
        self._cache: dict[int, _Node] = {}
        self._dirty: set[int] = set()
        self._closed = False
        # Plain integers bumped without a lock: concurrent readers can
        # lose an increment, never corrupt one.  A miss is exactly one
        # pager read; a writeback is one node serialised by flush().
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_writebacks = 0
        self.seeks = 0
        root_pid, count = self._load_slot()
        if root_pid == 0:
            root = self._new_leaf()
            root_pid = root.pid
            count = 0
        self._root_pid = root_pid
        self._count = count

    # ------------------------------------------------------------------
    # slot metadata

    def _load_slot(self) -> tuple[int, int]:
        blob = self._pager.get_metadata()
        if not blob:
            return 0, 0
        (nslots,) = struct.unpack_from(_META_FMT, blob)
        if self._slot >= nslots:
            return 0, 0
        off = struct.calcsize(_META_FMT) + self._slot * _SLOT_SIZE
        return struct.unpack_from(_SLOT_FMT, blob, off)

    def _store_slot(self) -> None:
        blob = bytearray(self._pager.get_metadata())
        header = struct.calcsize(_META_FMT)
        nslots = struct.unpack_from(_META_FMT, blob)[0] if blob else 0
        if self._slot >= nslots:
            nslots = self._slot + 1
            need = header + nslots * _SLOT_SIZE
            if len(blob) < need:
                blob.extend(b"\x00" * (need - len(blob)))
            struct.pack_into(_META_FMT, blob, 0, nslots)
        off = header + self._slot * _SLOT_SIZE
        struct.pack_into(_SLOT_FMT, blob, off, self._root_pid, self._count)
        self._pager.set_metadata(bytes(blob))

    # ------------------------------------------------------------------
    # node lifecycle

    def _new_leaf(self, entries: Optional[list[Pair]] = None, next_pid: int = 0) -> _Leaf:
        pid = self._pager.allocate()
        node = _Leaf(pid, entries if entries is not None else [], next_pid)
        self._cache[pid] = node
        self._dirty.add(pid)
        return node

    def _new_internal(self, seps: list[Pair], children: list[int]) -> _Internal:
        pid = self._pager.allocate()
        node = _Internal(pid, seps, children)
        self._cache[pid] = node
        self._dirty.add(pid)
        return node

    def _node(self, pid: int) -> _Node:
        node = self._cache.get(pid)
        if node is None:
            self.cache_misses += 1
            node = self._decode(pid, self._pager.read(pid))
            self._cache[pid] = node
        else:
            self.cache_hits += 1
        return node

    def _touch(self, node: _Node) -> None:
        self._dirty.add(node.pid)

    def _free_node(self, node: _Node) -> None:
        self._cache.pop(node.pid, None)
        self._dirty.discard(node.pid)
        self._pager.free(node.pid)

    # ------------------------------------------------------------------
    # (de)serialization

    def _decode(self, pid: int, raw: bytes) -> _Node:
        kind = raw[0]
        (n,) = struct.unpack_from("<H", raw, 1)
        if kind == _LEAF:
            (next_pid,) = struct.unpack_from("<Q", raw, 3)
            # zero-copy decode: offset table only, cells sliced from the
            # page buffer on access (the end offset is exactly the page's
            # used-bytes figure, cached for free)
            offsets, end = leaf_cell_offsets(raw, n, _LEAF_HEADER)
            return _Leaf(pid, None, next_pid, raw=raw, offsets=offsets, used=end)
        if kind == _INTERNAL:
            (child0,) = struct.unpack_from("<Q", raw, 3)
            off = _INTERNAL_HEADER
            seps: list[Pair] = []
            children = [child0]
            for _ in range(n):
                klen, vlen = struct.unpack_from("<HH", raw, off)
                off += 4
                key = raw[off : off + klen]
                off += klen
                value = raw[off : off + vlen]
                off += vlen
                (child,) = struct.unpack_from("<Q", raw, off)
                off += 8
                seps.append((key, value))
                children.append(child)
            return _Internal(pid, seps, children)
        raise PageError(f"page {pid} has unknown node type {kind:#x}")

    def _encode(self, node: _Node) -> bytes:
        out = bytearray()
        if isinstance(node, _Leaf):
            out += struct.pack("<BHQ", _LEAF, len(node.entries), node.next)
            for key, value in node.entries:
                out += struct.pack("<HH", len(key), len(value))
                out += key
                out += value
        else:
            assert isinstance(node, _Internal)
            out += struct.pack("<BHQ", _INTERNAL, len(node.seps), node.children[0])
            for (key, value), child in zip(node.seps, node.children[1:]):
                out += struct.pack("<HH", len(key), len(value))
                out += key
                out += value
                out += struct.pack("<Q", child)
        if len(out) > self._capacity:
            raise StorageError(
                f"internal error: node {node.pid} serialized to {len(out)} bytes"
            )
        return bytes(out)

    # ------------------------------------------------------------------
    # public API

    def bulk_load(
        self, pairs: Iterator[Pair] | list[Pair], *, fill_fraction: float = 0.9
    ) -> int:
        """Bottom-up build of an **empty** tree from pre-sorted entries.

        ``pairs`` must be sorted ascending by ``(key, value)`` with no
        exact duplicates; each page is filled to ``fill_fraction`` of its
        byte capacity.  Orders of magnitude faster than repeated
        :meth:`insert` for batch construction (RIST's finalize and any
        offline rebuild).  Returns the number of entries loaded.
        """
        self._ensure_open()
        if self._count or not isinstance(self._node(self._root_pid), _Leaf):
            raise StorageError("bulk_load requires an empty tree")
        if not 0.1 <= fill_fraction <= 1.0:
            raise StorageError("fill_fraction must be in [0.1, 1.0]")
        budget = int(self._capacity * fill_fraction)
        old_root = self._node(self._root_pid)

        # -- build the leaf level ----------------------------------------
        leaves: list[tuple[Pair, int]] = []  # (first pair, pid)
        current: list[Pair] = []
        used = _LEAF_HEADER
        count = 0
        previous: Optional[Pair] = None

        def close_leaf() -> None:
            nonlocal current, used
            if not current:
                return
            leaf = self._new_leaf(list(current), 0)
            if leaves:
                prev_leaf = self._node(leaves[-1][1])
                assert isinstance(prev_leaf, _Leaf)
                prev_leaf.next = leaf.pid
                self._touch(prev_leaf)
            leaves.append((current[0], leaf.pid))
            current = []
            used = _LEAF_HEADER

        for pair in pairs:
            pair = (bytes(pair[0]), bytes(pair[1]))
            if previous is not None and pair <= previous:
                raise StorageError(
                    "bulk_load input must be strictly ascending by (key, value)"
                )
            previous = pair
            cell = _LEAF_CELL_OVERHEAD + len(pair[0]) + len(pair[1])
            if cell > self._max_cell:
                raise KeyTooLargeError(
                    f"entry of {cell} bytes exceeds the per-cell limit {self._max_cell}"
                )
            if used + cell > budget and current:
                close_leaf()
            current.append(pair)
            used += cell
            count += 1
        close_leaf()
        if not leaves:
            return 0

        # -- build internal levels ----------------------------------------
        level: list[tuple[Pair, int]] = leaves
        while len(level) > 1:
            next_level: list[tuple[Pair, int]] = []
            seps: list[Pair] = []
            children: list[int] = [level[0][1]]
            used = _INTERNAL_HEADER
            first_pair = level[0][0]
            for pair, pid in level[1:]:
                cell = _INTERNAL_CELL_OVERHEAD + len(pair[0]) + len(pair[1])
                if used + cell > budget and seps:
                    node = self._new_internal(seps, children)
                    next_level.append((first_pair, node.pid))
                    seps, children = [], [pid]
                    used = _INTERNAL_HEADER
                    first_pair = pair
                else:
                    seps.append(pair)
                    children.append(pid)
                    used += cell
            node = self._new_internal(seps, children)
            next_level.append((first_pair, node.pid))
            level = next_level

        self._free_node(old_root)
        self._root_pid = level[0][1]
        self._count = count
        return count

    def insert(self, key: bytes, value: bytes = b"", *, allow_exact_dup: bool = False) -> None:
        """Insert one ``(key, value)`` entry.

        Duplicate *keys* are always allowed; an exact duplicate *pair*
        raises :class:`DuplicateEntryError` unless ``allow_exact_dup`` is
        set (in which case a second physical copy is stored).
        """
        self._ensure_open()
        cell = _LEAF_CELL_OVERHEAD + len(key) + len(value)
        if cell > self._max_cell:
            raise KeyTooLargeError(
                f"entry of {cell} bytes exceeds the per-cell limit {self._max_cell}"
            )
        pair = (bytes(key), bytes(value))
        split = self._insert_rec(self._root_pid, pair, allow_exact_dup)
        if split is not None:
            sep, right_pid = split
            new_root = self._new_internal([sep], [self._root_pid, right_pid])
            self._root_pid = new_root.pid
        self._count += 1

    def put(self, key: bytes, value: bytes) -> None:
        """Unique-key upsert: remove every entry under ``key``, insert one."""
        self.delete(key)
        self.insert(key, value)

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the smallest value stored under ``key``, or ``None``."""
        self._ensure_open()
        key = bytes(key)
        leaf, idx = self._seek(key, True)
        if leaf is not None:
            ekey, value = leaf.pair_at(idx)
            if ekey == key:
                return value
        return None

    def values(self, key: bytes) -> Iterator[bytes]:
        """Iterate every value stored under ``key`` (ascending value order)."""
        for _, value in self.range(key, key, include_hi=True):
            yield value

    def contains(self, key: bytes) -> bool:
        """True if at least one entry is stored under ``key``.

        Stops at the first hit via a single :meth:`_seek` — with duplicate
        keys this never walks the whole duplicate run the way a full
        ``get``-style leaf scan would.
        """
        self._ensure_open()
        key = bytes(key)
        leaf, idx = self._seek(key, True)
        return leaf is not None and leaf.key_at(idx) == key

    def range(
        self,
        lo: Optional[bytes] = None,
        hi: Optional[bytes] = None,
        *,
        include_lo: bool = True,
        include_hi: bool = False,
    ) -> Iterator[Pair]:
        """Yield ``(key, value)`` pairs with ``lo <(=) key <(=) hi`` in order.

        ``None`` bounds are open.  The default half-open interval
        ``[lo, hi)`` matches the DocId range queries of Algorithm 2.
        """
        self._ensure_open()
        if lo is None:
            leaf = self._leftmost_leaf()
            idx = 0
        else:
            leaf, idx = self._seek(bytes(lo), include_lo)
        hi_b = bytes(hi) if hi is not None else None
        while leaf is not None:
            entries = leaf.entries
            while idx < len(entries):
                key, value = entries[idx]
                if hi_b is not None:
                    if include_hi:
                        if key > hi_b:
                            return
                    elif key >= hi_b:
                        return
                yield key, value
                idx += 1
            leaf = self._node(leaf.next) if leaf.next else None
            idx = 0

    def scan_windows(self, bounds: Iterable[tuple[bytes, bytes]]) -> Iterator[Pair]:
        """Yield the entries whose key lies in any ``[lo, hi)`` window.

        ``bounds`` must be ascending and pairwise disjoint.  One cursor
        walks the leaf chain for all of them: the next window is located
        by a bisect inside the current leaf, the chain is followed when a
        window runs past the leaf, and a root-to-leaf :meth:`_seek` is
        paid only when the next window starts beyond the leaf's last key
        — many narrow windows over neighbouring keys (the DocId output
        of Algorithm 2) cost one descent, not one each.
        """
        self._ensure_open()
        entries: list[Pair] = []
        next_pid = idx = 0
        for lo, hi in bounds:
            if not entries or entries[-1][0] < lo:
                leaf, idx = self._seek(lo, True)
                if leaf is None:
                    return  # every later window starts past the last key too
                entries, next_pid = leaf.entries, leaf.next
            else:
                idx = bisect_left(entries, (lo, b""), idx)
            stop = (hi, b"")
            while True:
                end = bisect_left(entries, stop, idx)
                yield from entries[idx:end]
                idx = end
                if end < len(entries):
                    break
                if not next_pid:
                    return
                leaf = self._node(next_pid)
                entries, next_pid, idx = leaf.entries, leaf.next, 0

    def items(self) -> Iterator[Pair]:
        """Iterate every entry in order."""
        return self.range()

    def delete(self, key: bytes, value: Optional[bytes] = None) -> int:
        """Delete entries under ``key``.

        With ``value`` given, removes at most one exact ``(key, value)``
        pair; otherwise removes every entry under ``key``.  Returns the
        number of entries removed.
        """
        self._ensure_open()
        key = bytes(key)
        if value is not None:
            return 1 if self._delete_pair((key, bytes(value))) else 0
        removed = 0
        # Re-seek the first surviving entry each round instead of
        # materialising the whole victim list up front (the run under one
        # key can be large — DocId trees store one entry per document).
        while True:
            leaf, idx = self._seek(key, True)
            if leaf is None or leaf.key_at(idx) != key:
                return removed
            if not self._delete_pair(leaf.pair_at(idx)):  # pragma: no cover
                return removed
            removed += 1

    def first(self) -> Optional[Pair]:
        """Smallest entry, or ``None`` for an empty tree."""
        for pair in self.range():
            return pair
        return None

    def last(self) -> Optional[Pair]:
        """Largest entry, or ``None`` for an empty tree."""
        node = self._node(self._root_pid)
        while isinstance(node, _Internal):
            node = self._node(node.children[-1])
        assert isinstance(node, _Leaf)
        # The rightmost leaf can be empty only when the tree is empty.
        return node.pair_at(node.count - 1) if node.count else None

    def __len__(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        return self._count == 0

    def stats(self) -> TreeStats:
        """Walk the tree and report its size and shape."""
        self._ensure_open()
        leaf_pages = internal_pages = used = 0
        height = 0
        stack = [(self._root_pid, 1)]
        while stack:
            pid, depth = stack.pop()
            node = self._node(pid)
            height = max(height, depth)
            used += node.used_bytes()
            if isinstance(node, _Leaf):
                leaf_pages += 1
            else:
                internal_pages += 1
                stack.extend((child, depth + 1) for child in node.children)
        return TreeStats(
            entries=self._count,
            height=height,
            leaf_pages=leaf_pages,
            internal_pages=internal_pages,
            page_size=self._capacity,
            used_bytes=used,
        )

    def flush(self) -> None:
        """Serialize dirty nodes and persist slot metadata."""
        self._ensure_open()
        for pid in sorted(self._dirty):
            node = self._cache.get(pid)
            if node is not None:
                self._pager.write(pid, self._encode(node))
                self.cache_writebacks += 1
        self._dirty.clear()
        self._store_slot()

    def checkpoint(self, clear_cache: bool = False) -> None:
        """Flush and sync; ``clear_cache`` also drops every decoded node —
        the one way to release an open tree's memory (callers must be at
        a quiescent point: no reader may hold a node)."""
        self.flush()
        self._pager.sync()
        if clear_cache:
            self._cache.clear()

    def close(self) -> None:
        """Flush and detach from the pager (the pager itself stays open).

        The decoded nodes go with it: a closed tree answers nothing, and
        its owner usually sits in a reference cycle, so memory left here
        would wait for whenever the cycle collector next runs."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        self._cache = {}

    @property
    def pager(self) -> Pager:
        return self._pager

    # ------------------------------------------------------------------
    # insertion internals

    def _insert_rec(
        self, pid: int, pair: Pair, allow_exact_dup: bool
    ) -> Optional[tuple[Pair, int]]:
        node = self._node(pid)
        if isinstance(node, _Leaf):
            idx = bisect_left(node.entries, pair)
            if (
                not allow_exact_dup
                and idx < len(node.entries)
                and node.entries[idx] == pair
            ):
                raise DuplicateEntryError(f"entry already present: {pair!r}")
            node.entries.insert(idx, pair)
            if node._used is not None:
                node._used += _LEAF_CELL_OVERHEAD + len(pair[0]) + len(pair[1])
            self._touch(node)
            if node.used_bytes() > self._capacity:
                return self._split_leaf(node)
            return None
        assert isinstance(node, _Internal)
        child_idx = bisect_right(node.seps, pair)
        split = self._insert_rec(node.children[child_idx], pair, allow_exact_dup)
        if split is None:
            return None
        sep, right_pid = split
        node.seps.insert(child_idx, sep)
        node.children.insert(child_idx + 1, right_pid)
        if node._used is not None:
            node._used += _INTERNAL_CELL_OVERHEAD + len(sep[0]) + len(sep[1])
        self._touch(node)
        if node.used_bytes() > self._capacity:
            return self._split_internal(node)
        return None

    def _split_point(self, sizes: list[int], header: int) -> int:
        """Index splitting cells into two runs of roughly equal bytes."""
        total = sum(sizes)
        acc = 0
        for i, size in enumerate(sizes):
            acc += size
            if acc >= total // 2 and i + 1 < len(sizes):
                return i + 1
        return max(1, len(sizes) - 1)

    def _split_leaf(self, node: _Leaf) -> tuple[Pair, int]:
        sizes = [_LEAF_CELL_OVERHEAD + len(k) + len(v) for k, v in node.entries]
        cut = self._split_point(sizes, _LEAF_HEADER)
        right_entries = node.entries[cut:]
        node.entries = node.entries[:cut]
        node._used = None
        right = self._new_leaf(right_entries, node.next)
        node.next = right.pid
        self._touch(node)
        return right.entries[0], right.pid

    def _split_internal(self, node: _Internal) -> tuple[Pair, int]:
        sizes = [_INTERNAL_CELL_OVERHEAD + len(k) + len(v) for k, v in node.seps]
        cut = self._split_point(sizes, _INTERNAL_HEADER)
        # The separator at `cut` moves up; children split around it.
        up = node.seps[cut]
        right = self._new_internal(node.seps[cut + 1 :], node.children[cut + 1 :])
        node.seps = node.seps[:cut]
        node.children = node.children[: cut + 1]
        node._used = None
        self._touch(node)
        return up, right.pid

    # ------------------------------------------------------------------
    # lookup internals

    def _leftmost_leaf(self) -> _Leaf:
        node = self._node(self._root_pid)
        while isinstance(node, _Internal):
            node = self._node(node.children[0])
        assert isinstance(node, _Leaf)
        return node

    def _seek(self, key: bytes, inclusive: bool) -> tuple[Optional[_Leaf], int]:
        """Find the first leaf position with entry key >= (or >) ``key``."""
        self.seeks += 1
        # Route by (key, b""), which sorts at-or-before any real entry of
        # `key`, so bisect lands on the leftmost child that may contain it.
        bound = (key, b"")
        node = self._node(self._root_pid)
        while isinstance(node, _Internal):
            node = self._node(node.children[bisect_right(node.seps, bound)])
        assert isinstance(node, _Leaf)
        idx = node.bisect_entries(bound)
        # The walk along the leaf chain is also what recovers a reader
        # that raced a split: the entries a split moved are in the leaves
        # to the right of the one the descent reached.
        leaf: Optional[_Leaf] = node
        while leaf is not None:
            count = leaf.count
            while idx < count:
                ekey = leaf.key_at(idx)
                if inclusive:
                    if ekey >= key:
                        return leaf, idx
                elif ekey > key:
                    return leaf, idx
                idx += 1
            leaf = self._node(leaf.next) if leaf.next else None
            idx = 0
        return None, 0

    # ------------------------------------------------------------------
    # deletion internals

    def _delete_pair(self, pair: Pair) -> bool:
        found = self._delete_rec(self._root_pid, pair)
        if found:
            self._count -= 1
            root = self._node(self._root_pid)
            if isinstance(root, _Internal) and len(root.children) == 1:
                child_pid = root.children[0]
                self._free_node(root)
                self._root_pid = child_pid
        return found

    def _delete_rec(self, pid: int, pair: Pair) -> bool:
        node = self._node(pid)
        if isinstance(node, _Leaf):
            idx = bisect_left(node.entries, pair)
            if idx >= len(node.entries) or node.entries[idx] != pair:
                return False
            del node.entries[idx]
            if node._used is not None:
                node._used -= _LEAF_CELL_OVERHEAD + len(pair[0]) + len(pair[1])
            self._touch(node)
            return True
        assert isinstance(node, _Internal)
        child_idx = bisect_right(node.seps, pair)
        found = self._delete_rec(node.children[child_idx], pair)
        if found:
            child = self._node(node.children[child_idx])
            if self._is_underfull(child):
                self._fix_child(node, child_idx)
        return found

    def _is_underfull(self, node: _Node) -> bool:
        if isinstance(node, _Leaf):
            return node.used_bytes() < self._min_fill
        return len(node.children) < 2 or node.used_bytes() < self._min_fill

    def _fix_child(self, parent: _Internal, idx: int) -> None:
        """Restore the fill factor of ``parent.children[idx]``.

        Tries to borrow from the richer adjacent sibling, then to merge
        with either sibling.  With variable-size cells both can be
        impossible; the node is then left sparse, which preserves
        correctness at a small density cost.
        """
        child = self._node(parent.children[idx])
        left = self._node(parent.children[idx - 1]) if idx > 0 else None
        right = (
            self._node(parent.children[idx + 1])
            if idx + 1 < len(parent.children)
            else None
        )
        if left is not None and self._borrow_from_left(parent, idx, left, child):
            return
        if right is not None and self._borrow_from_right(parent, idx, child, right):
            return
        if left is not None and self._merge(parent, idx - 1, left, child):
            return
        if right is not None and self._merge(parent, idx, child, right):
            return

    def _borrow_from_left(
        self, parent: _Internal, idx: int, left: _Node, child: _Node
    ) -> bool:
        moved = False
        if isinstance(left, _Leaf) and isinstance(child, _Leaf):
            while (
                left.entries
                and left.used_bytes() > self._min_fill
                and child.used_bytes() < self._min_fill
            ):
                entry = left.entries[-1]
                cost = _LEAF_CELL_OVERHEAD + len(entry[0]) + len(entry[1])
                if left.used_bytes() - cost < self._min_fill:
                    break
                if child.used_bytes() + cost > self._capacity:
                    break
                child.entries.insert(0, left.entries.pop())
                left._used = None
                child._used = None
                moved = True
            if moved:
                parent.seps[idx - 1] = child.entries[0]
                parent._used = None
        elif isinstance(left, _Internal) and isinstance(child, _Internal):
            while (
                len(left.children) > 2
                and left.used_bytes() > self._min_fill
                and child.used_bytes() < self._min_fill
            ):
                sep = parent.seps[idx - 1]
                cost = _INTERNAL_CELL_OVERHEAD + len(sep[0]) + len(sep[1])
                if child.used_bytes() + cost > self._capacity:
                    break
                child.seps.insert(0, sep)
                child.children.insert(0, left.children.pop())
                parent.seps[idx - 1] = left.seps.pop()
                left._used = None
                child._used = None
                parent._used = None
                moved = True
        if moved:
            self._touch(left)
            self._touch(child)
            self._touch(parent)
        return moved and not self._is_underfull(child)

    def _borrow_from_right(
        self, parent: _Internal, idx: int, child: _Node, right: _Node
    ) -> bool:
        moved = False
        if isinstance(right, _Leaf) and isinstance(child, _Leaf):
            while (
                right.entries
                and right.used_bytes() > self._min_fill
                and child.used_bytes() < self._min_fill
            ):
                entry = right.entries[0]
                cost = _LEAF_CELL_OVERHEAD + len(entry[0]) + len(entry[1])
                if right.used_bytes() - cost < self._min_fill:
                    break
                if child.used_bytes() + cost > self._capacity:
                    break
                child.entries.append(right.entries.pop(0))
                right._used = None
                child._used = None
                moved = True
            if moved:
                parent.seps[idx] = right.entries[0]
                parent._used = None
        elif isinstance(right, _Internal) and isinstance(child, _Internal):
            while (
                len(right.children) > 2
                and right.used_bytes() > self._min_fill
                and child.used_bytes() < self._min_fill
            ):
                sep = parent.seps[idx]
                cost = _INTERNAL_CELL_OVERHEAD + len(sep[0]) + len(sep[1])
                if child.used_bytes() + cost > self._capacity:
                    break
                child.seps.append(sep)
                child.children.append(right.children.pop(0))
                parent.seps[idx] = right.seps.pop(0)
                right._used = None
                child._used = None
                parent._used = None
                moved = True
        if moved:
            self._touch(right)
            self._touch(child)
            self._touch(parent)
        return moved and not self._is_underfull(child)

    def _merge(self, parent: _Internal, sep_idx: int, left: _Node, right: _Node) -> bool:
        """Merge ``right`` into ``left`` (children ``sep_idx``/``sep_idx+1``)."""
        if isinstance(left, _Leaf) and isinstance(right, _Leaf):
            combined = left.used_bytes() + right.used_bytes() - _LEAF_HEADER
            if combined > self._capacity:
                return False
            left.entries.extend(right.entries)
            left.next = right.next
            left._used = None
        elif isinstance(left, _Internal) and isinstance(right, _Internal):
            sep = parent.seps[sep_idx]
            combined = (
                left.used_bytes()
                + right.used_bytes()
                - _INTERNAL_HEADER
                + _INTERNAL_CELL_OVERHEAD
                + len(sep[0])
                + len(sep[1])
                + 8
            )
            if combined > self._capacity:
                return False
            left.seps.append(sep)
            left.seps.extend(right.seps)
            left.children.extend(right.children)
            left._used = None
        else:  # pragma: no cover - siblings always share a level
            raise StorageError("attempted to merge nodes of different kinds")
        del parent.seps[sep_idx]
        del parent.children[sep_idx + 1]
        parent._used = None
        self._free_node(right)
        self._touch(left)
        self._touch(parent)
        return True

    def _ensure_open(self) -> None:
        if self._closed:
            raise StorageError("B+Tree is closed")

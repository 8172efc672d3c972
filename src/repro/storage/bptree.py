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

* leaf page:     ``[0x03][n:u16][next:u64]`` then ``n`` *front-coded*
  cells: three LEB128 varints ``(shared, suffix_len, value_len)``, the
  key bytes after the ``shared`` it has in common with the key to its
  left, the value.  A page's first cell has ``shared = 0``, so every
  page decodes on its own.  Kind ``0x01``, the ``(klen:u16, vlen:u16)``
  leaf of entry formats 1–4, raises
  :class:`~repro.errors.IndexFormatError` naming ``repro salvage``;
* internal page: ``[0x02][n:u16][child0:u64]`` then ``n`` cells of
  ``(klen:u16, vlen:u16, key, value, child:u64)`` — separators are full
  pairs so duplicate keys route deterministically.

A decoded leaf keeps each ``shared`` length beside its entry, so byte
accounting stays exact and cheap: an insert compares the new key with
its two neighbours, a delete compares none (``lcp(a, c) = min(lcp(a,
b), lcp(b, c))``), a split slices the lengths.  Splits, borrows, merges
and :meth:`BPlusTree.bulk_load` all pack by front-coded size.

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
:meth:`BPlusTree.checkpoint`.  A leaf decode is one pass that rebuilds
every entry (a front-coded key cannot be sliced out of the page alone).
Concurrent *readers* share the cache without a lock: two of them
missing the same page both decode it and one copy wins the dict slot,
and the leaf-chain walk in
:meth:`BPlusTree._seek` recovers a reader that landed on a leaf a split
has since divided.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import (
    DuplicateEntryError,
    IndexFormatError,
    KeyTooLargeError,
    PageError,
    StorageError,
)
from repro.obs.metrics import MetricSet
from repro.storage.pager import MemoryPager, Pager

_LEAF = 0x03
_OLD_LEAF = 0x01  # the uncompressed leaf of entry formats 1-4
_INTERNAL = 0x02
_LEAF_HEADER = 1 + 2 + 8
_INTERNAL_HEADER = 1 + 2 + 8
_INTERNAL_CELL_OVERHEAD = 12
_BULK_FILL = 0.9  # share of each page bulk_load fills
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


def _varint(value: int) -> bytes:
    """LEB128: seven bits a byte, low group first, high bit = more."""
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _read_varint(raw: bytes, off: int) -> tuple[int, int]:
    value = shift = 0
    while True:
        byte = raw[off]
        off += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, off
        shift += 7


def _cell_size(shared: int, klen: int, vlen: int) -> int:
    """Bytes of one front-coded leaf cell."""
    suffix = klen - shared
    if shared < 0x80 and suffix < 0x80 and vlen < 0x80:
        return 3 + suffix + vlen
    return len(_varint(shared) + _varint(suffix) + _varint(vlen)) + suffix + vlen


_from_bytes = int.from_bytes


def _lcp(a: bytes, b: bytes) -> int:
    """Length of the common prefix of two byte strings."""
    m = min(len(a), len(b))
    diff = _from_bytes(a[:m], "big") ^ _from_bytes(b[:m], "big")
    return m - (diff.bit_length() + 7) // 8


def _old_leaf_error(pid: int) -> IndexFormatError:
    return IndexFormatError(
        f"page {pid} is an uncompressed leaf of entry format 4 or older; this "
        "build reads only front-coded leaves; run `repro salvage DBDIR` to "
        "rebuild the index from the document store"
    )


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
            if kind == _OLD_LEAF:
                raise _old_leaf_error(pid)
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
    """A leaf: its sorted entries and, beside each, the number of key
    bytes it shares with the entry to its left (``0`` for the first) —
    the bytes its cell leaves out.  ``_used`` is the exact encoded size;
    :meth:`insert` and :meth:`pop` keep both exact."""

    __slots__ = ("entries", "shared", "next", "_used")

    def __init__(
        self, pid: int, entries: list[Pair], next_pid: int, shared: list[int], used: int
    ) -> None:
        self.pid = pid
        self.entries = entries
        self.next = next_pid
        self.shared = shared
        self._used = used

    def used_bytes(self) -> int:
        return self._used

    def cell_size(self, i: int) -> int:
        key, value = self.entries[i]
        return _cell_size(self.shared[i], len(key), len(value))

    def insert(self, idx: int, pair: Pair) -> None:
        """Insert ``pair`` at ``idx``: a common-prefix comparison with the
        left neighbour, and one with the right unless that one follows."""
        entries, shared = self.entries, self.shared
        key = pair[0]
        s = _lcp(entries[idx - 1][0], key) if idx else 0
        delta = _cell_size(s, len(key), len(pair[1]))
        if idx < len(entries):
            rkey, rvalue = entries[idx]
            old = shared[idx]
            # lcp(left, right) = min(s, lcp(key, right)) = old: when s is
            # longer, the right neighbour keeps sharing exactly ``old``
            r = old if s > old else _lcp(key, rkey)
            if r != old:
                delta += _cell_size(r, len(rkey), len(rvalue))
                delta -= _cell_size(old, len(rkey), len(rvalue))
                shared[idx] = r
        entries.insert(idx, pair)
        shared.insert(idx, s)
        self._used += delta

    def pop(self, idx: int) -> Pair:
        """Remove and return the entry at ``idx``.  No comparison: the
        right neighbour now shares ``min`` of the two lengths around it."""
        entries, shared = self.entries, self.shared
        pair = entries.pop(idx)
        s = shared.pop(idx)
        delta = _cell_size(s, len(pair[0]), len(pair[1]))
        if idx < len(entries):
            rkey, rvalue = entries[idx]
            r = min(s, shared[idx]) if idx else 0
            delta += _cell_size(shared[idx], len(rkey), len(rvalue)) - _cell_size(
                r, len(rkey), len(rvalue)
            )
            shared[idx] = r
        self._used -= delta
        return pair


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


def _decode_leaf(pid: int, raw: bytes, n: int) -> _Leaf:
    """One pass over a front-coded leaf page: the entries, each cell's
    ``shared`` length, and the exact used-bytes figure (the end offset)."""
    entries: list[Pair] = []
    shared: list[int] = []
    prev = b""
    off = _LEAF_HEADER
    try:
        for _ in range(n):
            s, slen, vlen = raw[off], raw[off + 1], raw[off + 2]
            if (s | slen | vlen) < 0x80:  # three one-byte varints
                off += 3
            else:
                s, off = _read_varint(raw, off)
                slen, off = _read_varint(raw, off)
                vlen, off = _read_varint(raw, off)
            if s > len(prev):
                raise PageError(
                    f"page {pid}: cell {len(entries)} shares {s} bytes with a "
                    f"{len(prev)}-byte left key"
                )
            mid = off + slen
            end = mid + vlen
            # CPython hands back ``prev`` itself for a whole-key slice plus
            # an empty suffix: a run of duplicate keys shares one object
            key = prev[:s] + raw[off:mid]
            entries.append((key, raw[mid:end]))
            shared.append(s)
            prev = key
            off = end
    except IndexError:  # a cell header past the end of the page
        pass
    else:
        if off <= len(raw):
            (next_pid,) = struct.unpack_from("<Q", raw, 3)
            return _Leaf(pid, entries, next_pid, shared, off)
    raise PageError(f"page {pid}: leaf cells run past the {len(raw)}-byte page")


def _encode_leaf(leaf: _Leaf) -> bytes:
    """The page bytes of ``leaf``: each key after its ``shared`` bytes."""
    parts = [struct.pack("<BHQ", _LEAF, len(leaf.entries), leaf.next)]
    append = parts.append
    for (key, value), s in zip(leaf.entries, leaf.shared):
        suffix = key[s:] if s else key
        slen, vlen = len(suffix), len(value)
        if s < 0x80 and slen < 0x80 and vlen < 0x80:
            append(bytes((s, slen, vlen)))
        else:
            append(_varint(s) + _varint(slen) + _varint(vlen))
        append(suffix)
        append(value)
    return b"".join(parts)


class BPlusTree:
    """B+Tree over a pager slot.  See the module docstring for semantics."""

    def __init__(self, pager: Optional[Pager] = None, slot: int = 0) -> None:
        self._pager = pager if pager is not None else MemoryPager()
        self._slot = slot
        self._capacity = self._pager.page_size
        # the key-plus-value bytes one cell may hold (KeyTooLargeError
        # enforces it); a quarter page keeps every split and merge legal
        self.max_entry_bytes = max(16, self._capacity // 4) - 4
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
            root = self._new_leaf([], 0, [], _LEAF_HEADER)
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

    def _new_leaf(
        self, entries: list[Pair], next_pid: int, shared: list[int], used: int
    ) -> _Leaf:
        pid = self._pager.allocate()
        node = _Leaf(pid, entries, next_pid, shared, used)
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
            return _decode_leaf(pid, raw, n)
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
        if kind == _OLD_LEAF:
            raise _old_leaf_error(pid)
        raise PageError(f"page {pid} has unknown node type {kind:#x}")

    def _encode(self, node: _Node) -> bytes:
        out = bytearray()
        if isinstance(node, _Leaf):
            out += _encode_leaf(node)
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

    def bulk_load(self, pairs: Iterator[Pair] | list[Pair]) -> int:
        """Bottom-up build of an **empty** tree from pre-sorted entries.

        ``pairs`` must be sorted ascending by ``(key, value)`` with no
        exact duplicates; each page is filled to 90 % of its byte
        capacity, counted front-coded.  Orders of magnitude faster than
        repeated :meth:`insert` for batch construction (RIST's finalize
        and any offline rebuild).  Returns the number of entries loaded.
        """
        self._ensure_open()
        if self._count or not isinstance(self._node(self._root_pid), _Leaf):
            raise StorageError("bulk_load requires an empty tree")
        budget = int(self._capacity * _BULK_FILL)
        old_root = self._node(self._root_pid)

        # -- build the leaf level ----------------------------------------
        leaves: list[tuple[Pair, int]] = []  # (first pair, pid)
        current: list[Pair] = []
        shared: list[int] = []
        used = _LEAF_HEADER
        count = 0
        previous: Optional[Pair] = None

        def close_leaf() -> None:
            nonlocal current, shared, used
            if not current:
                return
            leaf = self._new_leaf(current, 0, shared, used)
            if leaves:
                prev_leaf = self._node(leaves[-1][1])
                assert isinstance(prev_leaf, _Leaf)
                prev_leaf.next = leaf.pid
                self._touch(prev_leaf)
            leaves.append((current[0], leaf.pid))
            current, shared = [], []
            used = _LEAF_HEADER

        for pair in pairs:
            pair = (bytes(pair[0]), bytes(pair[1]))
            if previous is not None and pair <= previous:
                raise StorageError(
                    "bulk_load input must be strictly ascending by (key, value)"
                )
            self._check_entry_size(pair)
            key, value = pair
            s = _lcp(previous[0], key) if current else 0
            previous = pair
            cell = _cell_size(s, len(key), len(value))
            if used + cell > budget and current:
                close_leaf()
                s, cell = 0, _cell_size(0, len(key), len(value))
            current.append(pair)
            shared.append(s)
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
        pair = (bytes(key), bytes(value))
        self._check_entry_size(pair)
        split = self._insert_rec(self._root_pid, pair, allow_exact_dup)
        if split is not None:
            sep, right_pid = split
            new_root = self._new_internal([sep], [self._root_pid, right_pid])
            self._root_pid = new_root.pid
        self._count += 1

    def _check_entry_size(self, pair: Pair) -> None:
        size = len(pair[0]) + len(pair[1])
        if size > self.max_entry_bytes:
            raise KeyTooLargeError(
                f"entry of {size} bytes exceeds the per-cell limit "
                f"{self.max_entry_bytes}"
            )

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
            ekey, value = leaf.entries[idx]
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
        return leaf is not None and leaf.entries[idx][0] == key

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
            if leaf is None or leaf.entries[idx][0] != key:
                return removed
            if not self._delete_pair(leaf.entries[idx]):  # pragma: no cover
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
        return node.entries[-1] if node.entries else None

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
            node.insert(idx, pair)
            self._touch(node)
            if node._used > self._capacity:
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

    def _split_point(self, sizes: list[int]) -> int:
        """Index splitting cells into two runs of roughly equal bytes."""
        total = sum(sizes)
        acc = 0
        for i, size in enumerate(sizes):
            acc += size
            if acc >= total // 2 and i + 1 < len(sizes):
                return i + 1
        return max(1, len(sizes) - 1)

    def _split_leaf(self, node: _Leaf) -> tuple[Pair, int]:
        entries, shared = node.entries, node.shared
        sizes = [
            _cell_size(s, len(k), len(v)) for (k, v), s in zip(entries, shared)
        ]
        cut = self._split_point(sizes)
        right_shared = shared[cut:]
        right_shared[0] = 0
        key, value = entries[cut]
        right_used = (
            _LEAF_HEADER + sum(sizes[cut + 1 :]) + _cell_size(0, len(key), len(value))
        )
        right = self._new_leaf(entries[cut:], node.next, right_shared, right_used)
        node.entries, node.shared = entries[:cut], shared[:cut]
        node._used = _LEAF_HEADER + sum(sizes[:cut])
        node.next = right.pid
        self._touch(node)
        return right.entries[0], right.pid

    def _split_internal(self, node: _Internal) -> tuple[Pair, int]:
        sizes = [_INTERNAL_CELL_OVERHEAD + len(k) + len(v) for k, v in node.seps]
        cut = self._split_point(sizes)
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
        idx = bisect_left(node.entries, bound)
        # The walk along the leaf chain is also what recovers a reader
        # that raced a split: the entries a split moved are in the leaves
        # to the right of the one the descent reached.
        leaf: Optional[_Leaf] = node
        while leaf is not None:
            entries = leaf.entries
            while idx < len(entries):
                ekey = entries[idx][0]
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
            node.pop(idx)
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

    def _sep_fits(self, parent: _Internal, sep_idx: int, pair: Pair) -> bool:
        """Whether ``pair`` may replace ``parent.seps[sep_idx]`` without
        overflowing the parent's page.  A borrow refuses a step that
        fails it: the child stays sparse, which :meth:`_fix_child` allows."""
        old = parent.seps[sep_idx]
        grow = len(pair[0]) + len(pair[1]) - len(old[0]) - len(old[1])
        return parent.used_bytes() + grow <= self._capacity

    def _borrow_from_left(
        self, parent: _Internal, idx: int, left: _Node, child: _Node
    ) -> bool:
        moved = False
        if isinstance(left, _Leaf) and isinstance(child, _Leaf):
            while (
                left.entries
                and left.used_bytes() > self._min_fill
                and child.used_bytes() < self._min_fill
                and self._sep_fits(parent, idx - 1, left.entries[-1])
            ):
                key, value = left.entries[-1]
                if left.used_bytes() - left.cell_size(-1) < self._min_fill:
                    break
                # an upper bound: the cell it pushes right can only shrink
                cost = _cell_size(0, len(key), len(value))
                if child.used_bytes() + cost > self._capacity:
                    break
                child.insert(0, left.pop(len(left.entries) - 1))
                moved = True
            if moved:
                parent.seps[idx - 1] = child.entries[0]
                parent._used = None
        elif isinstance(left, _Internal) and isinstance(child, _Internal):
            while (
                len(left.children) > 2
                and left.used_bytes() > self._min_fill
                and child.used_bytes() < self._min_fill
                and self._sep_fits(parent, idx - 1, left.seps[-1])
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
                len(right.entries) > 1
                and right.used_bytes() > self._min_fill
                and child.used_bytes() < self._min_fill
                and self._sep_fits(parent, idx, right.entries[1])
            ):
                key, value = right.entries[0]
                # the entry leaves, and the cell after it grows back to a
                # whole key
                nkey, nvalue = right.entries[1]
                freed = right.cell_size(0) + right.cell_size(1)
                freed -= _cell_size(0, len(nkey), len(nvalue))
                if right.used_bytes() - freed < self._min_fill:
                    break
                cost = _cell_size(0, len(key), len(value))  # an upper bound
                if child.used_bytes() + cost > self._capacity:
                    break
                child.insert(len(child.entries), right.pop(0))
                moved = True
            if moved:
                parent.seps[idx] = right.entries[0]
                parent._used = None
        elif isinstance(right, _Internal) and isinstance(child, _Internal):
            while (
                len(right.children) > 2
                and right.used_bytes() > self._min_fill
                and child.used_bytes() < self._min_fill
                and self._sep_fits(parent, idx, right.seps[0])
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
            # an upper bound: the first cell of ``right`` can only shrink
            combined = left.used_bytes() + right.used_bytes() - _LEAF_HEADER
            if combined > self._capacity:
                return False
            for pair in right.entries:
                left.insert(len(left.entries), pair)
            left.next = right.next
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

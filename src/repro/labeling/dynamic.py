"""Dynamic virtual suffix tree labelling (paper Section 3.4.1).

ViST never materialises the suffix tree.  Each (virtual) node carries a
*dynamic scope* ``<n, size, ...>``; when a new child must be created, a
sub-scope is carved out of the parent on the fly (Algorithm 3) by the
clue-free rule of Eq. 5–6: the ``k``-th inserted child (counting from 0)
takes a share of what the parent has left.  The share is the closed form

    child k of a chain over [lo, lo + W) is [lo + k·W//(k+1), lo + (k+1)·W//(k+2))

— Eq. 6's ``1/λ`` of the remainder with λ = ``k + 2`` — so child 0
takes half, children are contiguous, child ``k`` gets about
``W/((k+1)(k+2))`` and ``F`` children spend about ``2·log₂(F+1)`` bits
of the region, however many arrive (DESIGN §6).  Eq. 5–6's cursor —
where the next child starts — is a function of ``k`` alone, so a chain
persists nothing but its child count.  Integer arithmetic only: at
``Max = 2**128`` float rounding would overlap scopes.

Eq. 5–6 fix the share, not the precision it is written down at.  A child
takes the largest width ``m·2^e`` (an 8-bit ``m``) that fits its share —
:func:`floor_width`, less than 1/128 of the share lost — so its entry
stores the width in two bytes.  Rounding *down* keeps every child inside
its share: scopes stay nested and disjoint, and the gap a child leaves
before the next share is ids nobody uses.

Every node also *reserves* the tail of its scope, and when allocation
bottoms out (scope underflow), the insert path borrows a sequential block
of ids from the nearest ancestor whose reserve can cover the rest of the
sequence — the paper's repair, implemented in
:class:`repro.index.vist.VistIndex`.

:class:`NodeState` is the bookkeeping stored in each S-Ancestor B+Tree
entry: the scope, the parent id (used for the immediate-child test of
Algorithm 4), the chain's child count and the reserve watermark — not
liveness, which the DocId tree holds (:meth:`~repro.index.vist.VistIndex.remove`).

**Entry codec.**  Labels are 128-bit integers, but a node's neighbours
are close: 86 % of trie nodes are an only child, one id above their
parent.  :meth:`NodeState.to_bytes` therefore stores every label as its
distance from the node's own ``n`` (which the key already carries) and
omits what is idle::

    [flags][m][e][n − parent_n]     size + 1 = m·2^e, one byte each
    [reserve_used]                  only with _FLAG_RESERVE
    [k]                             only with _FLAG_CHAIN

Two kinds of node keep an exact size, a varint in place of ``[m][e]``:
the root (label 0, whose width is whatever ``max_label`` the index was
built with) and a private node (a borrowed block hands out consecutive
sizes, which no rounding can keep).  A private node neither lends nor
allocates, so it has no tail::

    [flags][size][n − parent_n]     the root may add the tail above

The size is always right behind the flags: the query path decodes
nothing else (:func:`scope_end`, ``VistIndex._end_of``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import CodecError, LabelingError
from repro.labeling.scope import Scope
from repro.sequence.encoding import Item
from repro.storage.serialization import decode_uint, encode_uint

DEFAULT_MAX = 1 << 128  # root scope [0, 2^128); labels are unbounded ints

_FLAG_PRIVATE = 0x01  # borrowed; its size is an exact varint
_FLAG_RESERVE = 0x02  # reserve_used > 0 follows
_FLAG_CHAIN = 0x04  # chain.k > 0 follows
_KNOWN_FLAGS = _FLAG_PRIVATE | _FLAG_RESERVE | _FLAG_CHAIN
# the chain's k counts children, not labels
_COUNTER_BOUND = (1 << 64) - 1
# a shared width m·2^e: m one byte (128 ≤ m when e > 0), e one byte
_MANTISSA_BITS = 8
_MIN_MANTISSA = 1 << (_MANTISSA_BITS - 1)
_MAX_EXPONENT = 255
_MAX_WIDTH = 255 << _MAX_EXPONENT

__all__ = [
    "DEFAULT_MAX",
    "Chain",
    "NodeState",
    "ScopeAllocator",
    "LambdaAllocator",
    "floor_width",
    "scope_end",
]


def floor_width(share: int) -> int:
    """The largest width ``m·2^e`` a shared entry can store that is at
    most ``share`` (≥ 1): ``share`` itself below 256, else ``share`` with
    all but its top 8 bits cleared."""
    e = share.bit_length() - _MANTISSA_BITS
    if e <= 0:
        return share
    if e > _MAX_EXPONENT:
        return _MAX_WIDTH
    return share >> e << e


def _encode_width(width: int) -> bytes:
    e = max(0, width.bit_length() - _MANTISSA_BITS)
    m = width >> e
    if m << e != width or e > _MAX_EXPONENT:
        raise CodecError(f"scope width {width} is not m·2^e with an 8-bit m")
    return bytes((m, e))


def scope_end(n: int, data: bytes) -> int:
    """``n + size`` of the state encoded in ``data``, decoding nothing
    else: the query path's one read of a value."""
    if data[0] & _FLAG_PRIVATE or not n:
        return n + decode_uint(data, 1)[0]
    return n + (data[1] << data[2]) - 1


@dataclass
class Chain:
    """A λ-chain: children carved left-to-right off one region.

    A chain serves one ``(region_lo, region_width)`` for life (a function
    of the owning node's scope), and where its ``k``-th child starts is a
    function of ``k``, so the child count is all it persists.
    """

    k: int = 0  # children allocated so far

    def allocate(self, region_lo: int, region_width: int) -> Optional[Scope]:
        """Carve child ``k`` from its share ``[lo + k·W//(k+1), lo +
        (k+1)·W//(k+2))``: the share's start, and its width rounded down
        by :func:`floor_width`.

        ``None`` — and ``k`` unchanged — when that share is empty.
        """
        k = self.k
        start = region_lo + k * region_width // (k + 1)
        share = region_lo + (k + 1) * region_width // (k + 2) - start
        if share < 1:
            return None
        self.k = k + 1
        return Scope(start, floor_width(share) - 1)


@dataclass
class NodeState:
    """Persistent per-node labelling state (the S-Ancestor entry value).

    ``chain`` counts the children carved off this node's usable range;
    ``reserve_used`` tracks ids lent to underflowing descendants;
    ``private`` marks borrow-labelled nodes that must never be shared
    with later insertions (paper Section 3.4.1).
    """

    scope: Scope
    parent_n: int
    reserve_used: int = 0
    private: bool = False
    chain: Chain = field(default_factory=Chain)

    def to_bytes(self) -> bytes:
        flags = _FLAG_PRIVATE if self.private else 0
        tail = b""
        if self.reserve_used:
            flags |= _FLAG_RESERVE
            tail = encode_uint(self.reserve_used)
        if self.chain.k:
            flags |= _FLAG_CHAIN
            tail += encode_uint(self.chain.k)
        if self.private and tail:
            raise CodecError("a private node neither lends nor allocates")
        if self.private or not self.scope.n:
            size = encode_uint(self.scope.size)
        else:
            size = _encode_width(self.scope.size + 1)
        return bytes([flags]) + size + encode_uint(self.scope.n - self.parent_n) + tail

    @classmethod
    def from_bytes(cls, n: int, data: bytes) -> "NodeState":
        if not data:
            raise CodecError("empty node state")
        flags = data[0]
        if flags & ~_KNOWN_FLAGS:
            raise CodecError(f"unknown node state flag bits {flags & ~_KNOWN_FLAGS:#x}")
        private = bool(flags & _FLAG_PRIVATE)
        if private and flags != _FLAG_PRIVATE:
            raise CodecError("a private node neither lends nor allocates")
        if private or not n:
            size, offset = decode_uint(data, 1)
        else:
            if len(data) < 3:
                raise CodecError("truncated scope width")
            m, e = data[1], data[2]
            if not m or (e and m < _MIN_MANTISSA):
                raise CodecError(f"scope width {m}·2^{e} is not normalised")
            size, offset = (m << e) - 1, 3
        parent_delta, offset = decode_uint(data, offset)
        if parent_delta > n:
            raise CodecError(f"parent delta {parent_delta} exceeds the label {n}")
        reserve_used = k = 0
        if flags & _FLAG_RESERVE:
            reserve_used, offset = decode_uint(data, offset)
            if not reserve_used:
                raise CodecError("node state flags an unused reserve")
        if flags & _FLAG_CHAIN:
            k, offset = decode_uint(data, offset)
            if not k:
                raise CodecError("node state flags an idle chain")
        if offset != len(data):
            raise CodecError("trailing bytes in node state")
        return cls(
            scope=Scope(n, size),
            parent_n=n - parent_delta,
            reserve_used=reserve_used,
            private=private,
            chain=Chain(k),
        )

    @staticmethod
    def max_encoded_len(label_bound: int) -> int:
        """Longest :meth:`to_bytes` of any non-root state under a root whose
        labels stay within ``label_bound``: a shared node with a reserve
        used and a chain — the two-byte width, two label-width integers
        (parent delta, reserve) and one counter (``k``).  A private node's
        exact size costs a label width, but it has no tail."""
        label = len(encode_uint(label_bound))
        return 3 + 2 * label + len(encode_uint(_COUNTER_BOUND))


class ScopeAllocator:
    """Base allocator: the reserve accounting every allocator shares, and
    the ``place`` seam :class:`~repro.index.vist.VistIndex` calls."""

    def __init__(self, *, reserve_divisor: int = 16) -> None:
        if reserve_divisor < 2:
            raise LabelingError("reserve_divisor must be >= 2")
        self.reserve_divisor = reserve_divisor

    # -- geometry ---------------------------------------------------------

    def reserve_size(self, scope: Scope) -> int:
        """Ids kept back at the scope tail for underflow borrowing."""
        return scope.size // self.reserve_divisor

    def usable_size(self, scope: Scope) -> int:
        """Ids available for regular child allocation."""
        return max(0, scope.size - self.reserve_size(scope))

    def borrow_block(self, state: NodeState, count: int) -> Optional[int]:
        """Reserve-tail block of ``count`` sequential ids, or ``None``.

        The reserve occupies the last ``reserve_size`` ids of the scope;
        blocks are handed out low-to-high via ``state.reserve_used``.
        """
        reserve = self.reserve_size(state.scope)
        if count < 1 or state.reserve_used + count > reserve:
            return None
        start = state.scope.end - reserve + 1 + state.reserve_used
        state.reserve_used += count
        return start

    # -- interface ----------------------------------------------------------

    def place(
        self, parent_state: NodeState, parent_item: Optional[Item], child: Item
    ) -> Optional[Scope]:
        """Allocate a child scope inside the parent; ``None`` on underflow.

        May advance ``parent_state``'s chain; the caller persists the state.
        ``parent_item`` is ``None`` for the virtual root.
        """
        raise NotImplementedError


class LambdaAllocator(ScopeAllocator):
    """Clue-free allocation (Eq. 5–6): child ``k`` takes the closed-form
    share :meth:`Chain.allocate` carves off the parent's usable range."""

    def place(
        self, parent_state: NodeState, parent_item: Optional[Item], child: Item
    ) -> Optional[Scope]:
        scope = parent_state.scope
        return parent_state.chain.allocate(scope.n + 1, self.usable_size(scope))

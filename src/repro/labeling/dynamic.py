"""Dynamic virtual suffix tree labelling (paper Section 3.4.1).

ViST never materialises the suffix tree.  Each (virtual) node carries a
*dynamic scope* ``<n, size, ...>``; when a new child must be created, a
sub-scope is carved out of the parent on the fly (Algorithm 3):

* with clues (Eq. 3–4): each follow-set candidate owns a deterministic
  slot sized by its Eq. 2 probability;
* without clues (Eq. 5–6): the ``k``-th inserted child (counting from 0)
  receives a ``1/λ`` share of what the parent has left, with λ floored at
  ``k + 1`` so that a node with many children does not halve its range
  once per child.

Every node also *reserves* the tail of its scope, and when allocation
bottoms out (scope underflow), the insert path borrows a sequential block
of ids from the nearest ancestor whose reserve can cover the rest of the
sequence — the paper's repair, implemented in
:class:`repro.index.vist.VistIndex`.

:class:`NodeState` is the bookkeeping stored in each S-Ancestor B+Tree
entry: the scope, the parent id (used for the immediate-child test of
Algorithm 4), λ-chain cursors, the reserve watermark and a reference
count for deletion.  A λ-chain persists one cursor, ``next``; the width
still free is ``region end − next`` because a chain carves one fixed
region for life, so allocating the ``k``-th child is O(1) in exact
integer arithmetic — no floating point ever touches a label, because at
``Max = 2**128`` float rounding would overlap scopes.

**Entry codec.**  Labels are 128-bit integers, but a node's neighbours
are close: 86 % of trie nodes are an only child, one id above their
parent.  :meth:`NodeState.to_bytes` therefore stores every label as its
distance from the node's own ``n`` (which the key already carries) and
omits what is idle::

    [flags][size][n − parent_n][refs]
    [reserve_used]          only with _FLAG_RESERVE
    [k][next − n]           once per chain whose flag bit is set

``size`` stays the first integer, at offset 1: the query path decodes
nothing else (``VistIndex._end_of``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import CodecError, LabelingError
from repro.labeling.clues import FollowCandidate, FollowSets
from repro.labeling.scope import Scope
from repro.sequence.encoding import Item
from repro.storage.serialization import decode_uint, encode_uint

DEFAULT_MAX = 1 << 128  # root scope [0, 2^128); labels are unbounded ints

_FLAG_PRIVATE = 0x01
_FLAG_RESERVE = 0x02  # reserve_used > 0 follows
_FLAG_PLAIN = 0x04  # per chain: (k, next - n) follows, in this order
_FLAG_VALUE = 0x08
_FLAG_EXTRA = 0x10
_CHAIN_FLAGS = (
    ("plain", _FLAG_PLAIN),
    ("value", _FLAG_VALUE),
    ("extra", _FLAG_EXTRA),
)
_KNOWN_FLAGS = _FLAG_PRIVATE | _FLAG_RESERVE | _FLAG_PLAIN | _FLAG_VALUE | _FLAG_EXTRA
# refs and chain lengths count documents and children, not labels
_COUNTER_BOUND = (1 << 64) - 1
_WEIGHT_SCALE = 1_000_000

__all__ = [
    "DEFAULT_MAX",
    "Chain",
    "NodeState",
    "ScopeAllocator",
    "LambdaAllocator",
    "UniformAllocator",
    "ClueAllocator",
]


@dataclass
class Chain:
    """Cursor of one λ-chain: children carved left-to-right off a region.

    A chain serves one ``(region_lo, region_width)`` for life (a function
    of the owning node's scope and item), so the unallocated width is
    always ``region_lo + region_width - next`` and only ``next`` persists.
    """

    k: int = 0  # children allocated so far
    next: int = 0  # next free id (valid once k > 0)

    def allocate(self, region_lo: int, region_width: int, lam: int) -> Optional[Scope]:
        """Carve the next child scope; ``None`` on underflow.

        Eq. 5–6 give the new child ``1/λ`` of what the chain has left.
        λ is floored at ``k + 1``: child ``k ≥ 1`` of a ``λ = 2`` chain
        gets ``width / (2k(k+1))``, so ``F`` children spend at most
        ``2·log₂F + 1`` bits of the region, not ``F`` (DESIGN §6).
        """
        lam = max(lam, 2, self.k + 1)
        start = self.next if self.k else region_lo
        share = (region_lo + region_width - start) // lam
        if share < 1:
            return None
        self.next = start + share
        self.k += 1
        return Scope(start, share - 1)


@dataclass
class NodeState:
    """Persistent per-node labelling state (the S-Ancestor entry value).

    ``plain`` is the λ-scheme chain (clue-free mode); ``value`` and
    ``extra`` are the clue allocator's value-slot and overflow chains;
    ``reserve_used`` tracks ids lent to underflowing descendants;
    ``refs`` counts sequences whose insertion passed through this node
    (for deletion).  ``private`` marks borrow-labelled nodes that must
    never be shared with later insertions (paper Section 3.4.1).
    """

    scope: Scope
    parent_n: int
    refs: int = 0
    reserve_used: int = 0
    private: bool = False
    plain: Chain = field(default_factory=Chain)
    value: Chain = field(default_factory=Chain)
    extra: Chain = field(default_factory=Chain)

    def to_bytes(self) -> bytes:
        n = self.scope.n
        flags = _FLAG_PRIVATE if self.private else 0
        tail = b""
        if self.reserve_used:
            flags |= _FLAG_RESERVE
            tail = encode_uint(self.reserve_used)
        for name, bit in _CHAIN_FLAGS:
            chain = getattr(self, name)
            if chain.k:
                flags |= bit
                tail += encode_uint(chain.k) + encode_uint(chain.next - n)
        return (
            bytes([flags])
            + encode_uint(self.scope.size)
            + encode_uint(n - self.parent_n)
            + encode_uint(self.refs)
            + tail
        )

    @classmethod
    def from_bytes(cls, n: int, data: bytes) -> "NodeState":
        if not data:
            raise CodecError("empty node state")
        flags = data[0]
        if flags & ~_KNOWN_FLAGS:
            raise CodecError(f"unknown node state flag bits {flags & ~_KNOWN_FLAGS:#x}")
        size, offset = decode_uint(data, 1)
        parent_delta, offset = decode_uint(data, offset)
        if parent_delta > n:
            raise CodecError(f"parent delta {parent_delta} exceeds the label {n}")
        refs, offset = decode_uint(data, offset)
        reserve_used = 0
        if flags & _FLAG_RESERVE:
            reserve_used, offset = decode_uint(data, offset)
            if not reserve_used:
                raise CodecError("node state flags an unused reserve")
        state = cls(
            scope=Scope(n, size),
            parent_n=n - parent_delta,
            refs=refs,
            reserve_used=reserve_used,
            private=bool(flags & _FLAG_PRIVATE),
        )
        for name, bit in _CHAIN_FLAGS:
            if flags & bit:
                k, offset = decode_uint(data, offset)
                delta, offset = decode_uint(data, offset)
                if not k or not delta:
                    raise CodecError(f"node state flags an idle {name} chain")
                setattr(state, name, Chain(k=k, next=n + delta))
        if offset != len(data):
            raise CodecError("trailing bytes in node state")
        return state

    @staticmethod
    def max_encoded_len(label_bound: int) -> int:
        """Longest :meth:`to_bytes` of any state under a root whose labels
        stay within ``label_bound``: private, reserve used, three chains —
        six label-width integers (size, parent delta, reserve, three
        ``next`` deltas) and four counters (refs, three ``k``)."""
        label = len(encode_uint(label_bound))
        counter = len(encode_uint(_COUNTER_BOUND))
        return 1 + 6 * label + 4 * counter


class ScopeAllocator:
    """Base allocator: reserve accounting shared by both schemes."""

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

        Mutates ``parent_state`` cursors; the caller persists the state.
        ``parent_item`` is ``None`` for the virtual root.
        """
        raise NotImplementedError


class LambdaAllocator(ScopeAllocator):
    """Clue-free allocation (Eq. 5–6): the ``k``-th child gets a λ share.

    ``lam`` is a constant; :meth:`Chain.allocate` floors it at ``k + 1``,
    so the scope a chain hands out shrinks like ``1/k²`` however many
    children arrive, instead of the paper's ``(λ-1)^{k-1}/λ^k``.
    """

    def __init__(self, lam: int = 2, *, reserve_divisor: int = 16) -> None:
        super().__init__(reserve_divisor=reserve_divisor)
        if lam < 2:
            raise LabelingError(f"lambda must be >= 2, got {lam}")
        self.lam = lam

    def place(
        self, parent_state: NodeState, parent_item: Optional[Item], child: Item
    ) -> Optional[Scope]:
        scope = parent_state.scope
        return parent_state.plain.allocate(scope.n + 1, self.usable_size(scope), self.lam)


class UniformAllocator(ScopeAllocator):
    """Equal-share allocation for a known child-count estimate.

    Section 3.4.1, "Dynamic Scope Allocation without Clues": when "all
    that we can rely on is a rough estimation of the number of different
    elements that follow a given element ... the best we can do is to
    assume each of these elements occurs at roughly the same rate" —
    e.g. ``CountryOfBirth`` with ≈100 distinct values.  The ``k``-th
    inserted child receives exactly ``usable / m``; the ``m+1``-th child
    underflows (and borrows), which is the price of a tight estimate.
    """

    def __init__(self, expected_children: int, *, reserve_divisor: int = 16) -> None:
        super().__init__(reserve_divisor=reserve_divisor)
        if expected_children < 1:
            raise LabelingError("expected_children must be >= 1")
        self.expected_children = expected_children

    def place(
        self, parent_state: NodeState, parent_item: Optional[Item], child: Item
    ) -> Optional[Scope]:
        scope = parent_state.scope
        usable = self.usable_size(scope)
        share = usable // self.expected_children
        k = parent_state.plain.k
        if share < 1 or k >= self.expected_children:
            return None
        child_scope = Scope(scope.n + 1 + k * share, share - 1)
        parent_state.plain.k = k + 1
        parent_state.plain.next = child_scope.end + 1
        return child_scope


class ClueAllocator(ScopeAllocator):
    """Clue-based allocation (Eq. 1–4) with a λ fallback region.

    The usable range splits into a *clue region* (``clue_fraction`` of
    it) carved into follow-set slots proportional to Eq. 2 probabilities,
    and an *overflow region* for children the schema did not predict.
    Element candidates own their whole slot (the trie has at most one
    child per item).  The value slot hosts every distinct hashed value
    through a λ-chain with ``λ = value cardinality`` — the paper's
    uniform-rate assumption for attribute values.

    All slot boundaries are computed with integer weights
    (``round(p * 1e6)``); floats never touch label arithmetic.
    """

    def __init__(
        self,
        follow_sets: FollowSets,
        *,
        clue_fraction: float = 0.875,
        fallback_lam: int = 4,
        reserve_divisor: int = 16,
    ) -> None:
        super().__init__(reserve_divisor=reserve_divisor)
        if not 0.0 < clue_fraction < 1.0:
            raise LabelingError("clue_fraction must be in (0, 1)")
        if fallback_lam < 2:
            raise LabelingError("fallback_lam must be >= 2")
        self.follow_sets = follow_sets
        self.fallback_lam = fallback_lam
        self._frac_num = round(clue_fraction * 1024)
        self._frac_den = 1024

    def place(
        self, parent_state: NodeState, parent_item: Optional[Item], child: Item
    ) -> Optional[Scope]:
        scope = parent_state.scope
        usable = self.usable_size(scope)
        clue_width = usable * self._frac_num // self._frac_den
        extra_lo = scope.n + 1 + clue_width
        extra_width = usable - clue_width
        if parent_item is None:
            candidates = self.follow_sets.root_candidates()
        else:
            candidates = self.follow_sets.candidates(parent_item)
        slot = self._find_slot(candidates, child, scope.n + 1, clue_width)
        if slot is None:
            # not predicted by the schema: λ-chain in the overflow region
            return parent_state.extra.allocate(extra_lo, extra_width, self.fallback_lam)
        slot_lo, slot_width, is_value = slot
        if not is_value:
            if slot_width < 1:
                return None
            return Scope(slot_lo, slot_width - 1)
        # value slot: λ-chain with λ = estimated number of distinct values
        owner = child.prefix[-1] if child.prefix else self.follow_sets.schema.root
        lam = max(2, self.follow_sets.schema.value_cardinality(owner))
        return parent_state.value.allocate(slot_lo, slot_width, lam)

    @staticmethod
    def _find_slot(
        candidates: list[FollowCandidate],
        child: Item,
        lo: int,
        width: int,
    ) -> Optional[tuple[int, int, bool]]:
        """Deterministic Eq. 3–4 slot for ``child``: ``(lo, width, is_value)``."""
        weights = [max(1, round(c.probability * _WEIGHT_SCALE)) for c in candidates]
        total = sum(weights)
        if total <= 0:
            return None
        acc = 0
        for candidate, weight in zip(candidates, weights):
            slot_lo = lo + width * acc // total
            slot_hi = lo + width * (acc + weight) // total
            if candidate.matches(child):
                return slot_lo, slot_hi - slot_lo, candidate.is_value
            acc += weight
        return None

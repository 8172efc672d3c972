"""Structural invariant checkers for the storage and index layers.

Each checker walks a live structure and returns an
:class:`InvariantReport`; nothing is mutated.  The checks encode the
contracts the rest of the codebase silently relies on:

**B+Tree** (:func:`check_bptree`)
    entries sorted by ``(key, value)``; every entry within the separator
    bounds implied by ``bisect_right`` routing (``seps[i-1] <= pair <
    seps[i]``); uniform leaf depth; the leaf ``next``-chain visits the
    leaves in key order and terminates; no page referenced twice;
    ``len(tree)`` equals the walked entry count; every node fits its
    page; each leaf's front-coding lengths are exact (0 for the first
    cell, the common prefix with the left key after it) and its
    accounted size is the size it encodes to.  Deletion may legitimately leave *sparse* nodes (the borrow /
    merge repair can be impossible with variable-size cells), so
    under-filled nodes are counted, not flagged.

**ViST scopes** (:func:`check_vist_scopes`)
    every node's parent exists; child scope strictly inside the parent's
    ``(n, n+size]``; sibling scopes disjoint; reserve accounting
    (``reserve_used <= reserve_size``; borrow-labelled *private* nodes
    live inside their lender's used reserve block; regular children stay
    out of the reserve); prefix depths within the recorded
    ``max-prefix-len`` meta entry, and the integer the host holds in
    memory equal to that entry.

**ViST documents** (:func:`check_vist_documents`)
    each node's scope holds a DocId key iff a payload traverses it (the
    rule ``remove`` reclaims by), no node is leaked, no private node is
    shared; each document has one DocId entry, under its last label.

**Posting cache** (:func:`check_posting_coherence`)
    every resident posting group holds, row for row, the ``(prefix, n,
    end)`` rows of a fresh scan of its D-Ancestor key range, in the same
    order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from repro.index.postings import PostingGroup
from repro.index.store import RESERVED_KEYS, decode_node_key
from repro.labeling.dynamic import NodeState
from repro.storage.bptree import (
    BPlusTree,
    Pair,
    _encode_leaf,
    _Internal,
    _lcp,
    _Leaf,
    _Node,
)

__all__ = [
    "InvariantReport",
    "check_bptree",
    "check_vist_scopes",
    "check_vist_documents",
    "check_posting_coherence",
    "check_index",
    "assert_invariants",
]

_MAX_VIOLATIONS = 25  # per report; enough to diagnose, bounded output


@dataclass
class InvariantReport:
    """Outcome of one checker: what was inspected and what failed."""

    name: str
    checked: int = 0
    sparse_nodes: int = 0  # under-filled B+Tree nodes (allowed, counted)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def fail(self, message: str) -> None:
        if len(self.violations) < _MAX_VIOLATIONS:
            self.violations.append(message)
        elif len(self.violations) == _MAX_VIOLATIONS:
            self.violations.append("... further violations suppressed")

    def summary(self) -> str:
        if self.ok:
            extra = f", {self.sparse_nodes} sparse" if self.sparse_nodes else ""
            return f"OK   {self.name}: {self.checked} checked{extra}"
        lines = [f"FAIL {self.name}: {len(self.violations)} violation(s)"]
        lines.extend(f"  - {v}" for v in self.violations)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# B+Tree structure


def check_bptree(tree: BPlusTree, name: str = "tree") -> InvariantReport:
    report = InvariantReport(name=f"bptree:{name}")
    seen_pids: set[int] = set()
    leaves_in_order: list[_Leaf] = []
    leaf_depths: set[int] = set()
    entry_count = 0
    root = tree._node(tree._root_pid)

    def visit(node: _Node, depth: int, lo: Optional[Pair], hi: Optional[Pair]) -> None:
        nonlocal entry_count
        if node.pid in seen_pids:
            report.fail(f"page {node.pid} reachable twice")
            return
        seen_pids.add(node.pid)
        if node.used_bytes() > tree._capacity:
            report.fail(
                f"page {node.pid} overflows: {node.used_bytes()} > {tree._capacity}"
            )
        if node is not root and tree._is_underfull(node):
            report.sparse_nodes += 1
        if isinstance(node, _Leaf):
            leaf_depths.add(depth)
            leaves_in_order.append(node)
            check_front_coding(node)
            previous: Optional[Pair] = None
            for pair in node.entries:
                report.checked += 1
                entry_count += 1
                if previous is not None and pair < previous:
                    report.fail(f"leaf {node.pid} entries out of order at {pair!r}")
                previous = pair
                if lo is not None and pair < lo:
                    report.fail(
                        f"leaf {node.pid} entry {pair[0]!r} below separator bound"
                    )
                if hi is not None and pair >= hi:
                    report.fail(
                        f"leaf {node.pid} entry {pair[0]!r} at/above separator bound"
                    )
            return
        assert isinstance(node, _Internal)
        if len(node.children) != len(node.seps) + 1:
            report.fail(
                f"internal {node.pid}: {len(node.children)} children for "
                f"{len(node.seps)} separators"
            )
            return
        if node is root and len(node.children) < 2:
            report.fail(f"root internal {node.pid} has a single child (uncollapsed)")
        for i in range(1, len(node.seps)):
            if node.seps[i - 1] > node.seps[i]:
                report.fail(f"internal {node.pid} separators out of order at {i}")
        for sep in node.seps:
            if lo is not None and sep < lo:
                report.fail(f"internal {node.pid} separator below inherited bound")
            if hi is not None and sep >= hi:
                report.fail(f"internal {node.pid} separator above inherited bound")
        for i, child_pid in enumerate(node.children):
            child_lo = node.seps[i - 1] if i > 0 else lo
            child_hi = node.seps[i] if i < len(node.seps) else hi
            visit(tree._node(child_pid), depth + 1, child_lo, child_hi)

    def check_front_coding(leaf: _Leaf) -> None:
        shared = leaf.shared
        if shared and shared[0] != 0:
            report.fail(f"leaf {leaf.pid}: first cell shares {shared[0]} bytes, not 0")
        for i in range(1, len(shared)):
            common = _lcp(leaf.entries[i - 1][0], leaf.entries[i][0])
            if shared[i] != common:
                report.fail(
                    f"leaf {leaf.pid}: cell {i} shares {shared[i]} bytes with its "
                    f"left key, which has {common} in common"
                )
        encoded = len(_encode_leaf(leaf))
        if leaf.used_bytes() != encoded:
            report.fail(
                f"leaf {leaf.pid}: accounts {leaf.used_bytes()} bytes but "
                f"encodes to {encoded}"
            )

    visit(root, 0, None, None)
    if len(leaf_depths) > 1:
        report.fail(f"leaves at multiple depths: {sorted(leaf_depths)}")
    for i, leaf in enumerate(leaves_in_order):
        expected_next = leaves_in_order[i + 1].pid if i + 1 < len(leaves_in_order) else 0
        if leaf.next != expected_next:
            report.fail(
                f"leaf chain broken at page {leaf.pid}: next={leaf.next}, "
                f"expected {expected_next}"
            )
    if entry_count != len(tree):
        report.fail(f"entry count mismatch: walked {entry_count}, slot says {len(tree)}")
    return report


# ---------------------------------------------------------------------------
# ViST scope containment and reserve accounting


def _vist_nodes(index) -> dict[int, tuple[NodeState, object, tuple]]:
    """All combined-tree nodes: ``n -> (state, symbol, prefix)``."""
    nodes: dict[int, tuple[NodeState, object, tuple]] = {}
    for key, value in index.tree.items():
        if key in RESERVED_KEYS:
            continue
        symbol, prefix, n = decode_node_key(key)
        nodes[n] = (NodeState.from_bytes(n, value), symbol, prefix)
    return nodes


def check_vist_scopes(index) -> InvariantReport:
    report = InvariantReport(name="vist:scopes")
    nodes = _vist_nodes(index)
    root_state = index._root_state
    allocator = index.allocator
    max_depth = index.max_prefix_len()
    stored_depth = index._stored_max_prefix_len()
    if stored_depth != max_depth:
        report.fail(
            f"held max-prefix-len {max_depth} differs from the stored meta "
            f"entry {stored_depth}"
        )
    children: dict[int, list[NodeState]] = {}
    for n, (state, symbol, prefix) in nodes.items():
        report.checked += 1
        if len(prefix) > max_depth:
            report.fail(
                f"node {n} ({symbol!r}) depth {len(prefix)} exceeds recorded "
                f"max-prefix-len {max_depth}"
            )
        if state.parent_n == root_state.scope.n:
            parent = root_state
        else:
            entry = nodes.get(state.parent_n)
            if entry is None:
                report.fail(f"node {n} ({symbol!r}) has missing parent {state.parent_n}")
                continue
            parent = entry[0]
        if not parent.scope.covers(state.scope):
            report.fail(
                f"node {n}: scope {state.scope} escapes parent "
                f"{parent.scope} (containment)"
            )
            continue
        children.setdefault(state.parent_n, []).append(state)
        reserve = allocator.reserve_size(parent.scope)
        reserve_lo = parent.scope.end - reserve + 1
        if state.private and not parent.private:
            # borrow-labelled chain head: must sit in the lender's used block
            used_hi = reserve_lo + parent.reserve_used - 1
            if not (reserve_lo <= state.scope.n and state.scope.end <= used_hi):
                report.fail(
                    f"private node {n}: scope {state.scope} outside lender "
                    f"{parent.scope.n}'s used reserve [{reserve_lo}, {used_hi}]"
                )
        elif not state.private and state.scope.end >= reserve_lo:
            report.fail(
                f"node {n}: scope {state.scope} intrudes into parent "
                f"{parent.scope.n}'s reserve (starts at {reserve_lo})"
            )
    for state, _symbol, _prefix in nodes.values():
        reserve = allocator.reserve_size(state.scope)
        if state.reserve_used > reserve:
            report.fail(
                f"node {state.scope.n}: reserve_used {state.reserve_used} "
                f"exceeds reserve size {reserve}"
            )
    for parent_n, siblings in children.items():
        siblings.sort(key=lambda s: s.scope.n)
        for left, right in zip(siblings, siblings[1:]):
            if right.scope.n <= left.scope.end:
                report.fail(
                    f"siblings under {parent_n} overlap: {left.scope} vs {right.scope}"
                )
    return report


def check_vist_documents(index) -> InvariantReport:
    """Node liveness and DocId-tree coherence against the stored payloads."""
    from repro.storage.serialization import decode_tuple, decode_uint

    report = InvariantReport(name="vist:documents")
    nodes = _vist_nodes(index)
    traversals: dict[int, int] = {}
    tail_labels: dict[int, int] = {}  # doc_id -> last path label
    for doc_id in index.docstore.ids():
        report.checked += 1
        sequence, labels = index._parse_payload(index.docstore.get(doc_id))
        if len(labels) != len(sequence):
            report.fail(
                f"doc {doc_id}: {len(labels)} path labels for "
                f"{len(sequence)} sequence items"
            )
            continue
        for item, n in zip(sequence, labels):
            traversals[n] = traversals.get(n, 0) + 1
            entry = nodes.get(n)
            if entry is None:
                report.fail(f"doc {doc_id}: path label {n} has no index entry")
                continue
            state, symbol, prefix = entry
            if symbol != item.symbol or prefix != item.prefix:
                report.fail(
                    f"doc {doc_id}: label {n} maps to ({symbol!r}, {prefix!r}), "
                    f"payload says ({item.symbol!r}, {item.prefix!r})"
                )
        tail_labels[doc_id] = labels[-1]
    docid_labels: list[int] = []  # ascending, as the tree holds them
    attached: set[int] = set()
    for key, value in index.docid_tree.items():
        n = decode_tuple(key)[0]
        docid_labels.append(n)
        doc_id = decode_uint(value)[0]
        if tail_labels.get(doc_id) != n or doc_id in attached:
            report.fail(
                f"DocId entry ({n}, doc {doc_id}) is not the document's one "
                f"entry under its tail label {tail_labels.get(doc_id)}"
            )
        attached.add(doc_id)
    for doc_id in tail_labels.keys() - attached:
        report.fail(
            f"doc {doc_id} missing from DocId tree under label {tail_labels[doc_id]}"
        )
    for n, (state, symbol, _prefix) in nodes.items():
        expected = traversals.get(n, 0)
        i = bisect_left(docid_labels, n)
        holds_key = i < len(docid_labels) and docid_labels[i] <= state.scope.end
        if state.private and expected > 1:
            report.fail(f"private node {n} shared by {expected} traversals")
        if not expected:
            report.fail(f"node {n} ({symbol!r}): no document traverses it (leaked)")
        if holds_key != bool(expected):
            report.fail(
                f"node {n} ({symbol!r}): {expected} payload traversal(s), but its "
                f"scope holds {'a' if holds_key else 'no'} DocId key"
            )
    return report


# ---------------------------------------------------------------------------
# posting-cache coherence


def check_posting_coherence(host) -> InvariantReport:
    """Every resident posting group equals a fresh B+Tree scan."""
    report = InvariantReport(name="postings:coherence")
    cache = host.postings
    if cache is None:
        return report
    for key in list(cache._groups):
        report.checked += 1
        symbol, prefix_len, leading = key
        group = cache._groups[key]
        fresh = PostingGroup(host._load_postings(symbol, prefix_len, leading)).rows()
        # rows compare by value: an updated group can hold list columns
        # where a fresh scan packs array('q'), with the same rows
        columns = (len(group.ns), len(group.ends), len(group.prefixes))
        if len(set(columns)) != 1:
            report.fail(
                f"group ({symbol!r}, {prefix_len}, {leading!r}): columns of "
                f"unequal length {columns}"
            )
        elif group.rows() != fresh:
            stray = sorted(set(group.rows()).symmetric_difference(fresh), key=lambda r: r[1])
            report.fail(
                f"group ({symbol!r}, {prefix_len}, {leading!r}): cached "
                f"{len(group)} posting(s), tree has {len(fresh)}; first "
                f"differing row {stray[0] if stray else '(same rows, out of order)'}"
            )
    return report


# ---------------------------------------------------------------------------
# top level


def check_index(index) -> list[InvariantReport]:
    """Run every applicable checker against an index; returns the reports."""
    from repro.index.vist import VistIndex

    reports = [check_bptree(index.tree, "combined")]
    if hasattr(index, "docid_tree"):
        reports.append(check_bptree(index.docid_tree, "docid"))
    if isinstance(index, VistIndex):
        reports.append(check_vist_scopes(index))
        reports.append(check_vist_documents(index))
    if getattr(index, "postings", None) is not None:
        reports.append(check_posting_coherence(index))
    return reports


def assert_invariants(index) -> list[InvariantReport]:
    """Raise ``AssertionError`` with a readable summary on any violation."""
    reports = check_index(index)
    if any(not report.ok for report in reports):
        raise AssertionError(
            "invariant violations:\n"
            + "\n".join(report.summary() for report in reports if not report.ok)
        )
    return reports

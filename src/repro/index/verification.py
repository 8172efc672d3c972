"""Tree-embedding verification of candidate documents.

ViST's subsequence matching admits **false positives** (DESIGN.md §2):
two query branches can be satisfied by *different* sibling subtrees that
share identical prefixes, ``//`` bindings can mix levels, and bucketed
value hashing can collide.  This module re-checks a candidate document —
reconstructed from its stored structure-encoded sequence — against the
original query tree under XPath's existential semantics:

* a concrete query node matches a data node with the same label;
* ``*`` matches any one element/attribute node;
* a ``//`` node's children may match any (proper or direct) descendant;
* a value predicate requires a value leaf with the same hash;
* every query child must be satisfied, each independently (two branches
  may embed onto the same data node, as in XPath).

Note the converse direction: raw ViST also has *false negatives* relative
to XPath for queries like ``/A[B/C]/B/D`` when a single ``B`` carries both
``C`` and ``D`` (the query sequence demands two ``(B, A)`` items).  The
exact mode (``query(..., verify=True)``) therefore draws its candidates
from the *relaxed* query for same-label-branch queries (see
``XmlIndexBase._needs_relaxed_candidates``) before filtering here, which
makes it both sound and complete under these XPath semantics.  The
false-positive benchmark quantifies both directions.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import IndexStateError
from repro.query.ast import QueryNode
from repro.sequence.encoding import StructureEncodedSequence
from repro.sequence.vocabulary import ValueHasher

__all__ = [
    "verify_document",
    "find_result_nodes",
    "query_needs_raw_values",
    "SequenceTreeNode",
    "rebuild_tree",
]


class SequenceTreeNode:
    """A node of the tree reconstructed from a structure-encoded sequence.

    ``position`` is the node's index in the sequence (preorder order);
    the super-root carries ``-1``.
    """

    __slots__ = ("symbol", "children", "position", "raw")

    def __init__(self, symbol: Union[str, int, None], position: int = -1) -> None:
        self.symbol = symbol  # None for the super-root
        self.position = position
        self.raw: Union[str, None] = None  # original text of a value leaf
        self.children: list["SequenceTreeNode"] = []

    @property
    def is_value(self) -> bool:
        return isinstance(self.symbol, int)

    def descendants(self):
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def rebuild_tree(
    sequence: StructureEncodedSequence,
    raw_values: Optional[list[str]] = None,
) -> SequenceTreeNode:
    """Reconstruct the document tree (under a super-root) from a sequence.

    ``raw_values`` — produced by a
    :class:`~repro.sequence.vocabulary.CapturingHasher` — carries the
    original text of every value leaf in emission order; with it the tree
    supports range predicates, without it only hash equality.
    """
    super_root = SequenceTreeNode(None)
    # stack[d] is the open node whose children sit at depth d; entries
    # past the current depth go stale and are overwritten before use
    stack: list[SequenceTreeNode] = [super_root]
    value_index = 0
    for position, (symbol, depth) in enumerate(sequence.symbol_depths()):
        node = SequenceTreeNode(symbol, position)
        stack[depth].children.append(node)
        if isinstance(symbol, int):
            if raw_values is not None:
                node.raw = raw_values[value_index]
            value_index += 1
        elif depth + 1 < len(stack):
            stack[depth + 1] = node
        else:
            stack.append(node)
    return super_root


def verify_document(
    sequence: StructureEncodedSequence,
    query: QueryNode,
    hasher: ValueHasher,
    raw_values: Optional[list[str]] = None,
) -> bool:
    """True when the query tree embeds into the document tree."""
    super_root = rebuild_tree(sequence, raw_values)
    return _child_matches(query, super_root, hasher)


def query_needs_raw_values(query: QueryNode) -> bool:
    """True when the query compares values with anything but equality —
    hashes cannot answer those, so verification needs the source text."""
    return any(
        node.value is not None and node.op != "=" for node in query.preorder()
    )


def _value_satisfies(
    qnode: QueryNode, dnode: SequenceTreeNode, hasher: ValueHasher
) -> bool:
    """Does some value leaf of ``dnode`` satisfy ``qnode``'s predicate?"""
    for child in dnode.children:
        if not child.is_value:
            continue
        if child.raw is not None:
            if _compare(child.raw, qnode.op, qnode.value):
                return True
        elif qnode.op == "=":
            if child.symbol == hasher(qnode.value):
                return True
        else:
            raise IndexStateError(
                f"predicate {qnode.op}{qnode.value!r} needs raw values; "
                "index with a source_store so verification can read them"
            )
    return False


def _compare(raw: str, op: str, operand: str) -> bool:
    """Numeric comparison when both sides parse as numbers, else string."""
    left: Union[str, float]
    right: Union[str, float]
    try:
        left, right = float(raw), float(operand.strip())
    except ValueError:
        left, right = raw, operand.strip()
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def find_result_nodes(
    sequence: StructureEncodedSequence,
    query: QueryNode,
    hasher: ValueHasher,
    raw_values: Optional[list[str]] = None,
) -> list[int]:
    """Preorder positions of the data nodes the query's *result node*
    binds to — the node set an XPath engine would return.

    Walks the query's main location path top-down; at every step the
    surviving data nodes must match the step's label/value and embed all
    of its ``[...]`` predicate branches.  Returns sorted positions (empty
    when the document does not match at all).
    """
    super_root = rebuild_tree(sequence, raw_values)

    def bind(qnode: QueryNode, pool: list[SequenceTreeNode]) -> list[SequenceTreeNode]:
        if qnode.is_dslash:
            inner = qnode.main_child()
            if inner is None:
                return pool  # degenerate `//` with nothing below it
            descendants: list[SequenceTreeNode] = []
            seen: set[int] = set()
            for dnode in pool:
                for descendant in dnode.descendants():
                    if not descendant.is_value and descendant.position not in seen:
                        seen.add(descendant.position)
                        descendants.append(descendant)
            return bind(inner, descendants)
        matched: list[SequenceTreeNode] = []
        main = qnode.main_child()
        for dnode in pool:
            if dnode.is_value:
                continue
            if not qnode.is_star and dnode.symbol != qnode.label:
                continue
            if qnode.value is not None and not _value_satisfies(qnode, dnode, hasher):
                continue
            predicates_ok = all(
                _child_matches(child, dnode, hasher)
                for child in qnode.children
                if child is not main
            )
            if predicates_ok:
                matched.append(dnode)
        if main is None:
            return matched
        if main.is_dslash:
            return bind(main, matched)
        next_pool: list[SequenceTreeNode] = []
        for dnode in matched:
            next_pool.extend(c for c in dnode.children if not c.is_value)
        return bind(main, next_pool)

    if query.is_dslash:
        results = bind(query, [super_root])
    else:
        results = bind(query, [c for c in super_root.children if not c.is_value])
    return sorted({node.position for node in results})


def _child_matches(
    qnode: QueryNode, parent: SequenceTreeNode, hasher: ValueHasher
) -> bool:
    """Does some admissible data node under ``parent`` satisfy ``qnode``?"""
    if qnode.is_dslash:
        # `//`'s own children may land on any descendant of `parent`
        return all(
            any(
                _node_matches(qchild, dnode, hasher)
                for dnode in parent.descendants()
                if not dnode.is_value
            )
            for qchild in qnode.children
        )
    candidates = (child for child in parent.children if not child.is_value)
    return any(_node_matches(qnode, dnode, hasher) for dnode in candidates)


def _node_matches(
    qnode: QueryNode, dnode: SequenceTreeNode, hasher: ValueHasher
) -> bool:
    if qnode.is_dslash:
        # a `//` standing in a child position: delegate to descendants
        return _child_matches(qnode, dnode, hasher)
    if not qnode.is_star and dnode.symbol != qnode.label:
        return False
    if qnode.value is not None and not _value_satisfies(qnode, dnode, hasher):
        return False
    return all(_child_matches(qchild, dnode, hasher) for qchild in qnode.children)

"""Query tree → structure-encoded query sequence(s) (paper Section 2).

Conversion rules (paper, "Mapping Data and Queries to Structure-Encoded
Sequences"):

* queries are emitted in preorder with the *same* sibling order as the
  data transform (lexicographic by label, whatever the parent), so a
  query confined to one record structure is a non-contiguous subsequence
  of the data — under a ``*`` parent too;
* wildcard nodes (``*`` and ``//``) are discarded, but the prefixes of
  their descendants carry a :class:`~repro.query.ast.Star` /
  :class:`~repro.query.ast.Dslash` placeholder token;
* value predicates become hashed-value items right after their node,
  mirroring where the data transform puts value leaves;
* branches with *equal child labels* (the paper's ``Q5 = /A[B/C]/B/D``)
  are ambiguous under sibling ordering, so the translator emits one query
  sequence per distinct permutation of the same-labelled children and the
  caller unions the results;
* a branch rooted at a wildcard has no knowable position among its
  siblings (the wildcard may match any label), so the translator also
  emits one alternative per placement of each wildcard branch among the
  concrete sibling groups — e.g. Table 3's Q8, where ``*[person=...]``
  may fall before or after ``date`` in document order.

:data:`MAX_ALTERNATIVES` caps the combinatorial growth; queries past the
cap raise :class:`~repro.errors.TranslationError` (the paper's footnote-2
fallback of splitting the query and joining results is delegated to the
verified evaluation mode).
"""

from __future__ import annotations

from itertools import permutations
from math import factorial
from typing import Optional

from repro.errors import TranslationError
from repro.query.ast import (
    Dslash,
    PrefixToken,
    QueryItem,
    QueryNode,
    QuerySequence,
    Star,
)
from repro.sequence.transform import SequenceEncoder

__all__ = ["MAX_ALTERNATIVES", "QueryTranslator", "relax_query_tree", "raw_is_exact"]

#: the most sequence alternatives one query may translate to
MAX_ALTERNATIVES = 24


def relax_query_tree(root: QueryNode) -> QueryNode:
    """Weaken a query so that its translation stays small and complete.

    Used for the paper's footnote-2 fallback and for exact-mode
    candidate generation: queries whose same-label branches (or
    wildcard-branch placements) would explode into too many sequence
    alternatives are *relaxed* — per parent, only the largest branch of
    each label survives, and a wildcard branch survives only when the
    parent has no concrete branches at all.  The latter is a soundness
    requirement, not just a size optimisation: a wildcard branch may
    bind the very node a concrete sibling binds (``/r[*/b][a/c]``
    against one ``a`` holding both ``b`` and ``c``), which puts its
    items *inside* the sibling's subtree in document order — a position
    the translator's between-groups placement enumeration can never
    emit.  Every document matching the original query matches the
    relaxed one (only constraints are dropped), so raw-matching the
    relaxed query and verifying candidates against the **original**
    tree is sound and complete under the verifier's XPath semantics.
    """
    relaxed = QueryNode(root.label, value=root.value, op=root.op)
    best: dict[str, QueryNode] = {}
    wildcard_best: Optional[QueryNode] = None
    for child in root.children:
        if child.is_wildcard:
            if wildcard_best is None or _tree_size(child) > _tree_size(wildcard_best):
                wildcard_best = child
        else:
            seen = best.get(child.label)
            if seen is None or _tree_size(child) > _tree_size(seen):
                best[child.label] = child
    for child in best.values():
        relaxed.add(relax_query_tree(child))
    if wildcard_best is not None and not best:
        relaxed.add(relax_query_tree(wildcard_best))
    return relaxed


def raw_is_exact(root: QueryNode) -> bool:
    """True when raw subsequence matching of ``root`` is already sound and
    complete, so exact mode may answer from the index alone (DESIGN.md §2).

    An item ``(x, p)`` spells its whole root-to-node path, so a *single
    chain* of query steps is implied by its last item: no second data
    node can stand in for any step of it.  Raw matching goes wrong only
    where one query node carries several constraints (children, plus an
    ``=`` value) that different data nodes sharing its path may each meet
    in part — unless that node is the query root, which binds the one
    node every document has exactly one of.  Hence: every node but a
    non-``//`` root carries at most one constraint; the root's branches
    have distinct concrete labels (else answers are lost, see
    :func:`relax_query_tree`); no wildcard leaf vanishes in translation
    (``/a/*``); no comparison other than ``=``; not all-wildcard.
    """
    nodes = list(root.preorder())
    if all(node.is_wildcard for node in nodes):
        return False
    for node in nodes:
        if node.value is not None and node.op != "=":
            return False
        constraints = len(node.children) + (node.value is not None)
        if constraints == 0 and node.is_wildcard:
            return False
        if constraints > 1 and (node is not root or node.is_dslash):
            return False
    branches = [child.label for child in root.children]
    return len(branches) < 2 or (
        len(set(branches)) == len(branches)
        and not any(child.is_wildcard for child in root.children)
    )


def _tree_size(node: QueryNode) -> int:
    return sum(1 for _ in node.preorder())


class QueryTranslator:
    """Translates query trees with the sibling order of a data encoder."""

    def __init__(self, encoder: Optional[SequenceEncoder] = None) -> None:
        self.encoder = encoder if encoder is not None else SequenceEncoder()

    # -- public API --------------------------------------------------------

    def translate(self, root: QueryNode) -> list[QuerySequence]:
        """Return every query-sequence alternative for the query tree."""
        self._wid_counter = 0
        alternatives: list[list[QueryItem]] = [[]]
        self._emit(root, (), alternatives)
        unique: dict[tuple, QuerySequence] = {}
        for items in alternatives:
            seq = QuerySequence(items)
            unique.setdefault(seq.items, seq)
        return list(unique.values())

    # -- internals -----------------------------------------------------------

    def _emit(
        self,
        node: QueryNode,
        prefix: tuple[PrefixToken, ...],
        alternatives: list[list[QueryItem]],
    ) -> None:
        """Append items for ``node``'s subtree to every alternative."""
        if node.is_wildcard:
            token: PrefixToken = (
                Star(self._next_wid()) if node.is_star else Dslash(self._next_wid())
            )
            child_prefix = prefix + (token,)
            if node.value is not None and node.op == "=":
                # e.g. /r/*[text='v']: the wildcard node is discarded but
                # its value leaf is expressible — prefix ends in the
                # placeholder, exactly Table 2's (v5, P*L) pattern.
                # Non-equality comparisons cannot be expressed over hashes
                # and are enforced by verification instead.
                value_item = QueryItem(self.encoder.hasher(node.value), child_prefix)
                for alt in alternatives:
                    alt.append(value_item)
        else:
            item = QueryItem(node.label, prefix)
            for alt in alternatives:
                alt.append(item)
            child_prefix = prefix + (node.label,)
            if node.value is not None and node.op == "=":
                value_item = QueryItem(self.encoder.hasher(node.value), child_prefix)
                for alt in alternatives:
                    alt.append(value_item)
        self._emit_children(node, child_prefix, alternatives)

    def _emit_children(
        self,
        node: QueryNode,
        child_prefix: tuple[PrefixToken, ...],
        alternatives: list[list[QueryItem]],
    ) -> None:
        fixed, floating = self._grouped_children(node)
        orderings = [fixed]
        for wildcard_child in floating:
            # check before enumerating: k wildcard branches place k! ways
            placements = len(orderings) * (len(orderings[0]) + 1)
            self._check_cap(len(alternatives) * placements)
            orderings = [
                ordering[:pos] + [[wildcard_child]] + ordering[pos:]
                for ordering in orderings
                for pos in range(len(ordering) + 1)
            ]
        if len(orderings) == 1:
            for group in orderings[0]:
                self._emit_group(group, child_prefix, alternatives)
            return
        base = [list(alt) for alt in alternatives]
        merged: list[list[QueryItem]] = []
        for ordering in orderings:
            forked = [list(alt) for alt in base]
            for group in ordering:
                self._emit_group(group, child_prefix, forked)
            merged.extend(forked)
        alternatives[:] = merged

    def _emit_group(
        self,
        group: list[QueryNode],
        child_prefix: tuple[PrefixToken, ...],
        alternatives: list[list[QueryItem]],
    ) -> None:
        """Emit one sibling group; same-label groups fork per permutation."""
        if len(group) == 1:
            self._emit(group[0], child_prefix, alternatives)
            return
        self._check_cap(len(alternatives) * factorial(len(group)))
        base = [list(alt) for alt in alternatives]
        merged: list[list[QueryItem]] = []
        for order in permutations(range(len(group))):
            forked = [list(alt) for alt in base]
            for idx in order:
                self._emit(group[idx], child_prefix, forked)
            merged.extend(forked)
        alternatives[:] = merged

    @staticmethod
    def _grouped_children(
        node: QueryNode,
    ) -> tuple[list[list[QueryNode]], list[QueryNode]]:
        """Children in data sibling order.

        Returns ``(fixed, floating)``: ``fixed`` is the ordered list of
        concrete sibling groups (same-label children grouped together, in
        label order); ``floating`` are wildcard children, whose placement
        the caller enumerates.
        """
        concrete = [c for c in node.children if not c.is_wildcard]
        floating = [c for c in node.children if c.is_wildcard]
        fixed: list[list[QueryNode]] = []
        # a stable sort: equal labels keep query order
        for child in sorted(concrete, key=lambda c: c.label):
            if fixed and fixed[-1][0].label == child.label:
                fixed[-1].append(child)
            else:
                fixed.append([child])
        return fixed, floating

    @staticmethod
    def _check_cap(count: int) -> None:
        if count > MAX_ALTERNATIVES:
            raise TranslationError(
                f"query expands to {count} sequence alternatives "
                f"(cap {MAX_ALTERNATIVES}); split the query or simplify "
                "its branches"
            )

    def _next_wid(self) -> int:
        wid = self._wid_counter
        self._wid_counter += 1
        return wid

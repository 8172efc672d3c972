"""Seeded random document and query generation for the oracle.

Documents use a deliberately tiny label alphabet so that same-label
sibling branches, shared prefixes and repeated subtrees — exactly the
shapes where subsequence matching diverges from XPath (DESIGN.md §2) —
occur constantly rather than almost never.

Queries are biased toward *nearly matching*: most are sampled as
connected subtrees of a corpus document and then mutated (``*`` and
``//`` wildcards, value predicates, label/value perturbations), so both
the hit and the near-miss paths of every index are exercised.  The whole
process is a pure function of the seed.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.doc.model import XmlNode
from repro.query.ast import DSLASH_LABEL, STAR_LABEL, QueryNode

__all__ = ["LABELS", "DocQueryGenerator"]

LABELS = ("a", "b", "c", "d")
_VALUES = ("u", "v", "w", "7", "42")


class DocQueryGenerator:
    """Deterministic random document/query source (one RNG per seed)."""

    def __init__(
        self,
        seed: int,
        *,
        labels: Sequence[str] = LABELS,
        values: Sequence[str] = _VALUES,
        max_depth: int = 4,
        max_children: int = 3,
    ) -> None:
        self.rng = random.Random(seed)
        self.labels = tuple(labels)
        self.values = tuple(values)
        self.max_depth = max_depth
        self.max_children = max_children

    # -- documents -------------------------------------------------------

    def document(self, target_size: int = 12) -> XmlNode:
        """A random tree of roughly ``target_size`` element nodes."""
        rng = self.rng
        root = XmlNode(rng.choice(self.labels))
        nodes = [(root, 1)]  # (node, depth)
        for _ in range(max(0, target_size - 1)):
            open_nodes = [
                (node, depth)
                for node, depth in nodes
                if depth < self.max_depth and len(node.children) < self.max_children
            ]
            if not open_nodes:
                break
            parent, depth = rng.choice(open_nodes)
            child = parent.element(rng.choice(self.labels))
            if rng.random() < 0.35:
                child.text = rng.choice(self.values)
            if rng.random() < 0.15:
                child.attributes[rng.choice(self.labels)] = rng.choice(self.values)
            nodes.append((child, depth + 1))
        return root

    def corpus(self, count: int = 6, target_size: int = 12) -> list[XmlNode]:
        return [self.document(target_size) for _ in range(count)]

    # -- queries ---------------------------------------------------------

    def query(self, corpus: Sequence[XmlNode]) -> QueryNode:
        """One random query, usually derived from a corpus document."""
        rng = self.rng
        if corpus and rng.random() < 0.7:
            root = self._query_from_document(rng.choice(list(corpus)))
        else:
            root = self._random_query(depth=0)
        return self._mutate(root)

    def _query_from_document(self, document: XmlNode) -> QueryNode:
        """Sample a connected subtree of ``document`` as a query skeleton."""
        rng = self.rng
        qroot = QueryNode(document.label)
        frontier = [(document, qroot)]
        budget = rng.randint(1, 4)
        while frontier:
            dnode, qnode = frontier.pop(rng.randrange(len(frontier)))
            if dnode.text and rng.random() < 0.3:
                qnode.value = dnode.text
            if dnode.attributes and rng.random() < 0.25:
                name = rng.choice(sorted(dnode.attributes))
                attr = qnode.add(QueryNode(name))
                if rng.random() < 0.7:
                    attr.value = dnode.attributes[name]
            for child in dnode.children:
                if budget > 0 and rng.random() < 0.55:
                    budget -= 1
                    frontier.append((child, qnode.add(QueryNode(child.label))))
        return qroot

    def _random_query(self, depth: int) -> QueryNode:
        """An unconstrained random query (may match nothing)."""
        rng = self.rng
        node = QueryNode(rng.choice(self.labels))
        if rng.random() < 0.3:
            node.value = rng.choice(self.values)
        if depth < 3:
            for _ in range(rng.randint(0, 2)):
                node.add(self._random_query(depth + 1))
        return node

    def _mutate(self, root: QueryNode) -> QueryNode:
        """Sprinkle wildcards and perturbations over a query skeleton."""
        rng = self.rng
        if rng.random() < 0.3:
            wrapper = QueryNode(DSLASH_LABEL)
            wrapper.add(root)
            root = wrapper
        for node in list(root.preorder()):
            if node.is_dslash:
                continue
            if rng.random() < 0.15:
                node.label = STAR_LABEL
            elif rng.random() < 0.1:
                node.label = rng.choice(self.labels)  # may break the match
            if node.value is not None and rng.random() < 0.15:
                node.value = rng.choice(self.values)
        self._maybe_splice_dslash(root)
        return root

    def _maybe_splice_dslash(self, root: QueryNode) -> None:
        """Insert a ``//`` step between a random parent and child edge."""
        rng = self.rng
        if rng.random() >= 0.25:
            return
        edges = [
            (parent, idx)
            for parent in root.preorder()
            for idx in range(len(parent.children))
            if not parent.is_dslash
        ]
        if not edges:
            return
        parent, idx = rng.choice(edges)
        child = parent.children[idx]
        bridge = QueryNode(DSLASH_LABEL, predicate=child.predicate)
        child.predicate = False
        bridge.add(child)
        parent.children[idx] = bridge

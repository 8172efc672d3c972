"""Document → structure-encoded sequence transform (paper Section 2).

The transform expands a document tree (attributes and values become
nodes), enforces the paper's sibling order, and emits the preorder list of
``(symbol, prefix)`` items:

* sibling *elements/attributes* are ordered lexicographically by label
  (the paper's order when no DTD is given; it does not depend on the
  parent, which is what lets a query under ``*`` fix its branches'
  order);
* multiple occurrences of the same label keep document order (the paper
  orders them "arbitrarily" — document order makes the transform
  deterministic);
* value leaves sort before sibling elements, so a node's value
  immediately follows the node, as in paper Figure 4 where ``(N, PS)`` is
  followed by ``(v1, PSN)``.
"""

from __future__ import annotations

from typing import Optional

from repro.doc.model import XmlDocument, XmlNode
from repro.sequence.encoding import Item, StructureEncodedSequence
from repro.sequence.vocabulary import ValueHasher

__all__ = ["SequenceEncoder"]


class SequenceEncoder:
    """Reusable document-to-sequence transformer.

    ``hasher`` is the paper's ``h()`` and defaults to unbucketed 64-bit
    FNV-1a.  Queries must be translated with the *same* hasher
    (:class:`repro.query.translate.QueryTranslator` takes the encoder).
    """

    def __init__(self, hasher: Optional[ValueHasher] = None) -> None:
        self.hasher = hasher if hasher is not None else ValueHasher()

    def encode_document(self, document: XmlDocument) -> StructureEncodedSequence:
        """Encode a whole document (its root subtree)."""
        return self.encode_node(document.root)

    def encode_node(self, node: XmlNode) -> StructureEncodedSequence:
        """Encode the subtree rooted at ``node``."""
        items: list[Item] = []
        self._walk(node.expanded(), (), items)
        return StructureEncodedSequence(items)

    @staticmethod
    def sibling_sort_key(entry: tuple[int, XmlNode]) -> tuple:
        """Sort key for a ``(document_position, node)`` pair among siblings.

        Values first (document order), then label order, then document
        order for equal labels.
        """
        position, child = entry
        if child.is_value:
            return (0, "", position)
        return (1, child.label, position)

    def _walk(self, node: XmlNode, prefix: tuple[str, ...], items: list[Item]) -> None:
        if node.is_value:
            items.append(Item(self.hasher(node.value), prefix))
            return
        items.append(Item(node.label, prefix))
        child_prefix = prefix + (node.label,)
        for _, child in sorted(enumerate(node.children), key=self.sibling_sort_key):
            self._walk(child, child_prefix, items)

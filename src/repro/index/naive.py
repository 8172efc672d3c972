"""The naïve suffix-tree algorithm (paper Section 3.2, Algorithm 1).

Matching walks the materialised trie directly: to extend a partial match
at node ``x`` with query item ``q_i``, it scans *every* descendant of
``x`` (the S-Ancestorship check) and keeps those whose ``(symbol,
prefix)`` matches ``q_i`` (the D-Ancestorship check).  This is the
strawman RIST/ViST improve on — "searching for nodes satisfying both
S-Ancestorship and D-Ancestorship is extremely costly since we need to
traverse a large portion of the subtree for each match" — and the
ablation benchmark measures exactly that gap.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.index.base import XmlIndexBase
from repro.index.matching import match_prefix_pattern, resolve_pattern
from repro.index.trie import SequenceTrie, TrieNode
from repro.query.ast import QueryItem, QuerySequence
from repro.sequence.encoding import StructureEncodedSequence
from repro.sequence.transform import SequenceEncoder
from repro.storage.docstore import DocStore

__all__ = ["NaiveIndex"]


class NaiveIndex(XmlIndexBase):
    """Algorithm 1 on the in-memory sequence trie."""

    def __init__(
        self,
        encoder: Optional[SequenceEncoder] = None,
        docstore: Optional[DocStore] = None,
        *,
        source_store=None,
    ) -> None:
        super().__init__(encoder, docstore, source_store=source_store)
        self.trie = SequenceTrie()
        self.metrics.register("trie.nodes", lambda: self.trie.node_count)

    def _add_sequence_locked(self, sequence: StructureEncodedSequence) -> int:
        doc_id = self.docstore.add(self._sequence_to_payload(sequence))
        self.trie.insert(sequence, doc_id)
        return doc_id

    def match_sequence(self, query_sequence: QuerySequence, guard=None, trace=None) -> set[int]:
        results: set[int] = set()
        items = query_sequence.items
        states = 0

        def naive_search(node: TrieNode, i: int, bindings) -> None:
            nonlocal states
            states += 1
            if guard is not None:
                guard.step()
            if i == len(items):
                results.update(node.doc_ids)
                for descendant in node.descendants():
                    results.update(descendant.doc_ids)
                return
            qi = items[i]
            for child, new_bindings in self._matching_descendants(node, qi, bindings):
                naive_search(child, i + 1, new_bindings)

        span = (
            trace.begin("naive-walk", items=len(items))
            if trace is not None
            else None
        )
        naive_search(self.trie.root, 0, ())
        if span is not None:
            trace.end(span, search_states=states, doc_ids=len(results))
        return results

    def _matching_descendants(
        self, node: TrieNode, qi: QueryItem, bindings
    ) -> Iterator[tuple[TrieNode, tuple]]:
        """Descendants of ``node`` whose item matches ``q_i``."""
        leading, tail = resolve_pattern(qi.prefix, bindings)
        for candidate in node.descendants():
            item = candidate.item
            assert item is not None
            if item.symbol != qi.symbol:
                continue
            if item.prefix[: len(leading)] != leading:
                continue
            if not tail:
                if len(item.prefix) == len(leading):
                    yield candidate, bindings
                continue
            for new_bindings in match_prefix_pattern(
                tail, item.prefix[len(leading) :], bindings
            ):
                yield candidate, new_bindings

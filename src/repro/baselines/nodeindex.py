"""XISS-like node index (Li & Moon, "Indexing and querying XML data for
regular path expressions", VLDB 2001) — the paper's second comparator.

"XISS uses single elements/attributes as the basic unit of query.  A
complex path expression is decomposed into a collection of basic path
expressions ...  All other forms of expressions involve join operations."

One B+Tree holds every node occurrence keyed by its label (elements and
attributes) or hashed value (value leaves); the payload is the extended
preorder label ``(doc_id, start, end, level)``.  Queries are evaluated
bottom-up with structural semi-joins; a ``*`` step fetches *every*
element occurrence, which is exactly why XISS is slow on the wildcard
queries of Table 4.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.joins import merge_doc_ids, structural_semijoin
from repro.baselines.labels import Occurrence, sequence_occurrences
from repro.index.base import XmlIndexBase
from repro.query.ast import QueryNode
from repro.sequence.encoding import StructureEncodedSequence
from repro.sequence.transform import SequenceEncoder
from repro.storage.bptree import BPlusTree, TreeStats
from repro.storage.docstore import DocStore
from repro.storage.pager import MemoryPager, Pager
from repro.storage.serialization import decode_tuple, encode_tuple

# All labels are strings; the str type tag in encode_tuple is 0x15 and the
# int tag 0x05, so every element key sorts after every value key and this
# boundary splits the tree into the two posting families.
_FIRST_STR_KEY = b"\x15"

__all__ = ["XissIndex"]


class XissIndex(XmlIndexBase):
    """Node-granularity index with structural joins."""

    def __init__(
        self,
        encoder: Optional[SequenceEncoder] = None,
        docstore: Optional[DocStore] = None,
        pager: Optional[Pager] = None,
        *,
        source_store=None,
    ) -> None:
        super().__init__(encoder, docstore, source_store=source_store)
        self._pager = pager if pager is not None else MemoryPager()
        self.occurrences = BPlusTree(self._pager, slot=0)
        self.join_count = 0  # joins performed, reported by benchmarks

    # -- ingestion ---------------------------------------------------------

    def _add_sequence_locked(self, sequence: StructureEncodedSequence) -> int:
        doc_id = self.docstore.add(self._sequence_to_payload(sequence))
        for symbol, _prefix, occ in sequence_occurrences(sequence, doc_id):
            self.occurrences.insert(
                encode_tuple((symbol,)),
                encode_tuple(occ),
                allow_exact_dup=True,
            )
        return doc_id

    # -- evaluation ------------------------------------------------------------

    def _needs_verification(self, root: QueryNode) -> bool:
        # join-based evaluation handles childless wildcards natively
        return False

    def _needs_relaxed_candidates(self, root: QueryNode) -> bool:
        # join-based evaluation is exact for same-label branches too
        return False

    def _execute(self, root: QueryNode, guard=None, trace=None) -> set[int]:
        self._guard = guard
        if root.is_dslash:
            doc_sets = [
                merge_doc_ids(self._eval(child, anchored=False))
                for child in root.children
            ]
            if not doc_sets:
                return set()
            out = doc_sets[0]
            for ids in doc_sets[1:]:
                out &= ids
            return out
        return merge_doc_ids(self._eval(root, anchored=True))

    def _eval(self, qnode: QueryNode, anchored: bool) -> list[Occurrence]:
        """Occurrences of ``qnode`` whose subtree satisfies its constraints."""
        if getattr(self, "_guard", None) is not None:
            self._guard.step()
        occs = self._fetch_elements(qnode)
        if anchored:
            occs = [occ for occ in occs if occ.level == 0]
        if qnode.value is not None and qnode.op == "=":
            # non-equality comparisons are enforced by verification
            values = self._fetch_postings(
                encode_tuple((self.encoder.hasher(qnode.value),))
            )
            occs = structural_semijoin(occs, values, parent_child=True)
            self.join_count += 1
        for child in qnode.children:
            if child.is_dslash:
                for grandchild in child.children:
                    occs = structural_semijoin(
                        occs, self._eval(grandchild, anchored=False)
                    )
                    self.join_count += 1
            else:
                occs = structural_semijoin(
                    occs, self._eval(child, anchored=False), parent_child=True
                )
                self.join_count += 1
            if not occs:
                return []
        return occs

    def _fetch_elements(self, qnode: QueryNode) -> list[Occurrence]:
        if qnode.is_star:
            # a name wildcard has no selective access path: scan all
            # elements and re-sort them into (doc_id, start) join order
            occs = [
                Occurrence(*decode_tuple(value))
                for _, value in self.occurrences.range(_FIRST_STR_KEY, None)
            ]
            occs.sort(key=lambda occ: (occ.doc_id, occ.start))
            return occs
        return self._fetch_postings(encode_tuple((qnode.label,)))

    def _fetch_postings(self, key: bytes) -> list[Occurrence]:
        return [
            Occurrence(*decode_tuple(value)) for value in self.occurrences.values(key)
        ]

    # -- measurements -----------------------------------------------------------

    def index_stats(self) -> dict[str, TreeStats]:
        return {"occurrences": self.occurrences.stats()}

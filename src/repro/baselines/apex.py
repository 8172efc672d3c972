"""APEX-like length-2 path index (Chung, Min & Shim, SIGMOD 2002).

The paper's related work describes APEX as an adaptive path index that,
absent workload information, "maintains every path of length two.
Therefore, it also has to rely on join operations to answer path queries
with more than two elements."  This baseline implements that ground
state (APEX₀, no workload-mined refinements): one posting list per
``(parent label, child label)`` edge plus per-label and value postings,
with every longer query assembled from parent–child semi-joins.

Compared to the raw-path index it never scans key ranges for wildcards
(an edge lookup is exact), but it pays one join per query edge — so it
sits between :class:`~repro.baselines.pathindex.PathIndex` and
:class:`~repro.baselines.nodeindex.XissIndex` in the design space the
paper surveys.
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

# key families inside the single postings tree:
_EDGE = 0  # (0, parent_label, child_label) -> child occurrence
_LABEL = 1  # (1, label) -> occurrence (root lookups and // steps)
_VALUE = 2  # (2, hash) -> value-leaf occurrence

__all__ = ["ApexIndex"]


class ApexIndex(XmlIndexBase):
    """Length-2 path postings with join-based query evaluation."""

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
        self.postings = BPlusTree(self._pager, slot=0)
        self.join_count = 0

    # -- ingestion ---------------------------------------------------------

    def _add_sequence_locked(self, sequence: StructureEncodedSequence) -> int:
        doc_id = self.docstore.add(self._sequence_to_payload(sequence))
        for symbol, prefix, occ in sequence_occurrences(sequence, doc_id):
            payload = encode_tuple(occ)
            if isinstance(symbol, int):
                self.postings.insert(
                    encode_tuple((_VALUE, symbol)), payload, allow_exact_dup=True
                )
                continue
            self.postings.insert(
                encode_tuple((_LABEL, symbol)), payload, allow_exact_dup=True
            )
            parent = prefix[-1] if prefix else ""
            self.postings.insert(
                encode_tuple((_EDGE, parent, symbol)), payload, allow_exact_dup=True
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
                merge_doc_ids(self._eval(child, parent_label=None, anchored=False))
                for child in root.children
            ]
            if not doc_sets:
                return set()
            out = doc_sets[0]
            for ids in doc_sets[1:]:
                out &= ids
            return out
        return merge_doc_ids(self._eval(root, parent_label="", anchored=True))

    def _eval(
        self, qnode: QueryNode, parent_label: Optional[str], anchored: bool
    ) -> list[Occurrence]:
        """Occurrences of ``qnode`` satisfying its subtree, fetched through
        the length-2 edge postings when the parent label is concrete."""
        if getattr(self, "_guard", None) is not None:
            self._guard.step()
        occs = self._fetch(qnode, parent_label)
        if anchored:
            occs = [occ for occ in occs if occ.level == 0]
        if qnode.value is not None and qnode.op == "=":
            # non-equality comparisons are enforced by verification
            values = self._postings((_VALUE, self.encoder.hasher(qnode.value)))
            occs = structural_semijoin(occs, values, parent_child=True)
            self.join_count += 1
        own_label = None if qnode.is_wildcard else qnode.label
        for child in qnode.children:
            if child.is_dslash:
                for grandchild in child.children:
                    occs = structural_semijoin(
                        occs, self._eval(grandchild, None, anchored=False)
                    )
                    self.join_count += 1
            else:
                occs = structural_semijoin(
                    occs,
                    self._eval(child, own_label, anchored=False),
                    parent_child=True,
                )
                self.join_count += 1
            if not occs:
                return []
        return occs

    def _fetch(self, qnode: QueryNode, parent_label: Optional[str]) -> list[Occurrence]:
        if qnode.is_star:
            # any label: scan the per-label family and re-sort to join order
            lo = encode_tuple((_LABEL,))
            hi = encode_tuple((_VALUE,))
            occs = [
                Occurrence(*decode_tuple(value))
                for _, value in self.postings.range(lo, hi)
            ]
            occs.sort(key=lambda occ: (occ.doc_id, occ.start))
            return occs
        if parent_label is None:
            return self._postings((_LABEL, qnode.label))
        return self._postings((_EDGE, parent_label, qnode.label))

    def _postings(self, key_items: tuple) -> list[Occurrence]:
        return [
            Occurrence(*decode_tuple(value))
            for value in self.postings.values(encode_tuple(key_items))
        ]

    # -- measurements -----------------------------------------------------------

    def index_stats(self) -> dict[str, TreeStats]:
        return {"postings": self.postings.stats()}

"""Index Fabric-like raw-path index (Cooper et al., VLDB 2001) — the
paper's first comparator, re-implemented "without the extra index for
refined paths", exactly as Section 4 describes.

Every node occurrence is keyed by its *root-to-node label path* (value
leaves by path + hashed value).  A query that is a single raw path —
optionally ending in a value — is one key lookup, which is why Index
Fabric ties ViST on Table 4's Q1.  Everything else (branches, ``*``,
``//``) decomposes into per-path lookups glued together with structural
joins, and wildcards degrade further into key-range scans filtered by
pattern matching — the behaviour behind its Q3/Q4 blow-up.
"""

from __future__ import annotations

from itertools import count
from typing import Optional

from repro.baselines.joins import merge_doc_ids, structural_semijoin
from repro.baselines.labels import Occurrence, sequence_occurrences
from repro.index.base import XmlIndexBase
from repro.index.matching import match_prefix_pattern
from repro.query.ast import Dslash, PrefixToken, QueryNode, Star
from repro.sequence.encoding import StructureEncodedSequence
from repro.sequence.transform import SequenceEncoder
from repro.storage.bptree import BPlusTree, TreeStats
from repro.storage.docstore import DocStore
from repro.storage.pager import MemoryPager, Pager
from repro.storage.serialization import decode_tuple, encode_tuple, prefix_range_end

__all__ = ["PathIndex"]

PathTokens = tuple[PrefixToken, ...]


class PathIndex(XmlIndexBase):
    """Raw-path index with join-based branching-query evaluation."""

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
        self.paths = BPlusTree(self._pager, slot=0)
        self.join_count = 0
        self.scanned_keys = 0  # wildcard-scan effort, reported by benchmarks

    # -- ingestion ---------------------------------------------------------

    def _add_sequence_locked(self, sequence: StructureEncodedSequence) -> int:
        doc_id = self.docstore.add(self._sequence_to_payload(sequence))
        for symbol, prefix, occ in sequence_occurrences(sequence, doc_id):
            # element path = prefix + own label; value path = prefix + hash
            self.paths.insert(
                encode_tuple((*prefix, symbol)),
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
        chain = self._as_raw_path(root)
        if chain is not None:
            return merge_doc_ids(self._fetch(chain))
        self._wid = count(1 << 20)  # fresh ids, disjoint from translator wids
        if root.is_dslash:
            doc_sets = [
                merge_doc_ids(self._eval(child, (Dslash(next(self._wid)),)))
                for child in root.children
            ]
            if not doc_sets:
                return set()
            out = doc_sets[0]
            for ids in doc_sets[1:]:
                out &= ids
            return out
        return merge_doc_ids(self._eval(root, ()))

    def _as_raw_path(self, root: QueryNode) -> Optional[PathTokens]:
        """The full key path if the query is one raw path, else ``None``.

        Raw = a single chain of concrete labels with at most one value
        predicate, on the last node.  This is the case Index Fabric
        answers with a single lookup.
        """
        tokens: list[PrefixToken] = []
        node = root
        while True:
            if node.is_wildcard:
                return None
            tokens.append(node.label)
            if len(node.children) > 1:
                return None
            if node.value is not None:
                if node.children or node.op != "=":
                    return None
                return (*tokens, self.encoder.hasher(node.value))
            if not node.children:
                return tuple(tokens)
            node = node.children[0]

    def _eval(self, qnode: QueryNode, parent_path: PathTokens) -> list[Occurrence]:
        if getattr(self, "_guard", None) is not None:
            self._guard.step()
        if qnode.is_star:
            path = parent_path + (Star(next(self._wid)),)
        elif qnode.is_dslash:
            raise AssertionError("dslash nodes are expanded by their parent")
        else:
            path = parent_path + (qnode.label,)
        occs = self._fetch(path)
        if qnode.value is not None and qnode.op == "=":
            # non-equality comparisons are enforced by verification
            values = self._fetch(path + (self.encoder.hasher(qnode.value),))
            occs = structural_semijoin(occs, values, parent_child=True)
            self.join_count += 1
        for child in qnode.children:
            if child.is_dslash:
                dpath = path + (Dslash(next(self._wid)),)
                for grandchild in child.children:
                    occs = structural_semijoin(occs, self._eval(grandchild, dpath))
                    self.join_count += 1
            else:
                occs = structural_semijoin(
                    occs, self._eval(child, path), parent_child=True
                )
                self.join_count += 1
            if not occs:
                return []
        return occs

    # -- posting access -----------------------------------------------------

    def _fetch(self, path: PathTokens) -> list[Occurrence]:
        """Postings of every stored path matching the token pattern.

        A trailing ``int`` token is a hashed value (value-leaf lookup);
        the other tokens are labels or wildcard placeholders.
        """
        value_hash: Optional[int] = None
        pattern = path
        if pattern and isinstance(pattern[-1], int):
            value_hash = pattern[-1]
            pattern = pattern[:-1]
        leading: list[str] = []
        tail: list[PrefixToken] = []
        for token in pattern:
            if not tail and isinstance(token, str):
                leading.append(token)
            else:
                tail.append(token)
        if not tail:
            key_items = (*leading, value_hash) if value_hash is not None else tuple(leading)
            return [
                Occurrence(*decode_tuple(value))
                for value in self.paths.values(encode_tuple(key_items))
            ]
        # wildcard path: range-scan all keys under the concrete leading
        # labels and pattern-match the remainder (the expensive case)
        scan = encode_tuple(tuple(leading))
        out: list[Occurrence] = []
        for key, value in self.paths.range(scan, prefix_range_end(scan)):
            self.scanned_keys += 1
            parts = decode_tuple(key)
            rest = parts[len(leading) :]
            if value_hash is not None:
                if not rest or rest[-1] != value_hash:
                    continue
                rest = rest[:-1]
            elif rest and isinstance(rest[-1], int):
                continue  # element pattern must not match value keys
            if match_prefix_pattern(tuple(tail), tuple(rest), ()):
                out.append(Occurrence(*decode_tuple(value)))
        out.sort(key=lambda occ: (occ.doc_id, occ.start))
        return out

    # -- measurements -----------------------------------------------------------

    def index_stats(self) -> dict[str, TreeStats]:
        return {"paths": self.paths.stats()}

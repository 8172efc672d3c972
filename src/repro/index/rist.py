"""RIST: the statically-labelled index (paper Section 3.3).

Construction takes three steps (Figure 6):

1. insert every structure-encoded sequence into the suffix-tree-like trie;
2. label the trie by a preorder traversal (``n`` = preorder number,
   ``size`` = descendant count);
3. move every node into the combined D-Ancestor/S-Ancestor B+Tree and
   every attached document id into the DocId B+Tree.

Because the labels are static, RIST supports additions only until
:meth:`RistIndex.finalize` (or the first query) freezes it — the exact
limitation that motivates ViST.  Its matching is byte-for-byte the same
Algorithm 2 as ViST's.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import IndexStateError
from repro.index.base import XmlIndexBase
from repro.index.matching import SequenceMatcher
from repro.index.postings import PostingCache
from repro.index.store import CombinedTreeHost, label_key, node_key
from repro.index.trie import SequenceTrie
from repro.labeling.scope import Scope
from repro.query.ast import QuerySequence
from repro.sequence.encoding import StructureEncodedSequence
from repro.sequence.transform import SequenceEncoder
from repro.storage.bptree import BPlusTree, TreeStats
from repro.storage.docstore import DocStore
from repro.storage.pager import MemoryPager, Pager
from repro.storage.serialization import decode_uint, encode_uint

__all__ = ["RistIndex"]


class RistIndex(XmlIndexBase, CombinedTreeHost):
    """Static virtual-suffix-tree index over B+Trees."""

    def __init__(
        self,
        encoder: Optional[SequenceEncoder] = None,
        docstore: Optional[DocStore] = None,
        pager: Optional[Pager] = None,
        *,
        source_store=None,
        posting_cache_size: int = 512,
    ) -> None:
        XmlIndexBase.__init__(self, encoder, docstore, source_store=source_store)
        self._pager = pager if pager is not None else MemoryPager()
        self.tree = BPlusTree(self._pager, slot=0)
        self.docid_tree = BPlusTree(self._pager, slot=1)
        self.postings = PostingCache(posting_cache_size) if posting_cache_size else None
        self._matcher = SequenceMatcher(self)
        self._load_max_prefix_len()
        self.trie: Optional[SequenceTrie] = SequenceTrie()
        self._root_scope: Optional[Scope] = None
        self._register_host_metrics()
        self.metrics.register("trie.nodes", self.trie_node_count)

    # -- ingestion ---------------------------------------------------------

    def _add_sequence_locked(self, sequence: StructureEncodedSequence) -> int:
        if self.trie is None or self._root_scope is not None:
            raise IndexStateError(
                "RIST labels are static: no additions after finalize()/query(); "
                "rebuild the index or use VistIndex for dynamic data"
            )
        doc_id = self.docstore.add(self._sequence_to_payload(sequence))
        self.trie.insert(sequence, doc_id)
        return doc_id

    def finalize(self) -> None:
        """Label the trie and bulk-load the B+Trees (steps 2 and 3).

        Entries are sorted once and loaded bottom-up — static labelling
        makes RIST a batch build, so it gets the batch-build fast path.
        """
        if self._root_scope is not None:
            # fast path out of the lazy call sites (root_scope,
            # match_sequence): already finalized, no lock needed — and
            # must not be taken, since those run inside read sections
            return
        with self.rwlock.write():
            self._finalize_locked()

    def _prepare_for_query(self) -> None:
        # the first query finalizes the trie — a structural *write* that
        # must not happen inside the read section base.query is about to
        # open; run it under the write lock up front
        self.finalize()

    def _finalize_locked(self) -> None:
        if self._root_scope is not None:  # double-checked under the lock
            return
        if self.trie is None:
            raise IndexStateError("index already finalized and trie released")
        self.trie.assign_static_labels()
        assert self.trie.root.scope is not None
        self._root_scope = self.trie.root.scope
        entries: list[tuple[bytes, bytes]] = []
        doc_entries: list[tuple[bytes, bytes]] = []
        for node in self.trie.nodes():
            assert node.item is not None and node.scope is not None
            entries.append(
                (
                    node_key(node.item.symbol, node.item.prefix, node.scope.n),
                    encode_uint(node.scope.size),
                )
            )
            for doc_id in node.doc_ids:
                doc_entries.append((label_key(node.scope.n), encode_uint(doc_id)))
        entries.sort()
        doc_entries.sort()
        self.tree.bulk_load(entries)
        self.docid_tree.bulk_load(doc_entries)
        self._bump_max_prefix_len(self.trie.max_depth)
        if self.postings is not None:
            self.postings.clear()  # the trees were rebuilt wholesale

    def release_trie(self) -> None:
        """Drop the in-memory trie (queries only need the B+Trees).

        RIST "maintains a suffix tree, which is of size O(NL)" — keeping
        it is what makes RIST larger than ViST in Figure 11(a); releasing
        it is only safe once no more documents will be added.
        """
        self.finalize()
        self.trie = None

    # -- matching -----------------------------------------------------------

    def match_sequence(self, query_sequence: QuerySequence, guard=None, trace=None) -> set[int]:
        self.finalize()
        return self._matcher.match(query_sequence, guard, trace)

    @property
    def match_stats(self):
        """MatchStats of the most recent :meth:`match_sequence` call."""
        return self._matcher.stats

    def root_scope(self) -> Scope:
        if self._root_scope is None:
            self.finalize()
        assert self._root_scope is not None
        return self._root_scope

    def _end_of(self, n: int, value: bytes) -> int:
        return n + decode_uint(value)[0]

    # -- measurements -----------------------------------------------------------

    def index_stats(self) -> dict[str, TreeStats]:
        """Per-tree size statistics (Figure 11(a) reports their sum)."""
        return {"combined": self.tree.stats(), "docid": self.docid_tree.stats()}

    def trie_node_count(self) -> int:
        """Size of the materialised suffix tree RIST must keep around."""
        return self.trie.node_count if self.trie is not None else 0

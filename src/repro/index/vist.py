"""ViST: the dynamically-labelled virtual suffix tree index (Section 3.4).

The suffix tree is never materialised.  Insertion (Algorithm 4) walks the
virtual trie through the combined B+Tree: for each sequence item it looks
for an *immediate child* of the current node with that ``(symbol,
prefix)``; if none exists, a fresh scope is carved from the parent by
:class:`~repro.labeling.dynamic.LambdaAllocator` (Eq. 5–6's λ rule in
closed form, with no schema statistics).  The document id lands in the
DocId tree under the label of the last node.

**Scope underflow.**  When the allocator cannot carve another scope, the
insert borrows a block of sequential ids from the reserve of the nearest
ancestor able to cover the rest of the sequence (paper Section 3.4.1).
The nodes between that ancestor and the underflow point are re-created as
*private* duplicates inside the block — "they cannot be shared with other
sequences, but they are still properly indexed for matching".

**Deletion.**  The paper states ViST supports deletion but gives no
algorithm.  A node is live while its scope ``[n, end]`` holds a DocId
key — a document's DocId key is its last label, and scopes nest — so
:meth:`VistIndex.remove` reclaims bottom-up until a node still holds
one.  Child counts are never rolled back — labels, once assigned, stay
fixed, as Section 3.4 requires.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from repro.errors import (
    CodecError,
    IndexFormatError,
    IndexStateError,
    KeyTooLargeError,
    ScopeUnderflowError,
)
from repro.index.base import XmlIndexBase
from repro.index.matching import SequenceMatcher
from repro.index.postings import PostingCache
from repro.index.store import (
    ENTRY_FORMAT,
    META_FORMAT_KEY,
    META_REMOVED_KEY,
    META_STORE_BOUNDS_KEY,
    ROOT_KEY,
    CombinedTreeHost,
    decode_node_key,
    decode_removed,
    label_key,
    node_key,
    node_key_len,
)
from repro.labeling.dynamic import (
    DEFAULT_MAX,
    LambdaAllocator,
    NodeState,
    ScopeAllocator,
    scope_end,
)
from repro.labeling.scope import Scope
from repro.query.ast import QuerySequence
from repro.sequence.encoding import Item, Prefix, StructureEncodedSequence, Symbol
from repro.sequence.transform import SequenceEncoder
from repro.storage.bptree import BPlusTree, TreeStats
from repro.storage.docstore import DocStore
from repro.storage.pager import MemoryPager, Pager
from repro.storage.serialization import (
    decode_tuple,
    decode_uint,
    encode_tuple,
    encode_uint,
)

__all__ = ["VistIndex"]


class VistIndex(XmlIndexBase, CombinedTreeHost):
    """Dynamic virtual-suffix-tree index over B+Trees (the paper's ViST)."""

    def __init__(
        self,
        encoder: Optional[SequenceEncoder] = None,
        docstore: Optional[DocStore] = None,
        pager: Optional[Pager] = None,
        allocator: Optional[ScopeAllocator] = None,
        *,
        source_store: Optional[DocStore] = None,
        max_label: int = DEFAULT_MAX,
        posting_cache_size: int = 512,
    ) -> None:
        XmlIndexBase.__init__(self, encoder, docstore, source_store=source_store)
        self._pager = pager if pager is not None else MemoryPager()
        self.tree = BPlusTree(self._pager, slot=0)
        self.docid_tree = BPlusTree(self._pager, slot=1)
        # Query-path posting cache (0 disables).  It lives in instance
        # memory only, so reopening from disk always starts cold.
        self.postings = PostingCache(posting_cache_size) if posting_cache_size else None
        self._matcher = SequenceMatcher(self)
        self.allocator = allocator if allocator is not None else LambdaAllocator()
        self.underflow_count = 0  # borrow events, reported by the ablation bench
        # (parent_n, item) -> child n: a rebuildable in-memory accelerator
        # for Algorithm 4's immediate-child search.  The paper's own answer
        # is the arithmetic test "by Eq (4) and Eq (6)"; a lookaside cache
        # achieves the same O(1) lookup for any allocator without
        # touching the persistent structures (it is not part of the index
        # size and repopulates lazily after reopening from disk).
        self._child_cache: dict[tuple[int, Item], int] = {}
        # what the insert in flight (or the one just finished) staged —
        # its DocId pair once it has an id, the nodes it created — so
        # _rollback_insert can undo it whole
        self._last_insert: Optional[tuple] = None
        # Every insert runs inside a chunk (XmlIndexBase._chunk) and
        # stages here; _end_batch applies and empties all three.  The
        # node-state overlay maps n -> (key, live NodeState): hot parents
        # (root, record-type nodes) have their child counts advanced by
        # nearly every insert, so in-chunk reads go through it (count
        # updates accumulate on one object) and each node is written
        # once per chunk, in key order.  The created map holds the labels
        # new this chunk and their items: not on the tree yet, so
        # _end_batch inserts them without put()'s delete pass and hands
        # their (prefix, n, end) rows to the posting cache.  The DocId
        # buffer holds the chunk's (n, doc_id) pairs.
        self._node_overlay: dict[int, tuple[bytes, NodeState]] = {}
        self._overlay_created: dict[int, Item] = {}
        self._docid_buffer: list[tuple[int, int]] = []
        # stores whose tombstones wait for the commit that detaches their
        # documents, and the ids (encode_uint, concatenated) queued for it
        self._tombstoned_stores = [
            store
            for store in (self.docstore, self.source_store)
            if hasattr(store, "write_tombstones")
        ]
        self._removed = bytearray()
        self._closed = False
        if self.tree.is_empty():
            self.tree.put(META_FORMAT_KEY, encode_uint(ENTRY_FORMAT))
        else:
            self._check_format()
        root_value = self.tree.get(ROOT_KEY)
        if root_value is None:
            self._root_state = NodeState(scope=Scope(0, max_label - 1), parent_n=0)
            self.tree.put(ROOT_KEY, self._root_state.to_bytes())
        else:
            self._root_state = NodeState.from_bytes(0, root_value)
        self._load_max_prefix_len()
        # a crash between a docstore append and the tree commit leaves
        # trailing records past the committed state; drop them now so the
        # index reopens exactly on its last durable commit boundary
        self.recovered_trailing_docs = self._recover_store_bounds()
        # a crash between a commit and its tombstone writes leaves removed
        # documents live in the stores; finish those removals now
        self.recovered_removals = self._apply_removals()
        self._register_host_metrics()
        self.metrics.register("underflows", lambda: self.underflow_count)

    def _check_format(self) -> None:
        """Refuse a tree whose entries this build's one decoder cannot read."""
        stamp = self.tree.get(META_FORMAT_KEY)
        if stamp == encode_uint(ENTRY_FORMAT):
            return
        found = "no format stamp" if stamp is None else f"format {decode_uint(stamp)[0]}"
        raise IndexFormatError(
            f"the index holds entries with {found}, this build reads only "
            f"format {ENTRY_FORMAT}; run `repro salvage DBDIR` to rebuild it "
            "from the document store"
        )

    # ------------------------------------------------------------------
    # ingestion (Algorithm 4)

    def _add_sequence_locked(self, sequence: StructureEncodedSequence) -> int:
        if len(sequence) == 0:
            raise IndexStateError("cannot index an empty sequence")
        self._validate_key_sizes(sequence)
        overlay = self._node_overlay
        path_items: list[Optional[Item]] = [None]
        path_states: list[NodeState] = [self._root_state]
        path_keys: list[bytes] = [ROOT_KEY]
        # nodes this insert creates, as (n, item, parent_n)
        created: list[tuple[int, Item, int]] = []
        self._last_insert = (None, created)
        try:
            labels: Optional[list[int]] = None
            for i, item in enumerate(sequence):
                parent_state = path_states[-1]
                child = self._find_child(item, parent_state)
                if child is None:
                    scope = self.allocator.place(parent_state, path_items[-1], item)
                    # place() advanced the parent's child count: stage the
                    # parent, or a later insertion would hand out the same
                    # scope twice
                    overlay.setdefault(
                        parent_state.scope.n, (path_keys[-1], parent_state)
                    )
                    if scope is None:
                        labels = self._insert_borrowed(
                            i, sequence, path_items, path_states, path_keys, created
                        )
                        break
                    child = NodeState(scope, parent_n=parent_state.scope.n)
                    key = node_key(item.symbol, item.prefix, scope.n)
                    overlay[scope.n] = (key, child)
                    self._overlay_created[scope.n] = item
                    self._child_cache[parent_state.scope.n, item] = scope.n
                    created.append((scope.n, item, parent_state.scope.n))
                else:
                    key = node_key(item.symbol, item.prefix, child.scope.n)
                path_items.append(item)
                path_states.append(child)
                path_keys.append(key)
            if labels is None:
                labels = [state.scope.n for state in path_states[1:]]
            doc_id = self.docstore.add(self._make_payload(sequence, labels))
            pair = (labels[-1], doc_id)
            self._docid_buffer.append(pair)
            self._last_insert = (pair, created)
            self._bump_max_prefix_len(max(item.depth for item in sequence))
        except BaseException:
            self._rollback_insert()
            raise
        return doc_id

    def _validate_key_sizes(self, sequence: StructureEncodedSequence) -> None:
        """Reject sequences whose keys cannot fit a B+Tree cell *before*
        touching any persistent state, so a failed add never leaves a
        partially inserted document behind."""
        budget = self.tree.max_entry_bytes
        # every label-sized field of a non-root entry is at most the root's
        # scope end; the codec prices the worst state it can write
        value_allowance = NodeState.max_encoded_len(self._root_state.scope.end)
        for item in sequence:
            key_size = node_key_len(item.symbol, item.prefix, self._root_state.scope.end)
            if key_size + value_allowance > budget:
                raise KeyTooLargeError(
                    f"item at depth {item.depth} needs a {key_size}-byte key plus "
                    f"{value_allowance} bytes of labelling state; use a larger "
                    f"page size (budget {budget} bytes/cell) or a smaller max_label"
                )

    def _find_child(self, item: Item, parent: NodeState) -> Optional[NodeState]:
        """Algorithm 4's "search in e for an immediate child scope of s".

        Scans the S-Ancestor range of ``(symbol, prefix)`` inside the
        parent scope and picks the entry whose ``parent_n`` is the parent
        itself.  Private (borrow-labelled) nodes are never shared.
        """
        scope = parent.scope
        overlay = self._node_overlay
        cached_n = self._child_cache.get((scope.n, item))
        if cached_n is not None:
            entry = overlay.get(cached_n)
            if entry is not None:
                state: Optional[NodeState] = entry[1]
            else:
                value = self.tree.get(node_key(item.symbol, item.prefix, cached_n))
                state = None if value is None else NodeState.from_bytes(cached_n, value)
            if state is not None and state.parent_n == scope.n and not state.private:
                return state
            # stale (node was reclaimed)
            self._child_cache.pop((scope.n, item), None)
        if scope.n in self._overlay_created:
            # the parent itself was created this chunk, so it cannot have
            # on-tree children, and the child cache maps every in-chunk one
            return None
        lo = node_key(item.symbol, item.prefix, scope.n + 1)
        hi = node_key(item.symbol, item.prefix, scope.end)
        for key, value in self.tree.range(lo, hi, include_hi=True):
            n = decode_node_key(key)[2]
            # an on-tree value can be stale during a chunk: the live state
            # (advanced child count) is the overlay's object
            entry = overlay.get(n)
            state = entry[1] if entry is not None else NodeState.from_bytes(n, value)
            if state.parent_n == scope.n and not state.private:
                self._child_cache[scope.n, item] = state.scope.n
                return state
        return None

    def _insert_borrowed(
        self,
        i: int,
        sequence: StructureEncodedSequence,
        path_items: list[Optional[Item]],
        path_states: list[NodeState],
        path_keys: list[bytes],
        created: list[tuple[int, Item, int]],
    ) -> list[int]:
        """Scope underflow repair (Section 3.4.1).

        Walks the insert path upwards until an ancestor's reserve can
        supply ``remaining + duplicated`` sequential ids; nodes below the
        lender are duplicated as private, the rest of the sequence is
        labelled sequentially inside the block.
        """
        remaining = len(sequence) - i
        lender_idx: Optional[int] = None
        start: Optional[int] = None
        for t in range(i, -1, -1):
            need = remaining + (i - t)
            start = self.allocator.borrow_block(path_states[t], need)
            if start is not None:
                lender_idx = t
                break
        if lender_idx is None or start is None:
            raise ScopeUnderflowError(
                f"no ancestor reserve can cover {remaining} remaining items"
            )
        self.underflow_count += 1
        # the lender's reserve watermark moved: stage it
        lender = path_states[lender_idx]
        overlay = self._node_overlay
        overlay.setdefault(lender.scope.n, (path_keys[lender_idx], lender))
        need = remaining + (i - lender_idx)
        # the path below the lender is abandoned: the nodes this insert
        # created on it (a suffix of ``created``) are traversed by no
        # document — unmake them, or they would stay on the tree with no
        # DocId key in their scope
        abandoned_ns = {state.scope.n for state in path_states[lender_idx + 1 :]}
        while created and created[-1][0] in abandoned_ns:
            n, item, parent_n = created.pop()
            del overlay[n]
            del self._overlay_created[n]
            self._child_cache.pop((parent_n, item), None)
        borrowed_items = [path_items[k] for k in range(lender_idx + 1, i + 1)]
        borrowed_items.extend(sequence[j] for j in range(i, len(sequence)))
        prev_n = lender.scope.n
        labels = [state.scope.n for state in path_states[1 : lender_idx + 1]]
        for offset, item in enumerate(borrowed_items):
            assert item is not None
            n = start + offset
            state = NodeState(
                Scope(n, need - offset - 1), parent_n=prev_n, private=True
            )
            overlay[n] = (node_key(item.symbol, item.prefix, n), state)
            self._overlay_created[n] = item
            created.append((n, item, prev_n))
            labels.append(n)
            prev_n = n
        return labels

    # ------------------------------------------------------------------
    # deletion

    def remove(self, doc_id: int) -> None:
        """Delete a document: its DocId pair, then its path bottom-up up to
        the first node whose scope still holds a DocId key (every ancestor
        covers that key, so it is live too)."""
        with self.rwlock.write():
            self._remove_locked(doc_id)

    def _remove_locked(self, doc_id: int) -> None:
        stamp = encode_uint(doc_id)
        if self._tombstoned_stores and len(self._removed) + len(stamp) > (
            self._removal_budget()
        ):
            self.flush()  # commit the queue so the stamp fits one tree cell
        sequence, labels = self._parse_payload(self.docstore.get(doc_id))
        if not self.docid_tree.delete(label_key(labels[-1]), encode_uint(doc_id)):
            raise IndexStateError(f"document {doc_id} has no DocId entry")
        reclaimed: list[tuple[Symbol, Prefix, int]] = []
        try:
            for item, n in zip(reversed(sequence.items), reversed(labels)):
                key = node_key(item.symbol, item.prefix, n)
                value = self.tree.get(key)
                if value is None:
                    raise IndexStateError(f"missing index entry for doc {doc_id} at {n}")
                state = NodeState.from_bytes(n, value)
                hi = label_key(state.scope.end)
                if next(self.docid_tree.range(label_key(n), hi, include_hi=True), None):
                    break
                self.tree.delete(key)
                self._child_cache.pop((state.parent_n, item), None)
                reclaimed.append((item.symbol, item.prefix, n))
        finally:
            # the cached groups lose exactly the rows the tree lost
            if self.postings is not None:
                self.postings.drop_rows(reclaimed)
        self.docstore.remove(doc_id)
        self._remove_source(doc_id)
        if self._tombstoned_stores:
            self._removed += stamp

    def _rollback_insert(self, doc_id: Optional[int] = None) -> None:
        """Undo the insert in flight — or, given its ``doc_id``, the one
        that just returned — inside the same chunk.

        The one undo of every failed insert (scope underflow, docstore
        or source append): the nodes it created leave the overlay, the
        created set and the child cache; its DocId pair leaves the buffer
        and its docstore id is un-assigned, if it got that far, so the
        next add reuses the id.
        Child counts are deliberately *not* rolled back — labels, once
        assigned, stay fixed (Section 3.4), the same policy
        :meth:`remove` follows."""
        last, self._last_insert = self._last_insert, None
        if last is None:
            raise IndexStateError("no insert in this chunk to roll back")
        pair, created = last
        if doc_id is not None and (pair is None or pair[1] != doc_id):
            raise IndexStateError(
                f"cannot roll back doc {doc_id}: it is not the latest insert"
            )
        for n, item, parent_n in created:
            self._node_overlay.pop(n, None)
            self._overlay_created.pop(n, None)
            self._child_cache.pop((parent_n, item), None)
        if pair is not None:
            self._docid_buffer.remove(pair)
            self.docstore.pop_last(pair[1])

    def _end_batch(self) -> None:
        """Apply the chunk: its node states, then its DocId pairs.

        Node states land first, in key order, one write per node — a hot
        parent touched by every document of the chunk costs one B+Tree
        delete+insert instead of hundreds.  Then the ``(n, doc_id)``
        pairs: sorting the integer pairs yields the encoded pairs in
        ascending byte order (both encodings are order-preserving), so
        an empty DocId tree takes the packed
        :meth:`~repro.storage.bptree.BPlusTree.bulk_load` path and a
        non-empty one gets ordered inserts — far fewer node splits than
        random-order descents.

        Each created node's ``(prefix, n, end)`` row joins the cached
        posting groups that cover it once its ``tree.insert`` has
        returned — one cache call for the chunk, on the error path too,
        so the cache holds exactly the rows the tree holds."""
        self._last_insert = None
        overlay, self._node_overlay = self._node_overlay, {}
        created, self._overlay_created = self._overlay_created, {}
        buffer, self._docid_buffer = self._docid_buffer, []
        entries = sorted(overlay.items(), key=lambda e: e[1][0])
        applied = 0
        try:
            for n, (key, state) in entries:
                if n in created:
                    # never on the tree yet: skip put()'s delete pass
                    self.tree.insert(key, state.to_bytes())
                else:
                    self.tree.put(key, state.to_bytes())
                applied += 1
        finally:
            if self.postings is not None:
                # lazy: an empty cache (every ingest) never builds a row
                self.postings.add_rows(
                    (item.symbol, item.prefix, n, state.scope.end)
                    for n, (_, state) in islice(entries, applied)
                    if (item := created.get(n)) is not None
                )
        if not buffer:
            return
        buffer.sort()
        pairs = [(label_key(n), encode_uint(doc_id)) for n, doc_id in buffer]
        if self.docid_tree.is_empty():
            self.docid_tree.bulk_load(pairs)
        else:
            for key, value in pairs:
                self.docid_tree.insert(key, value, allow_exact_dup=True)

    # ------------------------------------------------------------------
    # matching

    def match_sequence(self, query_sequence: QuerySequence, guard=None, trace=None) -> set[int]:
        return self._matcher.match(query_sequence, guard, trace)

    @property
    def match_stats(self):
        """MatchStats of the most recent :meth:`match_sequence` call."""
        return self._matcher.stats

    def root_scope(self) -> Scope:
        return self._root_state.scope

    # the query path only needs the scope end: read the flag byte and the
    # two-byte width (a varint for a private node) instead of rebuilding
    # the whole NodeState per posting (hot in group loads)
    _end_of = staticmethod(scope_end)

    # ------------------------------------------------------------------
    # payloads: sequence bytes + the node labels of the insert path

    def _make_payload(
        self, sequence: StructureEncodedSequence, labels: list[int]
    ) -> bytes:
        # the insert path as first label + successive differences: a child's
        # n exceeds its parent's and a borrowed block sits above its lender,
        # so encode_uint's CodecError on a negative is the ordering check
        seq_bytes = sequence.to_bytes()
        out = bytearray(encode_uint(len(seq_bytes)))
        out += seq_bytes
        prev = 0
        for n in labels:
            out += encode_uint(n - prev)
            prev = n
        return bytes(out)

    def _parse_payload(self, payload: bytes) -> tuple[StructureEncodedSequence, list[int]]:
        seq_len, offset = decode_uint(payload)
        offset += seq_len
        labels: list[int] = []
        n = 0
        while offset < len(payload):
            delta, offset = decode_uint(payload, offset)
            if not delta:
                raise CodecError("payload label list does not ascend")
            n += delta
            labels.append(n)
        return self._payload_to_sequence(payload), labels

    def _payload_to_sequence(self, payload: bytes) -> StructureEncodedSequence:
        # the labels behind the sequence are remove()'s business only
        seq_len, offset = decode_uint(payload)
        return StructureEncodedSequence.from_bytes(payload[offset : offset + seq_len])

    # ------------------------------------------------------------------
    # maintenance / measurements

    def flush(self) -> None:
        """Commit: make everything since the last commit durable at once.

        :meth:`_stage_commit` hands the pager all a commit carries, then
        one pager commit makes it durable; that one atomic step is what
        makes recovery land exactly on a commit boundary
        (docs/INTERNALS.md section 14).  Store tombstones are written
        only once the commit is durable: a crash before it keeps the
        removed documents live everywhere, a crash after it is finished
        by :meth:`_apply_removals` on reopen."""
        with self.rwlock.write():
            self._stage_commit()
            self._pager.sync()
            for store in self._tombstoned_stores:
                store.write_tombstones()
            self._removed.clear()

    def _stage_commit(self) -> None:
        """Stage the next pager commit, in order: the doc/source stores'
        appends made durable (fsync), their byte lengths and the ids
        removed since the last commit stamped into the combined tree, and
        both trees' dirty nodes written to the pager.  Under the crash
        model the stamped bounds then always describe durable bytes, and
        trailing records a crash leaves past them are truncated by
        :meth:`_recover_store_bounds`."""
        for store in (self.docstore, self.source_store):
            flush = getattr(store, "flush", None) if store is not None else None
            if flush is not None:
                flush(fsync=True)
        self._record_store_bounds()
        if self._removed:
            self.tree.put(META_REMOVED_KEY, bytes(self._removed))
        self.tree.flush()
        self.docid_tree.flush()

    def _removal_budget(self) -> int:
        """Bytes of encoded ids that fit beside META_REMOVED_KEY in one cell."""
        return self.tree.max_entry_bytes - len(META_REMOVED_KEY)

    def _apply_removals(self) -> int:
        """Re-apply the removals stamped by the last commit.

        Returns how many stamped ids were still live in the doc store.
        Ids are never reused, so an id already tombstoned is skipped and
        the replay is idempotent."""
        value = self.tree.get(META_REMOVED_KEY)
        if not value or not self._tombstoned_stores:
            return 0
        applied = 0
        for doc_id in decode_removed(value):
            applied += doc_id in self.docstore
            for store in self._tombstoned_stores:
                if doc_id in store:
                    store.remove(doc_id)
        for store in self._tombstoned_stores:
            store.write_tombstones()
        return applied

    def _record_store_bounds(self) -> None:
        """Stamp current store byte lengths under META_STORE_BOUNDS_KEY.

        Encoded as ``(flag, size)`` per store (flag 0 = store absent or
        without byte accounting) since the tuple codec has no negative
        integers.  Skipped entirely when no store reports a size, and
        skipped when unchanged so read-only sessions stay clean."""
        bounds: list[int] = []
        any_present = False
        for store in (self.docstore, self.source_store):
            size = getattr(store, "byte_size", None) if store is not None else None
            if size is None:
                bounds.extend((0, 0))
            else:
                bounds.extend((1, size))
                any_present = True
        if not any_present:
            return
        value = encode_tuple(tuple(bounds))
        if self.tree.get(META_STORE_BOUNDS_KEY) != value:
            self.tree.put(META_STORE_BOUNDS_KEY, value)

    def _recover_store_bounds(self) -> int:
        """Truncate store bytes past the last committed bounds.

        Returns the number of trailing (fully written but uncommitted)
        documents dropped.  Bounds *smaller* than recorded are left
        alone: compaction legitimately shrinks the files without a
        bounds re-stamp until the next flush."""
        value = self.tree.get(META_STORE_BOUNDS_KEY)
        if value is None:
            return 0
        parts = decode_tuple(value)
        dropped = 0
        for i, store in enumerate((self.docstore, self.source_store)):
            if store is None or 2 * i + 1 >= len(parts):
                continue
            flag, size = parts[2 * i], parts[2 * i + 1]
            if not flag:
                continue
            truncate_to = getattr(store, "truncate_to", None)
            current = getattr(store, "byte_size", None)
            if truncate_to is None or current is None:
                continue
            if current > size:
                count = truncate_to(size)
                if store is self.docstore:
                    # source drops mirror the same documents: count once
                    dropped += count
        return dropped

    def close(self) -> None:
        """Commit as :meth:`flush` does, then release the pager.  Idempotent."""
        with self.rwlock.write():
            if self._closed:
                return
            self.flush()
            self.tree.close()
            self.docid_tree.close()
            self._pager.close()
            self._closed = True

    def index_stats(self) -> dict[str, TreeStats]:
        """Per-tree size statistics (Figure 11(a))."""
        return {"combined": self.tree.stats(), "docid": self.docid_tree.stats()}

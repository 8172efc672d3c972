"""B+Tree key plumbing shared by the RIST and ViST indexes.

Both indexes keep two logical structures in B+Trees (paper Figure 6):

* the **combined D-Ancestor + S-Ancestor tree**: one entry per virtual
  suffix-tree node, key ``(symbol, prefix_len, *prefix_labels, n)``.
  The key order is exactly Section 3.3's D-Ancestor order (symbol, then
  prefix length, then prefix content) with the S-Ancestor label ``n``
  appended, so a D-Ancestor lookup is a key-prefix range and the
  S-Ancestor range ``(n, n + size]`` is a sub-range of it;
* the **DocId tree**: key ``n``, one duplicate entry per document id
  attached to node ``n``.

Entry values differ per index (RIST stores a bare size, ViST a full
:class:`~repro.labeling.dynamic.NodeState`), so hosts provide
``_end_of(n, value)``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from repro.index.postings import PostingCache, PostingGroup
from repro.labeling.scope import Scope
from repro.sequence.encoding import Prefix
from repro.storage.bptree import BPlusTree
from repro.storage.serialization import (
    decode_items,
    decode_tuple,
    decode_uint,
    encode_tuple,
    encode_uint,
    prefix_range_end,
)

Symbol = Union[str, int]

# Reserved keys in the combined tree.  Real symbols are non-empty labels
# or non-negative value hashes, so a leading empty-string component can
# never collide with a data key.
ROOT_KEY = encode_tuple(("", 0, "root"))
META_MAX_DEPTH_KEY = encode_tuple(("", 0, "max-depth"))
# committed byte lengths of the doc/source stores, stamped at every
# durable commit so reopening can truncate uncommitted trailing appends
# (see VistIndex._record_store_bounds / _recover_store_bounds)
META_STORE_BOUNDS_KEY = encode_tuple(("", 0, "store-bounds"))
# ids removed since the previous commit, stamped in the commit that
# detaches them; their docstore tombstones are written after it, and a
# reopen re-applies any stamped id still live (VistIndex._apply_removals)
META_REMOVED_KEY = encode_tuple(("", 0, "removed"))
# layout of what a ViST tree holds (NodeState values, docstore payloads,
# front-coded leaf pages since format 5, a shared node's size as a
# two-byte width m·2^e since format 6), stamped when the tree is created.
# There is one decoder: a tree with another number, or none, is rebuilt
# by `repro salvage`, never read.
META_FORMAT_KEY = encode_tuple(("", 0, "format"))
ENTRY_FORMAT = 6
# every combined-tree key that is not a trie node
RESERVED_KEYS = frozenset(
    (
        ROOT_KEY,
        META_MAX_DEPTH_KEY,
        META_STORE_BOUNDS_KEY,
        META_REMOVED_KEY,
        META_FORMAT_KEY,
    )
)

__all__ = [
    "ROOT_KEY",
    "META_MAX_DEPTH_KEY",
    "META_STORE_BOUNDS_KEY",
    "META_REMOVED_KEY",
    "META_FORMAT_KEY",
    "ENTRY_FORMAT",
    "RESERVED_KEYS",
    "label_key",
    "node_key",
    "node_key_len",
    "decode_node_key",
    "decode_removed",
    "CombinedTreeHost",
]


# item tag + non-negative sign byte + magnitude length, per length
_LABEL_HEAD = [encode_tuple((0,))[:-1] + bytes((nbytes,)) for nbytes in range(256)]


def label_key(n: int) -> bytes:
    """``encode_tuple((n,))`` of a label without the generic per-item
    dispatch: tag bytes, magnitude length, big-endian magnitude.  It is
    the whole DocId-tree key (and the ``n`` suffix of a node key)."""
    nbytes = (n.bit_length() + 7) // 8
    try:
        return _LABEL_HEAD[nbytes] + n.to_bytes(nbytes, "big")
    except (IndexError, OverflowError):  # oversized or negative: not a label
        return encode_tuple((n,))


# node_key is the hottest function of the insert path (one call per
# sequence item for validation alone, several more per descent step).
# encode_tuple parts are self-delimiting, so the key factors into a
# (symbol, prefix) stem and an ``n`` suffix — both highly repetitive in
# any real corpus (documents share element paths; labels are reused in
# every range bound).  Capped memos turn the common call into two dict
# hits and a concat.
_STEM_CACHE: dict[tuple, bytes] = {}
_N_CACHE: dict[int, bytes] = {}
_KEY_CACHE_CAP = 1 << 16


def node_key(symbol: Symbol, prefix: Prefix, n: int) -> bytes:
    """Combined-tree key of the node for ``(symbol, prefix)`` labelled ``n``."""
    stem = _STEM_CACHE.get((symbol, prefix))
    if stem is None:
        stem = encode_tuple((symbol, len(prefix), *prefix))
        if len(_STEM_CACHE) < _KEY_CACHE_CAP:
            _STEM_CACHE[symbol, prefix] = stem
    suffix = _N_CACHE.get(n)
    if suffix is None:
        suffix = encode_tuple((n,))
        if len(_N_CACHE) < _KEY_CACHE_CAP:
            _N_CACHE[n] = suffix
    return stem + suffix


def node_key_len(symbol: Symbol, prefix: Prefix, n: int) -> int:
    """``len(node_key(...))`` without materialising the key.

    Key-size validation runs over every item of every sequence; the
    lengths come straight from the memoised parts."""
    stem = _STEM_CACHE.get((symbol, prefix))
    if stem is None:
        stem = encode_tuple((symbol, len(prefix), *prefix))
        if len(_STEM_CACHE) < _KEY_CACHE_CAP:
            _STEM_CACHE[symbol, prefix] = stem
    suffix = _N_CACHE.get(n)
    if suffix is None:
        suffix = encode_tuple((n,))
        if len(_N_CACHE) < _KEY_CACHE_CAP:
            _N_CACHE[n] = suffix
    return len(stem) + len(suffix)


def decode_node_key(key: bytes) -> tuple[Symbol, Prefix, int]:
    """Inverse of :func:`node_key`."""
    parts = decode_tuple(key)
    symbol = parts[0]
    plen = parts[1]
    return symbol, tuple(parts[2 : 2 + plen]), parts[2 + plen]


def decode_removed(stamp: bytes) -> Iterator[int]:
    """The doc ids a :data:`META_REMOVED_KEY` value holds."""
    offset = 0
    while offset < len(stamp):
        doc_id, offset = decode_uint(stamp, offset)
        yield doc_id


def _group_key_tail(
    key: bytes, stem: bytes, leading: tuple[str, ...], extra: int
) -> tuple[Prefix, int]:
    """``(prefix, n)`` of one key from a D-Ancestor group scan.

    Every key of the scanned range shares the ``(symbol, prefix_len,
    *leading)`` stem (the scan bounds guarantee it for well-formed keys),
    so only the per-key tail — ``extra`` wildcard labels plus ``n`` — is
    decoded, instead of re-decoding the whole tuple per entry.  The
    stem-mismatch fallback keeps malformed keys on the slow exact path.
    """
    if key.startswith(stem):
        base = len(stem)
        if extra:
            tail, off = decode_items(key, base, extra)
            return leading + tail, decode_items(key, off, 1)[0][0]
        return leading, decode_items(key, base, 1)[0][0]
    _, prefix, n = decode_node_key(key)
    return prefix, n


class CombinedTreeHost:
    """Matching-host implementation over the two B+Trees.

    Subclasses (RIST/ViST indexes) own ``self.tree`` (combined) and
    ``self.docid_tree``, implement :meth:`_end_of` and call
    :meth:`_load_max_prefix_len` once both trees are open.

    When ``self.postings`` holds a :class:`PostingCache`, D-Ancestor key
    groups are decoded once and kept resident, and every lookup becomes
    bisects over the cached group (the on-disk layout is untouched;
    hosts hand the cache the ``(prefix, n, end)`` row of every entry they
    insert or delete — :meth:`PostingCache.add_rows` /
    :meth:`PostingCache.drop_rows` — or clear it after a wholesale
    rebuild).  With ``postings = None`` every group fetch is a fresh
    B+Tree range scan — the paper's original access path.
    """

    tree: BPlusTree
    docid_tree: BPlusTree
    postings: Optional[PostingCache] = None
    # held in memory like the root state: read once when the host opens,
    # raised under the write lock (the value only ever grows)
    _max_prefix_len: int = 0

    # -- MatchingHost ------------------------------------------------------

    def root_scope(self) -> Scope:
        raise NotImplementedError

    def _end_of(self, n: int, value: bytes) -> int:
        """Scope end ``n + size`` of the entry labelled ``n``."""
        raise NotImplementedError

    def max_prefix_len(self) -> int:
        return self._max_prefix_len

    def _stored_max_prefix_len(self) -> int:
        value = self.tree.get(META_MAX_DEPTH_KEY)
        return decode_uint(value)[0] if value is not None else 0

    def _load_max_prefix_len(self) -> None:
        self._max_prefix_len = self._stored_max_prefix_len()

    def _bump_max_prefix_len(self, depth: int) -> None:
        if depth > self._max_prefix_len:
            self.tree.put(META_MAX_DEPTH_KEY, encode_uint(depth))
            self._max_prefix_len = depth

    def fetch_postings(
        self, symbol: Symbol, prefix_len: int, leading: tuple[str, ...]
    ) -> PostingGroup:
        """The whole D-Ancestor key group, sorted by ``n`` (cached if enabled).

        One fetch serves every scope window of a frontier level via
        :meth:`PostingGroup.join`.
        """
        if self.postings is None:
            return PostingGroup(self._load_postings(symbol, prefix_len, leading))
        return self.postings.lookup(
            symbol,
            prefix_len,
            leading,
            lambda: self._load_postings(symbol, prefix_len, leading),
        )

    def _load_postings(
        self, symbol: Symbol, prefix_len: int, leading: tuple[str, ...]
    ) -> Iterator[tuple[Prefix, int, int]]:
        """Range-scan one D-Ancestor key group out of the combined tree
        as ``(prefix, n, end)`` rows."""
        stem = encode_tuple((symbol, prefix_len, *leading))
        extra = prefix_len - len(leading)
        end_of = self._end_of
        for key, value in self.tree.range(stem, prefix_range_end(stem)):
            prefix, n = _group_key_tail(key, stem, leading, extra)
            yield prefix, n, end_of(n, value)

    def doc_ids_in(self, ranges: Iterable[tuple[int, int]]) -> list[int]:
        """Document ids attached under the closed label ranges ``[n, end]``
        (ascending, pairwise disjoint): one cursor over the DocId leaf
        chain for all of them."""
        bounds = [(label_key(n), label_key(end + 1)) for n, end in ranges]
        return [
            decode_uint(value)[0]
            for _, value in self.docid_tree.scan_windows(bounds)
        ]

    def _register_host_metrics(self) -> None:
        """Attach the host's cache/tree/pager counters to ``self.metrics``.

        Called by the index constructors once the trees, matcher and
        posting cache exist.  Everything is registered as a pull-only
        source: the registry reads these objects at snapshot time and the
        hot paths keep their plain attribute increments.
        """
        metrics = getattr(self, "metrics", None)
        if metrics is None:  # host built without XmlIndexBase plumbing
            return
        matcher = getattr(self, "_matcher", None)
        if matcher is not None:
            # read through the matcher, not the stats object: each match
            # publishes a fresh MatchStats bundle (swapped by reference),
            # so a captured object would go stale after the first query
            metrics.register("match", lambda: matcher.stats.snapshot())
        if self.postings is not None:
            postings = self.postings
            metrics.register("postings", postings.stats)
            metrics.register("postings.groups", lambda: len(postings))
        pager = self.tree.pager
        metrics.register("pager.reads", lambda: pager.read_count)
        metrics.register("buffer_pool", self._node_cache_stats)
        for name, tree in (("combined", self.tree), ("docid", self.docid_tree)):
            # tree.stats() walks the tree, so it joins the dump as a lazy
            # callable — paid only when somebody snapshots the registry
            metrics.register(f"tree.{name}", lambda tree=tree: self._tree_shape(tree))

    def _tree_shape(self, tree: BPlusTree) -> dict:
        # a reader like any other: a walk that misses the node cache while
        # a writer runs would install its stale decode over the node the
        # writer has just mutated
        with self.rwlock.read():
            return tree.stats().snapshot()

    def _node_cache_stats(self) -> dict:
        """The two trees' decoded-node caches, summed.  Published as
        ``buffer_pool``: it is the only cache between the trees and the
        page file, and the name is what the benchmark harness reads."""
        trees = (self.tree, self.docid_tree)
        hits = sum(tree.cache_hits for tree in trees)
        misses = sum(tree.cache_misses for tree in trees)
        return {
            "hits": hits,
            "misses": misses,
            "writebacks": sum(tree.cache_writebacks for tree in trees),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }

    def cache_stats(self) -> dict:
        """Query-path cache counters: posting groups, decoded nodes
        (``buffer_pool``), seeks per tree (``descent``)."""
        out: dict = {}
        if self.postings is not None:
            stats = self.postings.stats
            out["postings"] = {
                "groups": len(self.postings),
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "hit_rate": stats.hit_rate,
            }
        out["descent"] = {
            "combined": {"seeks": self.tree.seeks},
            "docid": {"seeks": self.docid_tree.seeks},
        }
        out["buffer_pool"] = self._node_cache_stats()
        return out

"""Posting cache: memoised D-Ancestor key groups for the query path.

A *posting group* is the full set of combined-tree entries under one
D-Ancestor scan key ``(symbol, prefix_len, leading)`` — exactly the key
range :meth:`~repro.index.store.CombinedTreeHost._load_postings` scans —
decoded once and kept sorted by the S-Ancestor label ``n``.  With the
group resident, restricting it to a frontier of scope windows is a
handful of :func:`bisect` calls over the ``n`` column instead of a
root-to-leaf B+Tree descent plus a leaf-chain walk per window, which is
the dominant cost of Algorithm 2 on repeated query traffic (the same hot
``(symbol, prefix)`` keys are scanned by every branch of a query and
again by every later query).

:class:`PostingCache` is an LRU over such groups.  It is a *lookaside*
structure: the B+Trees stay byte-identical and the cache is dropped on
reopen.  Scope labels never change once assigned (Section 3.4: "labels,
once assigned, stay fixed"), so a resident group only ever gains or
loses whole ``(prefix, n, end)`` rows — one per trie node an insert
creates or a removal reclaims.  The writer hands those rows to
:meth:`PostingCache.add_rows` / :meth:`PostingCache.drop_rows`, which
splice them into every cached group that covers them, in place: the hot
groups stay resident across updates instead of being scanned again.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, List, Sequence, Union

from repro.obs.metrics import MetricSet
from repro.sequence.encoding import Prefix

GroupKey = tuple[Hashable, int, tuple[str, ...]]  # (symbol, prefix_len, leading)
Posting = tuple[Prefix, int, int]  # (prefix, n, end): the node owns (n, end]
IntColumn = Union["array", List[int]]

__all__ = ["PostingGroup", "PostingCacheStats", "PostingCache"]


def pack_ints(values: Sequence[int]) -> IntColumn:
    """Pack an integer column: ``array('q')`` when every value fits int64.

    The fallback is a plain list with identical ordering and indexing
    semantics — ``bisect`` and ``len`` work on both, so consumers never
    branch on the representation.
    """
    try:
        return array("q", values)
    except OverflowError:
        return list(values)  # a label exceeds int64: keep exact Python ints


# Prefix interning: every posting of a concrete D-Ancestor group shares
# one prefix tuple, and wildcard groups draw from a small label alphabet,
# so the distinct-prefix population is tiny next to the posting count.
# Interning makes the ``prefixes`` column N references to a handful of
# tuples instead of N tuple objects.  Capped so adversarial corpora
# cannot grow it without bound (hits past the cap simply stay unshared).
_PREFIX_INTERN: dict[Prefix, Prefix] = {}
_PREFIX_INTERN_CAP = 1 << 16


def _intern_prefix(prefix: Prefix) -> Prefix:
    interned = _PREFIX_INTERN.get(prefix)
    if interned is not None:
        return interned
    if len(_PREFIX_INTERN) < _PREFIX_INTERN_CAP:
        _PREFIX_INTERN[prefix] = prefix
    return prefix


def _insert_int(column: IntColumn, i: int, value: int) -> IntColumn:
    """``column.insert(i, value)``; an ``array('q')`` that cannot hold
    ``value`` becomes a list first (as :func:`pack_ints` would pack it)."""
    try:
        column.insert(i, value)
    except OverflowError:  # the array is left untouched
        column = list(column)
        column.insert(i, value)
    return column


class PostingGroup:
    """One D-Ancestor key group as packed parallel columns, sorted by ``n``.

    The postings live in three columns: ``ns`` and ``ends`` (the
    S-Ancestor label and scope end, packed to ``array('q')`` by
    :func:`pack_ints` when they fit int64, plain lists
    otherwise) and ``prefixes`` (interned prefix tuples).  The matcher
    consumes the columns directly through :meth:`join` — bisects plus
    index arithmetic, no per-posting object.  :meth:`insert_row` and
    :meth:`delete_row` keep the columns sorted and parallel under
    updates; a column keeps its list form once a label above int64 has
    entered it, so compare groups row by row (:meth:`rows`), not by
    column type.
    """

    __slots__ = ("ns", "ends", "prefixes")

    def __init__(self, postings: Iterable[Posting]) -> None:
        rows = sorted(postings, key=lambda row: row[1])
        self.ns = pack_ints([n for _, n, _ in rows])
        self.ends = pack_ints([end for _, _, end in rows])
        self.prefixes: list[Prefix] = [_intern_prefix(prefix) for prefix, _, _ in rows]

    def rows(self) -> list[Posting]:
        """The group as ``(prefix, n, end)`` rows, ascending by ``n``."""
        return list(zip(self.prefixes, self.ns, self.ends))

    def insert_row(self, prefix: Prefix, n: int, end: int) -> None:
        """Splice the posting of a new node in at its place by ``n``."""
        i = bisect_left(self.ns, n)
        self.ns = _insert_int(self.ns, i, n)
        self.ends = _insert_int(self.ends, i, end)
        self.prefixes.insert(i, _intern_prefix(prefix))

    def delete_row(self, n: int) -> None:
        """Cut the posting labelled ``n`` out, if the group holds it."""
        ns = self.ns
        i = bisect_left(ns, n)
        if i < len(ns) and ns[i] == n:
            del ns[i], self.ends[i], self.prefixes[i]

    def select_span(self, n: int, end: int) -> tuple[int, int]:
        """Column index range of postings with label in ``(n, end]``."""
        ns = self.ns
        return bisect_right(ns, n), bisect_right(ns, end)

    def join(
        self, starts: Sequence[int], ends: Sequence[int], w0: int, w1: int
    ) -> list[tuple[int, int]]:
        """Column spans ``[a, b)`` of the postings inside any of the
        windows ``(starts[k], ends[k]]``, ``w0 <= k < w1``.

        The windows are ascending and pairwise disjoint, so the answer
        is ascending too, and adjacent hits coalesce into one span.  The
        ``n`` column is first clipped to the hull of the windows; then
        the shorter side is iterated and bisected into the longer one,
        each bisect resuming where the last one landed.  Which side is
        shorter is read off the two lengths, nothing else.
        """
        ns = self.ns
        lo, hi = self.select_span(starts[w0], ends[w1 - 1])
        spans: list[tuple[int, int]] = []
        run = stop = lo  # the open span [run, stop); empty while run == stop
        if w1 - w0 <= hi - lo:
            # few windows: two bisects on ``ns`` per window
            for k in range(w0, w1):
                a = bisect_right(ns, starts[k], stop, hi)
                if a == hi:
                    break
                b = bisect_right(ns, ends[k], a, hi)
                if a != stop:
                    if stop > run:
                        spans.append((run, stop))
                    run = a
                stop = b
        else:
            # few postings: the one window that can hold ``n`` is the
            # last one starting below it
            j = w0
            for i in range(lo, hi):
                n = ns[i]
                j = bisect_left(starts, n, j, w1)
                if j > w0 and n <= ends[j - 1]:
                    if i != stop:
                        if stop > run:
                            spans.append((run, stop))
                        run = i
                    stop = i + 1
        if stop > run:
            spans.append((run, stop))
        return spans

    def __len__(self) -> int:
        return len(self.ns)


@dataclass
class PostingCacheStats(MetricSet):
    """Counters exposed by :attr:`PostingCache.stats` (registry-readable)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from memory (0.0 when never used)."""
        # snapshot both counters once: re-reading self.hits after summing
        # can report a rate above 1.0 under concurrent increments
        hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0


class PostingCache:
    """LRU cache of :class:`PostingGroup` objects keyed by scan key.

    ``capacity`` bounds the number of cached *groups* (one group can hold
    many postings; the hot working set of a query workload is a small
    number of distinct keys, so a group-count bound is the right knob).

    Thread safety: the ``OrderedDict`` LRU moves and the symbol map are
    guarded by a mutex — a hit *mutates* the LRU order, so even pure
    readers race without it.  The lock is dropped while ``loader()``
    scans the B+Tree (the slow part); two threads missing on the same
    key may both load, and the first group installed wins (groups for
    one key are interchangeable under the index's read lock, because
    scope labels never change once assigned).  :meth:`add_rows` and
    :meth:`drop_rows` splice groups in place; the index calls them under
    its write lock, so no query is reading a group while it changes.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError(f"posting cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._groups: OrderedDict[GroupKey, PostingGroup] = OrderedDict()
        # symbol -> cached keys for that symbol, so an update does not
        # scan the whole cache for the groups its rows belong to
        self._by_symbol: dict[Hashable, set[GroupKey]] = {}
        self._lock = threading.Lock()
        self.stats = PostingCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._groups)

    def lookup(
        self,
        symbol: Hashable,
        prefix_len: int,
        leading: tuple[str, ...],
        loader: Callable[[], Iterable[Posting]],
    ) -> PostingGroup:
        """Return the cached group for the key, loading it on a miss."""
        key: GroupKey = (symbol, prefix_len, leading)
        with self._lock:
            group = self._groups.get(key)
            if group is not None:
                self._groups.move_to_end(key)
                self.stats.hits += 1
                return group
            self.stats.misses += 1
        loaded = PostingGroup(loader())  # tree scan runs outside the lock
        with self._lock:
            group = self._groups.get(key)
            if group is not None:
                # another thread loaded the same key while we scanned;
                # keep its copy so every caller shares one resident group
                self._groups.move_to_end(key)
                return group
            self._groups[key] = loaded
            self._by_symbol.setdefault(symbol, set()).add(key)
            while len(self._groups) > self._capacity:
                victim, _ = self._groups.popitem(last=False)
                self.stats.evictions += 1
                self._discard_symbol_key(victim)
            return loaded

    def add_rows(self, rows: Iterable[tuple[Hashable, Prefix, int, int]]) -> None:
        """Add each ``(symbol, prefix, n, end)`` row — a trie node just
        put on the tree — to every cached group that covers it.

        An entry ``(symbol, prefix)`` belongs to the groups whose
        ``prefix_len == len(prefix)`` and whose ``leading`` labels are a
        prefix of ``prefix`` (the wildcard scans at that length).
        """
        with self._lock:
            if not self._groups:
                return
            for symbol, prefix, n, end in rows:
                for key in self._covering(symbol, prefix):
                    self._groups[key].insert_row(prefix, n, end)

    def drop_rows(self, rows: Iterable[tuple[Hashable, Prefix, int]]) -> None:
        """Drop each ``(symbol, prefix, n)`` row — a trie node just deleted
        from the tree — from every cached group that covers it."""
        with self._lock:
            if not self._groups:
                return
            for symbol, prefix, n in rows:
                for key in self._covering(symbol, prefix):
                    self._groups[key].delete_row(n)

    def _covering(self, symbol: Hashable, prefix: Prefix) -> list[GroupKey]:
        """Cached keys whose group an entry ``(symbol, prefix)`` belongs to."""
        plen = len(prefix)
        return [
            key
            for key in self._by_symbol.get(symbol, ())
            if key[1] == plen and prefix[: len(key[2])] == key[2]
        ]

    def clear(self) -> None:
        """Drop every cached group (bulk rebuilds, reopen)."""
        with self._lock:
            self._groups.clear()
            self._by_symbol.clear()

    def _discard_symbol_key(self, key: GroupKey) -> None:
        keys = self._by_symbol.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_symbol[key[0]]

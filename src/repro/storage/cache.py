"""LRU buffer pool.

:class:`BufferPool` wraps any :class:`~repro.storage.pager.Pager` and keeps
the most recently used pages in memory with write-back semantics, so a
:class:`~repro.storage.pager.FilePager` behaves like a database buffer
manager: reads hit the cache, writes dirty the cached copy, and eviction or
``sync()`` pushes dirty pages down to the backing pager.

The pool also counts hits/misses/evictions, which the benchmarks report.

Thread safety: every pool operation runs under one internal ``RLock``.
The LRU *mutates on reads* (``move_to_end``), so even two concurrent
readers race without it — and the concurrent query path shares one pool
across all executor workers.  The lock is re-entrant because a miss can
re-enter the pool through the base pager in fault-injection harnesses.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import PageError
from repro.obs.metrics import MetricSet
from repro.storage.pager import Pager

__all__ = ["BufferPool", "CacheStats"]


@dataclass
class CacheStats(MetricSet):
    """Counters exposed by :attr:`BufferPool.stats`.

    Plain attributes on the hot path; the obs registry reads them via the
    inherited :meth:`~repro.obs.metrics.MetricSet.snapshot`.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of reads served from the cache (0.0 when never read)."""
        # snapshot both counters once: re-reading self.hits after summing
        # can report a rate above 1.0 under concurrent increments
        hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0


class BufferPool(Pager):
    """Write-back LRU cache in front of another pager.

    ``capacity`` is the number of pages held in memory.  The pool presents
    the full :class:`Pager` interface, so a B+Tree cannot tell whether it is
    talking to a raw pager or a buffered one.
    """

    def __init__(self, base: Pager, capacity: int = 256) -> None:
        if capacity < 1:
            raise PageError(f"buffer pool capacity must be >= 1, got {capacity}")
        self._base = base
        self._capacity = capacity
        self._pages: OrderedDict[int, bytes] = OrderedDict()
        self._dirty: set[int] = set()
        self._lock = threading.RLock()
        self.stats = CacheStats()
        self.page_size = base.page_size
        self.read_count = 0

    @property
    def base(self) -> Pager:
        """The wrapped pager (query guards count its physical reads)."""
        return self._base

    # -- Pager interface -------------------------------------------------

    def allocate(self) -> int:
        with self._lock:
            pid = self._base.allocate()
            self._install(pid, b"\x00" * self.page_size, dirty=False)
            return pid

    def read(self, page_id: int) -> bytes:
        with self._lock:
            self.read_count += 1
            cached = self._pages.get(page_id)
            if cached is not None:
                self._pages.move_to_end(page_id)
                self.stats.hits += 1
                return cached
            self.stats.misses += 1
            # Checksum verification rides this miss path: the base pager
            # raises CorruptPageError *before* _install runs, so a frame
            # that failed its verify is never cached (and never re-served).
            data = self._base.read(page_id)
            self._install(page_id, data, dirty=False)
            return data

    def write(self, page_id: int, data: bytes) -> None:
        data = self._check_data(data)
        with self._lock:
            self._install(page_id, data, dirty=True)

    def free(self, page_id: int) -> None:
        with self._lock:
            self._pages.pop(page_id, None)
            self._dirty.discard(page_id)
            self._base.free(page_id)

    def get_metadata(self) -> bytes:
        return self._base.get_metadata()

    def set_metadata(self, blob: bytes) -> None:
        self._base.set_metadata(blob)

    @property
    def page_count(self) -> int:
        return self._base.page_count

    def sync(self) -> None:
        with self._lock:
            self.flush()
            self._base.sync()

    def close(self) -> None:
        with self._lock:
            self.flush()
            self._base.close()
            self._pages.clear()  # closed reads must reach the base and raise

    # -- cache mechanics -------------------------------------------------

    def flush(self) -> None:
        """Write every dirty page back to the base pager (keeps them cached)."""
        with self._lock:
            for pid in sorted(self._dirty):
                self._base.write(pid, self._pages[pid])
                self.stats.writebacks += 1
            self._dirty.clear()

    def _install(self, page_id: int, data: bytes, dirty: bool) -> None:
        self._pages[page_id] = data
        self._pages.move_to_end(page_id)
        if dirty:
            self._dirty.add(page_id)
        while len(self._pages) > self._capacity:
            victim, vdata = self._pages.popitem(last=False)
            self.stats.evictions += 1
            if victim in self._dirty:
                self._base.write(victim, vdata)
                self._dirty.discard(victim)
                self.stats.writebacks += 1

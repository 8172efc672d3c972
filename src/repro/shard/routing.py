"""Document routing: the stable hash and the id map.

**Routing rule.**  Global document ids are assigned by a monotonic
counter (``next_doc_id`` in the manifest) and never reused; the shard of
a document is a *stable* hash of its global id — ``crc32`` of the 8-byte
little-endian id, modulo the shard count — so the placement of every
document is a pure function of ``(doc_id, nshards)``.  No per-document
routing state is ever persisted.

**The id map is derivable.**  Adds flow through the router in global-id
order and removals tombstone (both the per-shard docstores and the
source stores preserve positional ids), so the *local* id of global id
``g`` inside its shard is simply the rank of ``g`` among all global ids
that hash to that shard.  :class:`ShardMap` recomputes the full
bidirectional map from nothing but ``(nshards, next_doc_id)`` — one
linear pass at open time — and both the embedded
:class:`~repro.shard.router.ShardRouter` and the process-backed
:class:`~repro.shard.executor.ShardedExecutor` share it.

**Crash recovery.**  The manifest is written *after* the shard stores
commit, so a crash can leave it behind reality (never ahead).  ``recover``
advances ``next_doc_id`` while some shard's docstore holds more slots
than the map accounts for; any other disagreement is a layout drift the
map refuses to paper over.
"""

from __future__ import annotations

from binascii import crc32
from bisect import bisect_left
from typing import Callable, Optional, Sequence

# the manifest and the shard directories belong to the DBDIR layout;
# shard_dir stays importable from here, where scripts look for it
from repro.dbdir import shard_dir
from repro.errors import IndexStateError

__all__ = ["ShardMap", "shard_dir", "shard_of"]

HashFn = Callable[[int], int]


def shard_of(doc_id: int, nshards: int, hash_fn: Optional[HashFn] = None) -> int:
    """The shard holding ``doc_id`` — stable across processes and runs.

    ``hash()`` is salted per process and useless here; crc32 over the
    8-byte little-endian id gives the same answer everywhere.  Tests pass
    a custom ``hash_fn`` to force skew (e.g. every document on shard 0).
    """
    if nshards < 1:
        raise IndexStateError(f"nshards must be >= 1, got {nshards}")
    h = hash_fn(doc_id) if hash_fn is not None else crc32(doc_id.to_bytes(8, "little"))
    return h % nshards


class ShardMap:
    """Bidirectional global↔local document-id map for one shard layout.

    Built by replaying the routing rule over ``range(next_doc_id)``;
    holds, per shard, the ascending list of global ids routed there (the
    list index *is* the local id).  The inverse is the routing rule plus
    a bisect into that list, so no per-id map is kept.  Removals never
    touch the map — tombstones keep local ids positional.
    """

    def __init__(
        self,
        nshards: int,
        next_doc_id: int = 0,
        *,
        hash_fn: Optional[HashFn] = None,
    ) -> None:
        if nshards < 1:
            raise IndexStateError(f"nshards must be >= 1, got {nshards}")
        self.nshards = nshards
        self.next_doc_id = 0
        self.hash_fn = hash_fn
        self._locals: list[list[int]] = [[] for _ in range(nshards)]
        for _ in range(next_doc_id):
            self.append_next()

    def append_next(self) -> tuple[int, int, int]:
        """Assign the next global id; returns ``(global, shard, local)``."""
        g = self.next_doc_id
        s = shard_of(g, self.nshards, self.hash_fn)
        local = len(self._locals[s])
        self._locals[s].append(g)
        self.next_doc_id = g + 1
        return g, s, local

    def route(self, doc_id: int) -> tuple[int, int]:
        """``(shard, local_id)`` of a global id ever assigned."""
        if 0 <= doc_id < self.next_doc_id:
            s = shard_of(doc_id, self.nshards, self.hash_fn)
            locals_ = self._locals[s]
            local = bisect_left(locals_, doc_id)
            if local < len(locals_) and locals_[local] == doc_id:
                return s, local
        raise IndexStateError(
            f"doc id {doc_id} was never assigned "
            f"(next_doc_id is {self.next_doc_id})"
        )

    def global_of(self, shard: int, local_id: int) -> int:
        """The global id sitting at ``local_id`` inside ``shard``."""
        try:
            return self._locals[shard][local_id]
        except IndexError:
            raise IndexStateError(
                f"shard {shard} has no local id {local_id} "
                f"({len(self._locals[shard])} routed)"
            ) from None

    def globals_of(self, shard: int) -> Sequence[int]:
        return self._locals[shard]

    def shard_counts(self) -> list[int]:
        """Documents ever routed to each shard (tombstones included)."""
        return [len(locals_) for locals_ in self._locals]

    def recover(self, shard_id_bounds: Sequence[int]) -> int:
        """Reconcile with the shards' actual docstore ``id_bound`` values.

        A crash between a shard-store add and the manifest write leaves
        ``next_doc_id`` stale; replaying the routing rule forward absorbs
        exactly those documents.  Returns how many ids were recovered.
        Any state the replay cannot explain — a shard holding *fewer*
        slots than the map routed to it, or extra slots the forward
        replay never reaches — raises :class:`IndexStateError` instead of
        guessing.
        """
        if len(shard_id_bounds) != self.nshards:
            raise IndexStateError(
                f"manifest says {self.nshards} shard(s) but "
                f"{len(shard_id_bounds)} were found on disk"
            )
        for s, bound in enumerate(shard_id_bounds):
            if len(self._locals[s]) > bound:
                raise IndexStateError(
                    f"shard {s} holds {bound} document slot(s) but the "
                    f"manifest routed {len(self._locals[s])} there — the "
                    "shard files and the manifest have diverged"
                )
        if self.nshards == 1:
            # one shard (a flat DBDIR is one): every global id is its own
            # local id, so there is no hash to replay
            ids = range(self.next_doc_id, shard_id_bounds[0])
            self._locals[0].extend(ids)
            self.next_doc_id = shard_id_bounds[0]
            return len(ids)
        recovered = 0
        while any(
            len(self._locals[s]) < bound
            for s, bound in enumerate(shard_id_bounds)
        ):
            s = shard_of(self.next_doc_id, self.nshards, self.hash_fn)
            if len(self._locals[s]) >= shard_id_bounds[s]:
                lagging = [
                    k
                    for k, bound in enumerate(shard_id_bounds)
                    if len(self._locals[k]) < bound
                ]
                raise IndexStateError(
                    f"cannot recover shard layout: next doc id "
                    f"{self.next_doc_id} routes to shard {s} (already full) "
                    f"while shard(s) {lagging} hold unexplained documents"
                )
            self.append_next()
            recovered += 1
        return recovered

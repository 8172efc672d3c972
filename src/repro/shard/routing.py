"""Document routing: global id ``g`` lives on shard ``g mod N`` at local id ``g div N``.

**Routing rule.**  Global document ids are assigned by a monotonic
counter (``next_doc_id`` in the manifest) and never reused — the paper's
sequentially assigned DocIds (§3).  Shard ``s`` holds, in ascending
order, exactly the global ids ``s, s + N, s + 2N, ...``, so the shard of
a document is ``g mod N`` and its local id inside that shard is
``g div N``.  Both stores of a shard (docstore and source store) keep
ids positional — removals and burned slots tombstone in place — so the
map from global to local ids is pure arithmetic over ``(nshards,
next_doc_id)``: no per-document state is kept in memory or persisted.
A flat DBDIR is ``N = 1``, where every local id is its global id.

**Crash recovery.**  The manifest is written *after* the shard stores
commit, so a crash can leave it behind reality, never ahead: a shard
holding fewer slots than the manifest routed to it is a truncated shard
whose global ids would be reused, and :meth:`ShardMap.recover` refuses
it.  Beyond that floor the stores win: ``next_doc_id`` becomes one past
the highest global id any shard holds.  A crash between two shards'
commits of one chunk leaves the shard that did not commit short of its
share; the router pads it with burned slots (``DocStore.burn``) before
the next chunk lands on it, which keeps every later local id at
``g div N``.
"""

from __future__ import annotations

from typing import Optional, Sequence

# the manifest and the shard directories belong to the DBDIR layout;
# shard_dir stays importable from here, where scripts look for it
from repro.dbdir import shard_dir
from repro.errors import IndexStateError

__all__ = ["ShardMap", "shard_dir"]


class ShardMap:
    """Global↔local document-id arithmetic for ``nshards`` shards.

    Its only state is ``(nshards, next_doc_id)``: building one, routing
    an id and mapping a local id back all cost O(1) whatever the number
    of documents.  Removals never touch the map — tombstones keep local
    ids positional.
    """

    __slots__ = ("nshards", "next_doc_id")

    def __init__(self, nshards: int, next_doc_id: int = 0) -> None:
        if nshards < 1:
            raise IndexStateError(f"nshards must be >= 1, got {nshards}")
        self.nshards = nshards
        self.next_doc_id = next_doc_id

    def route(self, doc_id: int) -> tuple[int, int]:
        """``(shard, local_id)`` of a global id ever assigned."""
        if 0 <= doc_id < self.next_doc_id:
            local, shard = divmod(doc_id, self.nshards)
            return shard, local
        raise IndexStateError(
            f"doc id {doc_id} was never assigned "
            f"(next_doc_id is {self.next_doc_id})"
        )

    def global_of(self, shard: int, local_id: int) -> int:
        """The global id sitting at ``local_id`` inside ``shard``.

        Not bounded by ``next_doc_id``: a shard may hold documents past a
        manifest that lags it, and their global ids are known all the same.
        """
        if not 0 <= shard < self.nshards or local_id < 0:
            raise IndexStateError(
                f"no local id {local_id} on shard {shard} of {self.nshards}"
            )
        return local_id * self.nshards + shard

    def globals_of(self, shard: int) -> Sequence[int]:
        """Every global id routed to ``shard``, ascending (index = local id)."""
        return range(shard, self.next_doc_id, self.nshards)

    def shard_counts(self, upto: Optional[int] = None) -> list[int]:
        """Global ids below ``upto`` (default ``next_doc_id``) routed to
        each shard, tombstones included."""
        upto = self.next_doc_id if upto is None else upto
        return [len(range(s, upto, self.nshards)) for s in range(self.nshards)]

    def recover(self, shard_id_bounds: Sequence[int]) -> int:
        """Reconcile with the shards' docstore ``id_bound`` values.

        Refuses a shard holding fewer slots than the map routed to it:
        the manifest is written after the commits it describes, so that
        shard lost committed documents and their global ids would be
        handed out again.  Otherwise ``next_doc_id`` advances to one past
        the highest global id any shard holds.  Returns how many ids that
        recovered.
        """
        if len(shard_id_bounds) != self.nshards:
            raise IndexStateError(
                f"manifest says {self.nshards} shard(s) but "
                f"{len(shard_id_bounds)} were found on disk"
            )
        for s, (bound, routed) in enumerate(zip(shard_id_bounds, self.shard_counts())):
            if bound < routed:
                raise IndexStateError(
                    f"shard {s} holds {bound} document slot(s) but the "
                    f"manifest routed {routed} there — the shard files and "
                    "the manifest have diverged"
                )
        held = max(
            (self.global_of(s, bound - 1) + 1
             for s, bound in enumerate(shard_id_bounds) if bound),
            default=0,
        )
        recovered = max(0, held - self.next_doc_id)
        self.next_doc_id += recovered
        return recovered

"""ShardRouter: the in-process handle on a DBDIR, flat or sharded.

:func:`repro.dbdir.open_db` returns one of these for either layout of
:mod:`repro.dbdir`.  A sharded DBDIR is a manifest plus one complete
index directory per shard; a flat DBDIR is a router over one index — its
one shard is the directory itself, every local id is its global id, and
no manifest is written.  Each shard opens through
:func:`repro.dbdir.open_index`: its own pager, WAL, docstore and source
store.

The router owns add/remove routing (global id ``g`` → shard ``g mod N``,
local id ``g div N``, see :mod:`repro.shard.routing`) — the one write
path of a DBDIR —
answers queries by a *sequential* scatter over the open shards (the
process-parallel, read-only path is
:class:`~repro.shard.executor.ShardedExecutor`), and implements
``repro reshard``: rebuilding a sharded directory under a new shard
count while preserving every global id and every answer.  ``reshard`` is
also the upgrade of a version-1 DBDIR, whose documents were placed by
crc32 of their id; every other open refuses one.
"""

from __future__ import annotations

import os
import shutil
from binascii import crc32
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.dbdir import (
    MANIFEST_FILE,
    close_index,
    is_flat,
    is_sharded,
    load_manifest,
    open_index,
    read_manifest,
    refuse_schema_order,
    shard_dir,
    write_manifest,
)
from repro.doc.model import XmlDocument, XmlNode
from repro.errors import IndexStateError
from repro.obs.metrics import MetricsRegistry
from repro.shard.routing import ShardMap

__all__ = ["ShardRouter", "reshard_db"]


class ShardRouter:
    """Open (or create) a DBDIR in-process, in either layout.

    An existing DBDIR keeps its layout.  On a sharded one ``nshards``
    must match the manifest (or be ``None``); on a flat one it must be
    ``None``: a flat DBDIR is not sharded in place.  A new DBDIR is
    sharded ``nshards`` ways when it is given and flat when it is not.
    ``wal`` is accepted and ignored, as in :func:`repro.dbdir.open_index`:
    every shard opens through the journaled pager.
    """

    def __init__(
        self,
        dbdir,
        nshards: Optional[int] = None,
        *,
        wal: bool = False,
    ) -> None:
        self.dbdir = Path(dbdir)
        refuse_schema_order(self.dbdir)
        sharded = is_sharded(self.dbdir)
        next_doc_id = 0
        #: the next_doc_id shards.json holds (None: there is none yet)
        self._manifest_next: Optional[int] = None
        if sharded:
            manifest = read_manifest(self.dbdir)
            if nshards is not None and nshards != manifest["nshards"]:
                raise IndexStateError(
                    f"{self.dbdir} is sharded {manifest['nshards']} ways; "
                    f"got nshards={nshards} (use `repro reshard` to change)"
                )
            nshards = manifest["nshards"]
            next_doc_id = self._manifest_next = manifest["next_doc_id"]
        elif nshards is not None and is_flat(self.dbdir):
            raise IndexStateError(
                f"{self.dbdir} is a flat DBDIR (one index, no {MANIFEST_FILE}); "
                f"got nshards={nshards}: a flat DBDIR is not sharded in place"
            )
        self.flat = nshards is None
        self.nshards = 1 if self.flat else nshards
        self.map = ShardMap(self.nshards, next_doc_id)
        self.shards = [open_index(path) for path in self.shard_dirs()]
        try:
            # a crash may have left the manifest behind the shard stores:
            # ids continue one past the highest global id any shard holds
            self.map.recover([shard.docstore.id_bound for shard in self.shards])
            # and a crash between two shards' commits of one chunk left a
            # shard short of its share: its missing slots are burned and
            # committed before a manifest routing them is written
            for s in {g % self.nshards for g in self._pad(self.map.next_doc_id)}:
                self.shards[s].flush()
        except BaseException:
            for shard in self.shards:
                close_index(shard)
            raise
        self._closed = False
        self._write_manifest()
        if self.flat:
            # one index: its own registry, so `stats --json` keeps its shape
            self.metrics = self.shards[0].metrics
            return
        # per-shard registries aggregated under shard.K.* dotted names
        self.metrics = MetricsRegistry()
        for k, shard in enumerate(self.shards):
            self.metrics.register(f"shard.{k}", shard.metrics)
        self.metrics.register("routing", self._routing_report)

    # -- routing ---------------------------------------------------------

    def _routing_report(self) -> dict:
        return {
            "nshards": self.nshards,
            "next_doc_id": self.map.next_doc_id,
            "routed": self.map.shard_counts(),
            "live": [len(shard.docstore) for shard in self.shards],
        }

    def _write_manifest(self) -> None:
        """Persist the map once the shard stores behind it are committed,
        so the manifest never runs ahead of them (a lagging one is what
        :meth:`ShardMap.recover` catches up); a current one is left alone."""
        if not self.flat and self._manifest_next != self.map.next_doc_id:
            write_manifest(self.dbdir, self.nshards, self.map.next_doc_id)
            self._manifest_next = self.map.next_doc_id

    def shard_dirs(self) -> list[Path]:
        """The directory of each shard: the DBDIR itself when it is flat."""
        if self.flat:
            return [self.dbdir]
        return [shard_dir(self.dbdir, k) for k in range(self.nshards)]

    # -- ingestion -------------------------------------------------------

    def add(self, document: Union[XmlDocument, XmlNode]) -> int:
        """Route one document to its shard; returns its *global* id.
        A chunk of one, with no commit."""
        self._ensure_open()
        return self._add_chunk([document], "none")[0]

    def add_all(self, documents: Iterable[Union[XmlDocument, XmlNode]]) -> list[int]:
        return self.add_batch(documents, durability="none")

    def add_batch(
        self,
        documents: Iterable[Union[XmlDocument, XmlNode]],
        *,
        batch_size: int = 1000,
        durability: str = "batch",
    ) -> list[int]:
        """Bulk-route documents: one shard-level batch per chunk and shard.

        Each chunk of ``batch_size`` documents takes the next global ids,
        is grouped by shard (``g mod N``), and each group is handed to its
        shard's :meth:`~repro.index.base.XmlIndexBase.add_batch` as one
        batch.  The map advances and the manifest is rewritten only once
        the whole chunk landed.  A process crash between two shards'
        commits leaves the later shard short of its share; the next open
        continues ids past the highest one held and pads the short shard
        with burned slots before any chunk lands on it.

        If a chunk dies *between shards* in this process, every shard is
        padded the same way up to the end of the chunk, and the map
        advanced over it.  The raised error names the burned ids; the
        documents they stood for must be re-submitted (under fresh ids).
        A chunk that fails before any shard landed a document consumes no
        id: its error propagates unchanged.
        """
        from itertools import islice

        self._ensure_open()
        if durability not in ("batch", "none"):
            raise IndexStateError(
                f"unknown durability mode {durability!r} (use 'batch' or 'none')"
            )
        if batch_size < 1:
            raise IndexStateError(f"batch_size must be >= 1, got {batch_size}")
        doc_ids: list[int] = []
        it = iter(documents)
        while True:
            chunk = list(islice(it, batch_size))
            if not chunk:
                return doc_ids
            doc_ids.extend(self._add_chunk(chunk, durability))

    def _add_chunk(self, chunk: list, durability: str) -> list[int]:
        base = self.map.next_doc_id
        end = base + len(chunk)
        groups: dict[int, tuple[int, list]] = {}  # shard -> (first local, docs)
        for g, doc in zip(range(base, end), chunk):
            local, s = divmod(g, self.nshards)
            groups.setdefault(s, (local, []))[1].append(doc)
        pre_bound = {s: self.shards[s].docstore.id_bound for s in groups}
        try:
            for s, (start, docs) in groups.items():  # insertion order = global order
                locals_ = self.shards[s].add_batch(
                    docs, batch_size=len(docs), durability=durability
                )
                if locals_ != list(range(start, start + len(docs))):
                    raise IndexStateError(
                        f"shard {s} assigned local ids starting at "
                        f"{locals_[0] if locals_ else '?'} (expected {start}); "
                        "the shard was mutated outside the router"
                    )
        except BaseException as exc:
            if all(self.shards[s].docstore.id_bound == pre_bound[s] for s in groups):
                raise  # nothing landed: the map and the stores still agree
            burned = self._pad(end)
            self.map.next_doc_id = end
            if durability == "batch":
                try:
                    for s in groups:
                        self.shards[s].flush()
                except Exception:
                    pass  # the original failure is the one to surface
                else:  # the manifest waits for the burns it routes
                    self._write_manifest()
            raise IndexStateError(
                f"bulk chunk failed after partially landing; {len(burned)} "
                f"planned global id(s) tombstoned to keep the layout "
                f"recoverable: {burned[:10]}{'...' if len(burned) > 10 else ''}"
            ) from exc
        self.map.next_doc_id = end
        if durability == "batch":  # else the flush that commits it writes it
            self._write_manifest()
        return list(range(base, end))

    def _pad(self, upto: int) -> list[int]:
        """Burn a slot, in the docstore and the source store, for every
        global id below ``upto`` that its shard does not hold, so the next
        document each shard takes lands at local id ``g div N``.  Returns
        the burned global ids, ascending.  No index ever held them, so
        the burns commit with the shard's next flush, which must precede
        the manifest that routes them."""
        burned: list[int] = []
        for s, share in enumerate(self.map.shard_counts(upto)):
            shard = self.shards[s]
            held = shard.docstore.id_bound
            for store in (shard.docstore, shard.source_store):
                while store is not None and store.id_bound < share:
                    store.burn()
            burned.extend(self.map.global_of(s, local) for local in range(held, share))
        return sorted(burned)

    def remove(self, doc_id: int) -> None:
        """Tombstone a document in its shard; global ids are never reused."""
        self._ensure_open()
        s, local = self.map.route(doc_id)
        self.shards[s].remove(local)

    # -- querying --------------------------------------------------------

    def query(self, query, *, verify: bool = False, guard_factory=None) -> list[int]:
        """Sequential scatter-gather: the union of per-shard answers.

        Each shard evaluates independently (its own guard when
        ``guard_factory`` is given) and local ids are mapped back to
        global ids; the union is exact because membership is a
        per-document decision.  Errors propagate — the fault-isolating
        path is the process-backed executor.
        """
        self._ensure_open()
        out: list[int] = []
        for s, shard in enumerate(self.shards):
            guard = guard_factory() if guard_factory is not None else None
            locals_ = shard.query(query, verify=verify, guard=guard)
            out.extend(self.map.global_of(s, local) for local in locals_)
        return sorted(out)

    def query_nodes(self, query) -> dict[int, list[int]]:
        """Node-granularity scatter: global doc id → matched positions."""
        self._ensure_open()
        out: dict[int, list[int]] = {}
        for s, shard in enumerate(self.shards):
            for local, positions in shard.query_nodes(query).items():
                out[self.map.global_of(s, local)] = positions
        return out

    # -- document access -------------------------------------------------

    def doc_ids(self) -> Iterator[int]:
        """Live global ids, ascending."""
        for g in range(self.map.next_doc_id):
            s, local = self.map.route(g)
            if local in self.shards[s].docstore:
                yield g

    def __len__(self) -> int:
        return sum(len(shard.docstore) for shard in self.shards)

    def load_sequence(self, doc_id: int):
        s, local = self.map.route(doc_id)
        return self.shards[s].load_sequence(local)

    def get_document(self, doc_id: int):
        s, local = self.map.route(doc_id)
        return self.shards[s].get_document(local)

    # -- lifecycle -------------------------------------------------------

    def flush(self) -> None:
        self._ensure_open()
        for shard in self.shards:
            shard.flush()
        self._write_manifest()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        errors = []
        for shard in self.shards:
            try:
                close_index(shard)
            except Exception as exc:  # close every shard before raising
                errors.append(exc)
        if errors:
            raise errors[0]  # a shard's commit failed: keep the manifest
        self._write_manifest()

    def _ensure_open(self) -> None:
        if self._closed:
            raise IndexStateError("router is closed")

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def reshard_db(dbdir, new_nshards: int) -> dict:
    """Rebalance ``dbdir`` to ``new_nshards`` shards, preserving global ids.

    Every global id ever assigned is replayed into a fresh layout built
    under ``DBDIR/reshard.tmp`` — live documents re-inserted (sequence
    and stored source), removed ids tombstoned positionally — so global
    id ``g`` lands on shard ``g mod new_nshards`` at local id ``g div
    new_nshards``.  The fresh shards must pass every structural invariant
    before they atomically replace the old directories.  A version-1
    DBDIR (documents placed by crc32 of their id) is read here and only
    here, which makes ``repro reshard DBDIR N`` its upgrade.  Returns a
    small report dict.
    """
    from repro.testing.invariants import assert_invariants

    if new_nshards < 1:
        raise IndexStateError(f"new_nshards must be >= 1, got {new_nshards}")
    dbdir = Path(dbdir)
    if not is_sharded(dbdir):
        raise IndexStateError(
            f"{dbdir} is not sharded; build one with `repro index --shards N` first"
        )
    refuse_schema_order(dbdir)
    manifest = load_manifest(dbdir)
    old_nshards = manifest["nshards"]
    old_shards = [open_index(shard_dir(dbdir, k)) for k in range(old_nshards)]
    new_shards: list = []
    report = {"old_nshards": old_nshards, "new_nshards": new_nshards,
              "documents": 0, "tombstones": 0}
    tmp_root = dbdir / "reshard.tmp"
    try:
        bounds = [shard.docstore.id_bound for shard in old_shards]
        if manifest["version"] == 1:
            routes = _crc32_routes(manifest["next_doc_id"], bounds)
        else:
            old_map = ShardMap(old_nshards, manifest["next_doc_id"])
            old_map.recover(bounds)
            routes = [old_map.route(g) for g in range(old_map.next_doc_id)]
        if tmp_root.exists():
            shutil.rmtree(tmp_root)  # leftovers of an interrupted reshard
        tmp_root.mkdir()
        new_shards = [open_index(shard_dir(tmp_root, k)) for k in range(new_nshards)]
        for g, (old_s, old_local) in enumerate(routes):
            expect_local, s = divmod(g, new_nshards)
            target = new_shards[s]
            old_shard = old_shards[old_s]
            if old_local in old_shard.docstore:
                local = target.add_sequence(old_shard.load_sequence(old_local))
                source = None
                if (
                    old_shard.source_store is not None
                    and old_local in old_shard.source_store
                ):
                    source = old_shard.source_store.get(old_local)
                if target.source_store is not None:
                    if source is None:
                        sid = target.source_store.burn()
                    else:
                        sid = target.source_store.add(source)
                    if sid != expect_local:
                        raise IndexStateError(
                            f"reshard source-id drift: global {g} landed at "
                            f"source slot {sid}, expected {expect_local}"
                        )
                report["documents"] += 1
            else:
                # burn the id positionally in both stores
                local = target.docstore.burn()
                if target.source_store is not None:
                    target.source_store.burn()
                report["tombstones"] += 1
            if local != expect_local:
                raise IndexStateError(
                    f"reshard id drift: global {g} landed at local {local}, "
                    f"expected {expect_local}; aborting before replacing anything"
                )
        for shard in new_shards:
            assert_invariants(shard)
            shard.flush()
    finally:
        for shard in new_shards + old_shards:
            try:
                close_index(shard)
            except Exception:
                pass
    # promote: move the old shard dirs aside, the new ones in, then drop
    # the old.  The manifest is rewritten only after the swap succeeds.
    old_root = dbdir / "reshard.old"
    if old_root.exists():
        shutil.rmtree(old_root)
    old_root.mkdir()
    for k in range(old_nshards):
        os.replace(shard_dir(dbdir, k), shard_dir(old_root, k))
    for k in range(new_nshards):
        os.replace(shard_dir(tmp_root, k), shard_dir(dbdir, k))
    write_manifest(dbdir, new_nshards, len(routes))
    shutil.rmtree(old_root)
    tmp_root.rmdir()
    return report


def _crc32_routes(next_doc_id: int, bounds: list[int]) -> list[tuple[int, int]]:
    """``(shard, local id)`` of every global id of a version-1 DBDIR: shard
    ``crc32(g as 8 little-endian bytes) mod N``, at the rank of ``g``
    among the ids placed there.  Replayed past ``next_doc_id`` while a
    shard holds documents a crash kept the manifest from counting."""
    routes: list[tuple[int, int]] = []
    held = [0] * len(bounds)
    while len(routes) < next_doc_id or held != bounds:
        g = len(routes)
        s = crc32(g.to_bytes(8, "little")) % len(bounds)
        if g >= next_doc_id and held[s] >= bounds[s]:
            raise IndexStateError(
                f"the shards hold {bounds} slot(s), which no run of the "
                "version-1 crc32 placement explains"
            )
        routes.append((s, held[s]))
        held[s] += 1
    return routes

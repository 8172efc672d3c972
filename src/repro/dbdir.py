"""The database directory (DBDIR): its file names, its two layouts, one handle.

A DBDIR is laid out one of two ways::

    DBDIR/                         # flat: one index at the top
      vist.db  vist.db.wal  docs.dat  sources.dat  health.json

    DBDIR/                         # sharded: a manifest plus one flat
      shards.json                  #   index directory per shard
      shard-0/  vist.db  vist.db.wal  docs.dat  sources.dat
      shard-1/  ...

Siblings are always sorted by label.  A directory that still holds a
``schema.dtd`` — written when a DTD could fix the sibling order — has its
sequences in an order this build never produces; it is refused on open,
and ``repro salvage`` re-encodes it from ``sources.dat``.

This module is the one place that spells those names.  :func:`open_index`
opens one flat index directory (a shard is one); :func:`open_db` opens
either layout as the same :class:`~repro.shard.router.ShardRouter` — a
flat DBDIR is a router over one index whose local ids are its global
ids — so every command is written once, against that handle.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from repro.errors import IndexFormatError, IndexStateError
from repro.index.vist import VistIndex
from repro.sequence.transform import SequenceEncoder
from repro.storage.docstore import FileDocStore
from repro.storage.wal import JOURNAL_SUFFIX, WalPager

__all__ = [
    "DOC_FILE",
    "HEALTH_FILE",
    "MANIFEST_FILE",
    "SCHEMA_FILE",
    "SHARD_DIR_FMT",
    "SOURCE_FILE",
    "TREE_FILE",
    "TREE_JOURNAL",
    "close_index",
    "is_flat",
    "is_sharded",
    "refuse_schema_order",
    "open_db",
    "open_index",
    "read_manifest",
    "shard_dir",
    "shard_dirs",
    "write_manifest",
]

# one index directory (flat DBDIR or shard)
TREE_FILE = "vist.db"
TREE_JOURNAL = TREE_FILE + JOURNAL_SUFFIX
DOC_FILE = "docs.dat"
SOURCE_FILE = "sources.dat"
#: the DTD a directory of the old schema sibling order holds
SCHEMA_FILE = "schema.dtd"
#: what a degraded query observed, kept for ``repro stats``
HEALTH_FILE = "health.json"
# a sharded DBDIR
MANIFEST_FILE = "shards.json"
SHARD_DIR_FMT = "shard-{}"
_MANIFEST_VERSION = 1


def refuse_schema_order(dbdir) -> None:
    """Raise :class:`~repro.errors.IndexFormatError` when ``dbdir`` holds
    ``schema.dtd``: its stored sequences are in the schema's sibling order,
    which this build's queries never match."""
    if (Path(dbdir) / SCHEMA_FILE).exists():
        raise IndexFormatError(
            f"{dbdir} holds {SCHEMA_FILE}: its sequences are in a schema's "
            "sibling order, this build sorts siblings by label; run `repro "
            "salvage DBDIR` to re-encode every document from its source"
        )


def open_index(dbdir: Path, *, wal: bool = False) -> VistIndex:
    """Open (or create) the one index in ``dbdir`` through the journaled pager.

    Every index directory opens the same way, so every writer commits
    through the redo journal and a leftover journal is replayed or
    discarded on open.  ``wal`` is accepted and ignored: it chose a pager
    when there were two, and the benchmark harness still passes it."""
    dbdir = Path(dbdir)
    refuse_schema_order(dbdir)
    dbdir.mkdir(parents=True, exist_ok=True)
    return VistIndex(
        SequenceEncoder(),
        docstore=FileDocStore(dbdir / DOC_FILE),
        pager=WalPager(dbdir / TREE_FILE),
        source_store=FileDocStore(dbdir / SOURCE_FILE),
    )


def close_index(index: VistIndex) -> None:
    """Commit and close an index from :func:`open_index`, stores included."""
    index.flush()
    index.close()
    index.docstore.close()
    if index.source_store is not None:
        index.source_store.close()


def shard_dir(dbdir, shard: int) -> Path:
    return Path(dbdir) / SHARD_DIR_FMT.format(shard)


def is_sharded(dbdir) -> bool:
    """Whether ``dbdir`` is a sharded DBDIR (has a manifest)."""
    return (Path(dbdir) / MANIFEST_FILE).exists()


def is_flat(dbdir) -> bool:
    """Whether ``dbdir`` already holds one index at its top."""
    return any((Path(dbdir) / name).exists() for name in (TREE_FILE, DOC_FILE))


def shard_dirs(dbdir) -> list[Path]:
    """The index directories of ``dbdir``: ``[dbdir]`` for a flat DBDIR,
    ``shard-0 .. shard-(N-1)`` for a sharded one."""
    if not is_sharded(dbdir):
        return [Path(dbdir)]
    return [shard_dir(dbdir, k) for k in range(read_manifest(dbdir)["nshards"])]


def read_manifest(dbdir) -> dict:
    path = Path(dbdir) / MANIFEST_FILE
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexStateError(f"{path}: unreadable shard manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("version") != _MANIFEST_VERSION:
        raise IndexStateError(
            f"{path}: unsupported shard manifest {manifest.get('version')!r}"
        )
    nshards = manifest.get("nshards")
    next_doc_id = manifest.get("next_doc_id")
    if not isinstance(nshards, int) or nshards < 1:
        raise IndexStateError(f"{path}: bad nshards {nshards!r}")
    if not isinstance(next_doc_id, int) or next_doc_id < 0:
        raise IndexStateError(f"{path}: bad next_doc_id {next_doc_id!r}")
    return manifest


def write_manifest(dbdir, nshards: int, next_doc_id: int) -> None:
    """Atomically persist the manifest (side file + ``os.replace``)."""
    path = Path(dbdir) / MANIFEST_FILE
    side = path.with_suffix(".json.tmp")
    side.write_text(
        json.dumps(
            {
                "version": _MANIFEST_VERSION,
                "nshards": nshards,
                "next_doc_id": next_doc_id,
            },
            indent=2,
        )
        + "\n"
    )
    os.replace(side, path)


def open_db(dbdir, nshards: Optional[int] = None):
    """Open (or create) ``dbdir`` in either layout as one
    :class:`~repro.shard.router.ShardRouter`.

    An existing DBDIR keeps its layout: ``nshards`` is refused on a flat
    one and must match the manifest of a sharded one.  A new DBDIR is
    flat unless ``nshards`` is given.
    """
    from repro.shard.router import ShardRouter

    return ShardRouter(dbdir, nshards)

"""Sharded multi-process serving (docs/INTERNALS.md section 12).

ViST's DocId-labeled postings make sharding by document trivially
correct: every query answer is a per-document decision, so the union of
per-shard result sets *is* the exact global answer.  This package
partitions documents across N full index directories
(``DBDIR/shard-K/``) — global id ``g`` on shard ``g mod N`` at local id
``g div N`` — each with its own pager/WAL/docstore, and executes
queries scatter-gather over per-shard worker **processes** — the route
around the GIL wall PR 5 measured (4 threads at 0.99x single-thread
qps).

Layers:

* :mod:`repro.shard.routing` — the global↔local id arithmetic and its
  crash-recovery rule (:class:`ShardMap`); the manifest and every other
  DBDIR file name live in :mod:`repro.dbdir`;
* :mod:`repro.shard.router` — :class:`ShardRouter`, the in-process
  handle on a DBDIR, flat or sharded (:func:`repro.dbdir.open_db`):
  add/remove routing — the one write path — sequential scatter
  queries, and ``reshard`` (also the upgrade of a version-1, crc32-placed
  DBDIR);
* :mod:`repro.shard.protocol` — length-prefixed JSON frames;
* :mod:`repro.shard.worker` — the per-shard worker process
  (``python -m repro.shard.worker``): one open index, one query thread,
  heartbeats inline on the connection thread; it only reads;
* :mod:`repro.shard.executor` — :class:`ShardedExecutor`, the read-only
  scatter-gather client that fans queries out over sockets and merges
  ordered :class:`~repro.shard.executor.QueryOutcome` results;
* :mod:`repro.shard.supervisor` — worker supervision: the
  healthy → restarting → down state machine, the jittered-backoff
  :class:`RestartPolicy`, and the scheduler thread that also drives
  per-RPC retries and deadlines (docs/INTERNALS.md section 13).
"""

from repro.dbdir import MANIFEST_FILE, is_sharded
from repro.shard.routing import ShardMap
from repro.shard.router import ShardRouter, reshard_db

__all__ = [
    "MANIFEST_FILE",
    "RestartPolicy",
    "ShardMap",
    "ShardRouter",
    "ShardedExecutor",
    "is_sharded",
    "reshard_db",
]

_LAZY = {
    # executor pulls in subprocess/socket plumbing; supervisor rides along
    "ShardedExecutor": "repro.shard.executor",
    "RestartPolicy": "repro.shard.supervisor",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

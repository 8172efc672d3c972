"""Per-layer metrics of a traced run.

Three sources, all read from outside the program:

* the **layer budget** — self time of the spans the harness opened in the
  traced round, as a share of that round's wall time (``budget.*_pct``);
* **counts** taken at the same boundaries (``QueryCounts``, ``Meter``
  deltas, the tree shape from the registry snapshot once the round ended);
* **replay probes** — one layer's public functions re-driven on inputs
  captured from the workload's corpus and finished index, so every time
  is measured on every workload, on that workload's own data.
"""

from __future__ import annotations

import json
import shutil
import socket
import statistics
import threading
from itertools import islice
from pathlib import Path

from harness import (
    close_index,
    open_index,
    parse_xpath,
    percentile,
    perf,
    remove_tree,
)
from repro.datasets import dblp
from repro.index import verify_document
from repro.index.store import decode_node_key, node_key
from repro.shard.protocol import recv_frame, send_frame
from repro.storage import BPlusTree, FileDocStore, MemoryPager

BUDGET_LAYERS = [
    "storage.open", "doc.stream", "sequence.encode", "index.insert", "storage.commit",
    "query.parse", "query.translate", "index.match", "storage.docstore", "index.verify",
    "index.add", "index.remove", "shard.wire.send", "shard.wire.wait", "harness",
]
PROBE_DOCS = 400
PROBE_KEYS = 4000
PROBE_UPDATES = 60
PROBE_CANDIDATES = 200  # per query, so one broad query cannot eat the probe
PROBE_ROUNDTRIPS = 300


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def budget(self_s: dict, wall_s: float, lanes: int) -> dict:
    """Self seconds per layer as percent of the traced round.

    The encode replay of the ingest path is work the untraced round does
    once, inside ``add_batch``: it is taken out of ``index.insert`` (and
    out of the total) so the shares describe the untraced round.
    """
    self_s = dict(self_s)
    replay = self_s.get("sequence.encode", 0.0)
    self_s["index.insert"] = self_s.get("index.insert", 0.0) - replay
    total = wall_s * lanes - replay
    spanned = sum(self_s.values())
    self_s["harness"] = self_s.get("harness", 0.0) + (total - spanned)
    return {f"budget.{name}_pct": 100.0 * self_s.get(name, 0.0) / total for name in BUDGET_LAYERS}


def counted(workload, snapshot: dict, dbdir: Path) -> dict:
    """Count metrics of the traced round (they repeat exactly per seed)."""
    c, d = workload.counts, workload.delta
    tree = snapshot["tree"]["combined"]
    documents = max(1, snapshot["tree"]["docid"]["entries"])
    sizes = {name: (dbdir / name).stat().st_size for name in ("vist.db", "docs.dat", "sources.dat")}
    return {
        "query.alternatives_per_query": ratio(c.alternatives, c.queries),
        "index.match.range_queries_per_query": ratio(c.range_queries, c.queries),
        "index.match.states_per_query": ratio(c.states, c.queries),
        "index.match.candidates_per_result": ratio(c.match_candidates, c.raw_results),
        "index.verify.candidates_per_result": ratio(c.verify_candidates, c.verified),
        "index.postings.hit_rate": ratio(
            d.get("postings.hits", 0), d.get("postings.hits", 0) + d.get("postings.misses", 0)
        ),
        "index.postings.evictions": d.get("postings.evictions", 0),
        "index.postings.invalidations_per_update": ratio(
            d.get("postings.invalidations", 0), workload.updates
        ),
        "storage.bptree.descent_hit_rate": ratio(
            d.get("descent.hits", 0), d.get("descent.hits", 0) + d.get("descent.misses", 0)
        ),
        "storage.pager.reads_per_query": ratio(d.get("pool.misses", 0), c.queries),
        "storage.pager.reads_first_query": workload.first_reads,
        "storage.pool.hit_rate": ratio(
            d.get("pool.hits", 0), d.get("pool.hits", 0) + d.get("pool.misses", 0)
        ),
        "storage.pool.evictions": d.get("pool.evictions", 0),
        "storage.pool.writebacks": d.get("pool.writebacks", 0),
        "storage.commit_count": workload.commits,
        "labeling.underflows": (
            snapshot.get("underflows", 0) if workload.underflows is None else workload.underflows
        ),
        "index.nodes_per_doc": tree["entries"] / documents,
        "storage.tree.combined.fill": ratio(tree["used_bytes"], tree["total_bytes"]),
        "storage.tree.combined.height": tree["height"],
        "storage.bytes.vist_db": sizes["vist.db"],
        "storage.bytes.docs_dat": sizes["docs.dat"],
        "storage.bytes.sources_dat": sizes["sources.dat"],
    }


# -- replay probes ---------------------------------------------------------------------


def _per(seconds: float, n: int, scale: float) -> float:
    return seconds * scale / max(1, n)


def probe_ingest_path(index, corpus, env) -> dict:
    """parse -> encode -> insert -> commit on the first records of the corpus."""
    t0 = perf()
    records = list(corpus.stream())
    parse_s = perf() - t0
    sample = records[:PROBE_DOCS]
    t0 = perf()
    items = sum(len(index.encoder.encode_node(record)) for record in sample)
    encode_s = perf() - t0
    scratch = env.fresh_dir("probe-ingest")
    fresh = open_index(scratch, wal=True)
    try:
        t0 = perf()
        fresh.add_batch(sample, batch_size=len(sample), durability="none")
        insert_s = perf() - t0 - encode_s  # add_batch encodes too
        t0 = perf()
        fresh.flush()
        commit_s = perf() - t0
    finally:
        close_index(fresh)
        remove_tree(scratch)
    return {
        "doc.stream.parse_us_per_doc": _per(parse_s, len(records), 1e6),
        "sequence.encode_us_per_doc": _per(encode_s, len(sample), 1e6),
        "sequence.items_per_doc": items / len(sample),
        "index.insert_us_per_doc": _per(insert_s, len(sample), 1e6),
        "storage.commit_ms_per_flush": commit_s * 1e3,
    }


def probe_storage(index, dbdir, env) -> dict:
    """bptree put / bulk_load / key codec on the finished tree's own
    pairs, docstore get / append on its own payloads, ``open_index`` alone."""
    rng = env.rng("probe")
    pairs = list(islice(index.tree.items(), PROBE_KEYS))
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    tree = BPlusTree(MemoryPager())
    t0 = perf()
    for key, value in shuffled:
        tree.insert(key, value)
    put_s = perf() - t0
    tree = BPlusTree(MemoryPager())
    t0 = perf()
    tree.bulk_load(sorted(set(pairs)))
    bulk_s = perf() - t0

    node_keys = []
    for key, _ in pairs:
        try:
            node_keys.append((key, decode_node_key(key)))
        except Exception:
            continue  # bookkeeping entries of the tree are not node keys
    t0 = perf()
    for key, _ in node_keys:
        node_key(*decode_node_key(key))
    codec_s = perf() - t0

    doc_ids = list(index.docstore.ids())
    doc_ids = rng.sample(doc_ids, min(PROBE_DOCS, len(doc_ids)))
    t0 = perf()
    payloads = [index.docstore.get(doc_id) for doc_id in doc_ids]
    get_s = perf() - t0
    scratch = env.fresh_dir("probe-store")
    store = FileDocStore(scratch / "docs.dat")
    try:
        t0 = perf()
        for payload in payloads:
            store.add(payload)
        store.flush()
        append_s = perf() - t0
    finally:
        store.close()
        remove_tree(scratch)

    opens = []
    for _ in range(5):
        t0 = perf()
        handle = open_index(dbdir)
        opens.append(perf() - t0)
        close_index(handle)
    return {
        "storage.bptree.put_us_per_key": _per(put_s, len(shuffled), 1e6),
        "storage.bptree.bulk_load_us_per_key": _per(bulk_s, len(pairs), 1e6),
        "storage.serialization.key_codec_us_per_key": _per(codec_s, len(node_keys), 1e6),
        "storage.docstore.get_us_per_doc": _per(get_s, len(doc_ids), 1e6),
        "storage.docstore.append_us_per_doc": _per(append_s, len(payloads), 1e6),
        "storage.open_ms": statistics.median(opens) * 1e3,
    }


def probe_query_path(index, xpaths: list) -> dict:
    """parse / translate / match / verify on the workload's distinct queries."""
    distinct = list(dict.fromkeys(xpaths))
    t0 = perf()
    roots = [parse_xpath(x) for x in distinct]
    parse_s = perf() - t0
    t0 = perf()
    translated = []
    for root in roots:
        try:
            translated.append(index.translator.translate(root))
        except Exception:
            translated.append([])  # over the alternatives cap: nothing to match raw
    translate_s = perf() - t0
    t0 = perf()
    raw = []
    for alternatives in translated:
        doc_ids: set = set()
        for alternative in alternatives:
            doc_ids |= index.match_sequence(alternative)
        raw.append(doc_ids)
    match_s = perf() - t0
    hasher = index.encoder.hasher
    candidates = 0
    t0 = perf()
    for root, doc_ids in zip(roots, raw):
        for doc_id in sorted(doc_ids)[:PROBE_CANDIDATES]:
            verify_document(index.load_sequence(doc_id), root, hasher)
            candidates += 1
    verify_s = perf() - t0
    return {
        "query.parse_us_per_query": _per(parse_s, len(distinct), 1e6),
        "query.translate_us_per_query": _per(translate_s, len(distinct), 1e6),
        "index.match_ms_per_query": _per(match_s, len(distinct), 1e3),
        "index.verify_ms_per_query": _per(verify_s, len(distinct), 1e3),
        "index.verify.us_per_candidate": _per(verify_s, candidates, 1e6),
    }


def probe_updates(dbdir, env) -> dict:
    """``index.add`` / ``index.remove`` one document at a time, on a copy."""
    scratch = env.fresh_dir("probe-update")
    shutil.copytree(dbdir, scratch, dirs_exist_ok=True)
    index = open_index(scratch, wal=True)
    try:
        base = len(index)
        generator = dblp.DblpGenerator(
            dblp.DblpConfig(seed=env.seed * 1000 + 2, plant_targets=False)
        )
        adds, removes, added = [], [], []
        for i in range(PROBE_UPDATES):
            record = generator.record(base + i)
            t0 = perf()
            added.append(index.add(record))
            adds.append(perf() - t0)
        for doc_id in added:
            t0 = perf()
            index.remove(doc_id)
            removes.append(perf() - t0)
    finally:
        close_index(index)
        remove_tree(scratch)
    return {
        "index.add_ms_p50": statistics.median(adds) * 1e3,
        "index.remove_ms_p50": statistics.median(removes) * 1e3,
    }


def probe_wire(reply_sizes: list) -> dict:
    """``send_frame``/``recv_frame`` of a median-sized reply, echoed over a
    socketpair by a peer thread."""
    size = sorted(reply_sizes)[len(reply_sizes) // 2]
    reply = {"position": 0, "xpath": "/a", "ok": True, "result": list(range(size))}
    reply_bytes = len(json.dumps(reply).encode())
    near, far = socket.socketpair()

    def echo() -> None:
        while True:
            frame = recv_frame(far)
            if frame is None:
                return
            send_frame(far, frame)

    peer = threading.Thread(target=echo)
    peer.start()
    try:
        t0 = perf()
        for _ in range(PROBE_ROUNDTRIPS):
            send_frame(near, reply)
            recv_frame(near)
        roundtrip_s = perf() - t0
    finally:
        near.close()
        peer.join()
        far.close()
    return {
        "shard.protocol.roundtrip_us": _per(roundtrip_s, PROBE_ROUNDTRIPS, 1e6),
        "shard.protocol.reply_bytes_p50": reply_bytes,
    }


def probe_serve(workload) -> dict:
    """Front-end overheads only a running server shows; zero elsewhere."""
    zero = {
        "cli.serve.wire_overhead_ratio": 0.0,
        "shard.scale_ratio_2conn": 0.0,
        "shard.server_cpu_cores": 0.0,
    }
    if workload.name != "serve-sharded":
        return zero
    two = workload.client_round(workload.lanes)
    one = workload.client_round(1)
    in_process = []
    for xpath, verify in workload.ops:
        t0 = perf()
        workload.router.query(xpath, verify=verify)
        in_process.append(perf() - t0)
    return {
        "cli.serve.wire_overhead_ratio": ratio(
            percentile(sorted(one["query_s"]), 50), percentile(sorted(in_process), 50)
        ),
        "shard.scale_ratio_2conn": ratio(
            two["ops"] / two["ops_s"], one["ops"] / one["ops_s"]
        ),
        "shard.server_cpu_cores": workload.server_cpu_cores,
    }


def layer_metrics(workload, self_s: dict, wall_s: float) -> dict:
    """Every per-layer metric of one traced run (host.* and obs.* are added
    by the caller, which owns the rounds)."""
    out = budget(self_s, wall_s, workload.lanes)
    dbdir = Path(workload.probe_dir())
    workload.index.flush()  # the tree walk of the snapshot reads what the round wrote
    out.update(counted(workload, workload.index.metrics.snapshot(), dbdir))
    out.update(probe_serve(workload))
    # the probes read through a handle of their own, so nothing they warm
    # or append reaches the workload's index
    workload.teardown()
    index = open_index(dbdir)
    try:
        out.update(probe_query_path(index, workload.xpaths()))
        out.update(probe_storage(index, dbdir, workload.env))
        out.update(probe_ingest_path(index, workload.corpus, workload.env))
    finally:
        close_index(index)
    out.update(probe_wire(workload.answer_sizes()))
    out.update(probe_updates(dbdir, workload.env))
    return out

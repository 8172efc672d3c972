"""The five workloads of the benchmark of record.

Every workload replays one seeded operation list per round from the same
starting state and checks every answer.  ``round()`` is the untraced
path through the program's own entry points (``index.query``,
``add_batch``, the TCP front end); ``traced_round()`` drives the same
operations layer by layer through public functions with a span around
each call.  Why each workload exists is in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from itertools import islice

from harness import (
    BATCH_SIZE,
    Checker,
    Corpus,
    Env,
    ROOT,
    Tracer,
    UNTRACED,
    close_index,
    dir_bytes,
    expected_answers,
    ingest,
    open_index,
    parse_xpath,
    perf,
    remove_tree,
    spin_ms,
)
from repro.bench.workloads import TABLE3_QUERIES
from repro.datasets import dblp
from repro.errors import TranslationError
from repro.index import verify_document
from repro.query.translate import relax_query_tree
from repro.sequence import ValueHasher
from repro.shard import ShardRouter
from repro.shard.protocol import recv_frame, send_frame
from repro.shard.routing import shard_dir
from repro.testing.invariants import assert_invariants

# sizes of a full run (``--smoke`` divides each by ten).  Rounds are short
# (0.15-1 s on the 2-core box the bounds were taken on; 2.5 s where a round
# must hold three ingest batches): readings are pooled over all rounds of a
# run and scaled by calibration readings taken between them, so many short
# rounds sample the host's speed better than few long ones
N_DBLP = 1600
N_XMARK = 500
# records streamed per ingest-bulk round: three durable batch commits and a
# 1 900-page file, 3.7 times the 512-page buffer pool
N_INGEST = 2500
HOT_OPS = 80  # query-hot operations per round
SAMPLE_QUERIES = 100  # ingest-bulk's timed queries after reopen
SAMPLE_CHECKED = 20  # and its drawn exact sample, checked but not timed
WIDE_QUERIES = 200  # distinct exact queries per query-wide-exact round
SPIN_EVERY = 40  # ... with a calibration reading after every so many of them
UPDATE_OPS = 240  # 30 % add, 20 % remove, 50 % query (15 of each hot query)
FLUSH_EVERY = 50
SERVE_OPS = 96  # requests per round over both connections (12 of each hot query)
SERVE_CONNS = 2
VERIFY_EVERY = 4  # every fourth serve request of a query asks for exact mode
FRESH_CONNECTIONS = 5  # connect + one request, timed, before each serve round

HOT = [q.xpath for q in TABLE3_QUERIES]
HOT_DBLP = [q.xpath for q in TABLE3_QUERIES if q.dataset == "dblp"]
HASHER = ValueHasher()  # the default hasher of every index the CLI opens


# -- seeded query shapes drawn from corpus records ---------------------------------


def value_leaves(record) -> list:
    """(labels from the record root to the element, value) per value leaf;
    attributes are child nodes, as the paper models them."""
    out = []

    def walk(node, path):
        path = path + (node.label,)
        for name, value in sorted(node.attributes.items()):
            out.append((path + (name,), value.strip()))
        if node.text and node.text.strip():
            out.append((path, node.text.strip()))
        for child in node.children:
            walk(child, path)

    walk(record, ())
    return [(p, v) for p, v in out if "'" not in v and '"' not in v]


# the rotation drawn queries follow: the three cheap shapes twice as often
# as the two dear ones, so the median of a round sits well inside the cheap
# group (at its 74th percentile) and not on the edge between the groups
SHAPES = ("path", "branch", "two", "dslash", "path", "branch", "two", "star")


def draw_queries(strata: list, rng, count: int, broad_share: float = 0.1) -> list:
    """``count`` distinct XPath strings in six shapes, in fixed shares.

    ``strata`` are lists of records, taken in rotation (pass a list twice
    to draw from it twice as often).

    A tenth are broad structural paths (no value, so every record of that
    shape is a candidate): the most frequent root-to-leaf label paths of
    the corpus, most frequent first.  The rest are drawn from seeded
    records in the SHAPES rotation: path+value, branch+value, two-predicate
    branch, ``//``+value and ``*``-branch.  Shares are exact so that a
    percentile of the round falls inside a group of shapes, not on an edge
    whose place the draw decided.
    """
    frequency: dict = {}
    for record in {id(r): r for records in strata for r in records}.values():
        for path in {p for p, _ in value_leaves(record)}:
            frequency[path] = frequency.get(path, 0) + 1
    broad = sorted(frequency, key=lambda p: (-frequency[p], p))[: int(count * broad_share)]
    seen = dict.fromkeys("/" + "/".join(path) for path in broad)
    for _attempt in range(count * 50):
        if len(seen) >= count:
            break
        drawn = len(seen) - len(broad)
        shape = SHAPES[drawn % len(SHAPES)]
        records = strata[drawn // len(SHAPES) % len(strata)]
        leaves = value_leaves(rng.choice(records))
        path, value = rng.choice(leaves)
        if shape == "path":
            xpath = f"/{'/'.join(path)}[text='{value}']"
        elif shape == "dslash":
            xpath = f"//{path[-1]}[text='{value}']"
        else:
            siblings = [
                (p, v) for p, v in leaves if p[:-1] == path[:-1] and p[-1] != path[-1]
            ]
            if not siblings or len(path) < 2:
                continue
            other, other_value = rng.choice(siblings)
            parent = "/" + "/".join(path[:-1])
            if shape == "branch":
                xpath = f"{parent}[{path[-1]}='{value}']/{other[-1]}"
            elif shape == "star":
                starred = "/" + "/".join(path[:-2] + ("*",))
                xpath = f"{starred}[{path[-1]}='{value}']/{other[-1]}"
            else:
                xpath = f"{parent}[{path[-1]}='{value}'][{other[-1]}='{other_value}']"
        seen.setdefault(xpath, None)
    return list(seen)


def seeded_order(ops: list, rng) -> list:
    """``ops`` shuffled, but for the first: the operation that
    ``open_first_query_ms`` times must be the same one for every seed."""
    rest = ops[1:]
    rng.shuffle(rest)
    return ops[:1] + rest


# -- the query path, untraced and layer by layer -------------------------------------


def run_queries(index, ops: list, expected: dict, checker: Checker, spins=None) -> list:
    """Closed loop of ``index.query`` calls; returns per-call seconds.

    A round much longer than the host's bursts passes ``spins``: a
    calibration reading is appended to it every SPIN_EVERY calls, between
    two calls, so the calibration samples the round's own time.
    """
    latencies = []
    for i, (xpath, verify) in enumerate(ops):
        if spins is not None and i and i % SPIN_EVERY == 0:
            spins.append(spin_ms())
        t0 = perf()
        try:
            result = index.query(xpath, verify=verify)
        except Exception as exc:  # an operation that raises is a failed one
            latencies.append(perf() - t0)
            checker.check(False, f"{xpath}: {exc!r}")
            continue
        latencies.append(perf() - t0)
        checker.check(result == expected[xpath, verify], xpath)
    return latencies


class Meter:
    """Cache and pager counters of some open indexes, summed, as deltas.

    Read through ``index.cache_stats()``: the full registry snapshot walks
    both trees, which would warm a cold index in the middle of a round.
    """

    def __init__(self, indexes: list) -> None:
        self.indexes = indexes
        self.base = self._read()

    def _read(self) -> dict:
        total: dict = {}
        for index in self.indexes:
            stats = index.cache_stats()
            flat = {
                **{f"postings.{k}": v for k, v in stats.get("postings", {}).items()},
                **{f"pool.{k}": v for k, v in stats.get("buffer_pool", {}).items()},
                **{f"descent.{k}": v for k, v in stats["descent"]["combined"].items()},
            }
            for key, value in flat.items():
                if not key.endswith(("hit_rate", "groups")):
                    total[key] = total.get(key, 0) + value
        return total

    def delta(self) -> dict:
        now = self._read()
        return {key: now[key] - self.base.get(key, 0) for key in now}


@dataclass
class QueryCounts:
    """Work counted at the layer boundaries of the traced query path."""

    queries: int = 0
    alternatives: int = 0
    range_queries: int = 0
    states: int = 0
    match_candidates: int = 0
    raw_results: int = 0
    verify_candidates: int = 0
    verified: int = 0


def traced_query(tracer: Tracer, index, xpath: str, verify: bool, plan, counts: QueryCounts):
    """``index.query`` re-driven from outside, one span per layer call.

    Routing decisions (relaxed candidates, automatic verification) come
    from the public ``index.explain`` plan, taken once per distinct query
    before the traced round.
    """
    tracer.next_op()
    with tracer.span("harness"):
        with tracer.span("query.parse"):
            root = parse_xpath(xpath)
        verify = verify or plan.auto_verified
        target = relax_query_tree(root) if verify and plan.relaxed_candidates else root
        with tracer.span("query.translate"):
            try:
                alternatives = index.translator.translate(target)
            except TranslationError:
                alternatives = index.translator.translate(relax_query_tree(root))
                verify = True
        doc_ids: set = set()
        for alternative in alternatives:
            with tracer.span("index.match"):
                doc_ids |= index.match_sequence(alternative)
            stats = index.match_stats
            counts.range_queries += stats.range_queries
            counts.states += stats.search_states
            counts.match_candidates += stats.candidates
        counts.queries += 1
        counts.alternatives += len(alternatives)
        counts.raw_results += len(doc_ids)
        if verify:
            counts.verify_candidates += len(doc_ids)
            with tracer.span("storage.docstore"):
                loaded = [(d, index.load_sequence(d)) for d in doc_ids]
            hasher = index.encoder.hasher
            with tracer.span("index.verify"):
                doc_ids = {d for d, seq in loaded if verify_document(seq, root, hasher)}
            counts.verified += len(doc_ids)
        return sorted(doc_ids)


def with_raw_answers(index, xpaths: list, exact: dict, info: dict) -> dict:
    """Expected answers keyed by ``(xpath, verify)``.

    Raw matching is normally exact on the Table-3 shapes; where a seed
    makes one differ, that query is checked against its own set-up-time
    raw answer instead, and listed, so the operation list never changes.
    """
    expected = {}
    for xpath in xpaths:
        expected[xpath, True] = exact[xpath]
        raw = index.query(xpath)
        if raw != exact[xpath]:
            info.setdefault("raw_inexact", []).append(xpath)
        expected[xpath, False] = raw
    return expected


# -- workloads --------------------------------------------------------------------


class Workload:
    name = ""
    lanes = 1  # concurrent client lanes (threads/connections) per round
    calibrated = True  # round times are scaled to the reference host speed

    def __init__(self, env: Env) -> None:
        self.env = env
        self.checker = Checker()
        self.info: dict = {}  # config facts printed with the result
        self.ops: list = []
        self.expected: dict = {}
        self.index = None  # the open index the layer probes may read
        self.stored_ratio = 0.0
        # facts of the traced round, for the per-layer metrics
        self.counts = QueryCounts()
        self.delta: dict = {}
        self.first_reads = 0
        self.updates = 0
        self.commits = 0
        self.underflows = None  # None: read the open index's own counter

    def setup(self) -> None:
        """Corpus + build/open/spawn + warm-up (timed as ``setup_s``)."""
        raise NotImplementedError

    def _build_mix(self) -> None:
        """The ``mix`` corpus, ingested into one fresh directory."""
        self.corpus = Corpus(self.env, self.env.size(N_DBLP), self.env.size(N_XMARK))
        self.dbdir = self.env.fresh_dir("db")
        ingest(self.dbdir, self.corpus)
        self.stored_ratio = dir_bytes(self.dbdir) / self.corpus.bytes

    def teardown(self) -> None:
        if self.index is not None:
            close_index(self.index)
            self.index = None

    def reference(self) -> None:
        """Operation list and expected answers (not part of ``setup_s``)."""
        raise NotImplementedError

    def round(self) -> dict:
        """One round: ``{"ops", "ops_s", "query_s": [...], "first_ms"}``, and
        ``"spins"`` when the round took calibration readings of its own."""
        raise NotImplementedError

    def traced_round(self) -> list:
        """The same operations, layer by layer; returns the tracers."""
        raise NotImplementedError

    def after_trace(self) -> None:
        """Untimed work the layer metrics need once the traced round ended."""

    def finish(self) -> None:
        """Checks that run once, after the last round."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def probe_dir(self):
        """The directory of ``self.index``, for the layer probes."""
        return self.dbdir

    def xpaths(self) -> list:
        return [xpath for xpath, _ in self.ops]

    def answer_sizes(self) -> list:
        return [len(answer) for answer in self.expected.values() if answer is not None]

    def _traced_queries(self, tracer: Tracer, index, ops: list) -> int:
        """``ops`` layer by layer against ``index``, metered and checked;
        returns the pages the first of them read."""
        plans = {xpath: index.explain(xpath) for xpath, _ in ops}
        meter = Meter([index])
        first_reads = 0
        for i, (xpath, verify) in enumerate(ops):
            result = traced_query(tracer, index, xpath, verify, plans[xpath], self.counts)
            self.checker.check(result == self.expected[xpath, verify], f"traced {xpath}")
            if i == 0:
                first_reads = meter.delta().get("pool.misses", 0)
        self.delta = meter.delta()
        return first_reads


class IngestBulk(Workload):
    name = "ingest-bulk"

    def setup(self) -> None:
        self.corpus = Corpus(self.env, self.env.size(N_INGEST), 0)
        warm = self.env.fresh_dir("warm")
        ingest(warm, self.corpus)  # warm-up: one full untimed ingest
        remove_tree(warm)

    def reference(self) -> None:
        records = self.corpus.records()
        # timed: the DBLP Table-3 shapes, raw (there is no index yet to take a
        # raw answer from, so raw must equal the reference).  Checked but not
        # timed: a drawn exact sample, whose cost would follow the draw.
        hot = [(x, False) for x in HOT_DBLP]
        self.ops = seeded_order(
            hot * max(1, self.env.size(SAMPLE_QUERIES) // len(hot)), self.env.rng("sample-order")
        )
        drawn = draw_queries([records], self.env.rng("sample"), self.env.size(SAMPLE_CHECKED))
        self.checked = [(x, True) for x in drawn]
        exact = expected_answers(records, HOT_DBLP + drawn, HASHER)
        self.expected = {(x, v): exact[x] for x, v in hot + self.checked}

    def _checked_ingest(self, tracer=UNTRACED):
        dbdir = self.env.fresh_dir("ingest")
        t0 = perf()
        if tracer is UNTRACED:
            count = ingest(dbdir, self.corpus)
        else:
            count = self._traced_ingest(dbdir, tracer)
        ingest_s = perf() - t0
        self.checker.check(count == len(self.corpus), f"ingested {count}")
        self.stored_ratio = dir_bytes(dbdir) / self.corpus.bytes
        # `repro query` is another process than `repro ingest`: the 55 000
        # objects the closed index leaves to the collector are not its to
        # pay for (left alone they are collected inside the first query on
        # some seeds, 70 ms, and after it on others, 15 ms)
        gc.collect()
        return dbdir, ingest_s

    def round(self) -> dict:
        dbdir, ingest_s = self._checked_ingest()
        t0 = perf()
        index = open_index(dbdir)
        open_s = perf() - t0
        try:
            self.checker.check(len(index) == len(self.corpus), "len(index)")
            query_s = run_queries(index, self.ops, self.expected, self.checker)
            run_queries(index, self.checked, self.expected, self.checker)
        finally:
            close_index(index)
        remove_tree(dbdir)
        return {
            "ops": len(self.corpus), "ops_s": ingest_s, "query_s": query_s,
            "first_ms": (open_s + query_s[0]) * 1e3,
        }

    def _traced_ingest(self, dbdir, tracer: Tracer) -> int:
        """``ingest()`` chunk by chunk: parse, encode (a replay — add_batch
        encodes again inside ``index.insert``), insert, commit."""
        with tracer.span("storage.open"):
            index = open_index(dbdir, wal=True)
        meter = Meter([index])
        stream = self.corpus.stream()
        count = 0
        while True:
            tracer.next_op()
            with tracer.span("harness"):
                with tracer.span("doc.stream"):
                    chunk = list(islice(stream, BATCH_SIZE))
                if not chunk:
                    break
                with tracer.span("sequence.encode"):
                    for record in chunk:
                        index.encoder.encode_node(record)
                with tracer.span("index.insert"):
                    count += len(
                        index.add_batch(chunk, batch_size=len(chunk), durability="none")
                    )
                with tracer.span("storage.commit"):
                    index.flush()
                self.commits += 1
        self.underflows = index.underflow_count  # not persisted: read before closing
        self.ingest_delta = meter.delta()
        with tracer.span("storage.commit"):
            close_index(index)
        self.commits += 1
        return count

    def traced_round(self) -> list:
        tracer = Tracer()
        self.dbdir, _ = self._checked_ingest(tracer)
        with tracer.span("storage.open"):
            self.index = open_index(self.dbdir)
        self.first_reads = self._traced_queries(tracer, self.index, self.ops)
        for key, value in self.ingest_delta.items():  # counts cover the whole round
            self.delta[key] = self.delta.get(key, 0) + value
        with tracer.span("harness"):  # as in round(): checked, through the front door
            run_queries(self.index, self.checked, self.expected, self.checker)
        return [tracer]


class QueryHot(Workload):
    name = "query-hot"

    def setup(self) -> None:
        self._build_mix()
        self.index = open_index(self.dbdir)
        for xpath in HOT:  # warm-up cycle: posting cache, descent LRU, decoded nodes
            self.index.query(xpath)

    def reference(self) -> None:
        exact = expected_answers(self.corpus.records(), HOT, HASHER)
        self.expected = with_raw_answers(self.index, HOT, exact, self.info)
        # the same mix for every seed, in seeded order
        self.ops = seeded_order(
            [(x, False) for x in HOT] * max(1, self.env.size(HOT_OPS) // len(HOT)),
            self.env.rng("hot-order"),
        )

    def round(self) -> dict:
        # what each `repro query` call pays: a second, cold handle on the
        # same directory, outside the timed loop over the warm index
        t0 = perf()
        cold = open_index(self.dbdir)
        try:
            first = cold.query(self.ops[0][0])
            first_ms = (perf() - t0) * 1e3
        finally:
            close_index(cold)
        self.checker.check(first == self.expected[self.ops[0]], "first query")
        t0 = perf()
        query_s = run_queries(self.index, self.ops, self.expected, self.checker)
        return {"ops": len(self.ops), "ops_s": perf() - t0, "query_s": query_s, "first_ms": first_ms}

    def traced_round(self) -> list:
        tracer = Tracer()
        with tracer.span("storage.open"):  # the cold second handle of round()
            cold = open_index(self.dbdir)
        try:
            self.first_reads = self._traced_queries(tracer, cold, self.ops[:1])
        finally:
            with tracer.span("harness"):
                close_index(cold)
        self._traced_queries(tracer, self.index, self.ops)
        return [tracer]


class QueryWideExact(Workload):
    name = "query-wide-exact"

    def setup(self) -> None:
        self._build_mix()  # and nothing else: every round starts cold

    def reference(self) -> None:
        records = self.corpus.records()
        # three draws from DBLP records to one from XMark, as the corpus is
        dblp_part, xmark_part = records[: self.corpus.n_dblp], records[self.corpus.n_dblp :]
        strata = [dblp_part, dblp_part, dblp_part, xmark_part]
        xpaths = draw_queries(strata, self.env.rng("wide"), self.env.size(WIDE_QUERIES))
        # opens with the corpus's most frequent path, whatever the seed
        xpaths = seeded_order(xpaths, self.env.rng("wide-order"))
        self.ops = [(x, True) for x in xpaths]
        exact = expected_answers(records, xpaths, HASHER)
        self.expected = {(x, True): exact[x] for x in xpaths}
        self.info["distinct_queries"] = len(xpaths)

    def round(self) -> dict:
        spins: list = []
        t0 = perf()
        index = open_index(self.dbdir)  # no warm-up: every round starts cold
        open_s = perf() - t0
        try:
            query_s = run_queries(index, self.ops, self.expected, self.checker, spins)
        finally:
            close_index(index)
        return {
            "ops": len(self.ops), "ops_s": open_s + sum(query_s), "query_s": query_s,
            "first_ms": (open_s + query_s[0]) * 1e3, "spins": spins,
        }

    def traced_round(self) -> list:
        tracer = Tracer()
        with tracer.span("storage.open"):
            self.index = open_index(self.dbdir)
        self.first_reads = self._traced_queries(tracer, self.index, self.ops)
        return [tracer]


class UpdateMix(Workload):
    name = "update-mix"
    copy = None

    def setup(self) -> None:
        self._build_mix()  # rounds work on copies of it

    def reference(self) -> None:
        records = self.corpus.records()
        rng = self.env.rng("update")
        kinds = ["add"] * 3 + ["remove"] * 2 + ["query"] * 5
        fresh_gen = dblp.DblpGenerator(
            dblp.DblpConfig(seed=self.env.seed * 1000 + 1, plant_targets=False)
        )
        live = list(range(len(records)))
        self.fresh = []
        blocks = self.env.size(UPDATE_OPS) // len(kinds)
        # every hot query equally often, in seeded order
        queries = HOT * -(-blocks * kinds.count("query") // len(HOT))
        rng.shuffle(queries)
        for _ in range(blocks):
            for kind in rng.sample(kinds, len(kinds)):  # exact shares, seeded order
                if kind == "add":
                    doc_id = len(records) + len(self.fresh)
                    self.fresh.append(fresh_gen.record(doc_id))
                    live.append(doc_id)
                    self.ops.append(("add", doc_id))
                elif kind == "remove":
                    self.ops.append(("remove", live.pop(rng.randrange(len(live)))))
                else:
                    self.ops.append(("query", queries.pop()))
        self.survivors = set(live)
        self.updates = sum(kind != "query" for kind, _ in self.ops)
        # answers follow the live set: match once over every record that is
        # ever present, then intersect with what is live at each moment
        matches = expected_answers(records + self.fresh, HOT, HASHER)
        self.matches = {x: set(matches[x]) for x in HOT}
        initial = {x: [d for d in matches[x] if d < len(records)] for x in HOT}
        probe = open_index(self.dbdir)
        try:
            self.first_expected = with_raw_answers(probe, HOT, initial, self.info)[HOT[0], False]
        finally:
            close_index(probe)
        inexact = set(self.info.get("raw_inexact", ()))
        live_now = set(range(len(records)))
        self.expected_at = []
        for kind, arg in self.ops:
            if kind == "add":
                live_now.add(arg)
            elif kind == "remove":
                live_now.discard(arg)
            checked = kind == "query" and arg not in inexact
            self.expected_at.append(sorted(self.matches[arg] & live_now) if checked else None)

    def _open_copy(self, tracer=UNTRACED):
        self.copy = self.env.fresh_dir("copy")
        shutil.copytree(self.dbdir, self.copy, dirs_exist_ok=True)
        with tracer.span("storage.open"):
            return open_index(self.copy, wal=True)

    def _replay(self, index, tracer=UNTRACED) -> tuple:
        """The operation list against ``index``: (query seconds, update
        seconds).  With a tracer, each call into a layer gets its span and
        queries go layer by layer."""
        query_s, update_s = [], []
        fresh = iter(self.fresh)
        check = self.checker.check
        plans = {x: index.explain(x) for x in HOT} if tracer is not UNTRACED else None
        for i, (kind, arg) in enumerate(self.ops):
            t0 = perf()
            try:
                if kind == "query":
                    if tracer is UNTRACED:
                        result = index.query(arg)
                    else:
                        result = traced_query(tracer, index, arg, False, plans[arg], self.counts)
                    query_s.append(perf() - t0)
                    if self.expected_at[i] is not None:
                        check(result == self.expected_at[i], f"op {i} {arg}")
                    continue
                tracer.next_op()
                if kind == "add":
                    with tracer.span("index.add"):
                        doc_id = index.add(next(fresh))
                    update_s.append(perf() - t0)
                    check(doc_id == arg, f"op {i} add got id {doc_id}")
                else:
                    with tracer.span("index.remove"):
                        index.remove(arg)
                    update_s.append(perf() - t0)
                    check(True, "remove")
            except Exception as exc:
                check(False, f"op {i} {kind} {arg}: {exc!r}")
            finally:
                if (i + 1) % FLUSH_EVERY == 0:
                    self.commits += 1
                    with tracer.span("storage.commit"):
                        index.flush()
        return query_s, update_s

    def round(self) -> dict:
        t0 = perf()
        index = self._open_copy()
        try:
            first = index.query(HOT[0])
            first_ms = (perf() - t0) * 1e3
            self.checker.check(first == self.first_expected, "first query")
            t0 = perf()
            query_s, update_s = self._replay(index)
        finally:
            close_index(index)
        ops_s = perf() - t0
        remove_tree(self.copy)
        return {
            "ops": len(self.ops), "ops_s": ops_s, "query_s": query_s,
            "first_ms": first_ms, "update_s": update_s,
        }

    def traced_round(self) -> list:
        tracer = Tracer()
        self.commits = 0
        self.index = self._open_copy(tracer)
        first = traced_query(
            tracer, self.index, HOT[0], False, self.index.explain(HOT[0]), self.counts
        )
        self.checker.check(first == self.first_expected, "traced first query")
        meter = Meter([self.index])
        self._replay(self.index, tracer)
        self.delta = meter.delta()
        with tracer.span("storage.commit"):
            self.index.flush()
        self.commits += 1
        return [tracer]

    def probe_dir(self):
        return self.copy

    def xpaths(self) -> list:
        return HOT

    def answer_sizes(self) -> list:
        return [len(answer) for answer in self.expected_at if answer is not None]

    def finish(self) -> None:
        """After one more (untimed) replay if no traced round left one open:
        the hot set in exact mode against the surviving documents, and the
        structural invariants."""
        if self.index is None:
            self.index = self._open_copy()
            self._replay(self.index)
            self.index.flush()
        for xpath in HOT:
            want = sorted(self.matches[xpath] & self.survivors)
            self.checker.check(
                self.index.query(xpath, verify=True) == want, f"survivors {xpath}"
            )
        try:
            assert_invariants(self.index)
            self.checker.check(True, "invariants")
        except AssertionError as exc:
            self.checker.check(False, exc)
        self.stored_ratio = dir_bytes(self.copy) / self.corpus.bytes


def stop_process_group(server: subprocess.Popen) -> None:
    """Interrupt the server (its clean shutdown path), then kill whatever
    is left of its process group, and reap: no worker outlives the run."""
    if server.poll() is None:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
    server.wait()
    server.stdout.close()
    deadline = perf() + 5
    while perf() < deadline:
        try:
            os.killpg(server.pid, signal.SIGKILL)
        except ProcessLookupError:
            return  # the group is empty
        time.sleep(0.05)


def process_stats():
    """(pid, fields of /proc/<pid>/stat from the state on) per live process;
    parent is field 1, process group 2, utime and stime 11 and 12."""
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = open(f"/proc/{entry}/stat").read()
            except OSError:
                continue  # it ended meanwhile
            yield int(entry), stat.rsplit(")", 1)[1].split()


def group_cpu_seconds(pgid: int) -> float:
    """User+system CPU of every live process in a group."""
    ticks = sum(int(f[11]) + int(f[12]) for _, f in process_stats() if int(f[2]) == pgid)
    return ticks / os.sysconf("SC_CLK_TCK")


def child_pids(parent: int) -> list:
    return sorted(pid for pid, f in process_stats() if int(f[1]) == parent)


def pin_process(pid: int, cpus: set) -> None:
    """Every thread of another process onto ``cpus``, as ``taskset -a -p``."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(tid), cpus)


class ServeSharded(Workload):
    name = "serve-sharded"
    cpus = os.sched_getaffinity(0)
    lanes = SERVE_CONNS
    # A request here is mostly waiting on other processes, which the
    # single-threaded calibration kernel says little about (measured: the
    # raw request rate spreads less than the scaled one): wall clock.
    calibrated = False
    server = None
    router = None

    def setup(self) -> None:
        os.sched_setaffinity(0, self.cpus)  # the ingest and the server start unplaced
        self.corpus = Corpus(self.env, self.env.size(N_DBLP), self.env.size(N_XMARK))
        self.dbdir = self.env.fresh_dir("db")
        # `repro ingest --shards 2`
        with ShardRouter(self.dbdir, SERVE_CONNS, wal=True) as router:
            router.add_batch(self.corpus.stream(), batch_size=BATCH_SIZE, durability="batch")
        self.stored_ratio = dir_bytes(self.dbdir) / self.corpus.bytes
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(self.dbdir),
             "--workers", str(SERVE_CONNS), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            start_new_session=True,  # its own group, so the workers can be swept
        )
        line = self.server.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"server did not announce a port: {line!r}")
        self.port = int(line.split()[1])
        self._place()
        with socket.create_connection(("127.0.0.1", self.port)) as conn:
            for xpath in HOT:  # warm-up cycle, raw and exact
                for request in (xpath, {"xpath": xpath, "verify": True}):
                    send_frame(conn, request)
                    recv_frame(conn)

    def _place(self) -> None:
        """One worker per CPU, the front end beside the first worker, the
        client beside the last.

        Left to the scheduler, how client, front end and two workers fall on
        two cores flips one commit between 98 and 142 requests/s from run to
        run.  Placed like this both cores work (a request fans out to both
        workers at once) and six runs at one seed held 167-195.  Every
        thread is pinned, so threads started later inherit their place.
        """
        cpus = sorted(self.cpus)
        for shard, pid in enumerate(child_pids(self.server.pid)):
            pin_process(pid, {cpus[shard % len(cpus)]})
        pin_process(self.server.pid, {cpus[0]})
        os.sched_setaffinity(0, {cpus[-1]})  # this thread; the lanes inherit it

    def teardown(self) -> None:
        if self.router is not None:
            self.router.close()
            self.router = None
        self.index = None  # a shard of the router, closed with it
        server, self.server = self.server, None
        if server is not None:
            stop_process_group(server)

    def reference(self) -> None:
        exact = expected_answers(self.corpus.records(), HOT, HASHER)
        with socket.create_connection(("127.0.0.1", self.port)) as conn:
            for xpath in HOT:
                send_frame(conn, xpath)
                reply = recv_frame(conn)
                raw = reply.get("result") if reply and reply.get("ok") else None
                if raw != exact[xpath]:
                    self.info.setdefault("raw_inexact", []).append(xpath)
                self.expected[xpath, False] = raw
                self.expected[xpath, True] = exact[xpath]
        # the same mix for every seed and round: each hot query equally
        # often, every fourth request of each in exact mode
        each = max(VERIFY_EVERY, self.env.size(SERVE_OPS) // len(HOT))
        self.ops = [
            (xpath, k % VERIFY_EVERY == VERIFY_EVERY - 1) for xpath in HOT for k in range(each)
        ]
        self.client_rounds = 0

    def _lane(self, ops: list, out: dict, tracer=UNTRACED) -> None:
        """One connection's closed loop; latency is client-side around
        ``send_frame``/``recv_frame``.  A lost connection fails every
        operation still outstanding on the lane."""
        try:
            with socket.create_connection(("127.0.0.1", self.port)) as conn:
                for xpath, verify in ops:
                    request = {"xpath": xpath, "verify": True} if verify else xpath
                    t0 = perf()
                    tracer.next_op()
                    with tracer.span("harness"):
                        with tracer.span("shard.wire.send"):
                            send_frame(conn, request)
                        with tracer.span("shard.wire.wait"):
                            reply = recv_frame(conn)
                    out["query_s"].append(perf() - t0)
                    ok = bool(reply) and reply.get("ok") is True and (
                        reply.get("result") == self.expected[xpath, verify]
                    )
                    out["checks"].append((ok, xpath))
        except Exception as exc:
            out["checks"].append((False, repr(exc)))
        out["checks"].extend(
            (False, "no reply") for _ in range(len(ops) - len(out["checks"]))
        )

    def _fresh_connection_ms(self) -> float:
        """What a new client pays: ``connect()`` to its first reply, mean of
        FRESH_CONNECTIONS one-request connections."""
        total = 0.0
        for _ in range(FRESH_CONNECTIONS):
            lane = {"query_s": [], "checks": []}
            t0 = perf()
            self._lane([(HOT[0], False)], lane)
            total += perf() - t0
            self.checker.check(*lane["checks"][0])
        return total / FRESH_CONNECTIONS * 1e3

    def client_round(self, conns: int, tracers=None) -> dict:
        """``conns`` lanes over the operation list, concurrently.

        Which requests meet in the workers decides what each one waits
        for, and a fixed order would replay one such pairing all run long:
        the order is drawn anew, from the seed, for every round.
        """
        ops = self.ops[:]
        self.env.rng(f"serve-round-{self.client_rounds}").shuffle(ops)
        self.client_rounds += 1
        lanes = [{"query_s": [], "checks": []} for _ in range(conns)]
        threads = [
            threading.Thread(
                target=self._lane,
                args=(ops[i::conns], lanes[i], tracers[i] if tracers else UNTRACED),
            )
            for i in range(conns)
        ]
        t0 = perf()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ops_s = perf() - t0
        for lane in lanes:
            for ok, what in lane["checks"]:
                self.checker.check(ok, what)
        return {
            "ops": len(self.ops), "ops_s": ops_s,
            "query_s": [s for lane in lanes for s in lane["query_s"]],
        }

    def round(self) -> dict:
        first_ms = self._fresh_connection_ms()
        return {**self.client_round(SERVE_CONNS), "first_ms": first_ms}

    def traced_round(self) -> list:
        tracers = [Tracer() for _ in range(SERVE_CONNS)]
        cpu0 = group_cpu_seconds(self.server.pid)
        result = self.client_round(SERVE_CONNS, tracers)
        self.server_cpu_cores = (group_cpu_seconds(self.server.pid) - cpu0) / result["ops_s"]
        return tracers

    def after_trace(self) -> None:
        """What the client cannot see through the socket: the same
        operations layer by layer on each shard, in-process."""
        self.router = ShardRouter(self.dbdir)
        self.index = self.router.shards[0]
        discard = Tracer()
        meter = Meter(list(self.router.shards))
        for shard in self.router.shards:
            plans = {x: shard.explain(x) for x in HOT}
            for xpath, verify in self.ops:
                traced_query(discard, shard, xpath, verify, plans[xpath], self.counts)
        self.delta = meter.delta()
        # each request was counted once per shard
        self.counts.queries //= len(self.router.shards)

    def probe_dir(self):
        return shard_dir(self.dbdir, 0)

    def peak_rss_mb(self) -> float:
        # the system under test is the server; children are only counted
        # once reaped, so this is read after teardown()
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {
    w.name: w for w in (IngestBulk, QueryHot, QueryWideExact, UpdateMix, ServeSharded)
}

"""Shared machinery of the end-to-end benchmark: paths, the round
estimator, the span tracer, corpus building and answer checking.

Nothing here (or anywhere under ``benchmarks/e2e``) edits or patches
``src/``: the program is driven through its public functions, timed from
outside, and counted through the pull-only ``index.metrics.snapshot()``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "_out"
SPEC_PATH = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(ROOT / "src"))

from repro.cli import open_index  # noqa: E402
from repro.datasets import dblp, xmark  # noqa: E402
from repro.doc import iter_stream_records  # noqa: E402
from repro.query import parse_xpath  # noqa: E402
from repro.testing.reference import reference_results  # noqa: E402

perf = time.perf_counter

# XMark plant rates as in benchmarks/bench_table4.py: high enough that
# every Table-3 query has matches at this scale
XMARK_RATES = {"target_date_rate": 0.1, "person1_rate": 0.1}
BATCH_SIZE = 1000


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# -- estimator ---------------------------------------------------------------


def percentile(ordered: list, q: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


# What the calibration kernel below takes on this box when nothing else
# runs on it.  Times are reported at that host speed (see host_factor).
SPIN_REF_MS = 10.0


def spin_ms() -> float:
    """The calibration kernel: a fixed pure-Python loop, timed."""
    t0 = perf()
    x = 0
    for i in range(200_000):
        x += i * i % 7
    return (perf() - t0) * 1e3


def host_factor(spins: list) -> float:
    """Multiplier that brings a time measured beside ``spins`` to the
    reference host speed.

    This box drifts between host speeds 1.7x apart over minutes, and in
    bursts within a second; raw times of one commit then spread 25-30 %
    from run to run.  The kernel is run between rounds all through a run,
    and the ratio (time in the program) / (time in the kernel) holds to
    3-9 % across the same runs.
    """
    return SPIN_REF_MS * len(spins) / sum(spins)


def interquartile(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def timed_round(fn):
    """Run one round, collector on as a user's process has it, after a full
    collection so no round inherits another's garbage.  (The harness's own
    long-lived objects are frozen out of the collector's sight before the
    first round: see run.py.)"""
    gc.collect()
    t0 = perf()
    out = fn()
    return out, perf() - t0


# -- tracing -----------------------------------------------------------------


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.sid = len(t.spans)
        t.spans.append(None)
        self.parent = t.stack[-1] if t.stack else -1
        t.stack.append(self.sid)
        self.start = perf()
        return self

    def __exit__(self, *_exc) -> None:
        end = perf()
        t = self.tracer
        t.stack.pop()
        t.spans[self.sid] = (self.name, self.start, end, self.parent, t.op)


class Tracer:
    """In-memory spans opened by the harness around its calls into a layer.

    A span is ``(name, start, end, parent, op)``; ``op`` is shared by the
    spans of one query/chunk.  One tracer per client lane (thread).
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.op = -1

    def next_op(self) -> None:
        self.op += 1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> dict:
        """Seconds per span name, each span minus what its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def to_rows(self, lane: int = 0) -> list:
        return [
            {"id": i, "lane": lane, "name": n, "start": s, "end": e, "parent": p, "op": o}
            for i, (n, s, e, p, o) in enumerate(self.spans)
        ]


class _Untraced:
    """Stands in for a Tracer in untraced rounds: no spans, no clock reads."""

    _nothing = contextlib.nullcontext()

    def next_op(self) -> None:
        pass

    def span(self, _name: str):
        return self._nothing


UNTRACED = _Untraced()


def write_trace(workload: str, seed: int, wall_s: float, tracers: list) -> dict:
    """Dump the traced round to ``_out/trace-<workload>.json``; returns the
    per-layer self seconds summed over lanes."""
    self_s: dict = {}
    for tracer in tracers:
        for name, seconds in tracer.self_times().items():
            self_s[name] = self_s.get(name, 0.0) + seconds
    OUT.mkdir(exist_ok=True)
    payload = {
        "workload": workload,
        "seed": seed,
        "round_wall_s": wall_s,
        "lanes": len(tracers),
        "self_s": self_s,
        # lanes run concurrently, so self times sum to wall x lanes
        "coverage": sum(self_s.values()) / (wall_s * len(tracers)),
        "spans": [row for lane, t in enumerate(tracers) for row in t.to_rows(lane)],
    }
    (OUT / f"trace-{workload}.json").write_text(json.dumps(payload))
    return self_s


# -- scratch space, corpus, index helpers --------------------------------------


def make_scratch() -> Path:
    """Scratch root inside the checkout (the driver forbids writes elsewhere)."""
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=OUT))


def remove_tree(path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class Env:
    """What a workload is given: the seed, the size divisor, a scratch dir."""

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self._dirs = 0

    def size(self, n: int) -> int:
        return max(1, n // 10) if self.smoke else n

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{stem}-{self._dirs}"
        path.mkdir()
        return path

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.seed}/{stream}")


class Corpus:
    """Seeded generated corpus files; the program only ever sees these."""

    def __init__(self, env: Env, n_dblp: int, n_xmark: int) -> None:
        self.seed = env.seed
        self.n_dblp = n_dblp
        self.n_xmark = n_xmark
        self.dir = env.fresh_dir("corpus")
        self.files: list = []  # (path, record labels)
        if n_dblp:
            path = self.dir / "dblp.xml"
            dblp.write_corpus(path, n_dblp, dblp.DblpConfig(seed=self.seed))
            self.files.append((path, list(dblp.RECORD_LABELS)))
        if n_xmark:
            path = self.dir / "xmark.xml"
            xmark.write_corpus(
                path, n_xmark, xmark.XmarkConfig(seed=self.seed, **XMARK_RATES)
            )
            self.files.append((path, list(xmark.RECORD_LABELS)))
        self.bytes = sum(path.stat().st_size for path, _ in self.files)

    def __len__(self) -> int:
        return self.n_dblp + self.n_xmark

    def records(self) -> list:
        """The original record trees, in ingest (= doc id) order."""
        out = list(dblp.DblpGenerator(dblp.DblpConfig(seed=self.seed)).records(self.n_dblp))
        out += xmark.XmarkGenerator(
            xmark.XmarkConfig(seed=self.seed, **XMARK_RATES)
        ).records(self.n_xmark)
        return out

    def stream(self):
        """Every record off disk, as ``repro ingest --no-spine`` reads them."""
        for path, labels in self.files:
            yield from iter_stream_records(path, labels, keep_spine=False)


def close_index(index) -> None:
    """What ``repro``'s commands do when they are done with an index."""
    index.flush()
    index.close()
    index.docstore.close()
    if index.source_store is not None:
        index.source_store.close()


def ingest(dbdir: Path, corpus: Corpus) -> int:
    """The ``repro ingest`` configuration: WAL, streamed records, one
    durable commit per batch.  Returns the document count."""
    index = open_index(dbdir, wal=True)
    try:
        ids = index.add_batch(corpus.stream(), batch_size=BATCH_SIZE, durability="batch")
    finally:
        close_index(index)
    return len(ids)


# -- answers ---------------------------------------------------------------------


class Checker:
    """Counts every checked operation; a wrong answer, an exception and a
    refused or missing reply all count as failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failures: list = []

    def check(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(str(what)[:300])


def expected_answers(records: list, xpaths: list, hasher) -> dict:
    """Reference doc-id lists, judged on the original trees only.

    ``reference_results`` is the judge.  To keep it affordable it is only
    shown the records that could match: one rooted at the query's first
    label when that is a concrete step, and holding somewhere every
    literal the query compares with ``=`` (under the hasher the reference
    itself compares with).
    """
    by_root: dict = {}
    holding: dict = {}  # hashed literal -> positions of the records holding it
    hashed: dict = {}
    for position, record in enumerate(records):
        by_root.setdefault(record.label, set()).add(position)
        for node in record.preorder():
            for text in (node.text, *node.attributes.values()):
                if text and text.strip():
                    if text not in hashed:
                        hashed[text] = hasher(text)
                    holding.setdefault(hashed[text], set()).add(position)
    out = {}
    for xpath in xpaths:
        root = parse_xpath(xpath)
        possible = by_root.get(root.label, set())
        if root.is_wildcard:
            possible = set(range(len(records)))
        for node in root.preorder():
            if node.value is not None and node.op == "=":
                possible = possible & holding.get(hasher(node.value), set())
        positions = sorted(possible)
        hits = reference_results([records[p] for p in positions], root, hasher)
        out[xpath] = [positions[i] for i in hits]
    return out


def ops_digest(ops) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True, default=str).encode()).hexdigest()[:16]

"""Experiment harness: corpus builders, timing, and paper-style reports.

Each benchmark module reproduces one table or figure of the paper's
Section 4.  The harness centralises what they share: building the
corpora, loading each index type, timing query batches, and printing the
measured rows/series next to the paper's own numbers so the *shape*
comparison (who wins, by what factor) is one glance away.

Reports are printed to stdout and appended to
``benchmarks/_results/<experiment>.txt`` so a full benchmark run leaves a
reviewable transcript behind (EXPERIMENTS.md records one such snapshot).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.baselines.apex import ApexIndex
from repro.baselines.nodeindex import XissIndex
from repro.baselines.pathindex import PathIndex
from repro.index.naive import NaiveIndex
from repro.index.rist import RistIndex
from repro.index.vist import VistIndex
from repro.sequence.transform import SequenceEncoder

__all__ = [
    "INDEX_KINDS",
    "build_index",
    "time_call",
    "time_queries",
    "parallel_throughput",
    "sharded_throughput",
    "Report",
    "bench_json_path",
    "metrics_snapshot",
    "write_bench_json",
    "read_bench_json",
]

INDEX_KINDS = ("vist", "rist", "naive", "path", "xiss", "apex")

_FACTORIES = {
    "vist": VistIndex,
    "rist": RistIndex,
    "naive": NaiveIndex,
    "path": PathIndex,
    "xiss": XissIndex,
    "apex": ApexIndex,
}


def build_index(kind: str, documents: Iterable, schema=None, **kwargs):
    """Build an index of the given kind over ``documents``.

    ``kind`` is one of :data:`INDEX_KINDS`.  ViST/RIST default to
    refcount-free ingestion here (benchmarks measure the paper's
    configuration; deletion benchmarks opt back in).
    """
    encoder = SequenceEncoder(schema=schema)
    factory = _FACTORIES[kind]
    if kind == "vist":
        kwargs.setdefault("track_refs", False)
    index = factory(encoder, **kwargs)
    for doc in documents:
        index.add(doc)
    if kind == "rist":
        index.finalize()
    return index


def time_call(fn: Callable[[], object]) -> tuple[float, object]:
    """Wall-clock one call; returns ``(seconds, result)``."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def time_queries(index, queries: Sequence, repeats: int = 1) -> float:
    """Total seconds to run every query ``repeats`` times."""
    start = time.perf_counter()
    for _ in range(repeats):
        for query in queries:
            index.query(query)
    return time.perf_counter() - start


def parallel_throughput(
    index,
    queries: Sequence,
    threads: int = 4,
    repeats: int = 1,
    verify: bool = False,
) -> dict:
    """Single-thread vs N-thread throughput over one shared index.

    Runs the workload once sequentially and once through a
    :class:`~repro.exec.QueryExecutor`, and returns a dict suitable for
    embedding in a ``BENCH_<name>.json`` payload.  ``errors`` counts
    outcomes whose query raised; with the CPython GIL and this repo's
    pure-Python matcher the speedup is bounded by how much of the work
    releases the interpreter lock, so treat the number as a concurrency
    smoke signal, not a scalability claim.
    """
    from repro.exec import QueryExecutor

    workload = [query for _ in range(repeats) for query in queries]
    single_seconds = time_queries(index, queries, repeats=repeats)
    with QueryExecutor(index, threads=threads, verify=verify) as executor:
        start = time.perf_counter()
        outcomes = executor.run(workload)
        parallel_seconds = time.perf_counter() - start
    errors = sum(1 for outcome in outcomes if not outcome.ok)
    return {
        "threads": threads,
        "queries": len(workload),
        "single_thread_seconds": single_seconds,
        "parallel_seconds": parallel_seconds,
        "single_thread_qps": len(workload) / single_seconds if single_seconds else 0.0,
        "parallel_qps": len(workload) / parallel_seconds if parallel_seconds else 0.0,
        "speedup": single_seconds / parallel_seconds if parallel_seconds else 0.0,
        "errors": errors,
    }


def sharded_throughput(
    documents: Sequence,
    queries: Sequence,
    workers_list: Sequence[int] = (1, 2, 4),
    repeats: int = 1,
    verify: bool = False,
    tmpdir: Optional[str] = None,
) -> dict:
    """Multi-process scatter-gather throughput at several shard counts.

    For each entry of ``workers_list`` the documents are hash-routed into
    a fresh on-disk database with that many shards, one worker *process*
    per shard is spawned (:class:`~repro.shard.ShardedExecutor`), and the
    whole workload is pipelined through the scatter-gather path.  The
    baseline is the same on-disk corpus in a single directory queried
    sequentially in-process — so ``speedup`` is process-parallelism
    against one process, disk format and matcher identical.

    ``cpu_count`` is recorded because it bounds everything: W workers on
    fewer than W cores time-slice instead of scaling, so judge the
    speedup column against the cores that were actually available.
    """
    import shutil
    import tempfile

    from repro.shard import ShardRouter, ShardedExecutor

    workload = [query for _ in range(repeats) for query in queries]
    root = tempfile.mkdtemp(prefix="repro-shardbench-", dir=tmpdir)
    out: dict = {
        "cpu_count": os.cpu_count(),
        "queries": len(workload),
        "workers": [],
    }
    try:
        base = os.path.join(root, "base")
        with ShardRouter(base, 1) as router:
            for doc in documents:
                router.add(doc)
        with ShardRouter(base) as router:
            for query in queries:  # warm the caches like the timed loop will
                router.query(query, verify=verify)
            start = time.perf_counter()
            for query in workload:
                router.query(query, verify=verify)
            single_seconds = time.perf_counter() - start
        out["single_process_seconds"] = single_seconds
        out["single_process_qps"] = (
            len(workload) / single_seconds if single_seconds else 0.0
        )
        for workers in workers_list:
            dbdir = os.path.join(root, f"w{workers}")
            with ShardRouter(dbdir, workers) as router:
                for doc in documents:
                    router.add(doc)
            with ShardedExecutor(dbdir, workers=workers, verify=verify) as executor:
                for outcome in executor.run(list(queries)):  # warm workers
                    pass
                start = time.perf_counter()
                # submit everything before collecting anything: requests
                # pipeline across every worker at once, which is the point
                futures = [
                    executor.submit(query, i) for i, query in enumerate(workload)
                ]
                outcomes = [future.result() for future in futures]
                seconds = time.perf_counter() - start
            errors = sum(1 for outcome in outcomes if not outcome.ok)
            out["workers"].append({
                "workers": workers,
                "seconds": seconds,
                "qps": len(workload) / seconds if seconds else 0.0,
                "speedup": single_seconds / seconds if seconds else 0.0,
                "errors": errors,
            })
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


@dataclass
class Report:
    """Collects measured rows for one experiment and prints/saves them.

    ``bar_column`` (an index into ``headers``) appends an ASCII bar chart
    column scaled to the column's maximum — the figure benchmarks use it
    so the curve shape is visible straight from the terminal.
    """

    experiment: str
    title: str
    headers: Sequence[str]
    paper_note: str = ""
    bar_column: Optional[int] = None
    rows: list[Sequence] = field(default_factory=list)

    _BAR_WIDTH = 24

    def add(self, *row) -> None:
        self.rows.append(row)

    def render(self) -> str:
        headers = list(self.headers)
        rows = [list(r) for r in self.rows]
        if self.bar_column is not None and rows:
            values = [float(r[self.bar_column]) for r in rows]
            top = max(values) or 1.0
            headers.append("")
            for r, v in zip(rows, values):
                r.append("▌" * max(1, round(self._BAR_WIDTH * v / top)))
        widths = [
            max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        if self.paper_note:
            lines.append(f"   paper: {self.paper_note}")
        lines.append("   " + "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
        for row in rows:
            lines.append(
                "   " + "  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths))
            )
        return "\n".join(lines)

    def emit(self, directory: Optional[str] = None) -> None:
        """Print the table and persist it under ``benchmarks/_results``."""
        text = self.render()
        print("\n" + text)
        if directory is None:
            directory = os.path.join(os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__))))),
                "benchmarks", "_results")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.experiment}.txt")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text + "\n\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


# ----------------------------------------------------------------------
# machine-readable results (perf trajectory across PRs)


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))


def metrics_snapshot(index) -> Optional[dict]:
    """The index's full metrics-registry dump (see :mod:`repro.obs`).

    Benchmarks embed this in their ``BENCH_<name>.json`` payload so a
    headline regression can be attributed to a stage — range queries,
    cache hit rates, pager reads, tree shape — instead of re-profiling.
    Returns ``None`` for index objects without a registry.
    """
    registry = getattr(index, "metrics", None)
    return registry.snapshot() if registry is not None else None


def bench_json_path(name: str, directory: Optional[str] = None) -> str:
    """Path of the ``BENCH_<name>.json`` snapshot (repo root by default)."""
    return os.path.join(directory or _repo_root(), f"BENCH_{name}.json")


def write_bench_json(name: str, payload: dict, directory: Optional[str] = None) -> str:
    """Persist one benchmark's machine-readable results.

    ``payload`` carries per-query timings, MatchStats, and cache stats;
    a ``headline_seconds`` key is what the CI smoke job compares across
    commits (``benchmarks/check_regression.py``).  The file lands at the
    repo root as ``BENCH_<name>.json`` so the perf trajectory is tracked
    in version control PR over PR.
    """
    path = bench_json_path(name, directory)
    doc = {
        "experiment": name,
        **payload,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def read_bench_json(name: str, directory: Optional[str] = None) -> Optional[dict]:
    """Load a benchmark snapshot, or ``None`` if it was never written."""
    path = bench_json_path(name, directory)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)

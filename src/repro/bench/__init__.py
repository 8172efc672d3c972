"""Benchmark harness: index builders, timing, paper-style reports."""

from repro.bench.harness import INDEX_KINDS, Report, build_index, time_call
from repro.bench.workloads import TABLE3_QUERIES, Table3Query

__all__ = [
    "INDEX_KINDS",
    "build_index",
    "time_call",
    "Report",
    "TABLE3_QUERIES",
    "Table3Query",
]

"""Observability: the metrics registry and the per-query trace recorder.

Two complementary windows into a running index (docs/INTERNALS.md §10):

* :mod:`repro.obs.metrics` — process-lifetime aggregates.  A
  :class:`MetricsRegistry` unifies the counter bundles that used to live
  as ad-hoc stat objects on ``PostingCache``, ``SequenceMatcher`` and
  the B+Trees, adds true counters, gauges and bounded histograms
  (p50/p95/p99), and dumps the lot as one JSON document (``repro stats
  --json``, ``BENCH_*.json``).
* :mod:`repro.obs.trace` — per-query attribution.  A
  :class:`QueryTrace` records the evaluation as a tree of lightweight
  spans (translation, per-level frontier expansion, DocId output,
  verification, degraded fallback), each annotated with the counter
  *deltas* it consumed — page reads, cache hits, candidates — so a slow
  query names its slow stage (``repro query --explain``).

Overhead contract: all hot-path instrumentation is hoisted-local — the
live counters stay plain attribute increments exactly as before, the
registry only *reads* them at snapshot time, and span recording costs
one ``if trace is not None`` per frontier level (never per state or per
candidate).  With tracing off the query path is within noise of the
uninstrumented baseline (the bench smoke job enforces 2%).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricSet,
    MetricsRegistry,
)
from repro.obs.trace import QueryTrace, Span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSet",
    "MetricsRegistry",
    "QueryTrace",
    "Span",
]

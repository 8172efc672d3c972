"""Observability layer: metrics primitives, registry, query traces.

The contract under test is the one docs/INTERNALS.md section 10 states:
hot paths keep their plain attribute increments (``MetricSet`` only adds
a read-time ``snapshot``), the registry pulls sources lazily into one
JSON-ready dump, and a :class:`~repro.obs.QueryTrace` threaded through
``query()`` yields a per-stage span tree — while ``trace=None`` leaves
the evaluation path untouched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.doc.parser import parse_document
from repro.index.naive import NaiveIndex
from repro.index.rist import RistIndex
from repro.index.vist import VistIndex
from repro.obs import Counter, Gauge, Histogram, MetricSet, MetricsRegistry, QueryTrace


# ---------------------------------------------------------------------------
# primitives


class TestCounterGauge:
    def test_counter(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        counter.value += 2  # the hot-path form
        assert counter.snapshot() == 7

    def test_gauge(self):
        gauge = Gauge()
        gauge.set(3.5)
        assert gauge.snapshot() == 3.5
        gauge.set(1)
        assert gauge.snapshot() == 1


class TestHistogram:
    def test_exact_aggregates_and_percentiles(self):
        hist = Histogram()
        for v in range(1, 101):  # 1..100
            hist.observe(float(v))
        snap = hist.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == pytest.approx(5050.0)
        assert snap["min"] == 1.0 and snap["max"] == 100.0
        assert snap["mean"] == pytest.approx(50.5)
        # nearest-rank over 100 evenly spaced samples
        assert snap["p50"] == pytest.approx(50.0, abs=1.0)
        assert snap["p95"] == pytest.approx(95.0, abs=1.0)
        assert snap["p99"] == pytest.approx(99.0, abs=1.0)

    def test_empty_snapshot_is_all_none(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["p50"] is None and snap["mean"] is None

    def test_reservoir_rotates_but_totals_stay_exact(self):
        hist = Histogram(max_samples=4)
        for v in [1.0, 2.0, 3.0, 4.0]:
            hist.observe(v)
        # the next two overwrite the two oldest slots
        hist.observe(100.0)
        hist.observe(200.0)
        assert hist.count == 6
        assert hist.total == pytest.approx(310.0)
        assert hist.min == 1.0 and hist.max == 200.0
        assert sorted(hist._samples) == [3.0, 4.0, 100.0, 200.0]
        # percentiles describe the retained window only
        assert hist.percentile(100) == 200.0

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError):
            Histogram(max_samples=0)


@dataclass
class _SampleStats(MetricSet):
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class TestMetricSet:
    def test_snapshot_reads_fields_and_properties(self):
        stats = _SampleStats()
        stats.hits += 3
        stats.misses += 1
        assert stats.snapshot() == {"hits": 3, "misses": 1, "hit_rate": 0.75}

    def test_real_stat_bundles_are_metric_sets(self):
        from repro.index.matching import MatchStats
        from repro.index.postings import PostingCacheStats
        from repro.storage.bptree import TreeStats

        for cls in (MatchStats, PostingCacheStats):
            snap = cls().snapshot()
            assert snap and all(not k.startswith("_") for k in snap)
        assert "hit_rate" in PostingCacheStats().snapshot()
        tree = TreeStats(
            entries=4, height=1, leaf_pages=2, internal_pages=1,
            page_size=4096, used_bytes=100,
        ).snapshot()
        assert tree["total_pages"] == 3  # properties join the dump


# ---------------------------------------------------------------------------
# registry


class TestMetricsRegistry:
    def test_counter_is_create_or_return(self):
        registry = MetricsRegistry()
        a = registry.counter("x")
        a.inc()
        assert registry.counter("x") is a
        assert registry.snapshot() == {"x": 1}

    def test_type_conflict_is_loud(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_dotted_names_nest(self):
        registry = MetricsRegistry()
        registry.counter("pager.reads").inc(5)
        registry.register("pager.cache", lambda: {"hits": 1})
        registry.counter("queries").inc()
        snap = registry.snapshot()
        assert snap == {
            "pager": {"reads": 5, "cache": {"hits": 1}},
            "queries": 1,
        }

    def test_callable_and_metricset_sources(self):
        registry = MetricsRegistry()
        stats = _SampleStats(hits=2)
        registry.register("cache", stats)
        registry.register("depth", lambda: 7)
        snap = registry.snapshot()
        assert snap["cache"]["hits"] == 2
        assert snap["depth"] == 7

    def test_failing_source_does_not_abort_the_dump(self):
        registry = MetricsRegistry()
        registry.counter("good").inc()
        registry.register("bad", lambda: 1 / 0)
        snap = registry.snapshot()
        assert snap["good"] == 1
        assert snap["bad"].startswith("<error: ZeroDivisionError")

    def test_unregister(self):
        registry = MetricsRegistry()
        registry.register("x", lambda: 1)
        registry.unregister("x")
        registry.unregister("x")  # idempotent
        assert registry.names() == []
        assert registry.snapshot() == {}


# ---------------------------------------------------------------------------
# traces


class TestQueryTrace:
    def test_nesting_and_to_dict(self):
        trace = QueryTrace()
        outer = trace.begin("query", xpath="/a")
        inner = trace.begin("match", alt=0)
        trace.end(inner, candidates=3)
        trace.end(outer, results=1)
        tree = trace.to_dict()
        (root,) = tree["spans"]
        assert root["name"] == "query" and root["results"] == 1
        (child,) = root["children"]
        assert child["name"] == "match" and child["candidates"] == 3
        assert child["duration_ms"] <= root["duration_ms"]

    def test_end_closes_abandoned_children(self):
        """A guard exception can unwind past open spans; ending the
        parent must close them so durations stop accumulating."""
        trace = QueryTrace()
        outer = trace.begin("query")
        trace.begin("level 0")  # never explicitly ended
        trace.end(outer)
        assert outer.t1 is not None
        assert outer.children[0].t1 is not None
        # the stack is clean: the next span is a new root
        trace.begin("query2")
        assert len(trace.roots) == 2

    def test_span_context_manager(self):
        trace = QueryTrace()
        with trace.span("verify", candidates=2) as span:
            span.annotate(verified=1)
        (root,) = trace.roots
        assert root.meta == {"candidates": 2, "verified": 1}
        assert root.t1 is not None

    def test_render_shape(self):
        trace = QueryTrace()
        outer = trace.begin("query", xpath="/a/b")
        trace.end(trace.begin("translate"), alternatives=2)
        trace.end(trace.begin("match alt 0"), doc_ids=1)
        trace.end(outer)
        text = trace.render()
        lines = text.splitlines()
        assert lines[0].startswith("query [")
        assert "xpath=/a/b" in lines[0]
        assert lines[1].startswith("├─ translate [")
        assert lines[2].startswith("└─ match alt 0 [")


# ---------------------------------------------------------------------------
# traces + registry threaded through the indexes


def _tiny_index(cls):
    index = cls()
    for i in range(3):
        index.add(
            parse_document(
                f"<site><item><location>US</location><name>v{i}</name></item></site>"
            )
        )
    return index


@pytest.mark.parametrize("cls", [VistIndex, RistIndex, NaiveIndex])
def test_query_with_trace_matches_untraced_answer(cls):
    index = _tiny_index(cls)
    plain = index.query("/site//item[location='US']")
    trace = QueryTrace()
    traced = index.query("/site//item[location='US']", trace=trace)
    assert traced == plain == [0, 1, 2]
    (root,) = [s for s in trace.roots if s.name == "query"]
    names = [child.name for child in root.children]
    assert "translate" in names
    assert any(name.startswith("match alt") for name in names)
    assert root.meta["results"] == 3
    # the rendered tree round-trips to JSON via to_dict
    json.dumps(trace.to_dict())


def test_vist_trace_has_per_level_spans_with_page_accounting():
    index = _tiny_index(VistIndex)
    trace = QueryTrace()
    index.query("/site/item[location='US'][name]", trace=trace)
    levels = [
        span
        for root in trace.roots
        for alt in root.children
        for span in alt.children
        if span.name.startswith("level ")
    ]
    assert levels, "batched matcher produced no per-level spans"
    for span in levels:
        for key in (
            "item",
            "frontier_in",
            "frontier_out",
            "range_queries",
            "candidates",
            "page_reads",
        ):
            assert key in span.meta, f"{span.name} missing {key}"


@pytest.mark.parametrize("cls", [VistIndex, RistIndex, NaiveIndex])
def test_index_metrics_registry_dump(cls):
    index = _tiny_index(cls)
    index.query("/site//item")
    index.query("/site//item[location='US']")
    snap = index.metrics.snapshot()
    assert snap["queries"]["total"] == 2
    assert snap["queries"]["degraded"] == 0
    assert snap["queries"]["latency_ms"]["count"] == 2
    assert snap["health"]["status"] == "ok"
    json.dumps(snap)  # the whole dump must be JSON-ready


def test_vist_metrics_cover_storage_and_caches():
    index = _tiny_index(VistIndex)
    index.query("/site//item[location='US']")
    snap = index.metrics.snapshot()
    assert snap["match"]["range_queries"] > 0
    assert "hit_rate" in snap["postings"]
    assert snap["postings"]["groups"] >= 1
    assert "reads" in snap["pager"]
    assert set(snap["tree"]) == {"combined", "docid"}
    assert snap["tree"]["combined"]["entries"] > 0
    assert snap["tree"]["combined"]["total_pages"] >= 1


def test_degraded_query_is_counted(tmp_path):
    from repro.storage.docstore import FileDocStore
    from repro.storage.pager import page_offset
    from repro.storage.wal import WalPager

    index = VistIndex(
        pager=WalPager(tmp_path / "v.db"),
        docstore=FileDocStore(tmp_path / "d.dat"),
    )
    for i in range(4):
        index.add(parse_document(f"<a><b>x{i}</b></a>"))
    index.flush()
    index.close()
    index.docstore.close()
    npages = (tmp_path / "v.db").stat().st_size // page_offset(1, 4096)
    with open(tmp_path / "v.db", "r+b") as fh:
        offset = page_offset(npages - 1, 4096) + 80
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))
    reopened = VistIndex(
        pager=WalPager(tmp_path / "v.db"),
        docstore=FileDocStore(tmp_path / "d.dat"),
    )
    try:
        trace = QueryTrace()
        assert reopened.query("/a/b", verify=True, trace=trace) == [0, 1, 2, 3]
        snap = reopened.metrics.snapshot()
        if not reopened.health.ok:  # the corrupt page was on the query path
            assert snap["queries"]["degraded"] == 1
            spans = [s.name for root in trace.roots for s in root.children]
            assert "degraded-fallback" in spans
    finally:
        reopened.close()
        reopened.docstore.close()

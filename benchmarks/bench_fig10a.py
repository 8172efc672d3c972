"""Figure 10(a) — query processing time vs query length (synthetic).

Paper setup: N = 1,000,000 sequences of average length 30 (k=10, j=8);
random queries of length 2–12; "the query processing time shown in the
figure does not include the time spent in data output after each range
query on the DocId B+Tree".  Paper curve: time grows with query length,
from ≈0.3 s at length 2 to ≈4.5 s at length 12, "as longer queries
require larger amount of index traversals".

Scaled here to N = 6,000 sequences, timing the matching phase
(``final_scopes``) exactly as the paper does.  Expected shape: growth
with query length through length ≈ 10; at this corpus size (170× below
the paper's) random length-12 queries are often unsatisfiable and prune
early, so the last point can dip — EXPERIMENTS.md discusses the scale
effect.
"""

import pytest

from repro.bench.harness import Report, build_index, metrics_snapshot
from repro.datasets.synthetic import SyntheticConfig, SyntheticGenerator
from repro.index.matching import SequenceMatcher

N_DOCS = 6000
DOC_SIZE = 30
QUERY_LENGTHS = [2, 4, 6, 8, 10, 12]
QUERIES_PER_LENGTH = 16

REPORT = Report(
    experiment="fig10a",
    title=f"matching time vs query length (synthetic, N={N_DOCS}, L={DOC_SIZE})",
    headers=["query_length", "seconds_per_query", "range_queries", "final_nodes"],
    bar_column=1,
    paper_note="monotone growth: ~0.3s @ len 2 to ~4.5s @ len 12 (their scale)",
)

_lengths: dict[int, dict] = {}
_index_holder: list = []


@pytest.fixture(scope="module")
def setup():
    gen = SyntheticGenerator(SyntheticConfig(doc_size=DOC_SIZE, seed=10))
    docs = list(gen.documents(N_DOCS))
    index = build_index("vist", docs)
    _index_holder.append(index)
    batches = {}
    for length in QUERY_LENGTHS:
        queries = gen.queries(QUERIES_PER_LENGTH, size=length)
        batches[length] = [
            alt for q in queries for alt in index.translator.translate(q)
        ]
    return index, batches


@pytest.mark.parametrize("length", QUERY_LENGTHS)
def test_fig10a_query_length(benchmark, setup, length):
    index, batches = setup
    matcher = SequenceMatcher(index)
    batch = batches[length]
    results = benchmark.pedantic(
        lambda: [matcher.final_scopes(qseq) for qseq in batch],
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    per_query = benchmark.stats.stats.median / QUERIES_PER_LENGTH
    final_nodes = sum(len(r) for r in results)
    range_queries = batched_states = cache_hits = cache_misses = 0
    for qseq in batch:
        matcher.final_scopes(qseq)
        range_queries += matcher.stats.range_queries
        batched_states += matcher.stats.batched_states
        cache_hits += matcher.stats.cache_hits
        cache_misses += matcher.stats.cache_misses
    REPORT.add(length, per_query, range_queries // QUERIES_PER_LENGTH, final_nodes)
    _lengths[length] = {
        "seconds_per_query": per_query,
        "range_queries": range_queries,
        "batched_states": batched_states,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "final_nodes": final_nodes,
    }


def bench_json_payload():
    """Machine-readable Figure 10(a) results (written by conftest teardown)."""
    if not _lengths:
        return None
    payload = {
        "config": {
            "n_docs": N_DOCS,
            "doc_size": DOC_SIZE,
            "queries_per_length": QUERIES_PER_LENGTH,
        },
        "lengths": {str(k): v for k, v in sorted(_lengths.items())},
        "headline_seconds": sum(v["seconds_per_query"] for v in _lengths.values()),
        "cache_stats": _index_holder[0].cache_stats() if _index_holder else None,
        "metrics": metrics_snapshot(_index_holder[0]) if _index_holder else None,
    }
    return "fig10a", payload

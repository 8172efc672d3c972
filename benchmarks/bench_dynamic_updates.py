"""Ablation A-D — the cost of being dynamic (ViST) vs static (RIST).

The paper's headline claim is that ViST "supports dynamic index update"
while static-labelled designs do not, but it never *prices* that
difference.  This bench does: incremental insertion into a live ViST
index vs the full rebuild RIST needs to absorb the same batch, plus
ViST deletion and query-under-churn behaviour.

Expected: appending a small batch to ViST costs a fraction of a RIST
rebuild (and the gap widens with corpus size); deletion costs are the
same order as insertion; query results stay exact under churn.
"""

import pytest

from repro.bench.harness import Report, build_index
from repro.datasets.dblp import DblpConfig, DblpGenerator

BASE_SIZE = 1200
BATCH_SIZE = 100

REPORT = Report(
    experiment="dynamic_updates",
    title=f"absorbing a {BATCH_SIZE}-record batch into a {BASE_SIZE}-record index",
    headers=["operation", "seconds", "sec_per_record"],
    paper_note="(ablation) ViST inserts incrementally; RIST must rebuild",
)


@pytest.fixture(scope="module")
def records():
    gen = DblpGenerator(DblpConfig(seed=21))
    return list(gen.records(BASE_SIZE + 2 * BATCH_SIZE))


def test_vist_incremental_insert(benchmark, records):
    index = build_index("vist", records[:BASE_SIZE])
    batch = records[BASE_SIZE : BASE_SIZE + BATCH_SIZE]

    def insert_batch():
        return [index.add(record) for record in batch]

    benchmark.pedantic(insert_batch, rounds=1, iterations=1)
    seconds = benchmark.stats.stats.median
    REPORT.add("vist incremental insert", seconds, seconds / BATCH_SIZE)
    assert len(index) == BASE_SIZE + BATCH_SIZE


def test_rist_full_rebuild(benchmark, records):

    def rebuild():
        return build_index("rist", records[: BASE_SIZE + BATCH_SIZE])

    benchmark.pedantic(rebuild, rounds=1, iterations=1)
    seconds = benchmark.stats.stats.median
    REPORT.add("rist full rebuild", seconds, seconds / BATCH_SIZE)


def test_vist_deletion(benchmark, records):
    index = build_index("vist", records[:BASE_SIZE])
    victims = list(range(BATCH_SIZE))

    def delete_batch():
        for doc_id in victims:
            index.remove(doc_id)

    benchmark.pedantic(delete_batch, rounds=1, iterations=1)
    seconds = benchmark.stats.stats.median
    REPORT.add("vist deletion", seconds, seconds / BATCH_SIZE)
    assert len(index) == BASE_SIZE - BATCH_SIZE


def test_query_under_churn(benchmark, records):
    """Interleave inserts, deletes and queries; results stay consistent."""
    index = build_index("vist", records[:BASE_SIZE])
    churn = records[BASE_SIZE : BASE_SIZE + BATCH_SIZE]
    expr = "//author[text='David']"

    def churn_round():
        added = [index.add(record) for record in churn]
        mid = index.query(expr)
        for doc_id in added:
            index.remove(doc_id)
        return mid

    baseline = index.query(expr)
    benchmark.pedantic(churn_round, rounds=1, iterations=1)
    seconds = benchmark.stats.stats.median
    assert index.query(expr) == baseline  # back to the starting state
    REPORT.add("insert+query+delete round", seconds, seconds / BATCH_SIZE)

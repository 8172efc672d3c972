"""Table 4 — the eight Table 3 queries: ViST vs Index Fabric vs XISS.

Paper result (seconds on their testbed):

    =====  =========  ============  =====
    query  RIST/ViST  Index Fabric  XISS
    =====  =========  ============  =====
    Q1     1.2        0.8           10.1
    Q2     2.3        4.8           54.6
    Q3     1.7        24.8          36.8
    Q4     1.7        23.3          30.2
    Q5     1.6        6.7           19.8
    Q6     3.7        18.0          22.4
    Q7     2.5        37.2          27.6
    Q8     4.1        49.3          48.2
    =====  =========  ============  =====

Expected shape here: the path index ties ViST on the raw path Q1, then
falls behind on values (Q2), collapses on wildcards (Q3, Q4) and stays
behind on branching queries (Q5–Q8); the node index is slowest or close
to slowest throughout because everything is joins.
"""

import pytest

from repro.bench.harness import Report, build_index
from repro.bench.workloads import TABLE3_QUERIES
from repro.datasets.dblp import DblpConfig, DblpGenerator
from repro.datasets.xmark import XmarkConfig, XmarkGenerator

N_DBLP = 1500
N_XMARK = 1500
KINDS = ["vist", "path", "xiss", "apex"]

REPORT = Report(
    experiment="table4",
    title=f"query response time (s), {N_DBLP} DBLP + {N_XMARK} XMark records",
    headers=["query", "kind", "vist", "path(IndexFabric)", "xiss", "apex", "matches"],
    paper_note="ViST wins Q2-Q8; path index ties Q1, collapses on Q3/Q4; "
    "apex (length-2 paths) is an extra comparator beyond the paper",
)

_rows: dict[str, dict[str, float]] = {}
_matches: dict[str, int] = {}


@pytest.fixture(scope="module")
def corpora():
    dblp = DblpGenerator(DblpConfig(seed=1))
    # plant rates high enough that every query has matches at this scale
    xmark = XmarkGenerator(
        XmarkConfig(seed=1, target_date_rate=0.1, person1_rate=0.1)
    )
    docs = {
        "dblp": list(dblp.records(N_DBLP)),
        "xmark": list(xmark.records(N_XMARK)),
    }
    schemas = {"dblp": dblp.schema, "xmark": xmark.schema}
    return docs, schemas


@pytest.fixture(scope="module")
def indexes(corpora):
    docs, schemas = corpora
    out = {}
    for dataset in ("dblp", "xmark"):
        for kind in KINDS:
            out[dataset, kind] = build_index(kind, docs[dataset], schemas[dataset])
    return out


@pytest.mark.parametrize("query", TABLE3_QUERIES, ids=[q.qid for q in TABLE3_QUERIES])
@pytest.mark.parametrize("kind", KINDS)
def test_table4(benchmark, indexes, query, kind):
    index = indexes[query.dataset, kind]
    # warmup_rounds=1: the timed rounds measure steady-state latency (the
    # posting cache and translate cache resident), not first-touch load —
    # without it the 3-round median sits on the half-warm middle round
    result = benchmark.pedantic(
        lambda: index.query(query.xpath), rounds=3, iterations=1, warmup_rounds=1
    )
    _rows.setdefault(query.qid, {})[kind] = benchmark.stats.stats.median
    _matches[query.qid] = len(result)
    if len(_rows[query.qid]) == len(KINDS):
        row = _rows[query.qid]
        REPORT.add(
            query.qid,
            query.kind,
            row["vist"],
            row["path"],
            row["xiss"],
            row["apex"],
            _matches[query.qid],
        )

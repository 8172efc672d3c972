"""Ablation A-H — value-hash bucket count: size vs false positives.

Section 2 encodes attribute values "into integers" with a hash ``h()``
but never discusses its range.  Bucketing the hash shrinks every value
key in the index at the price of collisions — which surface as exactly
the kind of false positives the verification filter removes.  This
bench sweeps the bucket count on a DBLP-like corpus and reports index
size, raw-vs-verified answer counts for the Table 3 author query, and
the verification overhead.

Expected: monotone size/precision trade-off; with 64-bit hashes (no
buckets) the raw and verified answers coincide on value queries.
"""

import pytest

from repro.bench.harness import Report
from repro.datasets.dblp import DblpConfig, DblpGenerator
from repro.index.vist import VistIndex
from repro.sequence.transform import SequenceEncoder
from repro.sequence.vocabulary import ValueHasher

N_DOCS = 800
QUERY = "//author[text='David']"

REPORT = Report(
    experiment="ablation_hash",
    title=f"value-hash buckets: index size vs false positives (N={N_DOCS})",
    headers=["buckets", "index_kbytes", "raw_answers", "verified", "false_pos"],
    paper_note="(ablation) bucketing h() trades key size for collisions",
)

BUCKET_CHOICES = [64, 1024, 65536, None]


@pytest.fixture(scope="module")
def corpus():
    gen = DblpGenerator(DblpConfig(seed=17, david_rate=0.02))
    records = list(gen.records(N_DOCS))
    # ground truth from a full-width-hash index (verified mode): hash
    # collisions are invisible to *bucketed* verification because only
    # hashes are stored, so truth needs the collision-free configuration
    exact = VistIndex(SequenceEncoder())
    for record in records:
        exact.add(record)
    truth = set(exact.query(QUERY, verify=True))
    return records, truth


@pytest.mark.parametrize("buckets", BUCKET_CHOICES, ids=lambda b: str(b))
def test_ablation_hash_buckets(benchmark, corpus, buckets):
    records, truth = corpus
    encoder = SequenceEncoder(hasher=ValueHasher(buckets=buckets))
    index = VistIndex(encoder)
    for record in records:
        index.add(record)

    raw = benchmark.pedantic(lambda: index.query(QUERY), rounds=2, iterations=1)
    verified = index.query(QUERY, verify=True)
    kbytes = sum(s.total_bytes for s in index.index_stats().values()) / 1024
    REPORT.add(
        str(buckets),
        round(kbytes),
        len(raw),
        len(verified),
        len(set(verified) - truth),
    )
    assert truth <= set(raw)  # never a false negative
    if buckets is None:
        assert set(verified) == truth

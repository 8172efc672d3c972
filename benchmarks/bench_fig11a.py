"""Figure 11(a) — index size: RIST vs ViST on DBLP and XMark (items).

Paper result: on DBLP (301 MB) RIST needs ≈ 250 MB of index while ViST
needs ≈ 180 MB; on XMark items (52 MB) ≈ 60 vs ≈ 45 MB.  RIST is larger
because it "maintains a suffix tree, which is of size O(NL) in the worst
case", while ViST's labelling is virtual.

Here we report B+Tree pages/bytes plus RIST's in-memory trie nodes
(costed at their Python object footprint) — the expected shape is
ViST < RIST on both corpora.
"""

import sys

import pytest

from repro.bench.harness import Report, build_index, time_call
from repro.datasets.dblp import DblpConfig, DblpGenerator
from repro.datasets.xmark import XmarkConfig, XmarkGenerator

N_DBLP = 1500
N_XMARK_ITEMS = 1000

REPORT = Report(
    experiment="fig11a",
    title="index size: RIST (B+Trees + trie) vs ViST (B+Trees only)",
    headers=["dataset", "kind", "btree_kbytes", "trie_kbytes", "total_kbytes"],
    paper_note="ViST smaller than RIST on both datasets (no materialised trie)",
)


def _corpus(name):
    if name == "dblp":
        return list(DblpGenerator(DblpConfig(seed=2)).records(N_DBLP))
    gen = XmarkGenerator(XmarkConfig(seed=2))
    return list(gen.records(N_XMARK_ITEMS, kind="item"))


def _trie_kbytes(index) -> float:
    """Approximate in-memory footprint of RIST's materialised trie."""
    if getattr(index, "trie", None) is None:
        return 0.0
    total = 0
    for node in index.trie.nodes():
        total += sys.getsizeof(node)
        total += sys.getsizeof(node.children)
        total += sys.getsizeof(node.item)
    return total / 1024


@pytest.mark.parametrize("dataset", ["dblp", "xmark_items"])
@pytest.mark.parametrize("kind", ["rist", "vist"])
def test_fig11a_index_size(benchmark, dataset, kind):
    docs = _corpus(dataset)
    _, index = time_call(lambda: build_index(kind, docs))
    benchmark.pedantic(lambda: index.index_stats(), rounds=1, iterations=1)
    stats = index.index_stats()
    btree_kb = sum(s.total_bytes for s in stats.values()) / 1024
    trie_kb = _trie_kbytes(index)
    REPORT.add(dataset, kind, round(btree_kb), round(trie_kb), round(btree_kb + trie_kb))

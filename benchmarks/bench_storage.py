"""Storage-substrate micro-benchmarks (not a paper experiment).

Quantifies the substrate choices DESIGN.md makes on behalf of the paper:
bottom-up bulk loading vs incremental insertion, and what a durable
commit through the journaled file pager adds to a bulk load.
"""

from repro.bench.harness import Report
from repro.storage.bptree import BPlusTree
from repro.storage.pager import MemoryPager
from repro.storage.wal import WalPager

N_ENTRIES = 20_000

REPORT = Report(
    experiment="storage",
    title=f"B+Tree substrate micro-benchmarks ({N_ENTRIES} entries)",
    headers=["case", "seconds", "pages"],
    paper_note="(substrate) bulk load beats inserts; WAL costs one journal write",
)


def entries():
    return [(f"key-{i:08d}".encode(), f"val-{i}".encode()) for i in range(N_ENTRIES)]


def test_incremental_insert(benchmark):
    data = entries()

    def build():
        tree = BPlusTree(MemoryPager())
        for k, v in data:
            tree.insert(k, v)
        return tree

    tree = benchmark.pedantic(build, rounds=1, iterations=1)
    REPORT.add("insert (memory)", benchmark.stats.stats.median, tree.stats().total_pages)


def test_bulk_load(benchmark):
    data = entries()

    def build():
        tree = BPlusTree(MemoryPager())
        tree.bulk_load(data)
        return tree

    tree = benchmark.pedantic(build, rounds=1, iterations=1)
    REPORT.add("bulk_load (memory)", benchmark.stats.stats.median, tree.stats().total_pages)
    assert len(tree) == N_ENTRIES


def test_durable_build(benchmark, tmp_path):
    data = entries()

    def build():
        pager = WalPager(tmp_path / f"{benchmark.name}.db")
        tree = BPlusTree(pager)
        tree.bulk_load(data)
        tree.checkpoint()
        pages = tree.stats().total_pages
        tree.close()
        pager.close()
        return pages

    pages = benchmark.pedantic(build, rounds=1, iterations=1)
    REPORT.add("bulk+checkpoint (wal)", benchmark.stats.stats.median, pages)

"""Bibliography search over a DBLP-like corpus — the Table 3 DBLP queries.

Generates a synthetic bibliography shaped like the paper's DBLP testbed,
indexes it with ViST *on disk*, and runs the five DBLP queries of Table 3
(single path, value predicates, ``*``, ``//``, and a branching
key-lookup).  Demonstrates file-backed persistence: the index and the
document store are reopened from disk before querying.

Run:  python examples/bibliography_search.py
"""

import tempfile
from pathlib import Path

from repro import (
    DblpConfig,
    DblpGenerator,
    FileDocStore,
    SequenceEncoder,
    VistIndex,
    WalPager,
)
from repro.datasets.dblp import MAIER_KEY

N_RECORDS = 400


def build(workdir: Path) -> None:
    generator = DblpGenerator(DblpConfig(seed=42, david_rate=0.03))
    index = VistIndex(
        SequenceEncoder(),
        docstore=FileDocStore(workdir / "docs.dat"),
        pager=WalPager(workdir / "vist.db"),
    )
    for record in generator.records(N_RECORDS):
        index.add(record)
    index.flush()
    index.close()
    index.docstore.close()
    print(f"built a {N_RECORDS}-record bibliography index in {workdir}")


def search(workdir: Path) -> None:
    index = VistIndex(
        SequenceEncoder(),
        docstore=FileDocStore(workdir / "docs.dat"),
        pager=WalPager(workdir / "vist.db"),
    )
    queries = [
        ("Q1 all inproceedings titles", "/inproceedings/title"),
        ("Q2 books by David", "/book/author[text='David']"),
        ("Q3 any record type by David", "/*/author[text='David']"),
        ("Q4 David at any depth", "//author[text='David']"),
        ("Q5 authors of the Maier book", f"/book[key='{MAIER_KEY}']/author"),
    ]
    for title, xpath in queries:
        result = index.query(xpath)
        preview = result[:8]
        more = f" (+{len(result) - len(preview)} more)" if len(result) > 8 else ""
        print(f"{title}\n    {xpath}\n    -> {len(result)} records: {preview}{more}")
    # show one matching record reconstructed from its stored sequence
    maier = index.query(f"/book[key='{MAIER_KEY}']/author")
    if maier:
        sequence = index.load_sequence(maier[0])
        print(f"\nstored sequence of doc {maier[0]} ({len(sequence)} items):")
        print("   ", sequence.preorder_string()[:100])
    index.close()
    index.docstore.close()


def main():
    with tempfile.TemporaryDirectory(prefix="vist-dblp-") as tmp:
        workdir = Path(tmp)
        build(workdir)
        search(workdir)


if __name__ == "__main__":
    main()

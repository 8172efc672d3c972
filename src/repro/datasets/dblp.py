"""DBLP-like bibliography corpus generator.

The paper benchmarks against the real DBLP dump (289,627 records, maximum
depth 6, average structure-encoded sequence length ≈ 31).  With no network
access we generate a schema-faithful corpus instead: the same record types
(``article``, ``inproceedings``, ``book``, ``incollection``, ``phdthesis``),
the same fields, Zipf-ish value distributions, and *planted targets* so
Table 3's DBLP queries (author ``'David'``, book key
``'books/bc/MaierW88'``) have non-empty, controlled answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.datasets.schema import ChildSpec, Occurs, Schema
from repro.doc.model import XmlNode
from repro.errors import DatasetError

__all__ = [
    "DblpConfig",
    "DblpGenerator",
    "dblp_schema",
    "write_corpus",
    "MAIER_KEY",
    "RECORD_LABELS",
]

MAIER_KEY = "books/bc/MaierW88"

_RECORD_TYPES = ["article", "inproceedings", "book", "incollection", "phdthesis"]
# record roots of a serialised corpus — pass to `repro ingest --split`
# (or iter_stream_records) to get one indexed record per publication
RECORD_LABELS = tuple(_RECORD_TYPES)
_RECORD_WEIGHTS = [40, 35, 10, 10, 5]

_FIRST_NAMES = [
    "David", "Michael", "Wei", "Haixun", "Sanghyun", "Philip", "Jennifer",
    "Rakesh", "Hector", "Serge", "Dan", "Divesh", "Mary", "Laura", "Jim",
]
_LAST_NAMES = [
    "Smith", "Wang", "Park", "Yu", "Fan", "Ullman", "Widom", "Agrawal",
    "Garcia-Molina", "Abiteboul", "Suciu", "Srivastava", "Maier", "Chen",
]
_TITLE_WORDS = [
    "indexing", "querying", "xml", "semistructured", "data", "dynamic",
    "structures", "trees", "sequences", "databases", "efficient", "adaptive",
    "mining", "streams", "optimization", "views", "joins", "paths", "graphs",
    "storage",
]
_JOURNALS = ["TODS", "VLDBJ", "TKDE", "SIGMOD-Record", "Computing-Surveys"]
_VENUES = ["SIGMOD", "VLDB", "ICDE", "EDBT", "PODS", "WebDB", "CIKM"]
_PUBLISHERS = ["Morgan-Kaufmann", "Springer", "ACM-Press", "Prentice-Hall"]
_SCHOOLS = ["Stanford", "Wisconsin", "POSTECH", "Columbia", "Maryland"]


def dblp_schema() -> Schema:
    """The corpus's element declarations; their statistics feed the A-λ
    clue comparator (the index reads no schema)."""
    schema = Schema("dblp")
    authors = ChildSpec("author", Occurs.PLUS, mean_repeats=2.0)
    common = [ChildSpec("key", is_attribute=True), authors, ChildSpec("title")]
    schema.element(
        "article",
        common + [ChildSpec("journal"), ChildSpec("year"), ChildSpec("pages", Occurs.OPT)],
    )
    schema.element(
        "inproceedings",
        common + [ChildSpec("booktitle"), ChildSpec("year"), ChildSpec("pages", Occurs.OPT)],
    )
    schema.element(
        "book",
        common + [ChildSpec("publisher"), ChildSpec("year"), ChildSpec("isbn", Occurs.OPT)],
    )
    schema.element(
        "incollection",
        common + [ChildSpec("booktitle"), ChildSpec("year"), ChildSpec("publisher", Occurs.OPT)],
    )
    schema.element(
        "phdthesis", common + [ChildSpec("school"), ChildSpec("year")]
    )
    for leaf, cardinality in [
        ("author", 400),
        ("title", 100_000),
        ("journal", 16),
        ("booktitle", 16),
        ("publisher", 8),
        ("school", 8),
        ("year", 40),
        ("pages", 2_000),
        ("isbn", 10_000),
        ("key", 1_000_000),
    ]:
        schema.element(leaf, has_text=True, value_cardinality=cardinality)
    return schema


def write_corpus(path, count: int, config: Optional["DblpConfig"] = None) -> int:
    """Module-level convenience for :meth:`DblpGenerator.write_corpus`."""
    return DblpGenerator(config).write_corpus(path, count)


@dataclass(frozen=True)
class DblpConfig:
    """Corpus shape parameters.

    ``david_rate`` controls the selectivity of Table 3's author queries;
    ``plant_targets`` guarantees the ``MAIER_KEY`` book exists.
    """

    seed: int = 0
    david_rate: float = 0.02
    plant_targets: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.david_rate <= 1.0:
            raise DatasetError("david_rate must be in [0, 1]")


class DblpGenerator:
    """Generates bibliography records (one record = one indexed document)."""

    def __init__(self, config: Optional[DblpConfig] = None) -> None:
        self.config = config if config is not None else DblpConfig()
        self._rng = random.Random(self.config.seed)
        self.schema = dblp_schema()
        # Zipf-ish weights over the title vocabulary
        self._title_weights = [1.0 / rank for rank in range(1, len(_TITLE_WORDS) + 1)]

    def records(self, count: int) -> Iterator[XmlNode]:
        """``count`` records; the planted Maier book is record 0."""
        start = 0
        if self.config.plant_targets and count > 0:
            yield self._maier_book()
            start = 1
        for i in range(start, count):
            yield self.record(i)

    def record(self, index: int) -> XmlNode:
        rng = self._rng
        rtype = rng.choices(_RECORD_TYPES, weights=_RECORD_WEIGHTS, k=1)[0]
        node = XmlNode(rtype, attributes={"key": f"{rtype}/x/{index}"})
        for _ in range(rng.choices([1, 2, 3], weights=[45, 40, 15], k=1)[0]):
            node.element("author", text=self._author())
        node.element("title", text=self._title())
        if rtype == "article":
            node.element("journal", text=rng.choice(_JOURNALS))
        elif rtype in ("inproceedings", "incollection"):
            node.element("booktitle", text=rng.choice(_VENUES))
        elif rtype == "book":
            node.element("publisher", text=rng.choice(_PUBLISHERS))
        elif rtype == "phdthesis":
            node.element("school", text=rng.choice(_SCHOOLS))
        node.element("year", text=str(rng.randint(1970, 2003)))
        if rtype != "phdthesis" and rng.random() < 0.6:
            lo = rng.randint(1, 800)
            node.element("pages", text=f"{lo}-{lo + rng.randint(2, 30)}")
        return node

    # -- value samplers -----------------------------------------------------

    def _author(self) -> str:
        rng = self._rng
        if rng.random() < self.config.david_rate:
            return "David"  # the Table 3 query target
        return f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}"

    def _title(self) -> str:
        rng = self._rng
        words = rng.choices(_TITLE_WORDS, weights=self._title_weights, k=rng.randint(3, 7))
        return " ".join(words)

    def write_corpus(self, path, count: int) -> int:
        """Stream a ``count``-record DBLP corpus to ``path`` as one XML file.

        Records are rendered and written one at a time — the corpus never
        exists in memory, so paper-size files (100MB+) cost O(record).
        The result round-trips through ``repro ingest PATH --split
        article,inproceedings,... --no-spine`` back into exactly the
        same records (``--no-spine`` drops the ``<dblp>`` wrapper).
        """
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
            fh.write("<dblp>\n")
            for record in self.records(count):
                fh.write(record.to_xml())
                fh.write("\n")
                written += 1
            fh.write("</dblp>\n")
        return written

    def _maier_book(self) -> XmlNode:
        node = XmlNode("book", attributes={"key": MAIER_KEY})
        node.element("author", text="David Maier")
        node.element("author", text="David")
        node.element("title", text="computing with logic")
        node.element("publisher", text="Morgan-Kaufmann")
        node.element("year", text="1988")
        return node

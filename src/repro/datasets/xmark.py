"""XMark-like auction-site corpus generator.

The paper indexes an XMark (scale 1.0) dataset by breaking its single
huge record "into a set of sub structures, including item (objects for
sale), person (buyers and sellers), open auction, closed auction, etc"
and indexing one structure-encoded sequence per instance.  This generator
produces those substructure records directly, each rooted at ``site`` so
Table 3's ``/site//...`` queries bind naturally:

* ``site/regions/<continent>/item`` — location, quantity, name, payment,
  and mail correspondence with dates;
* ``site/people/person`` — name, email, address (street, city, country);
* ``site/open_auctions/open_auction`` — initial price, bidders, itemref;
* ``site/closed_auctions/closed_auction`` — buyer/seller person refs,
  price, date, quantity, annotation.

The Table 3 query targets (location ``'US'``, date ``'12/15/1999'``,
city ``'Pocatello'``, person ``'person1'``) are planted at controlled
rates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.datasets.schema import ChildSpec, Occurs, Schema
from repro.doc.model import XmlNode
from repro.errors import DatasetError

__all__ = [
    "XmarkConfig",
    "XmarkGenerator",
    "xmark_schema",
    "write_corpus",
    "TARGET_DATE",
    "RECORD_LABELS",
]

TARGET_DATE = "12/15/1999"

# every substructure record is rooted at `site`; splitting a serialised
# corpus on it recovers the records exactly (one <site> wrapper each)
RECORD_LABELS = ("site",)

_CONTINENTS = ["africa", "asia", "australia", "europe", "namerica", "samerica"]
_COUNTRIES = ["US", "Germany", "Korea", "Japan", "France", "Brazil", "Canada"]
_CITIES = [
    "Pocatello", "Seattle", "Busan", "Berlin", "Lyon", "Osaka", "Toronto",
    "Denver", "Austin", "Recife",
]
_ITEM_WORDS = [
    "vintage", "rare", "gold", "silver", "antique", "mint", "boxed",
    "camera", "watch", "guitar", "lamp", "atlas", "stamp", "coin",
]
_PAYMENTS = ["Cash", "Check", "Creditcard", "Money-order"]


def xmark_schema() -> Schema:
    """The corpus's element declarations; their statistics feed the A-λ
    clue comparator (the index reads no schema)."""
    schema = Schema("site")
    schema.element(
        "site",
        [
            ChildSpec("regions", Occurs.OPT),
            ChildSpec("people", Occurs.OPT),
            ChildSpec("open_auctions", Occurs.OPT),
            ChildSpec("closed_auctions", Occurs.OPT),
        ],
    )
    schema.element("regions", [ChildSpec(c, Occurs.OPT) for c in _CONTINENTS])
    for continent in _CONTINENTS:
        schema.element(continent, [ChildSpec("item", Occurs.MANY)])
    schema.element(
        "item",
        [
            ChildSpec("id", is_attribute=True),
            ChildSpec("location"),
            ChildSpec("quantity"),
            ChildSpec("name"),
            ChildSpec("payment", Occurs.OPT),
            ChildSpec("mail", Occurs.MANY, mean_repeats=2.0),
        ],
    )
    schema.element(
        "mail", [ChildSpec("from"), ChildSpec("to"), ChildSpec("date")]
    )
    schema.element("people", [ChildSpec("person", Occurs.MANY)])
    # `person` is both the people substructure element and the buyer/seller
    # reference attribute (as in real XMark); has_text covers the latter.
    schema.element(
        "person",
        [
            ChildSpec("id", is_attribute=True),
            ChildSpec("name"),
            ChildSpec("emailaddress", Occurs.OPT),
            ChildSpec("phone", Occurs.OPT),
            ChildSpec("address", Occurs.OPT),
        ],
        has_text=True,
        value_cardinality=25_000,
    )
    schema.element(
        "address", [ChildSpec("street"), ChildSpec("city"), ChildSpec("country")]
    )
    schema.element("open_auctions", [ChildSpec("open_auction", Occurs.MANY)])
    schema.element(
        "open_auction",
        [
            ChildSpec("id", is_attribute=True),
            ChildSpec("initial"),
            ChildSpec("bidder", Occurs.MANY, mean_repeats=2.5),
            ChildSpec("current"),
            ChildSpec("itemref"),
        ],
    )
    schema.element("bidder", [ChildSpec("date"), ChildSpec("increase")])
    schema.element("closed_auctions", [ChildSpec("closed_auction", Occurs.MANY)])
    schema.element(
        "closed_auction",
        [
            ChildSpec("seller"),
            ChildSpec("buyer"),
            ChildSpec("itemref"),
            ChildSpec("price"),
            ChildSpec("date"),
            ChildSpec("quantity"),
            ChildSpec("annotation", Occurs.OPT),
        ],
    )
    schema.element("seller", [ChildSpec("person", is_attribute=True)])
    schema.element("buyer", [ChildSpec("person", is_attribute=True)])
    schema.element("annotation", [ChildSpec("author"), ChildSpec("description", Occurs.OPT)])
    for leaf, cardinality in [
        ("location", len(_COUNTRIES)),
        ("quantity", 10),
        ("name", 50_000),
        ("payment", len(_PAYMENTS)),
        ("from", 10_000),
        ("to", 10_000),
        ("date", 1_500),
        ("emailaddress", 10_000),
        ("phone", 10_000),
        ("street", 10_000),
        ("city", len(_CITIES)),
        ("country", len(_COUNTRIES)),
        ("initial", 1_000),
        ("current", 1_000),
        ("increase", 100),
        ("itemref", 50_000),
        ("price", 1_000),
        ("author", 10_000),
        ("description", 50_000),
        ("id", 1_000_000),
    ]:
        schema.element(leaf, has_text=True, value_cardinality=cardinality)
    return schema


def write_corpus(
    path,
    count: int,
    config: Optional["XmarkConfig"] = None,
    kind: Optional[str] = None,
) -> int:
    """Module-level convenience for :meth:`XmarkGenerator.write_corpus`."""
    return XmarkGenerator(config).write_corpus(path, count, kind=kind)


@dataclass(frozen=True)
class XmarkConfig:
    """Mix and selectivity parameters (rates of the Table 3 targets)."""

    seed: int = 0
    us_rate: float = 0.25
    target_date_rate: float = 0.02
    pocatello_rate: float = 0.05
    person1_rate: float = 0.01

    def __post_init__(self) -> None:
        for name in ("us_rate", "target_date_rate", "pocatello_rate", "person1_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise DatasetError(f"{name} must be in [0, 1], got {rate}")


class XmarkGenerator:
    """Generates substructure records in the paper's proportions."""

    KINDS = ["item", "person", "open_auction", "closed_auction"]
    KIND_WEIGHTS = [40, 30, 15, 15]

    def __init__(self, config: Optional[XmarkConfig] = None) -> None:
        self.config = config if config is not None else XmarkConfig()
        self._rng = random.Random(self.config.seed)
        self.schema = xmark_schema()

    def records(self, count: int, kind: Optional[str] = None) -> Iterator[XmlNode]:
        """``count`` substructure records (all kinds mixed, or one kind)."""
        for i in range(count):
            chosen = kind or self._rng.choices(self.KINDS, self.KIND_WEIGHTS, k=1)[0]
            yield self.record(chosen, i)

    def write_corpus(self, path, count: int, kind: Optional[str] = None) -> int:
        """Stream a ``count``-record XMark corpus to ``path``, one XML file.

        One `<site>` element per substructure record under a `<corpus>`
        wrapper, written record-by-record (O(record) memory at any
        corpus size).  Ingest it back with ``repro ingest PATH --split
        site --no-spine`` so the records root at ``site`` again and the
        Table 3 ``/site//...`` queries bind exactly as over the
        generator's records.
        """
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
            fh.write("<corpus>\n")
            for record in self.records(count, kind=kind):
                fh.write(record.to_xml())
                fh.write("\n")
                written += 1
            fh.write("</corpus>\n")
        return written

    def record(self, kind: str, index: int) -> XmlNode:
        if kind == "item":
            return self._item(index)
        if kind == "person":
            return self._person(index)
        if kind == "open_auction":
            return self._open_auction(index)
        if kind == "closed_auction":
            return self._closed_auction(index)
        raise DatasetError(f"unknown substructure kind {kind!r}")

    # -- substructures -----------------------------------------------------

    def _site(self, *chain: str) -> tuple[XmlNode, XmlNode]:
        root = XmlNode("site")
        node = root
        for label in chain:
            node = node.element(label)
        return root, node

    def _date(self) -> str:
        rng = self._rng
        if rng.random() < self.config.target_date_rate:
            return TARGET_DATE
        return f"{rng.randint(1, 12):02d}/{rng.randint(1, 28):02d}/{rng.randint(1998, 2001)}"

    def _person_ref(self) -> str:
        rng = self._rng
        if rng.random() < self.config.person1_rate:
            return "person1"
        return f"person{rng.randint(2, 20000)}"

    def _item(self, index: int) -> XmlNode:
        rng = self._rng
        root, parent = self._site("regions", rng.choice(_CONTINENTS))
        item = parent.element("item", id=f"item{index}")
        location = (
            "US" if rng.random() < self.config.us_rate else rng.choice(_COUNTRIES[1:])
        )
        item.element("location", text=location)
        item.element("quantity", text=str(rng.randint(1, 10)))
        item.element("name", text=" ".join(rng.choices(_ITEM_WORDS, k=3)))
        if rng.random() < 0.5:
            item.element("payment", text=rng.choice(_PAYMENTS))
        for _ in range(rng.choices([0, 1, 2, 3], weights=[30, 40, 20, 10], k=1)[0]):
            mail = item.element("mail")
            mail.element("from", text=f"user{rng.randint(1, 9999)}")
            mail.element("to", text=f"user{rng.randint(1, 9999)}")
            mail.element("date", text=self._date())
        return root

    def _person(self, index: int) -> XmlNode:
        rng = self._rng
        root, parent = self._site("people")
        person = parent.element("person", id=f"person{index}")
        person.element("name", text=f"user {rng.randint(1, 99999)}")
        if rng.random() < 0.7:
            person.element("emailaddress", text=f"mailto:u{rng.randint(1, 99999)}@x.net")
        if rng.random() < 0.4:
            person.element("phone", text=f"+{rng.randint(1, 99)} {rng.randint(1000000, 9999999)}")
        if rng.random() < 0.8:
            address = person.element("address")
            address.element("street", text=f"{rng.randint(1, 99)} main st")
            city = (
                "Pocatello"
                if rng.random() < self.config.pocatello_rate
                else rng.choice(_CITIES[1:])
            )
            address.element("city", text=city)
            address.element("country", text=rng.choice(_COUNTRIES))
        return root

    def _open_auction(self, index: int) -> XmlNode:
        rng = self._rng
        root, parent = self._site("open_auctions")
        auction = parent.element("open_auction", id=f"open_auction{index}")
        auction.element("initial", text=f"{rng.randint(1, 500)}.00")
        for _ in range(rng.choices([0, 1, 2, 3], weights=[20, 35, 30, 15], k=1)[0]):
            bidder = auction.element("bidder")
            bidder.element("date", text=self._date())
            bidder.element("increase", text=f"{rng.randint(1, 50)}.00")
        auction.element("current", text=f"{rng.randint(1, 999)}.00")
        auction.element("itemref", text=f"item{rng.randint(0, 99999)}")
        return root

    def _closed_auction(self, index: int) -> XmlNode:
        rng = self._rng
        root, parent = self._site("closed_auctions")
        auction = parent.element("closed_auction")
        auction.element("seller", person=self._person_ref())
        auction.element("buyer", person=self._person_ref())
        auction.element("itemref", text=f"item{rng.randint(0, 99999)}")
        auction.element("price", text=f"{rng.randint(1, 999)}.00")
        auction.element("date", text=self._date())
        auction.element("quantity", text=str(rng.randint(1, 5)))
        if rng.random() < 0.5:
            annotation = auction.element("annotation")
            annotation.element("author", text=self._person_ref())
            if rng.random() < 0.5:
                annotation.element("description", text="happy with the deal")
        return root

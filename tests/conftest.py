"""Shared fixtures: the paper's running example and index factories."""

import pytest

from repro.doc.model import XmlNode
from repro.errors import StorageError
from repro.index.naive import NaiveIndex
from repro.index.rist import RistIndex
from repro.index.vist import VistIndex
from repro.sequence.transform import SequenceEncoder
from repro.storage.docstore import MemoryDocStore


class ExplodingStore(MemoryDocStore):
    """MemoryDocStore whose add raises once, when ``fail_at`` adds have
    succeeded."""

    def __init__(self, fail_at):
        super().__init__()
        self.fail_at = fail_at
        self.adds = 0

    def add(self, payload):
        if self.adds == self.fail_at:
            self.fail_at = None
            raise StorageError("simulated store failure")
        self.adds += 1
        return super().add(payload)


def build_figure3_record() -> XmlNode:
    """The purchase record of paper Figure 3."""
    p = XmlNode("P")
    s = p.element("S")
    s.element("N", text="dell")
    i1 = s.element("I")
    i1.element("M", text="ibm")
    i1.element("N", text="part#1")
    i2 = i1.element("I")
    i2.element("M", text="part#2")
    s.element("I").element("N", text="intel")
    s.element("L", text="boston")
    b = p.element("B")
    b.element("L", text="newyork")
    b.element("N", text="panasia")
    return p


def build_record(seller_loc: str, buyer_loc: str, manufacturers: list[str]) -> XmlNode:
    """A purchase record with configurable locations and item makers."""
    p = XmlNode("P")
    s = p.element("S")
    s.element("N", text=f"seller-of-{seller_loc}")
    for maker in manufacturers:
        item = s.element("I")
        item.element("M", text=maker)
    s.element("L", text=seller_loc)
    b = p.element("B")
    b.element("L", text=buyer_loc)
    b.element("N", text=f"buyer-of-{buyer_loc}")
    return p


INDEX_FACTORIES = {
    "naive": lambda encoder: NaiveIndex(encoder),
    "rist": lambda encoder: RistIndex(encoder),
    "vist": lambda encoder: VistIndex(encoder),
}


@pytest.fixture
def purchase_encoder():
    return SequenceEncoder()


@pytest.fixture(params=sorted(INDEX_FACTORIES))
def any_index(request, purchase_encoder):
    """Each paper index, loaded with the same small purchase corpus."""
    index = INDEX_FACTORIES[request.param](purchase_encoder)
    return index

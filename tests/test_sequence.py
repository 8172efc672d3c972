"""Tests for structure-encoded sequences: the paper's Figure 4 example,
item key ordering, payload codecs, and transform properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.doc.model import XmlNode
from repro.errors import CodecError
from repro.index.verification import rebuild_tree
from repro.sequence.encoding import (
    Item,
    StructureEncodedSequence,
    item_key,
    item_key_prefix,
)
from repro.sequence.transform import SequenceEncoder
from repro.sequence.vocabulary import ValueHasher, fnv1a_64


# -- Hypothesis strategy: real recursive XML trees ---------------------------

def _make_node(label, text, attributes, children):
    node = XmlNode(label, attributes=dict(attributes), text=text)
    for child in children:
        node.add(child)
    return node


_labels = st.sampled_from(["a", "b", "c", "d"])
_texts = st.one_of(st.none(), st.sampled_from(["u", "v", "7", "part#1", ""]))
_attrs = st.dictionaries(
    st.sampled_from(["id", "k"]), st.sampled_from(["x", "9"]), max_size=2
)

xml_trees = st.recursive(
    st.builds(_make_node, _labels, _texts, _attrs, st.just([])),
    lambda kids: st.builds(
        _make_node, _labels, _texts, _attrs, st.lists(kids, min_size=1, max_size=3)
    ),
    max_leaves=12,
)


def figure3_tree() -> XmlNode:
    """The single purchase record of paper Figure 3 (one-letter labels)."""
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


class TestValueHasher:
    def test_deterministic(self):
        h = ValueHasher()
        assert h("boston") == h("boston")
        assert h("boston") == h(" boston ")  # whitespace-insensitive

    def test_distinct_values_differ(self):
        h = ValueHasher()
        assert h("boston") != h("newyork")

    def test_buckets(self):
        h = ValueHasher(buckets=10)
        assert 0 <= h("anything") < 10

    def test_bucket_validation(self):
        with pytest.raises(CodecError):
            ValueHasher(buckets=0)

    def test_fnv_known_vector(self):
        # FNV-1a 64 of empty input is the offset basis.
        assert fnv1a_64(b"") == 0xCBF29CE484222325


class TestFigure4:
    """The headline example: Figure 3's record encodes to Figure 4's D."""

    def test_exact_sequence(self):
        # Figure 4 spells D in the drawing's sibling order; with no DTD
        # the paper sorts siblings by label (Section 2), which is this
        # build's only order: B before S under P, I before L before N
        # under S, the two I's in document order.
        encoder = SequenceEncoder()
        h = encoder.hasher
        got = encoder.encode_node(figure3_tree())
        expected = [
            ("P", ()),
            ("B", ("P",)),
            ("L", ("P", "B")),
            (h("newyork"), ("P", "B", "L")),
            ("N", ("P", "B")),
            (h("panasia"), ("P", "B", "N")),
            ("S", ("P",)),
            ("I", ("P", "S")),
            ("I", ("P", "S", "I")),
            ("M", ("P", "S", "I", "I")),
            (h("part#2"), ("P", "S", "I", "I", "M")),
            ("M", ("P", "S", "I")),
            (h("ibm"), ("P", "S", "I", "M")),
            ("N", ("P", "S", "I")),
            (h("part#1"), ("P", "S", "I", "N")),
            ("I", ("P", "S")),
            ("N", ("P", "S", "I")),
            (h("intel"), ("P", "S", "I", "N")),
            ("L", ("P", "S")),
            (h("boston"), ("P", "S", "L")),
            ("N", ("P", "S")),
            (h("dell"), ("P", "S", "N")),
        ]
        assert [(i.symbol, i.prefix) for i in got] == expected

    def test_lexicographic_fallback_order(self):
        # siblings sort by label: B before S under P
        encoder = SequenceEncoder()
        got = encoder.encode_node(figure3_tree())
        labels = [i.symbol for i in got if not i.is_value]
        assert labels[0] == "P"
        assert labels[1] == "B"  # Buyer precedes Seller lexicographically

    def test_value_follows_its_node(self):
        encoder = SequenceEncoder()
        got = list(encoder.encode_node(figure3_tree()))
        for i, item in enumerate(got):
            if item.is_value:
                prev = got[i - 1]
                # a value's prefix ends with the label it belongs to
                assert item.prefix[-1] == prev.symbol or got[i - 1].is_value


class TestItemProperties:
    def test_depth_and_is_value(self):
        item = Item("S", ("P",))
        assert item.depth == 1
        assert not item.is_value
        assert Item(42, ("P", "S")).is_value

    def test_items_hashable_and_frozen(self):
        a = Item("S", ("P",))
        b = Item("S", ("P",))
        assert a == b
        assert len({a, b}) == 1
        with pytest.raises(Exception):
            a.symbol = "X"


class TestItemKeys:
    def test_order_symbol_then_length_then_content(self):
        """Section 3.3: keys ordered by symbol, then prefix length, then content."""
        keys = [
            item_key(Item("L", ("P",))),
            item_key(Item("L", ("P", "B"))),
            item_key(Item("L", ("P", "S"))),
            item_key(Item("L", ("P", "B", "X"))),
        ]
        assert keys == sorted(keys)
        # length dominates content: ("P","B","X") sorts after ("P","S")
        assert item_key(Item("L", ("P", "S"))) < item_key(Item("L", ("P", "B", "X")))

    def test_wildcard_range_covers_one_open_label(self):
        """(L, P*) == all keys with symbol L, prefix length 2, starting P."""
        lo = item_key_prefix("L", 2, ("P",))
        ps = item_key(Item("L", ("P", "S")))
        pb = item_key(Item("L", ("P", "B")))
        other_len = item_key(Item("L", ("P",)))
        assert ps.startswith(lo[: len(lo) - 0]) or lo < ps
        assert lo <= pb and lo <= ps
        assert not other_len.startswith(item_key_prefix("L", 2))
        assert pb.startswith(item_key_prefix("L", 2))
        assert ps.startswith(item_key_prefix("L", 2, ("P",)))

    def test_value_symbols_use_int_slot(self):
        k1 = item_key(Item(123, ("P", "S")))
        k2 = item_key(Item(124, ("P", "S")))
        assert k1 < k2


def _reference_from_bytes(data: bytes) -> list[Item]:
    """The payload decoder as it was before it went lean: one prefix tuple
    per item, replaying the label stack.  Kept as the test reference."""
    from repro.storage.serialization import decode_str, decode_uint

    count, offset = decode_uint(data)
    stack: list[str] = []
    items: list[Item] = []
    for _ in range(count):
        kind = data[offset]
        offset += 1
        if kind == 0x01:
            symbol, offset = decode_uint(data, offset)
        else:
            symbol, offset = decode_str(data, offset)
        depth, offset = decode_uint(data, offset)
        del stack[depth:]
        items.append(Item(symbol, tuple(stack)))
        if isinstance(symbol, str):
            stack.append(symbol)
    return items


class TestSequenceCodec:
    def test_roundtrip_figure4(self):
        encoder = SequenceEncoder()
        seq = encoder.encode_node(figure3_tree())
        assert StructureEncodedSequence.from_bytes(seq.to_bytes()) == seq

    def test_empty_roundtrip(self):
        seq = StructureEncodedSequence([])
        assert StructureEncodedSequence.from_bytes(seq.to_bytes()) == seq

    def test_rejects_trailing_garbage(self):
        seq = StructureEncodedSequence([Item("a", ())])
        with pytest.raises(CodecError):
            StructureEncodedSequence.from_bytes(seq.to_bytes() + b"x")

    def test_rejects_bad_depth(self):
        # depth 5 with an empty stack is not a valid preorder
        bad = b"\x01" + b"\x00" + b"a\x00\x00" + b"\x01\x05"
        with pytest.raises(CodecError):
            StructureEncodedSequence.from_bytes(bad)

    def test_rejects_every_malformed_payload(self):
        good = StructureEncodedSequence(
            [Item("a", ()), Item(7, ("a",)), Item("b", ("a",))]
        ).to_bytes()
        for cut in range(len(good)):  # truncation anywhere
            with pytest.raises(CodecError):
                StructureEncodedSequence.from_bytes(good[:cut])
        with pytest.raises(CodecError, match="trailing bytes"):
            StructureEncodedSequence.from_bytes(good + b"\x00")
        with pytest.raises(CodecError, match="bad symbol kind byte 0x2"):
            StructureEncodedSequence.from_bytes(b"\x01\x01" + b"\x02" + b"a\x00\x00" + b"\x00")
        # depth beyond the stack: a value leaf does not open a level ...
        value_then_deeper = b"\x01\x03" + b"\x00a\x00\x00\x00" + b"\x01\x01\x07\x01\x01"
        with pytest.raises(CodecError, match="depth 2 exceeds stack 1"):
            StructureEncodedSequence.from_bytes(value_then_deeper + b"\x00b\x00\x00\x01\x02")
        # ... and a drop to depth 0 closes every level above it
        with pytest.raises(CodecError, match="depth 2 exceeds stack 1"):
            StructureEncodedSequence.from_bytes(
                b"\x01\x04" + b"\x00a\x00\x00\x00" + b"\x00b\x00\x00\x01\x01"
                + b"\x00c\x00\x00\x00" + b"\x00d\x00\x00\x01\x02"
            )

    def test_immutability(self):
        seq = StructureEncodedSequence([Item("a", ())])
        with pytest.raises(AttributeError):
            seq.items = ()
        with pytest.raises(AttributeError):
            StructureEncodedSequence.from_bytes(seq.to_bytes()).items = ()

    @given(xml_trees)
    def test_property_decoder_equals_stack_replaying_reference(self, tree):
        """The lean decoder against the decoder it replaced (values, empty
        text, depth drops): same items, and the same ``(symbol, depth)``
        pairs whether a sequence was decoded or encoded."""
        seq = SequenceEncoder().encode_node(tree)
        decoded = StructureEncodedSequence.from_bytes(seq.to_bytes())
        assert decoded.symbol_depths() == seq.symbol_depths()
        assert list(decoded.items) == _reference_from_bytes(seq.to_bytes())
        assert decoded[len(decoded) - 1] == seq[len(seq) - 1] and hash(decoded) == hash(seq)

    @given(xml_trees)
    def test_property_roundtrip_random_trees(self, tree):
        """Random trees (text + attributes) encode and re-decode identically."""
        seq = SequenceEncoder().encode_node(tree)
        assert StructureEncodedSequence.from_bytes(seq.to_bytes()) == seq

    @given(xml_trees)
    def test_property_to_bytes_deterministic(self, tree):
        """Serialisation is a pure function of the sequence."""
        seq = SequenceEncoder().encode_node(tree)
        assert seq.to_bytes() == seq.to_bytes()
        assert seq.to_bytes() == StructureEncodedSequence.from_bytes(
            seq.to_bytes()
        ).to_bytes()


def _canonical_expanded(node: XmlNode, encoder: SequenceEncoder) -> tuple:
    """The expanded tree in the encoder's sibling order, values hashed."""
    if node.is_value:
        return ("value", encoder.hasher(node.value))
    ordered = sorted(enumerate(node.children), key=encoder.sibling_sort_key)
    return (
        "elem",
        node.label,
        tuple(_canonical_expanded(child, encoder) for _, child in ordered),
    )


def _canonical_rebuilt(node) -> tuple:
    """A :class:`SequenceTreeNode` subtree in its stored (sequence) order."""
    if node.is_value:
        return ("value", node.symbol)
    return (
        "elem",
        node.symbol,
        tuple(_canonical_rebuilt(child) for child in node.children),
    )


class TestTransformInvariants:
    @given(xml_trees)
    def test_preorder_prefix_invariant(self, tree):
        """Every item's prefix equals the label path of its ancestors."""
        seq = SequenceEncoder().encode_node(tree)
        stack: list[str] = []
        for item in seq:
            assert len(item.prefix) <= len(stack) or item.prefix == tuple(stack)
            del stack[len(item.prefix) :]
            assert item.prefix == tuple(stack)
            if not item.is_value:
                stack.append(item.symbol)

    @given(xml_trees)
    def test_full_pipeline_rebuilds_expanded_tree(self, tree):
        """doc → sequence → bytes → sequence → tree is lossless.

        The rebuilt tree must be label- and structure-identical to the
        expanded source tree (canonicalised to the encoder's sibling
        order; value leaves compare by hash, which is all the sequence
        stores).
        """
        encoder = SequenceEncoder()
        decoded = StructureEncodedSequence.from_bytes(
            encoder.encode_node(tree).to_bytes()
        )
        super_root = rebuild_tree(decoded)
        assert len(super_root.children) == 1
        assert _canonical_rebuilt(super_root.children[0]) == _canonical_expanded(
            tree.expanded(), encoder
        )

    @given(xml_trees)
    def test_sequence_length_equals_expanded_size(self, tree):
        seq = SequenceEncoder().encode_node(tree)
        assert len(seq) == tree.expanded().size()

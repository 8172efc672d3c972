"""Tests for the combined-tree key layout (D-Ancestor ordering, Section 3.3)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.index.store import (
    META_MAX_DEPTH_KEY,
    ROOT_KEY,
    decode_node_key,
    label_key,
    node_key,
)
from repro.storage.serialization import encode_tuple


class TestLabelKey:
    def test_equals_the_generic_tuple_codec(self):
        # 0, both sides of the small-uint table edge, past int64, a ViST root end
        for n in (0, 1, 255, 256, 2**14 - 1, 2**14, 2**14 + 1, 2**63, 2**255, 2**256 - 1):
            assert label_key(n) == encode_tuple((n,)), n

    @given(n=st.integers(0, 1 << 300))
    def test_property_equals_the_generic_tuple_codec(self, n):
        assert label_key(n) == encode_tuple((n,))

    def test_is_the_label_suffix_of_a_node_key(self):
        assert node_key("L", ("P",), 2**70).endswith(label_key(2**70))


class TestNodeKey:
    def test_roundtrip(self):
        key = node_key("L", ("P", "S"), 42)
        assert decode_node_key(key) == ("L", ("P", "S"), 42)

    def test_roundtrip_value_symbol(self):
        key = node_key(0xDEADBEEF, ("P", "S", "N"), 7)
        assert decode_node_key(key) == (0xDEADBEEF, ("P", "S", "N"), 7)

    def test_empty_prefix(self):
        assert decode_node_key(node_key("P", (), 1)) == ("P", (), 1)

    def test_order_symbol_first(self):
        assert node_key("A", ("Z", "Z"), 99) < node_key("B", ("A",), 0)

    def test_order_prefix_length_second(self):
        # Section 3.3: "ordered first by the Symbol, then by the length of
        # the Prefix, and lastly by the content of the Prefix"
        assert node_key("L", ("Z",), 99) < node_key("L", ("A", "A"), 0)

    def test_order_prefix_content_third(self):
        assert node_key("L", ("P", "B"), 99) < node_key("L", ("P", "S"), 0)

    def test_order_n_last(self):
        assert node_key("L", ("P", "S"), 5) < node_key("L", ("P", "S"), 6)

    def test_s_ancestor_range_is_contiguous(self):
        """All n values of one (symbol, prefix) form one key interval."""
        inside = [node_key("L", ("P", "S"), n) for n in [1, 5, 100, 10**30]]
        below = node_key("L", ("P", "B"), 10**40)
        above = node_key("L", ("P", "T"), 0)
        assert all(below < key < above for key in inside)
        assert inside == sorted(inside)

    def test_reserved_keys_never_collide_with_labels(self):
        for label in ["root", "max-depth", "a", "z"]:
            assert node_key(label, (), 0) not in (ROOT_KEY, META_MAX_DEPTH_KEY)

    @given(
        sym=st.one_of(st.text(min_size=1, max_size=8), st.integers(0, 2**64)),
        prefix=st.lists(st.text(min_size=1, max_size=6), max_size=5).map(tuple),
        n=st.integers(0, 1 << 128),
    )
    def test_property_roundtrip(self, sym, prefix, n):
        assert decode_node_key(node_key(sym, prefix, n)) == (sym, prefix, n)

    @given(
        prefix=st.lists(st.text(min_size=1, max_size=6), max_size=4).map(tuple),
        n1=st.integers(0, 1 << 100),
        n2=st.integers(0, 1 << 100),
    )
    def test_property_n_order(self, prefix, n1, n2):
        assert (node_key("x", prefix, n1) < node_key("x", prefix, n2)) == (n1 < n2)

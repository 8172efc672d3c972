"""Unit and property tests for the order-preserving codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.storage.serialization import (
    decode_bytes,
    decode_int,
    decode_str,
    decode_tuple,
    decode_uint,
    encode_bytes,
    encode_int,
    encode_str,
    encode_tuple,
    encode_uint,
    prefix_range_end,
)

BIG = 2**128 + 12345


class TestUint:
    def test_zero(self):
        assert decode_uint(encode_uint(0)) == (0, 1)

    def test_roundtrip_small(self):
        for n in [1, 2, 127, 128, 255, 256, 65535, 65536]:
            data = encode_uint(n)
            assert decode_uint(data) == (n, len(data))

    def test_roundtrip_huge(self):
        data = encode_uint(BIG)
        assert decode_uint(data)[0] == BIG

    def test_rejects_negative(self):
        with pytest.raises(CodecError):
            encode_uint(-1)

    def test_rejects_gigantic(self):
        with pytest.raises(CodecError):
            encode_uint(1 << (256 * 8))

    def test_order_examples(self):
        values = [0, 1, 5, 255, 256, 1000, 2**64, BIG]
        encoded = [encode_uint(v) for v in values]
        assert encoded == sorted(encoded)

    def test_truncated(self):
        with pytest.raises(CodecError):
            decode_uint(b"")
        with pytest.raises(CodecError):
            decode_uint(b"\x02\x01")

    @given(st.integers(min_value=0, max_value=2**200), st.integers(min_value=0, max_value=2**200))
    def test_order_preserving(self, a, b):
        assert (encode_uint(a) < encode_uint(b)) == (a < b)


class TestInt:
    def test_roundtrip(self):
        for n in [0, 1, -1, 127, -127, 10**40, -(10**40)]:
            data = encode_int(n)
            assert decode_int(data) == (n, len(data))

    def test_bad_sign_byte(self):
        with pytest.raises(CodecError):
            decode_int(b"\x07\x00")

    def test_truncated(self):
        with pytest.raises(CodecError):
            decode_int(b"")
        with pytest.raises(CodecError):
            decode_int(b"\x00")

    @given(st.integers(min_value=-(2**150), max_value=2**150),
           st.integers(min_value=-(2**150), max_value=2**150))
    def test_order_preserving(self, a, b):
        assert (encode_int(a) < encode_int(b)) == (a < b)


class TestBytes:
    def test_roundtrip_plain(self):
        data = encode_bytes(b"hello")
        assert decode_bytes(data) == (b"hello", len(data))

    def test_roundtrip_with_zero_bytes(self):
        raw = b"\x00a\x00\x00b"
        data = encode_bytes(raw)
        assert decode_bytes(data) == (raw, len(data))

    def test_empty(self):
        assert decode_bytes(encode_bytes(b"")) == (b"", 2)

    def test_prefix_sorts_first(self):
        assert encode_bytes(b"ab") < encode_bytes(b"abc")
        assert encode_bytes(b"ab") < encode_bytes(b"ab\x00")

    def test_unterminated(self):
        with pytest.raises(CodecError, match="unterminated"):
            decode_bytes(b"abc")
        with pytest.raises(CodecError, match="unterminated"):
            decode_bytes(b"a\x00\x01bc")  # an escape, then no terminator
        with pytest.raises(CodecError, match="unterminated"):
            decode_bytes(b"abc\x00\x00", 5)  # offset at the end

    def test_bad_escape(self):
        with pytest.raises(CodecError, match="bad escape byte 0x7"):
            decode_bytes(b"a\x00\x07")

    def test_truncated_escape(self):
        with pytest.raises(CodecError, match="truncated escaped"):
            decode_bytes(b"a\x00")
        with pytest.raises(CodecError, match="truncated escaped"):
            decode_bytes(b"a\x00\x01b\x00")

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_order_preserving(self, a, b):
        assert (encode_bytes(a) < encode_bytes(b)) == (a < b)

    @given(st.binary(max_size=64))
    def test_roundtrip_property(self, raw):
        assert decode_bytes(encode_bytes(raw))[0] == raw

    @given(
        st.lists(st.sampled_from([b"\x00", b"\x01", b"a", b"\xff"]), max_size=24),
        st.binary(max_size=8),
        st.binary(max_size=8),
    )
    def test_roundtrip_embedded_zero_bytes_at_an_offset(self, parts, before, after):
        """Values dense in 0x00 (and 0x01, the escape's second byte),
        decoded from the middle of a buffer: value and next offset."""
        raw = b"".join(parts)
        data = before + encode_bytes(raw) + after
        assert decode_bytes(data, len(before)) == (raw, len(data) - len(after))


class TestStr:
    def test_roundtrip(self):
        for s in ["", "abc", "naïve", "日本語"]:
            data = encode_str(s)
            assert decode_str(data) == (s, len(data))

    @given(st.text(max_size=32))
    def test_roundtrip_property(self, s):
        assert decode_str(encode_str(s))[0] == s


class TestTuple:
    def test_roundtrip_mixed(self):
        value = (1, "seller", b"\x00raw", None, -5)
        assert decode_tuple(encode_tuple(value)) == value

    def test_empty(self):
        assert decode_tuple(encode_tuple(())) == ()

    def test_rejects_bool(self):
        with pytest.raises(CodecError):
            encode_tuple((True,))

    def test_rejects_float(self):
        with pytest.raises(CodecError):
            encode_tuple((1.5,))

    def test_unknown_tag(self):
        with pytest.raises(CodecError):
            decode_tuple(b"\x99")

    def test_prefix_tuple_sorts_first(self):
        assert encode_tuple((1, "a")) < encode_tuple((1, "a", 0))

    @given(
        st.lists(
            st.one_of(st.integers(min_value=-(2**64), max_value=2**64), st.text(max_size=8)),
            max_size=4,
        ).map(tuple),
        st.lists(
            st.one_of(st.integers(min_value=-(2**64), max_value=2**64), st.text(max_size=8)),
            max_size=4,
        ).map(tuple),
    )
    def test_order_preserving_homogeneous_slots(self, a, b):
        # Only compare tuples whose common slots share types: that is the
        # contract the index layer relies on (key schemas are fixed).
        for x, y in zip(a, b):
            if type(x) is not type(y):
                return
        assert (encode_tuple(a) < encode_tuple(b)) == (a < b)


class TestPrefixRange:
    def test_simple(self):
        assert prefix_range_end(b"abc") == b"abd"

    def test_trailing_ff(self):
        assert prefix_range_end(b"a\xff") == b"b"

    def test_all_ff_sentinel(self):
        end = prefix_range_end(b"\xff\xff")
        assert end > b"\xff\xff"

    @given(st.binary(min_size=1, max_size=16), st.binary(max_size=8))
    def test_bounds_all_extensions(self, prefix, suffix):
        if prefix.rstrip(b"\xff"):
            assert prefix <= prefix + suffix < prefix_range_end(prefix)

"""The packed-kernel seam: the column packer, the codec, the leaf table.

Covers the three kernels of :mod:`repro.kernels` (the int64 column
packer, the column byte codec, the zero-copy leaf offset table) and the
posting-group columns built on them.
"""

import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.errors import CodecError
from repro.index.postings import PostingGroup
from repro.storage.bptree import _LEAF_HEADER

# encode_int magnitudes cap at 255 bytes -> |value| < 2**2040
_MAX_MAGNITUDE = (1 << 2040) - 1
_INT64_MAX = (1 << 63) - 1


class TestPackInts:
    def test_int64_values_pack_to_array(self):
        col = kernels.pack_ints([3, 1, 2, _INT64_MAX, -(1 << 63)])
        assert isinstance(col, array)
        assert col.typecode == "q"
        assert list(col) == [3, 1, 2, _INT64_MAX, -(1 << 63)]

    def test_oversized_values_fall_back_to_list(self):
        values = [1, 2, 1 << 256]  # ViST labels routinely exceed int64
        col = kernels.pack_ints(values)
        assert isinstance(col, list)
        assert col == values  # exact Python ints, no truncation


class TestColumnCodec:
    def test_known_layout_fixed64(self):
        data = kernels.encode_columns([[1, 2]])
        assert kernels.decode_columns(data) == [[1, 2]]
        # count=2 then the fixed64 mode byte then two little-endian words
        assert struct.pack("<qq", 1, 2) in data

    def test_wide_ints_use_varint_mode(self):
        values = [0, -(1 << 200), _MAX_MAGNITUDE]
        data = kernels.encode_columns([values])
        assert kernels.decode_columns(data) == [values]

    def test_empty_cases(self):
        assert kernels.decode_columns(kernels.encode_columns([])) == []
        assert kernels.decode_columns(kernels.encode_columns([[]])) == [[]]
        assert kernels.decode_columns(kernels.encode_columns([[], [5]])) == [[], [5]]

    def test_canonical_for_equal_inputs(self):
        # list vs array inputs of the same values: identical bytes — the
        # property the oracle's byte-fingerprint comparison rests on
        a = kernels.encode_columns([[10, 20, 30]])
        b = kernels.encode_columns([array("q", [10, 20, 30])])
        assert a == b

    def test_truncation_raises(self):
        data = kernels.encode_columns([[1, 2, 3]])
        with pytest.raises(CodecError):
            kernels.decode_columns(data[:-1])

    def test_trailing_bytes_raise(self):
        data = kernels.encode_columns([[1]])
        with pytest.raises(CodecError):
            kernels.decode_columns(data + b"\x00")

    def test_unknown_mode_raises(self):
        data = bytearray(kernels.encode_columns([[1]]))
        # the mode byte follows the ncols uint and the count uint
        data[2] = 0x7F
        with pytest.raises(CodecError):
            kernels.decode_columns(bytes(data))

    @given(
        st.lists(
            st.lists(
                st.integers(min_value=-_MAX_MAGNITUDE, max_value=_MAX_MAGNITUDE),
                max_size=20,
            ),
            max_size=6,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_structural_identity(self, columns):
        assert kernels.decode_columns(kernels.encode_columns(columns)) == columns

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-(1 << 63), max_value=_INT64_MAX),
                st.integers(min_value=-_MAX_MAGNITUDE, max_value=_MAX_MAGNITUDE),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_mixed_width_column(self, values):
        assert kernels.decode_columns(kernels.encode_columns([values])) == [values]


class TestLeafCellOffsets:
    @staticmethod
    def _leaf_page(cells):
        out = bytearray(struct.pack("<BHQ", 0x01, len(cells), 0))
        for k, v in cells:
            out += struct.pack("<HH", len(k), len(v)) + k + v
        return bytes(out)

    def test_offsets_reconstruct_cells(self):
        cells = [(b"alpha", b"1"), (b"beta", b""), (b"", b"value-2")]
        raw = self._leaf_page(cells)
        offsets, end = kernels.leaf_cell_offsets(raw, len(cells), _LEAF_HEADER)
        assert end == len(raw)
        got = []
        for j in range(0, len(offsets), 3):
            base, klen, vlen = offsets[j], offsets[j + 1], offsets[j + 2]
            got.append((raw[base : base + klen], raw[base + klen : base + klen + vlen]))
        assert got == cells

    def test_empty_page(self):
        raw = self._leaf_page([])
        offsets, end = kernels.leaf_cell_offsets(raw, 0, _LEAF_HEADER)
        assert len(offsets) == 0
        assert end == _LEAF_HEADER

    @given(
        st.lists(
            st.tuples(
                st.binary(max_size=16),
                st.binary(max_size=16),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_end_equals_used_bytes(self, cells):
        raw = self._leaf_page(cells)
        offsets, end = kernels.leaf_cell_offsets(raw, len(cells), _LEAF_HEADER)
        assert end == len(raw)
        assert len(offsets) == 3 * len(cells)


class TestPostingGroupColumns:
    def test_columns_parallel_and_sorted(self):
        postings = [
            (("a", "b"), 30, 35),
            (("a",), 10, 12),
            (("c",), 20, 20),
        ]
        group = PostingGroup(postings)
        assert list(group.ns) == [10, 20, 30]
        assert list(group.ends) == [12, 20, 35]
        assert group.prefixes == (("a",), ("c",), ("a", "b"))
        assert len(group) == 3

    def test_select_span_matches_select(self):
        # the span of (n, end] equals filtering the label column by hand
        labels = [10, 20, 30, 40]
        group = PostingGroup([((), n, n) for n in labels])
        for n, end in [(10, 30), (0, 100), (40, 140), (25, 29), (9, 10)]:
            lo, hi = group.select_span(n, end)
            assert [group.ns[i] for i in range(lo, hi)] == [
                label for label in labels if n < label <= end
            ]

    def test_prefixes_interned_across_groups(self):
        a = PostingGroup([(("x", "y"), 1, 1)])
        b = PostingGroup([(("x", "y"), 2, 2)])
        assert a.prefixes[0] is b.prefixes[0]

    def test_big_labels_keep_list_columns(self):
        big = 1 << 200
        group = PostingGroup([((), big, big + 3)])
        assert isinstance(group.ns, list)
        assert group.select_span(big - 1, big + 1) == (0, 1)
        assert group.join([big - 1], [big + 1], 0, 1) == [(0, 1)]

"""The packed-kernel seam: the column packer and the leaf table.

Covers the two kernels of :mod:`repro.kernels` (the int64 column packer,
the zero-copy leaf offset table) and the posting-group columns built on
them.
"""

import struct
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.index.postings import PostingGroup
from repro.storage.bptree import _LEAF_HEADER

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

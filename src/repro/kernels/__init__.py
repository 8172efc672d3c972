"""Packed-column kernels for the query hot path (pure Python).

This module is the *accelerator seam* the ROADMAP's "compiled/vectorized
hot kernels" phase calls for: every packed representation used by the
query path funnels through these few functions, so a compiled backend
(mypyc/Cython/C) can later replace them one-for-one.  Three kernels live
here today:

* :func:`pack_ints` — the posting columns.  A sorted ``n``/``end`` column
  becomes an ``array('q')`` (one machine word per label, contiguous, C
  bisection) whenever every value fits a signed 64-bit int.  ViST's
  dynamic labels are unbounded (``DEFAULT_MAX = 2**256``), so the kernel
  falls back to a plain list for oversized values — same ordering, same
  ``bisect`` interface, no silent truncation.
* :func:`leaf_cell_offsets` — zero-copy page decode.  A B+Tree leaf is
  parsed into a flat offset table (one pass of ``struct.unpack_from``,
  no per-cell byte slicing); cells are sliced out of the pager's buffer
  *on access*, so a point lookup touches O(log n) cells of a page
  instead of materialising all of them.  The CRC was already verified
  once when the pager produced the buffer.
* :func:`encode_columns` / :func:`decode_columns` — a byte codec for
  integer column sets.  The differential oracle fingerprints answer sets
  with it (every configuration must produce *byte identical* raw
  answers), and the Hypothesis round-trip property in
  ``tests/test_kernels.py`` pins the codec itself.
"""

from __future__ import annotations

import struct
from array import array
from typing import List, Sequence, Union

from repro.errors import CodecError
from repro.storage.serialization import decode_int, encode_int, encode_uint, decode_uint

__all__ = [
    "pack_ints",
    "encode_columns",
    "decode_columns",
    "leaf_cell_offsets",
]

# array('q') bounds: one machine word per value.  Anything outside falls
# back to a plain Python list (ViST labels routinely exceed 2**63).
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

IntColumn = Union["array", List[int]]


def pack_ints(values: Sequence[int]) -> IntColumn:
    """Pack an integer column: ``array('q')`` when every value fits int64.

    The fallback is a plain list with identical ordering and indexing
    semantics — ``bisect`` and ``len`` work on both, so consumers never
    branch on the representation.
    """
    try:
        return array("q", values)
    except OverflowError:
        return list(values)  # a label exceeds int64: keep exact Python ints


# ----------------------------------------------------------------------
# column byte codec (oracle fingerprints, round-trip property tests)

_COL_FIXED64 = 0x00  # little-endian i64 * count
_COL_VARINT = 0x01  # order-preserving encode_int per value (any width)

_PACK_I64 = struct.Struct("<q")


def encode_columns(columns: Sequence[Sequence[int]]) -> bytes:
    """Serialise integer columns to a canonical byte string.

    Each column is length-prefixed and tagged with its packing mode:
    fixed 64-bit little-endian words when every value fits, else the
    unbounded :func:`~repro.storage.serialization.encode_int` codec
    (max-width ints up to ±(2**2040 - 1)).  The encoding is canonical —
    equal column sets always produce equal bytes — which is what lets
    the differential oracle compare answer sets *as bytes* across
    configurations.
    """
    out = bytearray(encode_uint(len(columns)))
    for column in columns:
        values = list(column)
        out += encode_uint(len(values))
        if all(_INT64_MIN <= v <= _INT64_MAX for v in values):
            out.append(_COL_FIXED64)
            packed = array("q", values)
            if struct.pack("<h", 1) != array("h", [1]).tobytes():  # pragma: no cover
                packed.byteswap()  # big-endian host: canonicalise
            out += packed.tobytes()
        else:
            out.append(_COL_VARINT)
            for v in values:
                out += encode_int(v)
    return bytes(out)


def decode_columns(data: bytes) -> list[list[int]]:
    """Inverse of :func:`encode_columns` (always plain lists of ints)."""
    ncols, offset = decode_uint(data)
    columns: list[list[int]] = []
    for _ in range(ncols):
        count, offset = decode_uint(data, offset)
        if offset >= len(data):
            raise CodecError("truncated column: missing mode byte")
        mode = data[offset]
        offset += 1
        if mode == _COL_FIXED64:
            end = offset + 8 * count
            if end > len(data):
                raise CodecError("truncated fixed64 column")
            packed = array("q")
            packed.frombytes(data[offset:end])
            if struct.pack("<h", 1) != array("h", [1]).tobytes():  # pragma: no cover
                packed.byteswap()
            columns.append(packed.tolist())
            offset = end
        elif mode == _COL_VARINT:
            values: list[int] = []
            for _ in range(count):
                v, offset = decode_int(data, offset)
                values.append(v)
            columns.append(values)
        else:
            raise CodecError(f"unknown column mode {mode:#x}")
    if offset != len(data):
        raise CodecError("trailing bytes after last column")
    return columns


# ----------------------------------------------------------------------
# zero-copy leaf decode

_CELL_HDR = struct.Struct("<HH")


def leaf_cell_offsets(raw: bytes, count: int, header: int) -> tuple[array, int]:
    """Offset table for a B+Tree leaf: one pass, no per-cell slicing.

    Returns ``(offsets, end)`` where ``offsets`` is a flat
    ``array('I')`` of ``(key_offset, key_len, value_len)`` triples into
    ``raw`` and ``end`` is the offset one past the last cell — which is
    exactly the page's used-bytes figure, so the caller gets it for
    free.  Cells are materialised lazily by slicing ``raw`` at access
    time; the buffer itself (already CRC-verified by the pager) is the
    only copy of the data.
    """
    offsets = array("I", bytes(12 * count))
    off = header
    unpack = _CELL_HDR.unpack_from
    pos = 0
    for _ in range(count):
        klen, vlen = unpack(raw, off)
        off += 4
        offsets[pos] = off
        offsets[pos + 1] = klen
        offsets[pos + 2] = vlen
        pos += 3
        off += klen + vlen
    return offsets, off

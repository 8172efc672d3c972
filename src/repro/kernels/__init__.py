"""Packed-column kernels for the query hot path (pure Python).

This module is the *accelerator seam* the ROADMAP's "compiled/vectorized
hot kernels" phase calls for: every packed representation used by the
query path funnels through these few functions, so a compiled backend
(mypyc/Cython/C) can later replace them one-for-one.  Two kernels live
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
"""

from __future__ import annotations

import struct
from array import array
from typing import List, Sequence, Union

__all__ = [
    "pack_ints",
    "leaf_cell_offsets",
]

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

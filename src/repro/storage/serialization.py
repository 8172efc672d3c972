"""Order-preserving byte codecs for B+Tree keys.

The B+Tree (:mod:`repro.storage.bptree`) compares keys as raw bytes, so
every typed key must be encoded such that ``encode(a) < encode(b)`` exactly
when ``a < b`` under the intended typed ordering.  This module provides:

* unbounded unsigned and signed integers (length-prefixed magnitudes),
* byte strings and text, either *terminated* (safe inside composite keys,
  with prefix-range support) or *raw* (only as the last component),
* heterogeneous tuples with per-item type tags.

The integer codec supports arbitrarily large scope labels (the ViST root
scope defaults to ``2**128``, ``repro.labeling.dynamic.DEFAULT_MAX``, and
an index built at ``2**256`` keeps its wider labels), which is why a
fixed-width ``struct`` format is not enough.

Design notes
------------
*Unsigned ints* are encoded as ``len(magnitude)`` (one byte) followed by the
big-endian magnitude.  Because a larger value never has a shorter magnitude,
``(length, magnitude)`` compares like the value itself.  This caps values at
``2**2040 - 1`` — far beyond any scope used here.

*Signed ints* get a sign byte (``0x00`` negative, ``0x01`` otherwise); the
negative branch stores the bitwise complement of the unsigned encoding so
that more-negative values sort first.

*Terminated bytes* escape ``0x00`` as ``0x00 0x01`` and close with
``0x00 0x00``.  A proper prefix therefore sorts before every extension,
and :func:`prefix_range_end` yields the exclusive upper bound of the set
of encodings that start with a given prefix.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import CodecError

_MAX_UINT_BYTES = 255

# Type tags for tuple items.  Tag order only matters between values of the
# same slot when schemas mix types; None sorts before everything.
_TAG_NONE = 0x01
_TAG_INT = 0x05
_TAG_BYTES = 0x10
_TAG_STR = 0x15

__all__ = [
    "encode_uint",
    "decode_uint",
    "encode_int",
    "decode_int",
    "encode_bytes",
    "decode_bytes",
    "encode_str",
    "decode_str",
    "encode_tuple",
    "decode_tuple",
    "decode_items",
    "prefix_range_end",
]


# encode_uint is the innermost call of every key and node-state write —
# millions of calls per bulk ingest — and small magnitudes (flags, deltas,
# chain lengths, shallow labels) dominate, so those come from a table.
_UINT_CACHE_LIMIT = 1 << 14
_UINT_CACHE = [
    bytes([(i.bit_length() + 7) // 8]) + i.to_bytes((i.bit_length() + 7) // 8, "big")
    if i
    else b"\x00"
    for i in range(_UINT_CACHE_LIMIT)
]


def encode_uint(value: int) -> bytes:
    """Encode a non-negative integer, preserving numeric order."""
    if 0 <= value < _UINT_CACHE_LIMIT:
        return _UINT_CACHE[value]
    if value < 0:
        raise CodecError(f"encode_uint requires a non-negative value, got {value}")
    nbytes = (value.bit_length() + 7) // 8
    if nbytes > _MAX_UINT_BYTES:
        raise CodecError(f"integer too large to encode ({nbytes} bytes)")
    return bytes([nbytes]) + value.to_bytes(nbytes, "big")


def decode_uint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode an unsigned integer; returns ``(value, next_offset)``."""
    if offset >= len(data):
        raise CodecError("truncated uint: missing length byte")
    nbytes = data[offset]
    end = offset + 1 + nbytes
    if end > len(data):
        raise CodecError("truncated uint: missing magnitude bytes")
    return int.from_bytes(data[offset + 1 : end], "big"), end


def encode_int(value: int) -> bytes:
    """Encode a signed integer, preserving numeric order."""
    if value >= 0:
        return b"\x01" + encode_uint(value)
    body = encode_uint(-value)
    return b"\x00" + bytes(255 - b for b in body)


def decode_int(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a signed integer; returns ``(value, next_offset)``."""
    if offset >= len(data):
        raise CodecError("truncated int: missing sign byte")
    sign = data[offset]
    if sign == 0x01:
        return decode_uint(data, offset + 1)
    if sign != 0x00:
        raise CodecError(f"bad int sign byte {sign:#x}")
    if offset + 1 >= len(data):
        raise CodecError("truncated negative int")
    nbytes = 255 - data[offset + 1]
    end = offset + 2 + nbytes
    if end > len(data):
        raise CodecError("truncated negative int magnitude")
    magnitude = bytes(255 - b for b in data[offset + 2 : end])
    return -int.from_bytes(magnitude, "big"), end


def encode_bytes(value: bytes) -> bytes:
    """Encode a byte string with 0x00-escaping and a terminator."""
    return value.replace(b"\x00", b"\x00\x01") + b"\x00\x00"


def decode_bytes(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Decode a terminated byte string; returns ``(value, next_offset)``."""
    # one find() per 0x00 in the value: labels almost never hold one, so
    # the first hit is the terminator and the value is a single slice
    out = b""
    start = offset
    while True:
        i = data.find(0, start)
        if i < 0:
            raise CodecError("unterminated byte string")
        if i + 1 >= len(data):
            raise CodecError("truncated escaped byte string")
        nxt = data[i + 1]
        if nxt == 0x00:
            return out + data[start:i], i + 2
        if nxt != 0x01:
            raise CodecError(f"bad escape byte {nxt:#x}")
        out += data[start : i + 1]  # the run and the 0x00 it escapes
        start = i + 2


def encode_str(value: str) -> bytes:
    """Encode text as terminated UTF-8 (code-point order for ASCII-ish data)."""
    return encode_bytes(value.encode("utf-8"))


def decode_str(data: bytes, offset: int = 0) -> tuple[str, int]:
    """Decode a terminated UTF-8 string; returns ``(value, next_offset)``."""
    raw, end = decode_bytes(data, offset)
    try:
        return raw.decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 in encoded string: {exc}") from exc


def encode_tuple(items: Sequence) -> bytes:
    """Encode a tuple of ``None | int | bytes | str`` items, order-preserving.

    Tuples compare item-by-item; shorter tuples that are proper prefixes
    sort first, matching Python tuple comparison for same-typed slots.
    """
    parts: list[bytes] = []
    for item in items:
        if item is None:
            parts.append(bytes([_TAG_NONE]))
        elif isinstance(item, bool):
            raise CodecError("bool keys are ambiguous; use int explicitly")
        elif isinstance(item, int):
            parts.append(bytes([_TAG_INT]) + encode_int(item))
        elif isinstance(item, bytes):
            parts.append(bytes([_TAG_BYTES]) + encode_bytes(item))
        elif isinstance(item, str):
            parts.append(bytes([_TAG_STR]) + encode_str(item))
        else:
            raise CodecError(f"unsupported key item type {type(item).__name__}")
    return b"".join(parts)


def _decode_item(data: bytes, i: int) -> tuple[object, int]:
    """Decode one tagged tuple item at offset ``i``."""
    tag = data[i]
    i += 1
    if tag == _TAG_NONE:
        return None, i
    if tag == _TAG_INT:
        return decode_int(data, i)
    if tag == _TAG_BYTES:
        return decode_bytes(data, i)
    if tag == _TAG_STR:
        return decode_str(data, i)
    raise CodecError(f"unknown tuple tag {tag:#x} at offset {i - 1}")


def decode_tuple(data: bytes) -> tuple:
    """Decode a tuple previously produced by :func:`encode_tuple`."""
    items: list = []
    i = 0
    n = len(data)
    while i < n:
        value, i = _decode_item(data, i)
        items.append(value)
    return tuple(items)


def decode_items(data: bytes, offset: int, count: int) -> tuple[tuple, int]:
    """Decode exactly ``count`` tagged items starting at ``offset``.

    Returns ``(items, next_offset)``.  This is the partial-decode
    primitive behind the packed posting loader: every key of one
    D-Ancestor group shares the same ``(symbol, prefix_len, leading)``
    stem, so the loader decodes the stem's byte length once and then
    peels only the per-key tail (wildcard labels + ``n``) with this —
    instead of re-decoding the whole tuple per entry.
    """
    items: list = []
    i = offset
    for _ in range(count):
        if i >= len(data):
            raise CodecError(f"truncated tuple: expected {count} more item(s)")
        value, i = _decode_item(data, i)
        items.append(value)
    return tuple(items), i


def prefix_range_end(prefix: bytes) -> bytes:
    """Exclusive upper bound for all byte strings starting with ``prefix``.

    Increments the last non-0xFF byte; a prefix of all 0xFF bytes has no
    finite upper bound, so ``b"\\xff" * (len+1)``-style sentinels are
    returned instead (no valid encoding in this package reaches them).
    """
    out = bytearray(prefix)
    while out and out[-1] == 0xFF:
        out.pop()
    if not out:
        return prefix + b"\xff" * 8
    out[-1] += 1
    return bytes(out)

"""Structure-encoded sequences (paper Definition 1) and their byte codecs.

A structure-encoded sequence is a list of ``(symbol, prefix)`` pairs in
preorder: ``symbol`` is an element/attribute label (``str``) or a hashed
value (``int``); ``prefix`` is the tuple of *labels* on the path from the
root to the node (values never appear in prefixes — they are leaves).

Two byte encodings live here:

* :func:`item_key` / :func:`item_key_prefix` — the D-Ancestor B+Tree key
  of an item.  Section 3.3 prescribes the key order "first by the Symbol,
  then by the length of the Prefix, and lastly by the content of the
  Prefix", which makes ``*`` one contiguous range (same symbol, prefix one
  longer than the known part, same known content) and ``//`` a short
  series of such ranges — so the key is ``(symbol, len(prefix), *prefix)``.
* :meth:`StructureEncodedSequence.to_bytes` — a compact document payload
  for the doc store.  Prefixes are redundant given preorder + depths
  (exactly the paper's observation that "the prefix can be encoded
  easily"), so the payload stores ``(symbol, depth)`` pairs and
  reconstruction replays the label stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from repro.errors import CodecError
from repro.storage.serialization import (
    decode_str,
    decode_uint,
    encode_str,
    encode_tuple,
    encode_uint,
)

Symbol = Union[str, int]
Prefix = tuple[str, ...]

__all__ = ["Item", "StructureEncodedSequence", "item_key", "item_key_prefix"]


@dataclass(frozen=True)
class Item:
    """One ``(symbol, prefix)`` pair of a structure-encoded sequence."""

    symbol: Symbol
    prefix: Prefix

    @property
    def depth(self) -> int:
        """Length of the prefix (the root element has depth 0)."""
        return len(self.prefix)

    @property
    def is_value(self) -> bool:
        """True when the symbol is a hashed value rather than a label."""
        return isinstance(self.symbol, int)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        sym = f"v:{self.symbol:x}" if self.is_value else self.symbol
        return f"({sym},{''.join(self.prefix)})"


def item_key(item: Item) -> bytes:
    """D-Ancestor B+Tree key: ``(symbol, len(prefix), *prefix)``."""
    return encode_tuple((item.symbol, len(item.prefix), *item.prefix))


def item_key_prefix(symbol: Symbol, prefix_len: int, known: Iterable[str] = ()) -> bytes:
    """Key prefix for a range scan over D-Ancestor keys.

    ``known`` is the leading part of the prefix that is already concrete;
    the remaining ``prefix_len - len(known)`` labels are left open, which
    is how the matcher expands ``*`` (one open label) and ``//`` (any
    number of open labels, one scan per plausible length).
    """
    return encode_tuple((symbol, prefix_len, *known))


class StructureEncodedSequence:
    """An immutable sequence of :class:`Item` with document payload codecs."""

    __slots__ = ("_items", "_pairs")

    def __init__(self, items: Iterable[Item]) -> None:
        object.__setattr__(self, "_items", tuple(items))
        object.__setattr__(self, "_pairs", None)

    def __setattr__(self, *_args) -> None:  # pragma: no cover - guard
        raise AttributeError("StructureEncodedSequence is immutable")

    @property
    def items(self) -> tuple[Item, ...]:
        """The items; a decoded payload replays its prefix label stack
        here, on first use (verification never asks)."""
        items = self._items
        if items is None:
            stack: list[str] = []
            built = []
            for symbol, depth in self._pairs:
                del stack[depth:]
                built.append(Item(symbol, tuple(stack)))
                if isinstance(symbol, str):
                    stack.append(symbol)
            items = tuple(built)
            object.__setattr__(self, "_items", items)
        return items

    def symbol_depths(self) -> tuple[tuple[Symbol, int], ...]:
        """``(symbol, depth)`` per item in preorder — the payload's own
        content, and all that rebuilding the document tree needs."""
        if self._pairs is None:
            return tuple((item.symbol, len(item.prefix)) for item in self._items)
        return self._pairs

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __getitem__(self, index: int) -> Item:
        return self.items[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructureEncodedSequence):
            return NotImplemented
        return self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StructureEncodedSequence({' '.join(map(str, self.items))})"

    def preorder_string(self) -> str:
        """Compact rendering in the style of paper Table 1."""
        parts = []
        for item in self.items:
            parts.append(f"[{item.symbol:x}]" if item.is_value else str(item.symbol))
        return "".join(parts)

    # -- payload codec ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize for the doc store (symbols + depths only)."""
        out = bytearray()
        out += encode_uint(len(self.items))
        for item in self.items:
            if item.is_value:
                out += b"\x01" + encode_uint(item.symbol)
            else:
                out += b"\x00" + encode_str(item.symbol)
            out += encode_uint(len(item.prefix))
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "StructureEncodedSequence":
        """Decode a payload to its ``(symbol, depth)`` pairs, checking
        that they are a preorder (no depth skips a level)."""
        count, offset = decode_uint(data)
        end = len(data)
        pairs: list[tuple[Symbol, int]] = []
        open_depth = 0  # labels on the prefix stack the pairs replay to
        for _ in range(count):
            if offset >= end:
                raise CodecError("truncated sequence payload")
            kind = data[offset]
            symbol: Symbol
            if kind == 0x01:
                symbol, offset = decode_uint(data, offset + 1)
            elif kind == 0x00:
                symbol, offset = decode_str(data, offset + 1)
            else:
                raise CodecError(f"bad symbol kind byte {kind:#x}")
            depth, offset = decode_uint(data, offset)
            if depth > open_depth:
                raise CodecError(
                    f"invalid preorder payload: depth {depth} exceeds stack {open_depth}"
                )
            open_depth = depth + 1 - kind  # a label opens a level, a value does not
            pairs.append((symbol, depth))
        if offset != end:
            raise CodecError("trailing bytes after sequence payload")
        sequence = cls.__new__(cls)
        object.__setattr__(sequence, "_items", None)
        object.__setattr__(sequence, "_pairs", tuple(pairs))
        return sequence

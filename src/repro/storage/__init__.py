"""Storage substrate: pagers, codecs, B+Tree, document store.

This subpackage replaces the Berkeley DB dependency of the original ViST
implementation with a self-contained, paged B+Tree (duplicate keys, range
scans, dynamic deletes) plus the byte-level codecs its keys need.
"""

from repro.storage.bptree import BPlusTree, TreeStats
from repro.storage.docstore import DocStore, FileDocStore, MemoryDocStore
from repro.storage.pager import DEFAULT_PAGE_SIZE, MemoryPager, Pager
from repro.storage.wal import WalPager
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

__all__ = [
    "BPlusTree",
    "TreeStats",
    "DocStore",
    "FileDocStore",
    "MemoryDocStore",
    "Pager",
    "MemoryPager",
    "WalPager",
    "DEFAULT_PAGE_SIZE",
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
    "prefix_range_end",
]

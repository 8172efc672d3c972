"""Tests for bottom-up B+Tree bulk loading."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.bptree import BPlusTree
from repro.storage.pager import MemoryPager


def make_tree(page_size=256):
    return BPlusTree(MemoryPager(page_size=page_size))


def pairs(n):
    return [(f"k{i:06d}".encode(), f"v{i}".encode()) for i in range(n)]


class TestBulkLoad:
    def test_roundtrip(self):
        tree = make_tree()
        data = pairs(1000)
        assert tree.bulk_load(data) == 1000
        assert len(tree) == 1000
        assert list(tree.items()) == data
        assert tree.get(b"k000500") == b"v500"

    def test_empty_input(self):
        tree = make_tree()
        assert tree.bulk_load([]) == 0
        assert list(tree.items()) == []
        tree.insert(b"later", b"works")
        assert tree.get(b"later") == b"works"

    def test_single_entry(self):
        tree = make_tree()
        tree.bulk_load([(b"only", b"one")])
        assert list(tree.items()) == [(b"only", b"one")]

    def test_equivalent_to_inserts(self):
        loaded = make_tree(page_size=128)
        inserted = make_tree(page_size=128)
        data = pairs(500)
        loaded.bulk_load(data)
        shuffled = list(data)
        random.Random(5).shuffle(shuffled)
        for k, v in shuffled:
            inserted.insert(k, v)
        assert list(loaded.items()) == list(inserted.items())
        assert loaded.stats().entries == inserted.stats().entries

    def test_denser_than_incremental(self):
        loaded = make_tree(page_size=128)
        inserted = make_tree(page_size=128)
        data = pairs(800)
        loaded.bulk_load(data)
        for k, v in data:
            inserted.insert(k, v)
        assert loaded.stats().total_pages <= inserted.stats().total_pages

    def test_range_scans_work(self):
        tree = make_tree(page_size=128)
        data = pairs(600)
        tree.bulk_load(data)
        got = [k for k, _ in tree.range(b"k000100", b"k000200")]
        assert got == [k for k, _ in data[100:200]]

    def test_mutations_after_bulk_load(self):
        tree = make_tree(page_size=128)
        tree.bulk_load(pairs(300))
        tree.insert(b"k000150x", b"new")
        assert tree.delete(b"k000200") == 1
        assert tree.get(b"k000150x") == b"new"
        assert tree.get(b"k000200") is None
        assert len(tree) == 300

    def test_rejects_non_empty_tree(self):
        tree = make_tree()
        tree.insert(b"a", b"b")
        with pytest.raises(StorageError):
            tree.bulk_load(pairs(5))

    def test_rejects_unsorted_input(self):
        tree = make_tree()
        with pytest.raises(StorageError):
            tree.bulk_load([(b"b", b""), (b"a", b"")])

    def test_rejects_exact_duplicates(self):
        tree = make_tree()
        with pytest.raises(StorageError):
            tree.bulk_load([(b"a", b"v"), (b"a", b"v")])

    def test_duplicate_keys_distinct_values_ok(self):
        tree = make_tree()
        tree.bulk_load([(b"k", b"v1"), (b"k", b"v2"), (b"k", b"v3")])
        assert list(tree.values(b"k")) == [b"v1", b"v2", b"v3"]

    def test_accepts_generator_input(self):
        tree = make_tree()
        tree.bulk_load(iter(pairs(100)))
        assert len(tree) == 100

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=200, unique=True)
    )
    def test_property_matches_reference(self, keys):
        tree = make_tree(page_size=128)
        data = sorted((k, b"") for k in keys)
        tree.bulk_load(data)
        assert list(tree.items()) == data
        lo, hi = min(keys), max(keys)
        assert [k for k, _ in tree.range(lo, hi, include_hi=True)] == sorted(keys)


class TestRistUsesBulkLoad:
    def test_finalize_results_unchanged(self):
        from repro.index.rist import RistIndex
        from repro.sequence.transform import SequenceEncoder
        from tests.conftest import build_figure3_record, build_record

        index = RistIndex(SequenceEncoder())
        ids = [
            index.add(build_figure3_record()),
            index.add(build_record("boston", "newyork", ["intel"])),
        ]
        assert index.query("/P") == sorted(ids)
        assert index.query("/P//I[M='intel']") == [ids[1]]

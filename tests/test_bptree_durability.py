"""Durability-oriented B+Tree properties: flush/reopen interleavings,
page-size sweeps, and cache drops in the middle of a build."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.bptree import BPlusTree
from repro.storage.pager import MemoryPager
from repro.storage.wal import WalPager


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    batches=st.lists(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 40), st.integers(0, 3)),
            max_size=30,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_flush_reopen_between_batches(tmp_path_factory, batches):
    """Insert/delete batches with a full close + reopen between each batch
    must equal the same operations against an always-open reference."""
    path = tmp_path_factory.mktemp("bpt") / "t.db"
    model: set[tuple[bytes, bytes]] = set()
    for batch in batches:
        pager = WalPager(path, page_size=256)
        tree = BPlusTree(pager)
        for is_insert, ki, vi in batch:
            k = f"k{ki:03d}".encode()
            v = f"v{vi}".encode()
            if is_insert and (k, v) not in model:
                tree.insert(k, v)
                model.add((k, v))
            elif not is_insert and (k, v) in model:
                assert tree.delete(k, v) == 1
                model.discard((k, v))
        tree.close()
        pager.close()
    pager = WalPager(path)
    tree = BPlusTree(pager)
    assert list(tree.items()) == sorted(model)
    assert len(tree) == len(model)
    pager.close()


@pytest.mark.parametrize("page_size", [128, 256, 512, 4096])
def test_page_size_sweep(page_size):
    """The tree behaves identically across page sizes (within key limits)."""
    tree = BPlusTree(MemoryPager(page_size=page_size))
    rng = random.Random(9)
    keys = [f"key-{i:05d}".encode() for i in range(400)]
    rng.shuffle(keys)
    for k in keys:
        tree.insert(k, b"v")
    assert len(tree) == 400
    assert [k for k, _ in tree.items()] == sorted(keys)
    for k in keys[:200]:
        assert tree.delete(k) == 1
    survivors = sorted(keys[200:])
    assert [k for k, _ in tree.items()] == survivors
    got = [k for k, _ in tree.range(survivors[10], survivors[50])]
    assert got == survivors[10:50]


def test_cache_dropped_mid_build_rereads_the_file(tmp_path):
    """Dropping every decoded node between inserts loses nothing: the
    tree re-reads what it flushed straight from the page file."""
    pager = WalPager(tmp_path / "t.db", page_size=256)
    tree = BPlusTree(pager)
    for i in range(500):
        tree.insert(f"k{i:05d}".encode(), str(i).encode())
        if i % 97 == 0:
            tree.checkpoint(clear_cache=True)
    for i in range(0, 500, 7):
        assert tree.get(f"k{i:05d}".encode()) == str(i).encode()
    assert tree.cache_misses > 0
    tree.close()
    pager.close()


def test_checkpoint_then_reader_sees_everything(tmp_path):
    """A second tree handle opened after checkpoint sees the full state."""
    pager = WalPager(tmp_path / "t.db", page_size=256)
    writer = BPlusTree(pager, slot=0)
    for i in range(100):
        writer.insert(f"k{i:03d}".encode(), b"v")
    writer.checkpoint()
    reader = BPlusTree(pager, slot=0)
    assert len(reader) == 100
    assert reader.get(b"k042") == b"v"
    pager.close()

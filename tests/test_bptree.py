"""Unit + property tests for the B+Tree (the Berkeley DB substitute)."""

import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateEntryError, KeyTooLargeError, StorageError
from repro.storage.bptree import _LEAF_HEADER, BPlusTree, leaf_cell_offsets
from repro.storage.pager import FilePager, MemoryPager
from repro.storage.wal import WalPager


def make_tree(page_size=256):
    return BPlusTree(MemoryPager(page_size=page_size))


def key(i: int) -> bytes:
    return f"k{i:08d}".encode()


class TestBasicOps:
    def test_empty_tree(self):
        t = make_tree()
        assert len(t) == 0
        assert t.is_empty()
        assert t.get(b"missing") is None
        assert t.first() is None
        assert t.last() is None
        assert list(t.items()) == []

    def test_insert_get(self):
        t = make_tree()
        t.insert(b"a", b"1")
        assert t.get(b"a") == b"1"
        assert t.contains(b"a")
        assert not t.contains(b"b")
        assert len(t) == 1

    def test_insert_many_and_order(self):
        t = make_tree()
        n = 500
        order = list(range(n))
        random.Random(7).shuffle(order)
        for i in order:
            t.insert(key(i), str(i).encode())
        assert len(t) == n
        items = list(t.items())
        assert [k for k, _ in items] == sorted(k for k, _ in items)
        assert len(items) == n
        for i in range(n):
            assert t.get(key(i)) == str(i).encode()

    def test_duplicate_keys_allowed(self):
        t = make_tree()
        t.insert(b"dup", b"v1")
        t.insert(b"dup", b"v2")
        t.insert(b"dup", b"v0")
        assert list(t.values(b"dup")) == [b"v0", b"v1", b"v2"]

    def test_exact_duplicate_pair_rejected(self):
        t = make_tree()
        t.insert(b"k", b"v")
        with pytest.raises(DuplicateEntryError):
            t.insert(b"k", b"v")

    def test_exact_duplicate_pair_opt_in(self):
        t = make_tree()
        t.insert(b"k", b"v")
        t.insert(b"k", b"v", allow_exact_dup=True)
        assert len(list(t.values(b"k"))) == 2

    def test_put_is_upsert(self):
        t = make_tree()
        t.insert(b"k", b"old1")
        t.insert(b"k", b"old2")
        t.put(b"k", b"new")
        assert list(t.values(b"k")) == [b"new"]
        assert len(t) == 1

    def test_key_too_large(self):
        t = make_tree(page_size=256)
        with pytest.raises(KeyTooLargeError):
            t.insert(b"x" * 300, b"")

    def test_first_last(self):
        t = make_tree()
        for i in [5, 3, 9, 1]:
            t.insert(key(i))
        assert t.first()[0] == key(1)
        assert t.last()[0] == key(9)

    def test_closed_tree_rejects_ops(self):
        t = make_tree()
        t.close()
        with pytest.raises(StorageError):
            t.insert(b"a")


class TestRangeScans:
    @pytest.fixture
    def tree(self):
        t = make_tree()
        for i in range(0, 100, 2):  # even keys 0..98
            t.insert(key(i), str(i).encode())
        return t

    def test_full_scan(self, tree):
        assert len(list(tree.range())) == 50

    def test_half_open(self, tree):
        got = [k for k, _ in tree.range(key(10), key(20))]
        assert got == [key(i) for i in range(10, 20, 2)]

    def test_inclusive_hi(self, tree):
        got = [k for k, _ in tree.range(key(10), key(20), include_hi=True)]
        assert got[-1] == key(20)

    def test_exclusive_lo(self, tree):
        got = [k for k, _ in tree.range(key(10), key(20), include_lo=False)]
        assert got[0] == key(12)

    def test_lo_between_keys(self, tree):
        got = [k for k, _ in tree.range(key(11), key(15), include_hi=True)]
        assert got == [key(12), key(14)]

    def test_empty_range(self, tree):
        assert list(tree.range(key(11), key(12))) == []

    def test_open_hi(self, tree):
        got = list(tree.range(key(90), None))
        assert [k for k, _ in got] == [key(i) for i in range(90, 100, 2)]

    def test_range_spanning_many_leaves(self):
        t = make_tree(page_size=128)
        for i in range(300):
            t.insert(key(i))
        got = [k for k, _ in t.range(key(50), key(250))]
        assert got == [key(i) for i in range(50, 250)]


class TestDeletion:
    def test_delete_single_pair(self):
        t = make_tree()
        t.insert(b"k", b"v1")
        t.insert(b"k", b"v2")
        assert t.delete(b"k", b"v1") == 1
        assert list(t.values(b"k")) == [b"v2"]
        assert len(t) == 1

    def test_delete_all_for_key(self):
        t = make_tree()
        for v in [b"a", b"b", b"c"]:
            t.insert(b"k", v)
        t.insert(b"other", b"x")
        assert t.delete(b"k") == 3
        assert t.get(b"k") is None
        assert t.get(b"other") == b"x"

    def test_delete_missing(self):
        t = make_tree()
        t.insert(b"k", b"v")
        assert t.delete(b"nope") == 0
        assert t.delete(b"k", b"wrong-value") == 0
        assert len(t) == 1

    def test_delete_everything_then_reuse(self):
        t = make_tree(page_size=128)
        n = 400
        for i in range(n):
            t.insert(key(i), b"v")
        for i in range(n):
            assert t.delete(key(i)) == 1
        assert len(t) == 0
        assert list(t.items()) == []
        t.insert(b"fresh", b"v")
        assert t.get(b"fresh") == b"v"

    def test_delete_random_half(self):
        t = make_tree(page_size=128)
        n = 500
        for i in range(n):
            t.insert(key(i), b"v")
        rng = random.Random(3)
        victims = rng.sample(range(n), n // 2)
        for i in victims:
            assert t.delete(key(i)) == 1
        survivors = sorted(set(range(n)) - set(victims))
        assert [k for k, _ in t.items()] == [key(i) for i in survivors]

    def test_page_reclamation(self):
        pager = MemoryPager(page_size=128)
        t = BPlusTree(pager)
        for i in range(500):
            t.insert(key(i), b"v")
        peak = pager.live_page_count
        for i in range(500):
            t.delete(key(i))
        assert pager.live_page_count < peak / 4


class TestPersistence:
    def test_flush_and_reopen(self, tmp_path):
        pager = FilePager(tmp_path / "t.db", page_size=256)
        t = BPlusTree(pager)
        for i in range(200):
            t.insert(key(i), str(i).encode())
        t.close()
        pager.close()

        pager2 = FilePager(tmp_path / "t.db")
        t2 = BPlusTree(pager2)
        assert len(t2) == 200
        for i in range(200):
            assert t2.get(key(i)) == str(i).encode()
        pager2.close()

    def test_two_trees_one_pager(self, tmp_path):
        pager = FilePager(tmp_path / "t.db", page_size=256)
        a = BPlusTree(pager, slot=0)
        b = BPlusTree(pager, slot=1)
        for i in range(100):
            a.insert(key(i), b"A")
            b.insert(key(i), b"B")
        a.close()
        b.close()
        pager.close()

        pager2 = FilePager(tmp_path / "t.db")
        a2 = BPlusTree(pager2, slot=0)
        b2 = BPlusTree(pager2, slot=1)
        assert a2.get(key(5)) == b"A"
        assert b2.get(key(5)) == b"B"
        pager2.close()

    def test_through_wal_pager(self, tmp_path):
        pager = WalPager(tmp_path / "t.db", page_size=256)
        t = BPlusTree(pager)
        for i in range(300):
            t.insert(key(i), b"v")
        t.checkpoint(clear_cache=True)  # commits: reads below hit the main file
        for i in range(300):
            assert t.get(key(i)) == b"v"
        t.close()
        pager.close()

    def test_checkpoint_clear_cache_preserves_data(self):
        t = make_tree()
        for i in range(100):
            t.insert(key(i), b"v")
        t.checkpoint(clear_cache=True)
        assert [k for k, _ in t.items()] == [key(i) for i in range(100)]


class TestStats:
    def test_stats_shape(self):
        t = make_tree(page_size=128)
        for i in range(300):
            t.insert(key(i), b"v")
        s = t.stats()
        assert s.entries == 300
        assert s.height >= 2
        assert s.leaf_pages > 1
        assert s.internal_pages >= 1
        assert s.total_pages == s.leaf_pages + s.internal_pages
        assert s.total_bytes == s.total_pages * 128
        assert 0 < s.used_bytes <= s.total_bytes

    def test_stats_empty(self):
        s = make_tree().stats()
        assert s.entries == 0
        assert s.height == 1
        assert s.leaf_pages == 1
        assert s.internal_pages == 0


class TestNodeCache:
    """The decoded-node cache: the one cache between a tree and its pager."""

    def filled(self, pager, n=600):
        t = BPlusTree(pager)
        for i in range(n):
            t.insert(key(i), b"v")
        return t

    def test_miss_is_one_pager_read_and_repeat_hits(self):
        pager = MemoryPager(page_size=128)
        t = self.filled(pager)
        t.checkpoint(clear_cache=True)
        reads, misses = pager.read_count, t.cache_misses
        assert t.get(key(5)) == b"v"
        cold = t.cache_misses - misses
        assert cold == pager.read_count - reads >= 2  # root + leaf at least
        reads, misses, hits = pager.read_count, t.cache_misses, t.cache_hits
        assert t.get(key(5)) == b"v"
        assert (t.cache_misses, pager.read_count) == (misses, reads)
        assert t.cache_hits - hits == cold

    def test_flush_counts_nodes_written_back(self):
        t = self.filled(MemoryPager(page_size=128), n=50)
        t.flush()
        written = t.cache_writebacks
        assert written == t.stats().total_pages
        t.flush()  # nothing dirty
        assert t.cache_writebacks == written
        t.insert(key(1000), b"v")  # dirties one leaf, no split
        t.flush()
        assert t.cache_writebacks == written + 1

    def test_every_seek_is_counted(self):
        t = self.filled(MemoryPager(page_size=128))
        seeks = t.seeks
        for i in range(50):
            t.contains(key(i))
        assert t.seeks == seeks + 50

    def test_correct_across_random_mutations(self):
        t = make_tree(page_size=128)
        model = {}
        rng = random.Random(11)
        for step in range(1500):
            i = rng.randrange(200)
            if i in model and rng.random() < 0.4:
                assert t.delete(key(i)) == 1
                del model[i]
            elif i not in model:
                t.insert(key(i), str(step).encode())
                model[i] = str(step).encode()
            # interleave point lookups with the splits and merges
            probe = rng.randrange(200)
            assert t.get(key(probe)) == model.get(probe)
            assert t.contains(key(probe)) == (probe in model)

    def test_checkpoint_clear_cache_is_safe(self):
        t = self.filled(MemoryPager(page_size=128))
        t.get(key(5))
        t.checkpoint(clear_cache=True)
        assert not t._cache  # the release valve: every decoded node dropped
        assert t.get(key(5)) == b"v"
        assert t.get(key(6)) == b"v"


class TestFirstHitSeek:
    """get/contains/delete(key) resolve via one _seek, not a full key scan."""

    def test_get_returns_first_duplicate(self):
        t = make_tree()
        t.insert(b"k", b"b")
        t.insert(b"k", b"a")
        t.insert(b"k", b"c")
        assert t.get(b"k") == b"a"  # smallest value: leaf order, not insert order

    def test_contains_on_boundary_keys(self):
        t = make_tree(page_size=128)
        for i in range(300):
            t.insert(key(i), b"v")
        assert all(t.contains(key(i)) for i in range(300))
        assert not t.contains(b"k-1")
        assert not t.contains(key(300))

    def test_delete_key_spanning_leaves(self):
        t = make_tree(page_size=128)
        for i in range(50):
            t.insert(b"dup", f"{i:04d}".encode())
        t.insert(b"aaa", b"x")
        t.insert(b"zzz", b"y")
        assert t.delete(b"dup") == 50
        assert t.get(b"dup") is None
        assert [k for k, _ in t.items()] == [b"aaa", b"zzz"]


# ---------------------------------------------------------------------------
# model-based property tests against a sorted reference


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete_pair", "delete_key"]),
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=200,
    )
)
def test_model_based_ops(ops):
    """Random insert/delete sequences must match a sorted-list reference."""
    tree = BPlusTree(MemoryPager(page_size=128))
    model: list[tuple[bytes, bytes]] = []
    for op, ki, vi in ops:
        k = f"key-{ki:04d}".encode()
        v = f"val-{vi}".encode()
        if op == "insert":
            if (k, v) in model:
                with pytest.raises(DuplicateEntryError):
                    tree.insert(k, v)
            else:
                tree.insert(k, v)
                model.append((k, v))
        elif op == "delete_pair":
            removed = tree.delete(k, v)
            assert removed == (1 if (k, v) in model else 0)
            if (k, v) in model:
                model.remove((k, v))
        else:
            expected = sum(1 for mk, _ in model if mk == k)
            assert tree.delete(k) == expected
            model = [(mk, mv) for mk, mv in model if mk != k]
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=120, unique=True),
    bounds=st.tuples(st.binary(max_size=12), st.binary(max_size=12)),
)
def test_range_matches_reference(keys, bounds):
    tree = BPlusTree(MemoryPager(page_size=128))
    for k in keys:
        tree.insert(k, b"")
    lo, hi = min(bounds), max(bounds)
    got = [k for k, _ in tree.range(lo, hi)]
    expected = sorted(k for k in keys if lo <= k < hi)
    assert got == expected
    got_inc = [k for k, _ in tree.range(lo, hi, include_lo=False, include_hi=True)]
    expected_inc = sorted(k for k in keys if lo < k <= hi)
    assert got_inc == expected_inc


# ---------------------------------------------------------------------------
# scan_windows: one cursor over many windows, range() as the oracle


def windows_by_range(tree, bounds):
    return [pair for lo, hi in bounds for pair in tree.range(lo, hi)]


class TestScanWindows:
    @pytest.fixture
    def tree(self):
        t = make_tree(page_size=128)  # a few entries per leaf: windows cross leaves
        for i in range(0, 400, 2):  # even keys only
            t.insert(key(i), str(i).encode())
        return t

    def check(self, tree, bounds):
        got = list(tree.scan_windows(bounds))
        assert got == windows_by_range(tree, bounds)
        return got

    def test_windows_spanning_several_leaves(self, tree):
        got = self.check(tree, [(key(10), key(90)), (key(90), key(91)), (key(200), key(333))])
        assert len(got) == 40 + 1 + 67

    def test_empty_windows_between_hits(self, tree):
        # odd keys do not exist: (11, 12) and (301, 302) hold nothing
        got = self.check(
            tree, [(key(11), key(12)), (key(20), key(23)), (key(301), key(302)), (key(398), key(399))]
        )
        assert [k for k, _ in got] == [key(20), key(22), key(398)]

    def test_windows_past_the_last_key(self, tree):
        got = self.check(tree, [(key(390), key(500)), (key(600), key(700)), (key(800), key(900))])
        assert [k for k, _ in got] == [key(i) for i in range(390, 400, 2)]
        assert list(tree.scan_windows([(key(1000), key(2000))])) == []

    def test_no_windows_and_empty_tree(self):
        assert list(make_tree().scan_windows([(b"a", b"z")])) == []
        assert list(make_tree().scan_windows([])) == []

    def test_many_narrow_windows_seek_once(self, tree):
        tree.seeks = 0
        bounds = [(key(i), key(i + 1)) for i in range(0, 400, 2)]
        assert len(self.check(tree, bounds)) == 200
        per_window = tree.seeks
        tree.seeks = 0
        list(tree.scan_windows(bounds))
        # check() also ran range() once per window: the cursor alone seeks
        # once, where the window starts beyond the leaf it stands on
        assert tree.seeks < per_window // 10

    def test_duplicate_keys_spanning_leaves(self):
        # the DocId tree's shape: many entries (one per document) under one label
        t = make_tree(page_size=128)
        for label in (3, 7, 8, 20):
            for doc in range(40):
                t.insert(key(label), f"{doc:04d}".encode())
        bounds = [(key(3), key(4)), (key(7), key(9)), (key(10), key(20)), (key(20), key(21))]
        got = list(t.scan_windows(bounds))
        assert got == windows_by_range(t, bounds)
        assert len(got) == 160

    def test_after_splits_and_deletes(self):
        rng = random.Random(17)
        t = make_tree(page_size=128)
        live = set()
        for _ in range(1500):
            i = rng.randrange(600)
            if i in live and rng.random() < 0.5:
                t.delete(key(i))
                live.discard(i)
            elif i not in live:
                t.insert(key(i), b"v")
                live.add(i)
        cuts = sorted(rng.sample(range(650), 80))
        bounds = [(key(lo), key(hi)) for lo, hi in zip(cuts[0::2], cuts[1::2])]
        got = list(t.scan_windows(bounds))
        assert got == windows_by_range(t, bounds)
        assert [k for k, _ in got] == [
            key(i) for i in sorted(live) if any(lo <= key(i) < hi for lo, hi in bounds)
        ]

    def test_reopened_lazy_leaves_equal_fresh_ones(self, tmp_path):
        path = tmp_path / "t.db"
        pager = FilePager(path, page_size=256)
        t = BPlusTree(pager)
        for i in range(0, 600, 3):
            t.insert(key(i), str(i).encode())
        bounds = [(key(lo), key(lo + 25)) for lo in range(0, 600, 40)]
        fresh = list(t.scan_windows(bounds))
        t.close()
        pager.close()
        pager = FilePager(path, page_size=256)
        reopened = BPlusTree(pager)  # leaves decode lazily from page bytes
        assert list(reopened.scan_windows(bounds)) == fresh
        assert fresh == windows_by_range(reopened, bounds)
        pager.close()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.lists(st.integers(0, 300), max_size=150),
    cuts=st.lists(st.integers(0, 320), max_size=40, unique=True),
)
def test_scan_windows_matches_range(keys, cuts):
    """Property: any ascending disjoint windows, duplicate keys included."""
    tree = BPlusTree(MemoryPager(page_size=128))
    for serial, k in enumerate(keys):
        tree.insert(key(k), str(serial).encode())
    cuts.sort()
    bounds = [(key(lo), key(hi)) for lo, hi in zip(cuts[0::2], cuts[1::2])]
    assert list(tree.scan_windows(bounds)) == windows_by_range(tree, bounds)


class TestLeafCellOffsets:
    """The zero-copy leaf decode: one offset table, cells sliced on access."""

    @staticmethod
    def _leaf_page(cells):
        out = bytearray(struct.pack("<BHQ", 0x01, len(cells), 0))
        for k, v in cells:
            out += struct.pack("<HH", len(k), len(v)) + k + v
        return bytes(out)

    def test_offsets_reconstruct_cells(self):
        cells = [(b"alpha", b"1"), (b"beta", b""), (b"", b"value-2")]
        raw = self._leaf_page(cells)
        offsets, end = leaf_cell_offsets(raw, len(cells), _LEAF_HEADER)
        assert end == len(raw)
        got = []
        for j in range(0, len(offsets), 3):
            base, klen, vlen = offsets[j], offsets[j + 1], offsets[j + 2]
            got.append((raw[base : base + klen], raw[base + klen : base + klen + vlen]))
        assert got == cells

    def test_empty_page(self):
        raw = self._leaf_page([])
        offsets, end = leaf_cell_offsets(raw, 0, _LEAF_HEADER)
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
        offsets, end = leaf_cell_offsets(raw, len(cells), _LEAF_HEADER)
        assert end == len(raw)
        assert len(offsets) == 3 * len(cells)

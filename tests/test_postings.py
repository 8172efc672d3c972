"""Query-path cache coherence: posting cache, window joins, node cache.

The posting cache is a lookaside structure — the B+Trees stay the source
of truth — so every test here is an equivalence test at heart: the cached
index must answer exactly like the uncached one under inserts, removals,
and reopen-from-disk, and every resident group must hold the rows a fresh
scan would, after updates spliced rows into it in place.
"""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import TABLE3_QUERIES
from repro.datasets.dblp import DblpConfig, DblpGenerator
from repro.doc.model import XmlNode
from repro.errors import StorageError
from repro.index.postings import PostingCache, PostingGroup, pack_ints
from repro.index.rist import RistIndex
from repro.index.vist import VistIndex
from repro.sequence.transform import SequenceEncoder
from repro.storage.docstore import FileDocStore, MemoryDocStore
from repro.storage.wal import WalPager
from repro.testing.invariants import check_posting_coherence
from tests.conftest import (
    ExplodingStore,
    build_figure3_record,
    build_record,
)


def make_index(**kwargs) -> VistIndex:
    return VistIndex(SequenceEncoder(), **kwargs)


def labels_in(group: PostingGroup, n: int, end: int) -> list[int]:
    lo, hi = group.select_span(n, end)
    return list(group.ns[lo:hi])


class TestPostingGroup:
    def test_sorted_by_n_and_select_bisects(self):
        group = PostingGroup([((), n, n) for n in [40, 10, 30, 20]])
        assert list(group.ns) == [10, 20, 30, 40]
        # S-Ancestor range is (n, n+size]: excludes n itself, includes end
        assert labels_in(group, 10, 30) == [20, 30]
        assert labels_in(group, 0, 100) == [10, 20, 30, 40]
        assert labels_in(group, 40, 140) == []
        assert len(group) == 4

    def test_select_boundary_inclusive_end(self):
        group = PostingGroup([((), 5, 5), ((), 8, 8)])
        assert labels_in(group, 4, 8) == [5, 8]
        assert labels_in(group, 5, 8) == [8]

    def test_join_coalesces_adjacent_hits_on_both_sides(self):
        group = PostingGroup([((), n, n) for n in range(10, 20)])
        # few windows (iterated side: windows)
        assert group.join([9, 12, 17], [12, 15, 18], 0, 3) == [(0, 6), (8, 9)]
        # only the windows in [w0, w1) count
        assert group.join([9, 12, 17], [12, 15, 18], 1, 2) == [(3, 6)]
        # many windows, few postings inside their hull (iterated side: postings)
        sparse = PostingGroup([((), n, n) for n in (10, 50, 51, 90)])
        starts = list(range(0, 100, 4))
        ends = [s + 2 for s in starts]  # (0,2], (4,6], ... : 10, 50 hit; 51, 90 miss
        assert sparse.join(starts, ends, 0, len(starts)) == [(0, 2), (3, 4)]
        assert sparse.join(starts, ends, 0, 3) == [(0, 1)]


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(st.integers(0, 400), max_size=60, unique=True),
    cuts=st.lists(st.integers(0, 400), max_size=60, unique=True),
    data=st.data(),
)
def test_join_equals_brute_force(labels, cuts, data):
    """Property: ``join`` returns exactly the postings inside some window,
    whichever side it iterates and whichever window slice it is given."""
    group = PostingGroup([((), n, n) for n in labels])
    cuts.sort()
    starts, ends = cuts[0::2], cuts[1::2]  # disjoint (s, e] windows
    starts = starts[: len(ends)]
    if not starts:
        return
    w0 = data.draw(st.integers(0, len(starts) - 1))
    w1 = data.draw(st.integers(w0 + 1, len(starts)))
    spans = group.join(starts, ends, w0, w1)
    got = [group.ns[i] for a, b in spans for i in range(a, b)]
    want = sorted(
        n for n in labels if any(starts[k] < n <= ends[k] for k in range(w0, w1))
    )
    assert got == want
    # maximal spans: ascending, non-empty, never touching
    assert all(a < b for a, b in spans)
    assert all(prev[1] < nxt[0] for prev, nxt in zip(spans, spans[1:]))


_INT64_MAX = (1 << 63) - 1


class TestPackInts:
    def test_int64_values_pack_to_array(self):
        col = pack_ints([3, 1, 2, _INT64_MAX, -(1 << 63)])
        assert isinstance(col, array)
        assert col.typecode == "q"
        assert list(col) == [3, 1, 2, _INT64_MAX, -(1 << 63)]

    def test_oversized_values_fall_back_to_list(self):
        values = [1, 2, 1 << 256]  # ViST labels routinely exceed int64
        col = pack_ints(values)
        assert isinstance(col, list)
        assert col == values  # exact Python ints, no truncation


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
        assert group.prefixes == [("a",), ("c",), ("a", "b")]
        assert group.rows() == [(("a",), 10, 12), (("c",), 20, 20), (("a", "b"), 30, 35)]
        assert len(group) == 3

    def test_insert_and_delete_rows_keep_columns_sorted(self):
        group = PostingGroup([(("a",), 20, 25)])
        for n in (40, 10, 30):  # out of label order
            group.insert_row(("a", "b"), n, n + 2)
        assert group.rows() == [
            (("a", "b"), 10, 12),
            (("a",), 20, 25),
            (("a", "b"), 30, 32),
            (("a", "b"), 40, 42),
        ]
        assert isinstance(group.ns, array) and isinstance(group.ends, array)
        # an inserted prefix is the interned tuple the matcher's runs need
        assert group.prefixes[0] is group.prefixes[2]
        group.delete_row(20)
        group.delete_row(35)  # not in the group: nothing happens
        assert list(group.ns) == [10, 30, 40]
        assert list(group.ends) == [12, 32, 42]
        assert len(group.prefixes) == 3

    def test_row_above_int64_switches_columns_to_lists(self):
        group = PostingGroup([((), 10, 12), ((), 30, 32)])
        group.insert_row((), _INT64_MAX - 1, _INT64_MAX + 4)  # only its end overflows
        assert isinstance(group.ns, array) and isinstance(group.ends, list)
        big = 1 << 100
        group.insert_row((), big, big + 1)
        assert isinstance(group.ns, list)
        assert list(group.ns) == [10, 30, _INT64_MAX - 1, big]
        group.delete_row(big)
        group.delete_row(_INT64_MAX - 1)
        # list columns stay lists; the rows equal a fresh (packed) scan's
        fresh = PostingGroup([((), 30, 32), ((), 10, 12)])
        assert isinstance(group.ns, list) and isinstance(fresh.ns, array)
        assert group.rows() == fresh.rows()

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


class TestPostingCache:
    def test_hit_miss_counters(self):
        cache = PostingCache(capacity=4)
        loader = lambda: [((), 1, 1)]
        g1 = cache.lookup("A", 0, (), loader)
        g2 = cache.lookup("A", 0, (), loader)
        assert g1 is g2
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = PostingCache(capacity=2)
        for sym in "ABC":
            cache.lookup(sym, 0, (), lambda: [])
        cache.lookup("B", 0, (), lambda: [])
        cache.lookup("C", 0, (), lambda: [])
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # A was evicted: looking it up again is a miss
        misses = cache.stats.misses
        cache.lookup("A", 0, (), lambda: [])
        assert cache.stats.misses == misses + 1

    def test_rows_reach_covering_groups_only(self):
        cache = PostingCache(capacity=8)
        # concrete key, a covering wildcard key, and two unrelated keys
        groups = {
            key: cache.lookup("A", *key, lambda: [])
            for key in [
                (2, ("P", "S")),
                (2, ("P",)),
                (2, ("P", "B")),  # different leading
                (3, ("P", "S")),  # different prefix_len
            ]
        }
        cache.add_rows([("A", ("P", "S"), 7, 9), ("B", ("P", "S"), 8, 8)])
        assert [len(group) for group in groups.values()] == [1, 1, 0, 0]
        assert groups[2, ("P",)].rows() == [(("P", "S"), 7, 9)]
        cache.drop_rows([("A", ("P", "S"), 7)])
        assert [len(group) for group in groups.values()] == [0, 0, 0, 0]
        assert len(cache) == 4  # every group stayed resident
        assert cache.stats.misses == 4 and cache.stats.evictions == 0

    def test_rows_of_uncached_symbol_are_ignored(self):
        cache = PostingCache(capacity=2)
        cache.add_rows([("Z", ("P",), 1, 1)])  # empty cache: returns at once
        group = cache.lookup("A", 1, ("P",), lambda: [])
        cache.add_rows([("Z", ("P",), 1, 1)])
        cache.drop_rows([("Z", ("P",), 1)])
        assert len(group) == 0 and len(cache) == 1

    def test_clear(self):
        cache = PostingCache(capacity=4)
        cache.lookup("A", 0, (), lambda: [])
        cache.clear()
        assert len(cache) == 0
        misses = cache.stats.misses
        cache.lookup("A", 0, (), lambda: [])
        assert cache.stats.misses == misses + 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PostingCache(capacity=0)


QUERIES = [
    "/P/S/N",
    "/P[S[L='boston']]",
    "/P[S[L='boston']][B[L='newyork']]",
    "/P/S/I/M",
    "//I//M",
    "/P//N",
]


def corpus(k: int) -> list[XmlNode]:
    locs = ["boston", "newyork", "austin", "dallas"]
    makers = ["intel", "amd", "ibm"]
    rng = random.Random(k)
    docs = [build_figure3_record()]
    for i in range(k):
        docs.append(
            build_record(
                rng.choice(locs),
                rng.choice(locs),
                rng.sample(makers, rng.randint(1, 3)),
            )
        )
    return docs


def assert_coherent(index) -> None:
    report = check_posting_coherence(index)
    assert report.ok and report.checked, report.summary()


def dblp_records(count: int, seed: int = 7) -> list[XmlNode]:
    return list(DblpGenerator(DblpConfig(seed=seed)).records(count))


DBLP_QUERIES = [q.xpath for q in TABLE3_QUERIES if q.dataset == "dblp"]


def dblp_twins(count: int, **kwargs) -> tuple[VistIndex, VistIndex]:
    """A cached DBLP index and its uncached twin over the same records."""
    cached = VistIndex(SequenceEncoder(), **kwargs)
    uncached = VistIndex(SequenceEncoder(), posting_cache_size=0)
    records = dblp_records(count)
    cached.add_batch(records, durability="none")
    uncached.add_batch(records, durability="none")
    return cached, uncached


class TestVistCoherence:
    def test_interleaved_insert_query_matches_uncached(self):
        cached = make_index(posting_cache_size=16)
        uncached = make_index(posting_cache_size=0)
        assert cached.postings is not None and uncached.postings is None
        for doc in corpus(12):
            cached.add(doc)
            uncached.add(doc)
            for q in QUERIES:
                assert cached.query(q) == uncached.query(q), q
            assert_coherent(cached)
        stats = cached.postings.stats
        assert stats.hits > 0  # the cache actually engaged
        # every miss installed a group, and only the LRU took one away:
        # no insert threw a group out
        assert stats.misses == len(cached.postings) + stats.evictions

    def test_remove_drops_rows_in_place(self):
        cached = make_index(posting_cache_size=16)
        uncached = make_index(posting_cache_size=0)
        ids = []
        for doc in corpus(10):
            ids.append(cached.add(doc))
            uncached.add(doc)
        for q in QUERIES:  # warm the cache before removing
            cached.query(q)
        rng = random.Random(5)
        for doc_id in rng.sample(ids, 5):
            cached.remove(doc_id)
            uncached.remove(doc_id)
            assert_coherent(cached)
            for q in QUERIES:
                assert cached.query(q) == uncached.query(q), q
        # only the LRU (16 groups) took groups away, never a removal
        stats = cached.postings.stats
        assert stats.misses == len(cached.postings) + stats.evictions

    def test_warm_groups_survive_updates(self):
        cached, uncached = dblp_twins(120)
        for q in DBLP_QUERIES:  # warm
            cached.query(q)
        misses = cached.postings.stats.misses
        fresh = dblp_records(140, seed=8)[120:]
        cached.add_batch(fresh, durability="none")
        uncached.add_batch(fresh, durability="none")
        for doc_id in range(0, 130, 13):
            cached.remove(doc_id)
            uncached.remove(doc_id)
        assert_coherent(cached)
        for q in DBLP_QUERIES:
            assert cached.query(q) == uncached.query(q), q
        assert cached.postings.stats.misses == misses

    @pytest.mark.parametrize("failing", ["docstore", "source"])
    def test_failed_insert_leaves_groups_equal_to_fresh_scans(self, failing):
        # the failed insert's nodes were staged and then undone before its
        # chunk applied, so no row of theirs may reach a cached group
        stores = {"docstore": MemoryDocStore(), "source": MemoryDocStore()}
        stores[failing] = ExplodingStore(fail_at=65)
        cached, uncached = dblp_twins(
            60, docstore=stores["docstore"], source_store=stores["source"]
        )
        for q in DBLP_QUERIES:
            cached.query(q)
        fresh = dblp_records(80, seed=9)[60:]
        with pytest.raises(StorageError):
            cached.add_batch(fresh, durability="none")
        uncached.add_batch(fresh[:5], durability="none")
        assert_coherent(cached)
        cached.add_batch(fresh[5:], durability="none")
        uncached.add_batch(fresh[5:], durability="none")
        assert_coherent(cached)
        for q in DBLP_QUERIES:
            assert cached.query(q) == uncached.query(q), q

    def test_reopen_starts_cold_and_correct(self, tmp_path):
        pager = WalPager(tmp_path / "vist.db")
        index = make_index(
            pager=pager, docstore=FileDocStore(tmp_path / "docs.dat")
        )
        docs = corpus(8)
        for doc in docs:
            index.add(doc)
        expected = {q: index.query(q) for q in QUERIES}
        index.flush()
        index.close()
        index.docstore.close()

        reopened = make_index(
            pager=WalPager(tmp_path / "vist.db"),
            docstore=FileDocStore(tmp_path / "docs.dat"),
        )
        assert len(reopened.postings) == 0  # cache never persists
        for q in QUERIES:
            assert reopened.query(q) == expected[q], q
        assert reopened.postings.stats.hits + reopened.postings.stats.misses > 0
        reopened.close()
        reopened.docstore.close()

    def test_rist_finalize_clears_cache(self):
        index = RistIndex(SequenceEncoder())
        uncached = make_index(posting_cache_size=0)
        for doc in corpus(10):
            index.add(doc)
            uncached.add(doc)
        for q in QUERIES:
            assert index.query(q) == uncached.query(q), q

    def test_cache_stats_shape(self, tmp_path):
        index = make_index(pager=WalPager(tmp_path / "vist.db"))
        index.add(build_figure3_record())
        index.flush()
        index.close()
        pager = WalPager(tmp_path / "vist.db")
        index = make_index(pager=pager)
        before, reads = index.cache_stats(), pager.read_count
        assert index.query("/P/S/N")  # cold: every node comes off the pager
        cold = index.cache_stats()
        assert set(cold) == {"postings", "descent", "buffer_pool"}
        assert set(cold["postings"]) == {"groups", "hits", "misses", "evictions", "hit_rate"}
        assert set(cold["buffer_pool"]) == {"hits", "misses", "writebacks", "hit_rate"}
        missed = cold["buffer_pool"]["misses"] - before["buffer_pool"]["misses"]
        assert missed == pager.read_count - reads > 0
        assert set(cold["descent"]) == {"combined", "docid"}
        assert cold["descent"]["combined"] == {"seeks": index.tree.seeks}
        assert cold["descent"]["combined"]["seeks"] > before["descent"]["combined"]["seeks"]
        index.postings.clear()  # make the repeat go back to the tree
        assert index.query("/P/S/N")
        warm = index.cache_stats()["buffer_pool"]
        assert warm["misses"] == cold["buffer_pool"]["misses"]
        assert warm["hits"] > cold["buffer_pool"]["hits"]
        assert 0.0 < warm["hit_rate"] < 1.0
        index.close()
        pager.close()

    def test_match_stats_counters(self):
        index = make_index(posting_cache_size=16)
        for doc in corpus(8):
            index.add(doc)
        index.query("/P[S[L='boston']][B[L='newyork']]")
        first = index.match_stats
        assert first.range_queries > 0
        assert first.cache_hits + first.cache_misses > 0
        index.query("/P[S[L='boston']][B[L='newyork']]")
        assert index.match_stats.cache_hits > 0  # warm second run


# ---------------------------------------------------------------------------
# in-place row staleness property (model-based)

_LABELS = ("a", "b")
_prefixes = st.lists(st.sampled_from(_LABELS), max_size=3).map(tuple)
# labels arrive in no particular order, some past int64 (n or only its end)
_new_labels = st.one_of(
    st.integers(0, 10_000),
    st.integers(_INT64_MAX - 8, _INT64_MAX + 8),
    st.integers(1 << 100, (1 << 100) + 50),
)
_cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from("EF"), _prefixes, _new_labels),
        st.tuples(st.just("remove"), st.sampled_from("EF"), _prefixes, st.integers(0, 9)),
        st.tuples(st.just("lookup"), st.sampled_from("EF"), _prefixes, st.integers(0, 3)),
    ),
    max_size=60,
)


def _check_rows_keep_wildcard_groups_coherent(ops) -> None:
    """After any interleaving of inserts, removals, and lookups, every
    cached group holds the rows of a cold recomputation from the model
    store, in ``n`` order.

    The subtle case is wildcard groups: a lookup key ``(symbol, plen,
    leading)`` with ``len(leading) < plen`` covers every entry whose
    prefix *starts with* ``leading`` — so an added or removed entry must
    reach each cached key whose leading labels are a (proper) prefix of
    the entry's, not just the exact-key group, and no key of another
    symbol or prefix length.
    """
    cache = PostingCache(capacity=64)
    store: dict[tuple, list[int]] = {}  # (symbol, prefix) -> labels

    def cold(symbol, plen: int, leading: tuple) -> list[tuple[tuple, int, int]]:
        return sorted(
            (
                (prefix, n, n + 5)
                for (sym, prefix), labels in store.items()
                if sym == symbol and len(prefix) == plen and prefix[: len(leading)] == leading
                for n in labels
            ),
            key=lambda row: row[1],
        )

    used: set[int] = set()
    for op in ops:
        symbol, prefix = op[1], op[2]
        if op[0] == "add":
            n = op[3]
            if n in used:
                continue  # labels are unique across the tree
            used.add(n)
            store.setdefault((symbol, prefix), []).append(n)
            cache.add_rows([(symbol, prefix, n, n + 5)])
        elif op[0] == "remove":
            labels = store.get((symbol, prefix))
            if labels:
                n = labels.pop(op[3] % len(labels))
                cache.drop_rows([(symbol, prefix, n)])
        else:
            leading = prefix[: op[3]]
            plen = len(prefix)
            group = cache.lookup(symbol, plen, leading, lambda: cold(symbol, plen, leading))
            assert group.rows() == cold(symbol, plen, leading)
        # every group still resident must match a cold run right now
        for (symbol, plen, leading), resident in cache._groups.items():
            assert resident.rows() == cold(symbol, plen, leading), (
                f"resident group went stale: {symbol} plen={plen} leading={leading}"
            )
            assert len(resident.ns) == len(resident.ends) == len(resident.prefixes)


@settings(max_examples=120, deadline=None)
@given(ops=_cache_ops)
def test_rows_keep_wildcard_groups_coherent(ops):
    _check_rows_keep_wildcard_groups_coherent(ops)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(ops=_cache_ops)
def test_rows_keep_wildcard_groups_coherent_slow(ops):
    _check_rows_keep_wildcard_groups_coherent(ops)

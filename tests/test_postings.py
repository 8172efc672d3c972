"""Query-path cache coherence: posting cache, window joins, node cache.

The posting cache is a lookaside structure — the B+Trees stay the source
of truth — so every test here is an equivalence test at heart: the cached
index must answer exactly like the uncached one under inserts, removals,
and reopen-from-disk.
"""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.doc.model import XmlNode
from repro.index.postings import PostingCache, PostingGroup, pack_ints
from repro.index.rist import RistIndex
from repro.index.vist import VistIndex
from repro.sequence.transform import SequenceEncoder
from repro.storage.docstore import FileDocStore
from repro.storage.pager import FilePager
from tests.conftest import build_figure3_record, build_purchase_schema, build_record


def make_index(**kwargs) -> VistIndex:
    return VistIndex(SequenceEncoder(schema=build_purchase_schema()), **kwargs)


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

    def test_invalidate_entry_matches_wildcard_groups(self):
        cache = PostingCache(capacity=8)
        # concrete key, a covering wildcard key, and two unrelated keys
        cache.lookup("A", 2, ("P", "S"), lambda: [])
        cache.lookup("A", 2, ("P",), lambda: [])
        cache.lookup("A", 2, ("P", "B"), lambda: [])  # different leading
        cache.lookup("A", 3, ("P", "S"), lambda: [])  # different prefix_len
        cache.invalidate_entry("A", ("P", "S"))
        assert len(cache) == 2
        assert cache.stats.invalidations == 2
        hits = cache.stats.hits
        cache.lookup("A", 2, ("P", "B"), lambda: [])
        cache.lookup("A", 3, ("P", "S"), lambda: [])
        assert cache.stats.hits == hits + 2  # the unrelated keys survived

    def test_invalidate_unknown_symbol_is_noop(self):
        cache = PostingCache(capacity=2)
        cache.invalidate_entry("Z", ("P",))
        assert cache.stats.invalidations == 0

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
        assert cached.postings.stats.hits > 0  # the cache actually engaged
        assert cached.postings.stats.invalidations > 0

    def test_remove_invalidates(self):
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
            for q in QUERIES:
                assert cached.query(q) == uncached.query(q), q

    def test_reopen_starts_cold_and_correct(self, tmp_path):
        pager = FilePager(tmp_path / "vist.db")
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
            pager=FilePager(tmp_path / "vist.db"),
            docstore=FileDocStore(tmp_path / "docs.dat"),
        )
        assert len(reopened.postings) == 0  # cache never persists
        for q in QUERIES:
            assert reopened.query(q) == expected[q], q
        assert reopened.postings.stats.hits + reopened.postings.stats.misses > 0
        reopened.close()
        reopened.docstore.close()

    def test_rist_finalize_clears_cache(self):
        index = RistIndex(SequenceEncoder(schema=build_purchase_schema()))
        uncached = make_index(posting_cache_size=0)
        for doc in corpus(10):
            index.add(doc)
            uncached.add(doc)
        for q in QUERIES:
            assert index.query(q) == uncached.query(q), q

    def test_cache_stats_shape(self, tmp_path):
        index = make_index(pager=FilePager(tmp_path / "vist.db"))
        index.add(build_figure3_record())
        index.flush()
        index.close()
        pager = FilePager(tmp_path / "vist.db")
        index = make_index(pager=pager)
        before, reads = index.cache_stats(), pager.read_count
        assert index.query("/P/S/N")  # cold: every node comes off the pager
        cold = index.cache_stats()
        assert set(cold) == {"postings", "descent", "buffer_pool"}
        for field in ("groups", "hits", "misses", "invalidations", "hit_rate"):
            assert field in cold["postings"]
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
# invalidate_entry staleness property (model-based)

_LABELS = ("a", "b")
_prefixes = st.lists(st.sampled_from(_LABELS), max_size=3).map(tuple)
_cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _prefixes),
        st.tuples(st.just("remove"), _prefixes),
        st.tuples(st.just("lookup"), _prefixes, st.integers(0, 3)),
    ),
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(ops=_cache_ops)
def test_invalidate_entry_keeps_wildcard_groups_coherent(ops):
    """Property: after any interleaving of inserts, removals, and lookups,
    every cached group equals a cold recomputation from the model store.

    The subtle case is wildcard groups: a lookup key ``(symbol, plen,
    leading)`` with ``len(leading) < plen`` covers every entry whose
    prefix *starts with* ``leading`` — so adding or removing an entry
    must invalidate each cached key whose leading labels are a (proper)
    prefix of the entry's, not just the exact-key group.
    """
    symbol = "E"
    cache = PostingCache(capacity=64)
    store: dict[tuple, list[int]] = {}
    next_n = [0]

    def cold(plen: int, leading: tuple) -> list[tuple[tuple, int, int]]:
        return [
            (prefix, n, n + 5)
            for prefix, labels in store.items()
            if len(prefix) == plen and prefix[: len(leading)] == leading
            for n in labels
        ]

    def rows(group: PostingGroup) -> list[tuple[tuple, int, int]]:
        return list(zip(group.prefixes, group.ns, group.ends))

    cached_keys: list[tuple[int, tuple]] = []
    for op in ops:
        if op[0] == "add":
            prefix = op[1]
            store.setdefault(prefix, []).append(next_n[0])
            next_n[0] += 10
            cache.invalidate_entry(symbol, prefix)
        elif op[0] == "remove":
            prefix = op[1]
            if store.get(prefix):
                store[prefix].pop()
                cache.invalidate_entry(symbol, prefix)
        else:
            _, prefix, lead_len = op
            leading = prefix[: min(lead_len, len(prefix))]
            plen = len(prefix)
            group = cache.lookup(
                symbol, plen, leading, lambda: cold(plen, leading)
            )
            cached_keys.append((plen, leading))
            want = sorted(cold(plen, leading), key=lambda row: row[1])
            assert rows(group) == want, (
                f"stale group for plen={plen} leading={leading}"
            )
        # every group still resident must match a cold run right now
        for plen, leading in cached_keys:
            resident = cache._groups.get((symbol, plen, leading))
            if resident is not None:
                want = sorted(cold(plen, leading), key=lambda row: row[1])
                assert rows(resident) == want, (
                    f"resident group went stale: plen={plen} leading={leading}"
                )

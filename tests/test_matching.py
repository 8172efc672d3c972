"""Tests for the pieces of Algorithm 2: the prefix-pattern matcher, the
window merge, and the counters of one small fixed walk."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.doc.parser import parse_document
from repro.index.matching import match_prefix_pattern, merge_windows, resolve_pattern
from repro.index.vist import VistIndex
from repro.query.ast import Dslash, Star


class TestMatchPrefixPattern:
    def test_concrete_only(self):
        assert match_prefix_pattern(("P", "S"), ("P", "S")) == [()]
        assert match_prefix_pattern(("P", "S"), ("P", "B")) == []
        assert match_prefix_pattern(("P",), ("P", "S")) == []  # length must match

    def test_unbound_star_binds_one_label(self):
        results = match_prefix_pattern(("P", Star(0)), ("P", "S"))
        assert results == [((0, ("S",)),)]

    def test_bound_star_must_agree(self):
        binding = ((0, ("S",)),)
        assert match_prefix_pattern(("P", Star(0), "L"), ("P", "S", "L"), binding)
        assert not match_prefix_pattern(("P", Star(0), "L"), ("P", "B", "L"), binding)

    def test_star_cannot_match_empty(self):
        assert match_prefix_pattern((Star(0),), ()) == []

    def test_unbound_dslash_matches_any_segment(self):
        results = match_prefix_pattern(("P", Dslash(0), "I"), ("P", "S", "I", "I"))
        assert results == [((0, ("S", "I")),)]

    def test_dslash_matches_empty_segment(self):
        results = match_prefix_pattern(("P", Dslash(0)), ("P",))
        assert results == [((0, ()),)]

    def test_two_dslash_yield_multiple_splits(self):
        results = match_prefix_pattern((Dslash(0), "a", Dslash(1)), ("a", "a", "a"))
        # 'a' can be data position 0, 1 or 2
        assert len(results) == 3

    def test_bound_dslash_must_agree(self):
        binding = ((0, ("S",)),)
        assert match_prefix_pattern(("P", Dslash(0), "L"), ("P", "S", "L"), binding)
        assert not match_prefix_pattern(("P", Dslash(0), "L"), ("P", "B", "L"), binding)
        assert not match_prefix_pattern(("P", Dslash(0), "L"), ("P", "L"), binding)

    def test_dedupes_identical_binding_sets(self):
        results = match_prefix_pattern((Dslash(0), Dslash(0)), ())
        assert results == [((0, ()),)]


class TestResolvePattern:
    def test_all_concrete(self):
        leading, tail = resolve_pattern(("P", "S"), ())
        assert leading == ("P", "S")
        assert tail == ()

    def test_stops_at_unbound_wildcard(self):
        leading, tail = resolve_pattern(("P", Star(0), "L"), ())
        assert leading == ("P",)
        assert tail == (Star(0), "L")

    def test_bound_wildcard_extends_leading(self):
        leading, tail = resolve_pattern(("P", Star(0), "L"), ((0, ("S",)),))
        assert leading == ("P", "S", "L")
        assert tail == ()

    def test_bound_dslash_expands_labels(self):
        leading, tail = resolve_pattern(("P", Dslash(0), "I"), ((0, ("S", "I")),))
        assert leading == ("P", "S", "I", "I")
        assert tail == ()

    def test_bound_wildcard_after_unbound_goes_to_tail(self):
        leading, tail = resolve_pattern(
            ("P", Star(0), Star(1)), ((1, ("X",)),)
        )
        assert leading == ("P",)
        assert tail == (Star(0), "X")


def laminar_family(rng: random.Random, lo: int, hi: int, depth: int) -> list[tuple[int, int]]:
    """Random scopes ``(n, end)`` inside ``[lo, hi]``: nested or disjoint,
    never partially overlapping — the shape scope labels have."""
    out = []
    cursor = lo
    while cursor <= hi and rng.random() < 0.8:
        n = rng.randint(cursor, hi)
        end = rng.randint(n, hi)
        out.append((n, end))
        if depth and end > n:
            out.extend(laminar_family(rng, n + 1, end, depth - 1))
        cursor = end + 1
    return out


class TestMergeWindows:
    def test_nested_and_duplicate_pairs_are_dropped(self):
        pairs = [(10, 20), (12, 15), (13, 13), (30, 30), (10, 20), (25, 29), (16, 20)]
        assert merge_windows(pairs) == ([10, 25, 30], [20, 29, 30])

    def test_empty(self):
        assert merge_windows([]) == ([], [])

    def test_huge_labels(self):
        big = 1 << 200
        assert merge_windows([(big + 5, big + 9), (big, big + 100)]) == ([big], [big + 100])

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_output_sorted_disjoint_and_covers_the_same_ids(self, seed):
        rng = random.Random(seed)
        family = laminar_family(rng, 0, 300, 4)
        family += rng.choices(family, k=len(family) // 3) if family else []
        rng.shuffle(family)
        covered = {i for n, end in family for i in range(n, end + 1)}
        starts, ends = merge_windows(list(family))
        assert all(n <= end for n, end in zip(starts, ends))
        assert all(end < n for end, n in zip(ends, starts[1:]))  # sorted, disjoint
        assert {i for n, end in zip(starts, ends) for i in range(n, end + 1)} == covered
        assert set(zip(starts, ends)) <= set(family)  # maximal scopes, not new ones


class TestPinnedWalk:
    """One small corpus, walked by hand.  Sequences (``u``/``v`` are values):

    * d0 ``r a u a v``  d1 ``r a u``  d2 ``r a v b`` — so the trie is
      ``r -> a1 -> (u1 -> a2 -> v2 | v3 -> b)``, and ``a2`` nests inside ``a1``.
    """

    def index(self, **kwargs) -> VistIndex:
        index = VistIndex(**kwargs)
        for xml in (
            "<r><a>u</a><a>v</a></r>",
            "<r><a>u</a></r>",
            "<r><a>v</a><b/></r>",
        ):
            index.add(parse_document(xml))
        return index

    def effort(self, index: VistIndex, xpath: str) -> tuple:
        result = index.query(xpath)
        stats = index.match_stats
        return (
            result,
            stats.range_queries,
            stats.search_states,
            stats.candidates,
            stats.final_nodes,
        )

    def test_counters_of_three_queries(self):
        index = self.index()
        # root window -> r; r's window -> a1, a2, merged to a1 alone
        assert self.effort(index, "/r/a") == ([0, 1, 2], 2, 2, 3, 1)
        # ... then a1's window -> v2 and v3, disjoint: two final scopes
        assert self.effort(index, "/r[a='v']") == ([0, 2], 3, 3, 5, 2)
        # one window, one probe per prefix length 0..2, a1 and a2 bind // to (r,)
        assert self.effort(index, "//a") == ([0, 1, 2], 3, 1, 2, 1)

    def test_counters_do_not_depend_on_the_posting_cache(self):
        cached, uncached = self.index(), self.index(posting_cache_size=0)
        for xpath in ("/r/a", "/r[a='v']", "//a", "/r/*", "//b"):
            assert self.effort(cached, xpath) == self.effort(uncached, xpath), xpath

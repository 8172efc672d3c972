"""Tests for scopes, follow sets and the dynamic allocators."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.doc.schema import ChildSpec, Occurs, Schema
from repro.errors import LabelingError
from repro.labeling.clues import VALUE, FollowSets
from repro.labeling.dynamic import (
    DEFAULT_MAX,
    Chain,
    ClueAllocator,
    LambdaAllocator,
    NodeState,
    UniformAllocator,
)
from repro.labeling.scope import Scope
from repro.sequence.encoding import Item


def purchase_schema() -> Schema:
    schema = Schema("P")
    schema.element("P", [ChildSpec("S"), ChildSpec("B")])
    schema.element("S", [ChildSpec("N"), ChildSpec("I", Occurs.MANY), ChildSpec("L")])
    schema.element("B", [ChildSpec("L"), ChildSpec("N")])
    schema.element("I", [ChildSpec("M"), ChildSpec("N"), ChildSpec("I", Occurs.MANY)])
    schema.element("N", has_text=True, value_cardinality=100)
    schema.element("L", has_text=True, value_cardinality=50)
    schema.element("M", has_text=True, value_cardinality=20)
    return schema


class TestScope:
    def test_descendant_range_paper_figure5(self):
        # Figure 5: (P,e) is <1,8>; (S,P) is <2,4>; (v2,PSL) is <6,0>.
        root = Scope(1, 8)
        seller = Scope(2, 4)
        v2 = Scope(6, 0)
        assert root.covers(seller)
        assert seller.covers(v2)
        assert root.contains_descendant_id(6)
        assert not seller.contains_descendant_id(7)  # (B,P) is <7,2>

    def test_own_id_is_not_descendant(self):
        s = Scope(5, 3)
        assert not s.contains_descendant_id(5)
        assert s.contains_descendant_id(8)
        assert not s.contains_descendant_id(9)

    def test_doc_range_is_closed(self):
        assert Scope(5, 3).doc_range() == (5, 8)

    def test_covers_requires_strict_nesting(self):
        assert not Scope(5, 3).covers(Scope(5, 3))
        assert Scope(5, 3).covers_or_equal(Scope(5, 3))
        assert not Scope(5, 3).covers(Scope(4, 10))

    def test_validation(self):
        with pytest.raises(LabelingError):
            Scope(-1, 4)
        with pytest.raises(LabelingError):
            Scope(1, -4)


class TestChain:
    def test_lambda_two_halving(self):
        """Figure 8's λ=2 halves the region for the first two children;
        from the third on the ``k + 1`` floor takes over, so child ``k``
        gets ``width / (2k(k+1))`` instead of ``width / 2^(k+1)``."""
        chain = Chain()
        scopes = [chain.allocate(1, 1200, 2) for _ in range(4)]
        assert scopes == [
            Scope(1, 599),  # [1, 601): 1/2
            Scope(601, 299),  # 1/4
            Scope(901, 99),  # 1/12, where plain halving gave 1/8
            Scope(1001, 49),  # 1/24, where plain halving gave 1/16
        ]

    def test_disjoint_and_ordered(self):
        chain = Chain()
        scopes = [chain.allocate(0, 10_000, 3) for _ in range(10)]
        for a, b in zip(scopes, scopes[1:]):
            assert a.end < b.n

    def test_underflow_returns_none(self):
        chain = Chain()
        for _ in range(50):
            if chain.allocate(0, 64, 2) is None:
                break
        else:
            pytest.fail("chain never underflowed")
        assert chain.allocate(0, 64, 2) is None

    @given(
        region_lo=st.integers(min_value=0, max_value=1 << 256),
        region_width=st.integers(min_value=0, max_value=1 << 256),
        lams=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=80),
    )
    def test_matches_reference_chain_with_explicit_remaining(
        self, region_lo, region_width, lams
    ):
        """``allocate`` derives the free width from ``next``; a reference
        chain that carries ``remaining`` as its own field (the cursor the
        entry format used to persist) and floors λ at ``k + 1`` hands out
        the same scopes, whatever λ each call brings."""
        chain = Chain()
        ref_k = ref_next = ref_remaining = 0
        for lam in lams:
            if ref_k == 0:
                ref_next, ref_remaining = region_lo, region_width
            share = ref_remaining // max(lam, 2, ref_k + 1)
            expected = None
            if share >= 1:
                expected = Scope(ref_next, share - 1)
                ref_next += share
                ref_remaining -= share
                ref_k += 1
            assert chain.allocate(region_lo, region_width, lam) == expected
            assert chain.k == ref_k
            if ref_k:
                assert chain.next == ref_next
                assert chain.next + ref_remaining == region_lo + region_width

    @given(
        width=st.integers(min_value=2, max_value=1 << 200),
        lam=st.integers(min_value=2, max_value=1000),
        count=st.integers(min_value=1, max_value=60),
    )
    def test_property_children_nest_in_region(self, width, lam, count):
        chain = Chain()
        region = Scope(100, width)
        for _ in range(count):
            scope = chain.allocate(region.n + 1, width - 1, lam)
            if scope is None:
                break
            assert region.covers(scope)


    @given(
        size=st.integers(min_value=1 << 40, max_value=1 << 128),
        fanout=st.integers(min_value=2, max_value=300),
    )
    def test_floored_share_is_width_over_2k_k_plus_1(self, size, fanout):
        """With the default allocator's λ, child ``k ≥ 1`` of a chain over
        ``W`` usable ids gets ``W / (2k(k+1))`` within rounding (each
        floor division leaves at most one id behind), so ``F`` children
        spend at most ``2·log₂F + 1`` bits of their parent's scope."""
        alloc = LambdaAllocator()
        state = NodeState(scope=Scope(0, size), parent_n=0)
        width = alloc.usable_size(state.scope)
        for k in range(fanout):
            share = alloc.place(state, None, Item(f"c{k}", ())).size + 1
            if k == 0:
                assert share == width // 2
            else:
                assert abs(share * 2 * k * (k + 1) - width) < 2 * k * (k + 1)
        assert width <= share * 2 * fanout * fanout  # the last, smallest child


class TestNodeState:
    def test_roundtrip(self):
        state = NodeState(scope=Scope(7, 1 << 128), parent_n=3, refs=5, private=True)
        state.plain.allocate(8, 1000, 2)
        state.reserve_used = 17
        restored = NodeState.from_bytes(7, state.to_bytes())
        assert restored == state

    def test_rejects_garbage(self):
        with pytest.raises(Exception):
            NodeState.from_bytes(7, b"")
        with pytest.raises(Exception):
            NodeState.from_bytes(7, NodeState(Scope(1, 2), 0).to_bytes() + b"zz")


class TestFollowSets:
    def test_element_children_in_order(self):
        fs = FollowSets(purchase_schema())
        cands = fs.candidates(Item("S", ("P",)))
        labels = [c.label for c in cands]
        # children of S first (N, I, L), then B (sibling under P)
        assert labels[:3] == ["N", "I", "L"]
        assert "B" in labels

    def test_value_first_for_text_elements(self):
        fs = FollowSets(purchase_schema())
        cands = fs.candidates(Item("N", ("P", "S")))
        assert cands[0].label == VALUE
        assert cands[0].prefix == ("P", "S", "N")

    def test_repeatable_node_follows_itself(self):
        fs = FollowSets(purchase_schema())
        cands = fs.candidates(Item("M", ("P", "S", "I")))
        # after I's M child: value of M, then N/I children of I... climbing,
        # I itself repeats under S
        repeats = [c for c in cands if c.label == "I" and c.prefix == ("P", "S")]
        assert repeats

    def test_value_item_climbs_from_owner(self):
        fs = FollowSets(purchase_schema())
        cands = fs.candidates(Item(12345, ("P", "S", "N")))
        labels = [(c.label, c.prefix) for c in cands]
        # After the value of (N, PS): I then L under S, then B under P.
        assert ("I", ("P", "S")) in labels
        assert ("L", ("P", "S")) in labels
        assert ("B", ("P",)) in labels

    def test_probabilities_chain_eq2(self):
        schema = Schema("x")
        schema.element("x", [ChildSpec("u", prob=0.8), ChildSpec("v", prob=0.5)])
        fs = FollowSets(schema, value_prob=0.0)
        cands = fs.candidates(Item("x", ()))
        by_label = {c.label: c.probability for c in cands}
        assert by_label["u"] == pytest.approx(0.8)
        assert by_label["v"] == pytest.approx(0.2 * 0.5)

    def test_probabilities_sum_below_one(self):
        fs = FollowSets(purchase_schema())
        cands = fs.candidates(Item("S", ("P",)))
        assert sum(c.probability for c in cands) <= 1.0 + 1e-9

    def test_root_candidates(self):
        fs = FollowSets(purchase_schema())
        (root,) = fs.root_candidates()
        assert root.label == "P"
        assert root.prefix == ()
        assert root.probability == 1.0

    def test_cache_returns_same_object(self):
        fs = FollowSets(purchase_schema())
        a = fs.candidates(Item("S", ("P",)))
        b = fs.candidates(Item("S", ("P",)))
        assert a is b


class TestLambdaAllocator:
    def test_places_disjoint_children(self):
        alloc = LambdaAllocator(lam=2)
        state = NodeState(scope=Scope(0, DEFAULT_MAX - 1), parent_n=0)
        a = alloc.place(state, None, Item("P", ()))
        b = alloc.place(state, None, Item("Q", ()))
        assert a is not None and b is not None
        assert a.end < b.n
        assert state.scope.covers(a) and state.scope.covers(b)

    def test_lambda_validation(self):
        with pytest.raises(LabelingError):
            LambdaAllocator(lam=1)
        with pytest.raises(LabelingError):
            LambdaAllocator(reserve_divisor=1)

    def test_underflow_in_tiny_scope(self):
        alloc = LambdaAllocator(lam=2)
        state = NodeState(scope=Scope(0, 1), parent_n=0)
        assert alloc.place(state, None, Item("a", ())) is None

    def test_reserve_borrowing(self):
        alloc = LambdaAllocator(lam=2, reserve_divisor=4)
        state = NodeState(scope=Scope(0, 1600), parent_n=0)
        reserve = alloc.reserve_size(state.scope)
        assert reserve == 400
        start = alloc.borrow_block(state, 10)
        assert start == state.scope.end - reserve + 1
        again = alloc.borrow_block(state, 10)
        assert again == start + 10
        assert alloc.borrow_block(state, reserve) is None  # exhausted

    def test_borrow_never_collides_with_usable(self):
        alloc = LambdaAllocator(lam=2, reserve_divisor=4)
        state = NodeState(scope=Scope(0, 1600), parent_n=0)
        child = alloc.place(state, None, Item("a", ()))
        start = alloc.borrow_block(state, 5)
        assert child.end < start


class TestClueAllocator:
    def make(self):
        fs = FollowSets(purchase_schema())
        return ClueAllocator(fs), fs

    def root_state(self):
        return NodeState(scope=Scope(0, DEFAULT_MAX - 1), parent_n=0)

    def test_deterministic_slots(self):
        alloc, _ = self.make()
        s1 = self.root_state()
        s2 = self.root_state()
        a = alloc.place(s1, Item("P", ()), Item("S", ("P",)))
        b = alloc.place(s2, Item("P", ()), Item("S", ("P",)))
        assert a == b  # clue slots do not depend on insertion order

    def test_different_children_disjoint(self):
        alloc, _ = self.make()
        state = NodeState(scope=Scope(0, DEFAULT_MAX - 1), parent_n=0)
        parent = Item("S", ("P",))
        scopes = [
            alloc.place(state, parent, Item("N", ("P", "S"))),
            alloc.place(state, parent, Item("I", ("P", "S"))),
            alloc.place(state, parent, Item("L", ("P", "S"))),
        ]
        assert all(s is not None for s in scopes)
        for i, a in enumerate(scopes):
            for b in scopes[i + 1 :]:
                assert a.end < b.n or b.end < a.n

    def test_values_get_distinct_scopes(self):
        alloc, _ = self.make()
        state = NodeState(scope=Scope(0, DEFAULT_MAX - 1), parent_n=0)
        parent = Item("N", ("P", "S"))
        a = alloc.place(state, parent, Item(111, ("P", "S", "N")))
        b = alloc.place(state, parent, Item(222, ("P", "S", "N")))
        assert a is not None and b is not None
        assert a.end < b.n

    def test_unpredicted_child_goes_to_overflow(self):
        alloc, _ = self.make()
        state = NodeState(scope=Scope(0, DEFAULT_MAX - 1), parent_n=0)
        parent = Item("S", ("P",))
        rogue = alloc.place(state, parent, Item("ZZZ", ("P", "S")))
        assert rogue is not None
        assert state.extra.k == 1
        expected = alloc.place(state, parent, Item("N", ("P", "S")))
        assert expected.end < rogue.n or rogue.end < expected.n

    def test_root_item_placement(self):
        alloc, _ = self.make()
        state = self.root_state()
        scope = alloc.place(state, None, Item("P", ()))
        assert scope is not None
        assert state.scope.covers(scope)

    def test_config_validation(self):
        fs = FollowSets(purchase_schema())
        with pytest.raises(LabelingError):
            ClueAllocator(fs, clue_fraction=1.5)
        with pytest.raises(LabelingError):
            ClueAllocator(fs, fallback_lam=1)


class TestChainCursorInvariant:
    """Every allocator keeps ``Chain``'s promise — ``next`` is valid once
    ``k > 0`` — which is what lets the entry codec store ``next - n``."""

    PARENT = Item("S", ("P",))
    CHILDREN = [
        Item("N", ("P", "S")),  # clue slot
        Item("ZZZ", ("P", "S")),  # unpredicted: overflow chain
        Item("I", ("P", "S")),
        Item("YYY", ("P", "S")),
    ]
    VALUE_PARENT = Item("N", ("P", "S"))
    VALUES = [Item(h, ("P", "S", "N")) for h in (11, 22, 33)]

    @staticmethod
    def assert_cursors(state):
        for chain in (state.plain, state.value, state.extra):
            if chain.k > 0:
                assert state.scope.n < chain.next <= state.scope.end + 1

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LambdaAllocator(lam=3),
            lambda: UniformAllocator(expected_children=5),
            lambda: ClueAllocator(FollowSets(purchase_schema())),
        ],
        ids=["lambda", "uniform", "clue"],
    )
    @pytest.mark.parametrize("scope", [Scope(0, DEFAULT_MAX - 1), Scope(700, 90), Scope(5, 3)])
    def test_next_is_inside_the_scope_after_every_place(self, make, scope):
        alloc = make()
        for parent, children in (
            (self.PARENT, self.CHILDREN),
            (self.VALUE_PARENT, self.VALUES),
        ):
            state = NodeState(scope=scope, parent_n=0)
            for child in children * 3:
                placed = alloc.place(state, parent, child)
                self.assert_cursors(state)
                if placed is not None:
                    assert state.scope.covers(placed)
                # what the codec relies on: the state always round-trips
                assert NodeState.from_bytes(scope.n, state.to_bytes()) == state

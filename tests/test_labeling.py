"""Tests for scopes, the closed-form λ-chain and the dynamic allocator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LabelingError
from repro.labeling.dynamic import (
    DEFAULT_MAX,
    Chain,
    LambdaAllocator,
    NodeState,
    floor_width,
)
from repro.labeling.scope import Scope
from repro.sequence.encoding import Item


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
        """Figure 8's λ=2 halves the region for the first child; child
        ``k`` then takes ``[lo + k·W//(k+1), lo + (k+1)·W//(k+2))``, about
        ``W/((k+1)(k+2))`` where plain halving gave ``W/2^(k+1)``."""
        chain = Chain()
        scopes = [chain.allocate(1, 1200) for _ in range(4)]
        assert scopes == [
            Scope(1, 599),  # [1, 601): 1/2
            Scope(601, 199),  # [601, 801): 1/6
            Scope(801, 99),  # [801, 901): 1/12, where plain halving gave 1/8
            Scope(901, 59),  # [901, 961): 1/20, where plain halving gave 1/16
        ]
        assert chain.k == 4

    def test_disjoint_and_ordered(self):
        chain = Chain()
        scopes = [chain.allocate(0, 10_000) for _ in range(10)]
        for a, b in zip(scopes, scopes[1:]):
            assert a.end < b.n

    def test_underflow_returns_none(self):
        chain = Chain()
        for _ in range(50):
            if chain.allocate(0, 64) is None:
                break
        else:
            pytest.fail("chain never underflowed")
        k = chain.k
        assert chain.allocate(0, 64) is None
        assert chain.k == k  # an underflow allocates nothing

    @given(
        region_lo=st.integers(min_value=0, max_value=1 << 256),
        region_width=st.integers(min_value=0, max_value=1 << 256),
        count=st.integers(min_value=1, max_value=80),
    )
    def test_matches_reference_chain_with_explicit_remaining(
        self, region_lo, region_width, count
    ):
        """A reference chain that carries ``next`` and ``remaining`` as
        fields (the cursor format 2 persisted) and starts each child where
        the last one's share ended hands out the scopes ``allocate``
        derives from ``k`` alone; each share is Eq. 6's ``remaining / λ``
        with ``λ = k + 2``, within the one id a floor division can drop,
        and the scope is the share's storable floor."""
        chain = Chain()
        ref_k, ref_next = 0, region_lo
        for _ in range(count):
            ref_remaining = region_lo + region_width - ref_next
            end = region_lo + (ref_k + 1) * region_width // (ref_k + 2)
            expected = None
            if end > ref_next:
                expected = Scope(ref_next, floor_width(end - ref_next) - 1)
                assert abs((end - ref_next) - ref_remaining // (ref_k + 2)) <= 1
                ref_next = end
                ref_k += 1
            assert chain.allocate(region_lo, region_width) == expected
            assert chain.k == ref_k

    @given(
        region_lo=st.integers(min_value=0, max_value=1 << 200),
        region_width=st.integers(min_value=1, max_value=1 << 200),
        count=st.integers(min_value=1, max_value=300),
    )
    def test_derived_children_tile_the_region(self, region_lo, region_width, count):
        """For any ``W ≥ 1``: the shares are contiguous from ``lo`` and lie
        inside ``[lo, lo + W)``, each child starts its share and is its
        storable floor, and ``allocate`` returns ``None`` exactly when
        child ``k``'s share would be empty — after which the chain
        allocates nothing, ever."""
        chain = Chain()
        cursor = region_lo
        for _ in range(count):
            k = chain.k
            share = region_lo + (k + 1) * region_width // (k + 2) - cursor
            scope = chain.allocate(region_lo, region_width)
            if scope is None:
                assert share == 0 and chain.k == k
                assert chain.allocate(region_lo, region_width) is None
                break
            assert floor_width(share) == scope.size + 1 >= 1
            assert scope.n == cursor  # starts where the last share ended
            assert scope.end < region_lo + region_width
            assert chain.k == k + 1
            cursor += share

    @given(
        region_lo=st.integers(min_value=0, max_value=1 << 128),
        region_width=st.integers(min_value=1, max_value=1 << 128),
        k=st.integers(min_value=0, max_value=1 << 70),
    )
    def test_any_k_is_contiguous_with_the_next(self, region_lo, region_width, k):
        """Child ``k`` and child ``k + 1``, derived independently: the
        next child starts where child ``k``'s share ends, so child ``k``
        lies before it and leaves at most a rounding gap."""
        a = Chain(k).allocate(region_lo, region_width)
        b = Chain(k + 1).allocate(region_lo, region_width)
        for scope in (a, b):
            if scope is not None:
                assert region_lo <= scope.n and scope.end < region_lo + region_width
        if a is not None and b is not None:
            assert a.end < b.n
            assert floor_width(b.n - a.n) == a.size + 1

    @given(
        width=st.integers(min_value=2, max_value=1 << 200),
        count=st.integers(min_value=1, max_value=60),
    )
    def test_property_children_nest_in_region(self, width, count):
        chain = Chain()
        region = Scope(100, width)
        for _ in range(count):
            scope = chain.allocate(region.n + 1, width - 1)
            if scope is None:
                break
            assert region.covers(scope)

    @given(
        size=st.integers(min_value=1 << 40, max_value=1 << 128),
        fanout=st.integers(min_value=2, max_value=300),
    )
    def test_share_is_width_over_k_plus_1_k_plus_2(self, size, fanout):
        """Child ``k`` of a chain over ``W`` usable ids gets a share of
        ``W / ((k+1)(k+2))`` within rounding (two floor divisions, each
        off by less than one id), so ``F`` children spend about
        ``2·log₂(F+1)`` bits of their parent's scope; the stored width
        loses less than 1/128 of the share."""
        alloc = LambdaAllocator()
        state = NodeState(scope=Scope(0, size), parent_n=0)
        width = alloc.usable_size(state.scope)
        for k in range(fanout):
            scope = alloc.place(state, None, Item(f"c{k}", ()))
            share = 1 + (k + 1) * width // (k + 2) - scope.n
            if k == 0:
                assert share == width // 2
            else:
                assert abs(share * (k + 1) * (k + 2) - width) < (k + 1) * (k + 2)
            assert scope.size + 1 == floor_width(share)
            assert 128 * (share - scope.size - 1) < share
        assert width < (share + 1) * fanout * (fanout + 1)  # the last, smallest child


class TestNodeState:
    def test_roundtrip(self):
        state = NodeState(scope=Scope(7, (1 << 128) - 1), parent_n=3)
        state.chain.allocate(8, 1000)
        state.reserve_used = 17
        restored = NodeState.from_bytes(7, state.to_bytes())
        assert restored == state
        private = NodeState(scope=Scope(7, 1 << 128), parent_n=3, private=True)
        assert NodeState.from_bytes(7, private.to_bytes()) == private

    def test_rejects_garbage(self):
        with pytest.raises(Exception):
            NodeState.from_bytes(7, b"")
        with pytest.raises(Exception):
            NodeState.from_bytes(7, NodeState(Scope(1, 2), 0).to_bytes() + b"zz")


class TestLambdaAllocator:
    def test_places_disjoint_children(self):
        alloc = LambdaAllocator()
        state = NodeState(scope=Scope(0, DEFAULT_MAX - 1), parent_n=0)
        a = alloc.place(state, None, Item("P", ()))
        b = alloc.place(state, None, Item("Q", ()))
        assert a is not None and b is not None
        assert a.end < b.n
        assert state.scope.covers(a) and state.scope.covers(b)

    def test_lambda_validation(self):
        with pytest.raises(LabelingError):
            LambdaAllocator(reserve_divisor=1)

    def test_underflow_in_tiny_scope(self):
        alloc = LambdaAllocator()
        state = NodeState(scope=Scope(0, 1), parent_n=0)
        assert alloc.place(state, None, Item("a", ())) is None

    def test_reserve_borrowing(self):
        alloc = LambdaAllocator(reserve_divisor=4)
        state = NodeState(scope=Scope(0, 1600), parent_n=0)
        reserve = alloc.reserve_size(state.scope)
        assert reserve == 400
        start = alloc.borrow_block(state, 10)
        assert start == state.scope.end - reserve + 1
        again = alloc.borrow_block(state, 10)
        assert again == start + 10
        assert alloc.borrow_block(state, reserve) is None  # exhausted

    def test_borrow_never_collides_with_usable(self):
        alloc = LambdaAllocator(reserve_divisor=4)
        state = NodeState(scope=Scope(0, 1600), parent_n=0)
        child = alloc.place(state, None, Item("a", ()))
        start = alloc.borrow_block(state, 5)
        assert child.end < start


class TestChainCursorInvariant:
    """The count is all a chain needs: after every ``place``, the cursor
    derived from ``k`` — ``lo + k·W//(k+1)``, the first id past the
    children — is inside the scope, every child starts there, and the
    state round-trips through the codec."""

    PARENT = Item("S", ("P",))
    CHILDREN = [Item(label, ("P", "S")) for label in ("N", "ZZZ", "I", "YYY")]

    @pytest.mark.parametrize("scope", [Scope(0, DEFAULT_MAX - 1), Scope(700, 90), Scope(5, 3)])
    def test_next_is_inside_the_scope_after_every_place(self, scope):
        alloc = LambdaAllocator()
        state = NodeState(scope=scope, parent_n=0)
        lo, width = scope.n + 1, alloc.usable_size(scope)
        for child in self.CHILDREN * 3:
            cursor = lo + state.chain.k * width // (state.chain.k + 1)
            placed = alloc.place(state, self.PARENT, child)
            if placed is not None:
                assert placed.n == cursor
                assert state.scope.covers(placed)
            k = state.chain.k
            derived_next = lo + k * width // (k + 1)
            if k > 0:
                assert state.scope.n < derived_next <= state.scope.end + 1
            assert NodeState.from_bytes(scope.n, state.to_bytes()) == state

"""Ablation A-λ — clue-based vs λ-based dynamic scope allocation.

Section 3.4.1 offers two allocation schemes: follow-set clues (Eq. 1–4)
when a schema is available, and the uniform λ rule (Eq. 5–6) otherwise.
The paper never compares them; this ablation does, sweeping the label
budget (the root scope ``Max``) on two corpora and counting
scope-underflow (borrow) events.

``lambda(2)`` is the index's own allocator
(:class:`~repro.labeling.dynamic.LambdaAllocator`: child ``k`` takes
``[lo + k·W//(k+1), lo + (k+1)·W//(k+2))``).  The other three columns are
comparators that live only here, behind ``VistIndex``'s ``allocator=``
seam: a constant λ = 8 (floored at ``k + 1``), the paper's equal-rate
``uniform(16)``, and clue allocation over the generator's schema.  They
keep their cursors in a dict on the allocator, keyed by the parent's
label — enough because the bench never reopens an index — and, like the
index's own allocator, give each child the largest width its entry can
store inside its share (:func:`~repro.labeling.dynamic.floor_width`).

Finding (recorded in EXPERIMENTS.md): λ=2 — the default allocator —
never borrows on either corpus at any budget from 2^64 up.  A larger
constant λ spends ``log2(λ)`` bits on every only child, so λ=8 still
borrows on deep XMark items at 2^64 and 2^96; clue-based allocation
spends ``log2(cardinality)`` bits per value level and its slot fractions
per element level, and loses to λ=2 everywhere.  Everything still works
either way — underflow borrowing (Section 3.4.1) absorbs the difference
at a locality cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.bench.harness import Report
from repro.datasets.dblp import DblpConfig, DblpGenerator
from repro.datasets.xmark import XmarkConfig, XmarkGenerator
from repro.datasets.schema import ChildSpec, ElementDecl, Schema
from repro.index.vist import VistIndex
from repro.labeling.dynamic import (
    LambdaAllocator,
    NodeState,
    ScopeAllocator,
    floor_width,
)
from repro.labeling.scope import Scope
from repro.sequence.encoding import Item

N_DOCS = 400
BUDGET_BITS = [64, 96, 128]

REPORT = Report(
    experiment="ablation_labeling",
    title=f"scope underflow events by allocator and label budget (N={N_DOCS})",
    headers=["corpus", "max_label", "lambda(2)", "lambda(8)", "uniform(16)", "clues", "winner"],
    paper_note="(ablation) Eq.1-4 clues vs Eq.5-6 lambda; lower = better locality",
)


# ---------------------------------------------------------------------------
# comparators: allocators the index does not ship


@dataclass
class _Cursor:
    """A λ-chain that carries its cursor: ``next`` is the next free id."""

    k: int = 0
    next: int = 0

    def allocate(self, region_lo: int, region_width: int, lam: int) -> Optional[Scope]:
        """Eq. 5–6: ``1/λ`` of what the region has left, λ floored at
        ``k + 1``; ``None`` on underflow."""
        lam = max(lam, 2, self.k + 1)
        start = self.next if self.k else region_lo
        share = (region_lo + region_width - start) // lam
        if share < 1:
            return None
        self.next = start + share
        self.k += 1
        return Scope(start, floor_width(share) - 1)


class ConstantLambdaAllocator(ScopeAllocator):
    """Eq. 5–6 with a constant λ: child ``k`` gets ``1/max(λ, k+1)`` of
    what the parent has left."""

    def __init__(self, lam: int) -> None:
        super().__init__()
        self.lam = lam
        self._cursors: dict[int, _Cursor] = {}

    def place(
        self, parent_state: NodeState, parent_item: Optional[Item], child: Item
    ) -> Optional[Scope]:
        scope = parent_state.scope
        cursor = self._cursors.setdefault(scope.n, _Cursor())
        return cursor.allocate(scope.n + 1, self.usable_size(scope), self.lam)


class UniformAllocator(ScopeAllocator):
    """Equal-share allocation for a known child-count estimate.

    Section 3.4.1, "Dynamic Scope Allocation without Clues": when "all
    that we can rely on is a rough estimation of the number of different
    elements that follow a given element ... the best we can do is to
    assume each of these elements occurs at roughly the same rate".  The
    ``k``-th inserted child receives exactly ``usable / m``; the
    ``m+1``-th child underflows (and borrows).
    """

    def __init__(self, expected_children: int) -> None:
        super().__init__()
        self.expected_children = expected_children
        self._counts: dict[int, int] = {}

    def place(
        self, parent_state: NodeState, parent_item: Optional[Item], child: Item
    ) -> Optional[Scope]:
        scope = parent_state.scope
        share = self.usable_size(scope) // self.expected_children
        k = self._counts.get(scope.n, 0)
        if share < 1 or k >= self.expected_children:
            return None
        self._counts[scope.n] = k + 1
        return Scope(scope.n + 1 + k * share, floor_width(share) - 1)


VALUE = "\x00value"  # follow-set label of "a hashed value leaf"
_WEIGHT_SCALE = 1_000_000


@dataclass(frozen=True)
class FollowCandidate:
    """One entry of a follow set: the item shape and its Eq. 2 probability."""

    label: str  # element/attribute name, or the VALUE sentinel
    prefix: tuple[str, ...]
    probability: float

    @property
    def is_value(self) -> bool:
        return self.label == VALUE

    def matches(self, item: Item) -> bool:
        if item.prefix != self.prefix:
            return False
        if self.is_value:
            return item.is_value
        return item.symbol == self.label


class FollowSets:
    """The paper's follow sets (Definition 2) with Eq. 2 probabilities.

    The follow set of ``x = (sym, prefix)``, in preorder order: the value
    leaf of ``sym``; its declared children, in name order as the encoder
    sorts siblings (:func:`_in_sibling_order`); a repeat of ``sym`` when it is
    ``*``/``+`` under its parent (geometric continuation); the following
    siblings of ``sym``, then of each ancestor in turn (Eq. 1:
    ``p(y|x) = p(y|d)``); implicitly ε.  A value item starts at the
    children of the element that owns it.
    """

    def __init__(self, schema: Schema, *, value_prob: float = 0.9) -> None:
        self.schema = schema
        self.value_prob = value_prob
        self._cache: dict[tuple, list[FollowCandidate]] = {}

    def root_candidates(self) -> list[FollowCandidate]:
        return [FollowCandidate(self.schema.root, (), 1.0)]

    def candidates(self, item: Item) -> list[FollowCandidate]:
        key = (item.symbol if not item.is_value else VALUE, item.prefix)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = self._compute(item)
        return cached

    def _compute(self, item: Item) -> list[FollowCandidate]:
        raw: list[tuple[str, tuple[str, ...], float]] = []
        if item.is_value:
            chain = item.prefix
            if chain:
                self._append_children(raw, chain[-1], chain, include_value=False)
        else:
            label = str(item.symbol)
            chain = item.prefix + (label,)
            self._append_children(raw, label, chain, include_value=True)
        for depth in range(len(chain) - 1, 0, -1):
            current = chain[depth]
            decl = self.schema.get(chain[depth - 1])
            if decl is None:
                continue
            prefix = chain[:depth]
            spec = decl.child(current)
            if spec is not None and spec.repeatable:
                raw.append((current, prefix, spec.repeat_continue_prob()))
            for later in _in_sibling_order(decl):
                if later.name > current:
                    raw.append((later.name, prefix, later.prob))
        # Eq. 2: Px(y_i) = p_i * prod_{j<i} (1 - p_j)
        out: list[FollowCandidate] = []
        still_here = 1.0
        for label, prefix, prob in raw:
            prob = min(max(prob, 0.0), 1.0)
            out.append(FollowCandidate(label, prefix, prob * still_here))
            still_here *= 1.0 - prob
        return out

    def _append_children(
        self,
        raw: list[tuple[str, tuple[str, ...], float]],
        label: str,
        chain: tuple[str, ...],
        include_value: bool,
    ) -> None:
        decl = self.schema.get(label)
        if include_value and (decl is None or decl.has_text or not decl.children):
            raw.append((VALUE, chain, self.value_prob))
        if decl is not None:
            for spec in _in_sibling_order(decl):
                raw.append((spec.name, chain, spec.prob))


def _in_sibling_order(decl: ElementDecl) -> list[ChildSpec]:
    """A declaration's children in the order the index stores siblings:
    by name (paper Section 2's order without a DTD), not as declared —
    otherwise the clues would describe sequences the index never holds."""
    return sorted(decl.children, key=lambda spec: spec.name)


class ClueAllocator(ScopeAllocator):
    """Clue-based allocation (Eq. 1–4) with a λ fallback region.

    The usable range splits into a *clue region* (7/8 of it) carved into
    follow-set slots proportional to Eq. 2 probabilities, and an
    *overflow region* for children the schema did not predict (a λ = 4
    chain).  An element candidate owns its whole slot; the value slot
    hosts every distinct hashed value through a λ-chain with ``λ = value
    cardinality``.  Slot boundaries use integer weights
    (``round(p * 1e6)``); floats never touch label arithmetic.
    """

    def __init__(self, follow_sets: FollowSets) -> None:
        super().__init__()
        self.follow_sets = follow_sets
        self._cursors: dict[tuple[int, str], _Cursor] = {}

    def place(
        self, parent_state: NodeState, parent_item: Optional[Item], child: Item
    ) -> Optional[Scope]:
        scope = parent_state.scope
        usable = self.usable_size(scope)
        clue_width = usable * 896 // 1024
        if parent_item is None:
            candidates = self.follow_sets.root_candidates()
        else:
            candidates = self.follow_sets.candidates(parent_item)
        slot = self._find_slot(candidates, child, scope.n + 1, clue_width)
        if slot is None:
            overflow = self._cursors.setdefault((scope.n, "extra"), _Cursor())
            return overflow.allocate(scope.n + 1 + clue_width, usable - clue_width, 4)
        slot_lo, slot_width, is_value = slot
        if not is_value:
            return Scope(slot_lo, floor_width(slot_width) - 1) if slot_width >= 1 else None
        owner = child.prefix[-1] if child.prefix else self.follow_sets.schema.root
        lam = max(2, self.follow_sets.schema.value_cardinality(owner))
        values = self._cursors.setdefault((scope.n, "value"), _Cursor())
        return values.allocate(slot_lo, slot_width, lam)

    @staticmethod
    def _find_slot(
        candidates: list[FollowCandidate], child: Item, lo: int, width: int
    ) -> Optional[tuple[int, int, bool]]:
        """Deterministic Eq. 3–4 slot for ``child``: ``(lo, width, is_value)``."""
        weights = [max(1, round(c.probability * _WEIGHT_SCALE)) for c in candidates]
        total = sum(weights)
        if total <= 0:
            return None
        acc = 0
        for candidate, weight in zip(candidates, weights):
            if candidate.matches(child):
                slot_lo = lo + width * acc // total
                slot_hi = lo + width * (acc + weight) // total
                return slot_lo, slot_hi - slot_lo, candidate.is_value
            acc += weight
        return None


# ---------------------------------------------------------------------------


def _corpus(name):
    """The records and the generator's schema, which only the clue
    comparator reads."""
    if name == "xmark_items":
        gen = XmarkGenerator(XmarkConfig(seed=8))
        return list(gen.records(N_DOCS, kind="item")), gen.schema
    gen = DblpGenerator(DblpConfig(seed=8))
    return list(gen.records(N_DOCS)), gen.schema


def _allocators(schema):
    return {
        "lambda(2)": LambdaAllocator(),
        "lambda(8)": ConstantLambdaAllocator(8),
        "uniform(16)": UniformAllocator(16),
        "clues": ClueAllocator(FollowSets(schema)),
    }


@pytest.mark.parametrize("corpus_name", ["dblp", "xmark_items"])
@pytest.mark.parametrize("bits", BUDGET_BITS)
def test_ablation_labeling(benchmark, corpus_name, bits):
    docs, schema = _corpus(corpus_name)

    def run():
        counts = {}
        for name, allocator in _allocators(schema).items():
            index = VistIndex(allocator=allocator, max_label=1 << bits)
            for doc in docs:
                index.add(doc)
            counts[name] = index.underflow_count
        return counts

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    winner = min(counts, key=counts.get)
    REPORT.add(
        corpus_name,
        f"2^{bits}",
        counts["lambda(2)"],
        counts["lambda(8)"],
        counts["uniform(16)"],
        counts["clues"],
        winner,
    )

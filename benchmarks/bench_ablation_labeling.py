"""Ablation A-λ — clue-based vs λ-based dynamic scope allocation.

Section 3.4.1 offers two allocation schemes: follow-set clues (Eq. 1–4)
when a schema is available, and the uniform λ rule (Eq. 5–6) otherwise.
The paper never compares them; this ablation does, sweeping the label
budget (the root scope ``Max``) on two corpora and counting
scope-underflow (borrow) events.

Finding (recorded in EXPERIMENTS.md): with λ floored at ``k + 1``
(``Chain.allocate``), λ=2 — the default allocator — never borrows on
either corpus at any budget from 2^64 up.  A larger constant λ spends
``log2(λ)`` bits on every only child, so λ=8 still borrows on deep XMark
items at 2^64 and 2^96; clue-based allocation spends ``log2(cardinality)``
bits per value level and its slot fractions per element level, and
loses to λ=2 everywhere.  Everything still works either way — underflow
borrowing (Section 3.4.1) absorbs the difference at a locality cost.
"""

import pytest

from repro.bench.harness import Report
from repro.datasets.dblp import DblpConfig, DblpGenerator
from repro.datasets.xmark import XmarkConfig, XmarkGenerator
from repro.index.vist import VistIndex
from repro.labeling.clues import FollowSets
from repro.labeling.dynamic import ClueAllocator, LambdaAllocator, UniformAllocator
from repro.sequence.transform import SequenceEncoder

N_DOCS = 400
BUDGET_BITS = [64, 96, 128]

REPORT = Report(
    experiment="ablation_labeling",
    title=f"scope underflow events by allocator and label budget (N={N_DOCS})",
    headers=["corpus", "max_label", "lambda(2)", "lambda(8)", "uniform(16)", "clues", "winner"],
    paper_note="(ablation) Eq.1-4 clues vs Eq.5-6 lambda; lower = better locality",
)


def _corpus(name):
    if name == "xmark_items":
        gen = XmarkGenerator(XmarkConfig(seed=8))
        return list(gen.records(N_DOCS, kind="item")), gen.schema
    gen = DblpGenerator(DblpConfig(seed=8))
    return list(gen.records(N_DOCS)), gen.schema


def _allocators(schema):
    return {
        "lambda(2)": LambdaAllocator(lam=2),
        "lambda(8)": LambdaAllocator(lam=8),
        "uniform(16)": UniformAllocator(expected_children=16),
        "clues": ClueAllocator(FollowSets(schema)),
    }


@pytest.mark.parametrize("corpus_name", ["dblp", "xmark_items"])
@pytest.mark.parametrize("bits", BUDGET_BITS)
def test_ablation_labeling(benchmark, corpus_name, bits):
    docs, schema = _corpus(corpus_name)
    encoder = SequenceEncoder(schema=schema)

    def run():
        counts = {}
        for name, allocator in _allocators(schema).items():
            index = VistIndex(
                encoder,
                allocator=allocator,
                max_label=1 << bits,
                track_refs=False,
            )
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

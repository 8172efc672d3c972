"""Tests for the query plan introspection API (explain)."""

import pytest

from repro.baselines.pathindex import PathIndex
from repro.index.vist import VistIndex
from repro.sequence.transform import SequenceEncoder


@pytest.fixture
def index():
    return VistIndex(SequenceEncoder())


class TestExplain:
    def test_simple_path(self, index):
        plan = index.explain("/a/b")
        assert plan.index_type == "VistIndex"
        assert plan.xpath == "/a/b"
        assert len(plan.alternatives) == 1
        assert "(a,)" in plan.alternatives[0]
        assert not plan.auto_verified
        assert not plan.relaxed_candidates
        assert plan.raw_exact
        assert "exact from the index (no verification)" in str(plan)

    def test_same_label_branches_flagged(self, index):
        plan = index.explain("/A[B/C]/B/D")
        # what exact mode matches: the relaxed tree, not the Q5 permutations
        assert plan.alternatives == ["(A,) (B,A) (C,AB)"]
        assert plan.relaxed_candidates
        assert not plan.raw_exact

    def test_childless_wildcard_auto_verified(self, index):
        plan = index.explain("/a/*")
        assert plan.auto_verified

    def test_range_predicate_flags(self, index):
        plan = index.explain("/book[year>'1999']")
        assert plan.needs_raw_values
        assert plan.auto_verified

    def test_translation_fallback_reported(self, index):
        plan = index.explain("/A[B/C][B/D][B/E]/B/F")  # 4! = 24, at the cap
        assert plan.translation_error is None
        plan = index.explain("/A[B/C][B/D][B/E][B/F]/B/G")  # 5! = 120 > 24
        assert plan.translation_error is not None
        assert plan.auto_verified
        assert not plan.raw_exact

    def test_baseline_plans_have_no_alternatives(self):
        path = PathIndex(SequenceEncoder())
        plan = path.explain("/a[b]/c")
        assert plan.alternatives == []
        assert any("join-based" in note for note in plan.notes)

    def test_all_wildcard_note(self, index):
        plan = index.explain("/*")
        assert any("all-wildcard" in note for note in plan.notes)

    def test_str_rendering(self, index):
        text = str(index.explain("/A[B/C]/B/D"))
        assert "query plan (VistIndex)" in text
        assert "sequence alternatives: 1" in text
        assert "relaxed candidates" in text
        assert "no verification" not in text

    def test_explain_does_not_touch_data(self, index):
        # no documents indexed; explain must still work
        plan = index.explain("//x[y='1']")
        assert plan.alternatives
